package mdm

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestDropIndexReplans is the manager-level test for the dropped-index
// hazard: a statement prepared while an index existed plans again after
// `drop index` DDL runs through a session, never names the index, and
// answers as before.
func TestDropIndexReplans(t *testing.T) {
	_, s := stmtTestMDM(t)
	ctx := context.Background()
	if _, err := s.ExecContext(ctx, `define index on WORK (opus)`); err != nil {
		t.Fatal(err)
	}
	st, err := s.PrepareContext(ctx, `retrieve (w.title) where w.opus >= $1 and w.opus <= $2`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want, err := st.QueryContext(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 2 {
		t.Fatalf("rows before drop: %v", want.Rows)
	}
	const explain = `explain retrieve (w.title) where w.opus >= 1 and w.opus <= 2`
	er, err := s.ExecContext(ctx, explain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Text(), "ix_work_opus") {
		t.Fatalf("plan before drop does not use the index:\n%s", er.Text())
	}

	out, err := s.ExecContext(ctx, `drop index on WORK (opus)`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.DDL || !strings.Contains(out.Output, "dropped index ix_work_opus") {
		t.Fatalf("drop output: %+v", out)
	}

	// The old handle still answers, planned without the index.
	got, err := st.QueryContext(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("rows after drop: %v, want %v", got.Rows, want.Rows)
	}
	er, err = s.ExecContext(ctx, explain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(er.Text(), "ix_work_opus") {
		t.Fatalf("plan still names the dropped index:\n%s", er.Text())
	}
}

// TestPlansFollowLiterals: one statement, executed twice through one
// session with different literals, ranges whichever index its own
// literals make the smaller, and returns the rows a heap scan finds.
func TestPlansFollowLiterals(t *testing.T) {
	_, s := stmtTestMDM(t)
	ctx := context.Background()
	for _, src := range []string{
		`define entity E (a = integer, b = integer)`,
		`define index on E (a)`,
		`define index on E (b)`,
		`range of e is E`,
	} {
		if _, err := s.ExecContext(ctx, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	// 200 rows: each a value holds 20 of them, each b value one.
	for i := range 200 {
		if _, err := s.ExecContext(ctx, fmt.Sprintf(`append to E (a = %d, b = %d)`, i%10, i)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.QueryContext(ctx, `retrieve (e.a, e.b)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a, lo, hi int
		index     string
	}{
		{3, 50, 55, "ix_e_b"}, // b's range holds 5 rows, a's 20
		{3, 0, 150, "ix_e_a"}, // b's range holds 150 rows, a's 20
		{1, 40, 43, "ix_e_b"}, // and back
	} {
		q := fmt.Sprintf(`retrieve (e.a, e.b) where e.a = %d and e.b >= %d and e.b < %d`, tc.a, tc.lo, tc.hi)
		er, err := s.ExecContext(ctx, "explain "+q)
		if err != nil {
			t.Fatal(err)
		}
		plan := er.Text()
		if !strings.Contains(plan, "IndexScan e on E using "+tc.index) {
			t.Fatalf("a = %d, b in [%d, %d): want a range of %s:\n%s", tc.a, tc.lo, tc.hi, tc.index, plan)
		}
		res, err := s.QueryContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, r := range res.Rows {
			got = append(got, fmt.Sprint(r))
		}
		for _, r := range all.Rows {
			if a, b := int(r[0].AsInt()), int(r[1].AsInt()); a == tc.a && b >= tc.lo && b < tc.hi {
				want = append(want, fmt.Sprint(r))
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("a = %d, b in [%d, %d): rows %v, heap scan %v", tc.a, tc.lo, tc.hi, got, want)
		}
	}
}
