package mdm

import (
	"context"
	"strings"
	"testing"
)

// TestStmtCacheInvalidatedByDDL is the manager-level regression test for
// the dropped-index hazard: a statement prepared (and plan-cached) while
// an index existed must re-plan — not replay a stale strategy — after
// `drop index` DDL runs through a session.
func TestStmtCacheInvalidatedByDDL(t *testing.T) {
	m, s := stmtTestMDM(t)
	ctx := context.Background()
	if _, err := s.ExecContext(ctx, `define index on WORK (opus)`); err != nil {
		t.Fatal(err)
	}
	src := `retrieve (w.title) where w.opus >= $1 and w.opus <= $2`
	st, err := s.PrepareContext(ctx, src)
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
	// The cached plan range-scans the index.
	er, err := s.ExecContext(ctx, `explain retrieve (w.title) where w.opus >= 1 and w.opus <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Text(), "ix_work_opus") {
		t.Fatalf("plan before drop does not use the index:\n%s", er.Text())
	}

	// Re-preparing the same source is a cache hit while the schema holds.
	hits := m.Obs().Counter("mdm.stmt.cache.hits")
	h0 := hits.Value()
	st2, err := s.PrepareContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if hits.Value() != h0+1 {
		t.Fatal("re-prepare missed the statement cache")
	}

	// Drop the index through the session's DDL dispatch.
	out, err := s.ExecContext(ctx, `drop index on WORK (opus)`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.DDL || !strings.Contains(out.Output, "dropped index ix_work_opus") {
		t.Fatalf("drop output: %+v", out)
	}

	// The statement cache flushed: the same source is a miss now.
	misses := m.Obs().Counter("mdm.stmt.cache.misses")
	m0 := misses.Value()
	st3, err := s.PrepareContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	st3.Close()
	if misses.Value() != m0+1 {
		t.Fatal("statement cache survived the schema change")
	}

	// The old handle still answers, re-planned without the index, and
	// the plan never names the dropped index again.
	got, err := st.QueryContext(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows after drop: %v, want %v", got.Rows, want.Rows)
	}
	er, err = s.ExecContext(ctx, `explain retrieve (w.title) where w.opus >= 1 and w.opus <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(er.Text(), "ix_work_opus") {
		t.Fatalf("plan still names the dropped index:\n%s", er.Text())
	}
}

// TestPlanCacheSharedAcrossSessions asserts the manager wires one plan
// cache into every session: a shape planned by one session replays as a
// cache hit in another.
func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	m, s1 := stmtTestMDM(t)
	ctx := context.Background()
	if _, err := s1.QueryContext(ctx, `retrieve (w.title) where w.opus = 1`); err != nil {
		t.Fatal(err)
	}
	s2 := m.NewSession()
	if _, err := s2.ExecContext(ctx, `range of w is WORK`); err != nil {
		t.Fatal(err)
	}
	er, err := s2.ExecContext(ctx, `explain retrieve (w.title) where w.opus = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Text(), "PlanCache: hit") {
		t.Fatalf("second session missed the shared plan cache:\n%s", er.Text())
	}
}
