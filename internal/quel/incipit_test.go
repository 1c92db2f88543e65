package quel_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/biblio"
	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/value"
)

// setupBiblio opens the bibliographic layer (which registers the incipit
// gram index with the model) and loads three entries with hand-picked
// incipits:
//
//	#1  60 62 64 65     intervals [2 2 1]      gram "2,2,1"
//	#2  60 64 67 72     intervals [4 3 5]      gram "4,3,5"
//	#3  60 62 64 65 67  intervals [2 2 1 2]    grams "2,2,1" "2,1,2"
func setupBiblio(t testing.TB) (*model.Database, *quel.Session) {
	t.Helper()
	store, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := model.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := biblio.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ix.NewCatalog("Testverzeichnis", "TV", "thematic")
	if err != nil {
		t.Fatal(err)
	}
	notes := func(pitches ...int) []biblio.IncipitNote {
		out := make([]biblio.IncipitNote, len(pitches))
		for i, p := range pitches {
			out[i] = biblio.IncipitNote{MIDIPitch: p, DurNum: 1, DurDen: 4}
		}
		return out
	}
	for n, inc := range map[int][]biblio.IncipitNote{
		1: notes(60, 62, 64, 65),
		2: notes(60, 64, 67, 72),
		3: notes(60, 62, 64, 65, 67),
	} {
		if _, err := ix.AddEntry(cat, biblio.Entry{Number: n, Title: "t", Incipit: inc}); err != nil {
			t.Fatal(err)
		}
	}
	return db, quel.NewSession(db)
}

func entryNumbers(t *testing.T, res *quel.Result) []int {
	t.Helper()
	var out []int
	for _, row := range res.Rows {
		out = append(out, int(row[0].AsInt()))
	}
	sort.Ints(out)
	return out
}

func TestIncipitQueryIndexed(t *testing.T) {
	_, s := setupBiblio(t)
	quel.MustExec(t, s, `range of e is CATALOG_ENTRY`)
	const q = `retrieve (e.number) where e incipit "60 62 64 65"`
	got := entryNumbers(t, quel.MustExec(t, s, q))
	if want := []int{1, 3}; strings.Join(strings.Fields(sprintInts(got)), " ") != sprintInts(want) {
		t.Fatalf("planned = %v, want %v", got, want)
	}
	// Differential: the naive executor (full scan + residual predicate)
	// must agree with the gram-probe plan.
	quel.SetNaive(s)
	naive := entryNumbers(t, quel.MustExec(t, s, q))
	if sprintInts(naive) != sprintInts(got) {
		t.Fatalf("naive = %v, planned = %v", naive, got)
	}
}

func sprintInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = value.Int(int64(x)).String()
	}
	return strings.Join(parts, " ")
}

func TestExplainIncipitScan(t *testing.T) {
	_, s := setupBiblio(t)
	quel.MustExec(t, s, `range of e is CATALOG_ENTRY`)
	got := quel.PlanLines(t, s, `explain retrieve (e.number) where e incipit "60 62 64 65"`)
	want := []string{
		`Retrieve (rows=2) (time=X)`,
		`  Filter: (e incipit 60 62 64 65) (in=2, out=2)`,
		`    IncipitOps: 2 evals (time=X)`,
		`    IncipitScan e on CATALOG_ENTRY using ix_incipit_gram_gram [gram = "2,2,1"] (est=2, scanned=2, kept=2) (time=X)`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestIncipitShortPatternFallsBack: a pattern with fewer than GramN
// intervals cannot be probed, so the planner degrades to a heap scan and
// the predicate alone decides membership.
func TestIncipitShortPatternFallsBack(t *testing.T) {
	_, s := setupBiblio(t)
	quel.MustExec(t, s, `range of e is CATALOG_ENTRY`)
	got := quel.PlanLines(t, s, `explain retrieve (e.number) where e incipit "60 62"`)
	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "IncipitScan") {
		t.Fatalf("short pattern should not gram-probe:\n%s", joined)
	}
	if !strings.Contains(joined, "Scan e on CATALOG_ENTRY") {
		t.Fatalf("expected heap scan:\n%s", joined)
	}
	res := quel.MustExec(t, s, `retrieve (e.number) where e incipit "60 62"`)
	if got, want := entryNumbers(t, res), []int{1, 3}; sprintInts(got) != sprintInts(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestIncipitPlanCacheReplay: the same incipit statement with two
// patterns derives each probe gram from its own literal and returns each
// pattern's rows.
func TestIncipitPlanCacheReplay(t *testing.T) {
	_, s := setupBiblio(t)
	quel.MustExec(t, s, `range of e is CATALOG_ENTRY`)
	for _, tc := range []struct {
		pat, gram string
		want      []int
	}{
		{"60 62 64 65", `[gram = "2,2,1"]`, []int{1, 3}},
		{"60 64 67 72", `[gram = "4,3,5"]`, []int{2}},
	} {
		plan := strings.Join(quel.PlanLines(t, s, fmt.Sprintf(`explain retrieve (e.number) where e incipit %q`, tc.pat)), "\n")
		if !strings.Contains(plan, "IncipitScan e on CATALOG_ENTRY using ix_incipit_gram_gram "+tc.gram) {
			t.Fatalf("pattern %q: plan did not derive its gram:\n%s", tc.pat, plan)
		}
		res := quel.MustExec(t, s, fmt.Sprintf(`retrieve (e.number) where e incipit %q`, tc.pat))
		if got := entryNumbers(t, res); sprintInts(got) != sprintInts(tc.want) {
			t.Fatalf("pattern %q: rows = %v, want %v", tc.pat, got, tc.want)
		}
	}
}

func TestIncipitPrepared(t *testing.T) {
	_, s := setupBiblio(t)
	quel.MustExec(t, s, `range of e is CATALOG_ENTRY`)
	p, err := quel.Prepare(`explain retrieve (e.number) where e incipit $1`)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := p.Bind(value.Str("60 62 64 65"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecStmt(context.Background(), stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for _, row := range res.Rows {
		joined.WriteString(row[0].String())
		joined.WriteByte('\n')
	}
	if !strings.Contains(joined.String(), "IncipitScan") {
		t.Fatalf("prepared incipit did not plan a gram probe:\n%s", joined.String())
	}
}

func TestIncipitErrors(t *testing.T) {
	db, s := quel.NewTestSession(t)
	quel.SetupChords(t, db)
	// No incipit index registered for NOTE.
	if _, err := s.Exec(`retrieve (NOTE.name) where NOTE incipit "60 62 64"`); err == nil ||
		!strings.Contains(err.Error(), "no incipit index") {
		t.Fatalf("err = %v", err)
	}
	// Pattern must be a string.
	_, s2 := setupBiblio(t)
	quel.MustExec(t, s2, `range of e is CATALOG_ENTRY`)
	if _, err := s2.Exec(`retrieve (e.number) where e incipit 5`); err == nil ||
		!strings.Contains(err.Error(), "pattern must be a string") {
		t.Fatalf("err = %v", err)
	}
}
