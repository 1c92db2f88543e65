package quel

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/biblio"
	"repro/internal/model"
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
func setupBiblio(t testing.TB) (*model.Database, *Session) {
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
	return db, NewSession(db)
}

func entryNumbers(t *testing.T, res *Result) []int {
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
	mustExec(t, s, `range of e is CATALOG_ENTRY`)
	const q = `retrieve (e.number) where e incipit "60 62 64 65"`
	got := entryNumbers(t, mustExec(t, s, q))
	if want := []int{1, 3}; strings.Join(strings.Fields(sprintInts(got)), " ") != sprintInts(want) {
		t.Fatalf("planned = %v, want %v", got, want)
	}
	// Differential: the naive executor (full scan + residual predicate)
	// must agree with the gram-probe plan.
	s.naive = true
	naive := entryNumbers(t, mustExec(t, s, q))
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
	mustExec(t, s, `range of e is CATALOG_ENTRY`)
	got := planLines(t, s, `explain retrieve (e.number) where e incipit "60 62 64 65"`)
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
	mustExec(t, s, `range of e is CATALOG_ENTRY`)
	got := planLines(t, s, `explain retrieve (e.number) where e incipit "60 62"`)
	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "IncipitScan") {
		t.Fatalf("short pattern should not gram-probe:\n%s", joined)
	}
	if !strings.Contains(joined, "Scan e on CATALOG_ENTRY") {
		t.Fatalf("expected heap scan:\n%s", joined)
	}
	res := mustExec(t, s, `retrieve (e.number) where e incipit "60 62"`)
	if got, want := entryNumbers(t, res), []int{1, 3}; sprintInts(got) != sprintInts(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestIncipitPlanCacheReplay: a cached incipit strategy must re-derive
// the probe gram from the live literal, not replay stale bounds.
func TestIncipitPlanCacheReplay(t *testing.T) {
	_, s := setupBiblio(t)
	s.SetPlanCache(NewPlanCache(nil))
	mustExec(t, s, `range of e is CATALOG_ENTRY`)
	first := planLines(t, s, `explain retrieve (e.number) where e incipit "60 62 64 65"`)
	if strings.Contains(strings.Join(first, "\n"), "PlanCache: hit") {
		t.Fatalf("first execution hit the cache:\n%s", strings.Join(first, "\n"))
	}
	second := planLines(t, s, `explain retrieve (e.number) where e incipit "60 64 67 72"`)
	joined := strings.Join(second, "\n")
	if !strings.Contains(joined, "PlanCache: hit") {
		t.Fatalf("second execution missed the cache:\n%s", joined)
	}
	if !strings.Contains(joined, `IncipitScan e on CATALOG_ENTRY using ix_incipit_gram_gram [gram = "4,3,5"]`) {
		t.Fatalf("replayed plan did not re-derive the gram:\n%s", joined)
	}
	if !strings.Contains(second[0], "rows=1") {
		t.Fatalf("expected one row for entry #2:\n%s", joined)
	}
}

func TestIncipitPrepared(t *testing.T) {
	_, s := setupBiblio(t)
	mustExec(t, s, `range of e is CATALOG_ENTRY`)
	p, err := Prepare(`explain retrieve (e.number) where e incipit $1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecPreparedCtx(t.Context(), p, value.Str("60 62 64 65"))
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
	db, s := newSession(t)
	setupChords(t, db)
	// No incipit index registered for NOTE.
	if _, err := s.Exec(`retrieve (NOTE.name) where NOTE incipit "60 62 64"`); err == nil ||
		!strings.Contains(err.Error(), "no incipit index") {
		t.Fatalf("err = %v", err)
	}
	// Pattern must be a string.
	_, s2 := setupBiblio(t)
	mustExec(t, s2, `range of e is CATALOG_ENTRY`)
	if _, err := s2.Exec(`retrieve (e.number) where e incipit 5`); err == nil ||
		!strings.Contains(err.Error(), "pattern must be a string") {
		t.Fatalf("err = %v", err)
	}
}
