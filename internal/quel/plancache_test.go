package quel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

// TestPlanCacheHitOnShape asserts the second execution of a statement
// shape replays the cached strategy (explain renders "PlanCache: hit")
// and that literal values do not fragment the key.
func TestPlanCacheHitOnShape(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 3, 10)
	s.SetPlanCache(NewPlanCache(db.Store().Obs()))
	mustExec(t, s, "range of n is NOTE\nrange of s is SCORE")

	q := `explain retrieve (n.name) where n.pitch >= 40 and n.pitch < 60`
	first := planLines(t, s, q)
	if strings.Contains(strings.Join(first, "\n"), "PlanCache: hit") {
		t.Fatalf("first execution claims a cache hit:\n%s", strings.Join(first, "\n"))
	}
	// Different literals, same shape: still a hit.
	second := planLines(t, s, `explain retrieve (n.name) where n.pitch >= 36 and n.pitch < 80`)
	if !strings.Contains(strings.Join(second, "\n"), "PlanCache: hit") {
		t.Fatalf("second execution missed the cache:\n%s", strings.Join(second, "\n"))
	}
	if !strings.Contains(strings.Join(second, "\n"), "IndexScan") {
		t.Fatalf("cached replay lost the index scan:\n%s", strings.Join(second, "\n"))
	}
	if got := db.Store().Obs().Counter("quel.plan.cache.hits").Value(); got == 0 {
		t.Fatal("quel.plan.cache.hits never incremented")
	}

	// Cached join strategies replay too, with identical results.
	jq := `retrieve (n.name, s.name) where n under s in note_in_score and s.name >= 1`
	r1 := mustExec(t, s, jq)
	r2 := mustExec(t, s, jq)
	if canonRows(r1) != canonRows(r2) {
		t.Fatal("cached plan changed the result")
	}
}

// TestPlanCacheInvalidatedByDDL is the regression test for the
// dropped-index hazard: a cached plan that range-scans an index must not
// survive the index being dropped.  The schema epoch bump invalidates
// the entry wholesale; the re-planned statement degrades to a heap scan
// and still answers correctly.
func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 3, 10)
	s.SetPlanCache(NewPlanCache(db.Store().Obs()))
	mustExec(t, s, "range of n is NOTE")

	q := `retrieve (nm = n.name) where n.pitch >= 40 and n.pitch < 70`
	want := canonRows(mustExec(t, s, q))
	eq := `explain retrieve (nm = n.name) where n.pitch >= 40 and n.pitch < 70`
	ixName, ok := db.AttrIndexName("NOTE", "pitch")
	if !ok {
		t.Fatal("no index on NOTE(pitch)")
	}
	cachedPlanOut := strings.Join(planLines(t, s, eq), "\n")
	if !strings.Contains(cachedPlanOut, "PlanCache: hit") || !strings.Contains(cachedPlanOut, ixName) {
		t.Fatalf("expected a cached plan over %s:\n%s", ixName, cachedPlanOut)
	}
	if err := db.DropIndex("NOTE", ixName); err != nil {
		t.Fatal(err)
	}

	after := strings.Join(planLines(t, s, eq), "\n")
	if strings.Contains(after, "PlanCache: hit") {
		t.Fatalf("cache survived a schema change:\n%s", after)
	}
	// The re-planned statement may pick another index (here the sort
	// hint's name index); it must just never name the dropped one.
	if strings.Contains(after, ixName) {
		t.Fatalf("plan still names the dropped index %s:\n%s", ixName, after)
	}
	if got := canonRows(mustExec(t, s, q)); got != want {
		t.Fatalf("result changed after index drop:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanCachePreparedPath asserts prepared-statement re-execution
// rides the cache: the first execution plans and stores, later
// executions with different parameters hit.
func TestPlanCachePreparedPath(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 3, 10)
	s.SetPlanCache(NewPlanCache(db.Store().Obs()))
	mustExec(t, s, "range of n is NOTE")

	p, err := Prepare(`retrieve (n.name) where n.pitch >= $1 and n.pitch < $2`)
	if err != nil {
		t.Fatal(err)
	}
	hits := db.Store().Obs().Counter("quel.plan.cache.hits")
	if _, err := s.ExecPreparedCtx(context.Background(), p, value.Int(40), value.Int(60)); err != nil {
		t.Fatal(err)
	}
	h0 := hits.Value()
	for i := 0; i < 5; i++ {
		if _, err := s.ExecPreparedCtx(context.Background(), p, value.Int(int64(36+i)), value.Int(int64(60+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Value() - h0; got < 5 {
		t.Fatalf("prepared re-executions hit the cache %d times, want >= 5", got)
	}
}

// TestPlanCacheCapBounded asserts FIFO eviction holds the entry count at
// the cap.
func TestPlanCacheCapBounded(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 1, 5)
	c := NewPlanCache(db.Store().Obs())
	s.SetPlanCache(c)
	mustExec(t, s, "range of n is NOTE")
	// Same shape every time would collapse to one entry; vary the
	// variable name, which is part of the key.
	for i := 0; i < planCacheCap+40; i++ {
		v := fmt.Sprintf("v%d", i)
		mustExec(t, s, fmt.Sprintf("range of %s is NOTE", v))
		mustExec(t, s, fmt.Sprintf(`retrieve (%s.name) where %s.pitch > 0`, v, v))
	}
	if got := c.Len(); got > planCacheCap {
		t.Fatalf("cache holds %d entries, cap is %d", got, planCacheCap)
	}
	if got := c.Len(); got != planCacheCap {
		t.Fatalf("cache holds %d entries after overflow, want exactly %d", got, planCacheCap)
	}
}

// TestPlanCacheReplaysIndexFetch: a cached strategy keeps the join
// order, and each replay recomputes the join method from the live
// estimates.  A narrow writer range fetches its works by key; the same
// shape over every writer reads more wrote rows than WORK holds, so the
// replay hash-joins the works instead — and both answer as the naive
// executor does.
func TestPlanCacheReplaysIndexFetch(t *testing.T) {
	db, s := newSession(t)
	setupWriters(t, db)
	naive := NewSession(db)
	naive.naive = true
	s.SetPlanCache(NewPlanCache(db.Store().Obs()))
	decls := "range of e is WORK\nrange of w is WROTE"
	mustExec(t, s, decls)
	mustExec(t, naive, decls)
	q := `retrieve (w.role, e.title) where w.writer >= %d and w.writer < %d and e.number = w.work`
	for _, tc := range []struct {
		lo, hi int
		hit    bool
		method string
	}{
		{2, 3, false, "IndexFetch (e.number = w.work) using ix_work_number"},
		{1, 4, true, "HashJoin (e.number = w.work)"},
		{3, 4, true, "IndexFetch (e.number = w.work) using ix_work_number"},
	} {
		src := fmt.Sprintf(q, tc.lo, tc.hi)
		plan := strings.Join(planLines(t, s, "explain "+src), "\n")
		if strings.Contains(plan, "PlanCache: hit") != tc.hit || !strings.Contains(plan, tc.method) ||
			!strings.Contains(plan, "IndexScan w on WROTE") {
			t.Fatalf("writers [%d, %d): want cache hit %v and %s after an IndexScan of w:\n%s", tc.lo, tc.hi, tc.hit, tc.method, plan)
		}
		if got, want := canonRows(mustExec(t, s, src)), canonRows(mustExec(t, naive, src)); got != want {
			t.Fatalf("writers [%d, %d): planner\n%s\nnaive\n%s", tc.lo, tc.hi, got, want)
		}
	}
}
