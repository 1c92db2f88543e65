package mdm

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentDifferentialGroupCommit is the differential harness for
// the commit pipeline: the same deterministic concurrent workload —
// four writers issuing randomized appends, replaces, and deletes
// through their own sessions — runs with GroupCommit off and on.  After
// each run the store is synced, the manager abandoned WITHOUT a clean
// close (so the checkpoint cannot paper over the log), and the
// directory reopened cold: recovery must replay the WAL.  The
// post-recovery relation contents must be identical in both modes and
// match the per-writer oracle.  Group commit batches and reorders
// flushes; it must never change what recovers.  (Planner vs. naive
// executor on the same statement shapes is internal/quel's
// TestPlannerNaiveDifferential.)
func TestConcurrentDifferentialGroupCommit(t *testing.T) {
	want := runDifferentialWorkload(t, false)
	got := runDifferentialWorkload(t, true)
	for typ, rows := range want {
		if strings.Join(got[typ], "\n") != strings.Join(rows, "\n") {
			t.Fatalf("group commit diverged on %s:\n got: %v\nwant: %v", typ, got[typ], rows)
		}
	}
}

const diffWriters = 4

// runDifferentialWorkload runs the deterministic concurrent workload
// under one configuration and returns the post-recovery contents of
// each writer's entity relation as sorted "name=v" rows.
func runDifferentialWorkload(t *testing.T, group bool) map[string][]string {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, SyncCommits: true, GroupCommit: group, SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	ddl := m.NewSession()
	for w := 0; w < diffWriters; w++ {
		if _, err := ddl.ExecContext(context.Background(), fmt.Sprintf("define entity T%d (name = integer, v = integer)", w)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, diffWriters)
	oracles := make([]map[int]int, diffWriters)
	for w := 0; w < diffWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			oracles[w], errs[w] = diffWriter(m, w)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d (group=%v): %v", w, group, err)
		}
	}

	// Make the log durable, then abandon the manager without Close: the
	// reopen below must reconstruct state from checkpoint + WAL replay
	// exactly as a crashed process would.
	if err := m.Store.Sync(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Dir: dir, SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	s := m2.NewSession()
	out := make(map[string][]string, diffWriters)
	for w := 0; w < diffWriters; w++ {
		typ := fmt.Sprintf("T%d", w)
		res, err := s.QueryContext(context.Background(), fmt.Sprintf("retrieve (%s.name, %s.v)", typ, typ))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			rows = append(rows, fmt.Sprintf("%d=%d", r[0].AsInt(), r[1].AsInt()))
		}
		sort.Strings(rows)
		out[typ] = rows

		// Cross-check against the writer's own oracle.
		expect := make([]string, 0, len(oracles[w]))
		for name, v := range oracles[w] {
			expect = append(expect, fmt.Sprintf("%d=%d", name, v))
		}
		sort.Strings(expect)
		if strings.Join(rows, "\n") != strings.Join(expect, "\n") {
			t.Fatalf("writer %d (group=%v): recovered rows diverge from oracle:\n got: %v\nwant: %v",
				w, group, rows, expect)
		}
	}
	return out
}

// diffWriter runs one writer's deterministic operation stream against
// its own entity type and returns the expected final name→v contents.
func diffWriter(m *MDM, w int) (map[int]int, error) {
	s := m.NewSession()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(1000 + w)))
	typ := fmt.Sprintf("T%d", w)
	state := map[int]int{}
	next := 1
	live := []int{}
	for op := 0; op < 40; op++ {
		switch k := rng.Intn(10); {
		case k < 6 || len(live) == 0: // append
			name, v := next, rng.Intn(1000)
			next++
			stmt := fmt.Sprintf("append to %s (name = %d, v = %d)", typ, name, v)
			if _, err := s.ExecContext(ctx, stmt); err != nil {
				return nil, fmt.Errorf("%s: %w", stmt, err)
			}
			state[name] = v
			live = append(live, name)
		case k < 8: // replace
			name, v := live[rng.Intn(len(live))], rng.Intn(1000)
			stmt := fmt.Sprintf("range of x is %s replace x (v = %d) where x.name = %d", typ, v, name)
			if _, err := s.ExecContext(ctx, stmt); err != nil {
				return nil, fmt.Errorf("%s: %w", stmt, err)
			}
			state[name] = v
		default: // delete
			i := rng.Intn(len(live))
			name := live[i]
			stmt := fmt.Sprintf("range of x is %s delete x where x.name = %d", typ, name)
			if _, err := s.ExecContext(ctx, stmt); err != nil {
				return nil, fmt.Errorf("%s: %w", stmt, err)
			}
			delete(state, name)
			live = append(live[:i], live[i+1:]...)
		}
	}
	return state, nil
}
