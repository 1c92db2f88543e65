package mdm

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestCrossReplaceSessions runs `replace a … where a.x = b.x` against
// `replace b … where b.x = a.x` from two sessions, round after round.
// Each statement X-locks its own target first and then reads the
// other's, so the pair can deadlock; the victim's transaction is
// retried whole.  Both complete every round, each commits once, and
// every row is incremented exactly once per statement.
func TestCrossReplaceSessions(t *testing.T) {
	const rounds, rows = 15, 6
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	setup := m.NewSession()
	for _, src := range []string{"define entity A (x = integer, y = integer)", "define entity B (x = integer, y = integer)"} {
		if _, err := setup.ExecContext(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		for _, rel := range []string{"A", "B"} {
			if _, err := setup.ExecContext(ctx, fmt.Sprintf("append to %s (x = %d, y = 0)", rel, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	commits := m.Store.Obs().Counter("storage.txn.commit")
	before := commits.Value()
	stmts := []string{
		"range of a is A range of b is B replace a (y = a.y + 1) where a.x = b.x",
		"range of a is A range of b is B replace b (y = b.y + 1) where b.x = a.x",
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(stmts))
		for i, src := range stmts {
			wg.Add(1)
			go func(i int, src string) {
				defer wg.Done()
				res, err := m.NewSession().ExecContext(ctx, src)
				if err == nil && res.Result.Affected != rows {
					err = fmt.Errorf("affected %d, want %d", res.Result.Affected, rows)
				}
				errs[i] = err
			}(i, src)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, %q: %v", round, stmts[i], err)
			}
		}
	}
	if got := commits.Value() - before; got != 2*rounds {
		t.Fatalf("%d commits for %d statements", got, 2*rounds)
	}
	for _, rel := range []string{"A", "B"} {
		res, err := setup.QueryContext(ctx, fmt.Sprintf("range of r is %s retrieve (r.y)", rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[0].AsInt() != rounds {
				t.Fatalf("%s row at y = %d after %d statements", rel, row[0].AsInt(), rounds)
			}
		}
	}
	t.Logf("deadlocks resolved by retry: %d", m.Store.Obs().Counter("txn.deadlock").Value())
}
