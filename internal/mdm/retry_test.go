package mdm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestSessionRetryAbsorbsDeadlocks runs QUEL replace statements against
// rogue clients that use the typed storage API directly (as figure 1's
// analysis tools may), each doing a shared read followed by an exclusive
// upgrade on the same entity relation.  Session replace transactions do
// the same scan-then-mutate dance, so the two kinds of client constantly
// form upgrade deadlock cycles; the victims on the session side must be
// absorbed by retry, so no session ever sees txn.ErrDeadlock or
// txn.ErrTimeout.  The rogue side counts its own victims to prove the
// workload really was deadlock-heavy.
func TestSessionRetryAbsorbsDeadlocks(t *testing.T) {
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	setup := m.NewSession()
	for _, stmt := range []string{
		`define entity VOICE (label = string, gain = integer)`,
		`append to VOICE (label = "v", gain = 0)`,
	} {
		if _, err := setup.ExecContext(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	rel := m.Model.InstanceRelation("VOICE")
	reg := m.Obs()
	statements := reg.Counter("mdm.statements")
	setupStatements := statements.Value()

	const sessWorkers, rogueWorkers, iters = 4, 4, 40
	var (
		wg           sync.WaitGroup
		rogueVictims uint64
		errs         = make(chan error, sessWorkers+rogueWorkers)
		stop         = make(chan struct{})
	)

	// Rogue clients: S lock (Get via Scan) then X lock (no-op Update)
	// in one transaction, no retry — their deadlock victims are counted.
	for w := 0; w < rogueWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := m.Store.Begin()
				var id storage.RowID
				var tuple value.Tuple
				err := func() error {
					if err := tx.Scan(rel, nil, func(i storage.RowID, tuRow value.Row) bool {
						tu := tuRow.Tuple()
						id, tuple = i, tu.Clone()
						return false
					}); err != nil {
						return err
					}
					time.Sleep(100 * time.Microsecond) // hold S; widen the race window
					return tx.Update(rel, id, tuple)   // upgrade to X
				}()
				if err != nil {
					tx.Abort()
					if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrTimeout) {
						atomic.AddUint64(&rogueVictims, 1)
						continue
					}
					errs <- fmt.Errorf("rogue: %w", err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("rogue commit: %w", err)
					return
				}
			}
		}()
	}

	for w := 0; w < sessWorkers; w++ {
		wg.Add(1)
		go func(w int, s *Session) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				stmt := fmt.Sprintf(
					`range of x is VOICE replace x (gain = %d) where x.label != ""`,
					w*1000+i)
				if _, err := s.ExecContext(context.Background(), stmt); err != nil {
					errs <- fmt.Errorf("session %d: %w", w, err)
					return
				}
			}
		}(w, m.NewSession())
	}

	// Stop the rogues once every session has finished its statements.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		for {
			if statements.Value()-setupStatements >= sessWorkers*iters {
				close(stop)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	<-done
	close(errs)
	for err := range errs {
		if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrTimeout) {
			t.Fatalf("transient error leaked to client: %v", err)
		}
		t.Fatal(err)
	}

	exhausted := reg.Counter("storage.txn.exhausted").Value()
	t.Logf("retry stats: %d statements, %d retries, %d exhausted; %d rogue deadlock victims",
		statements.Value()-setupStatements, reg.Counter("storage.txn.retries").Value(), exhausted,
		atomic.LoadUint64(&rogueVictims))
	if exhausted != 0 {
		t.Fatalf("%d transactions exhausted their retries", exhausted)
	}
	if atomic.LoadUint64(&rogueVictims) == 0 {
		t.Fatal("workload produced no deadlocks; the test exercised nothing")
	}
	if h := m.Health(); h.ReadOnly {
		t.Fatalf("store degraded during contention: %v", h.Cause)
	}

	// The row survived the storm intact.
	res, err := setup.QueryContext(context.Background(), `range of v is VOICE retrieve (total = count(v.all))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("VOICE rows = %v", res.Rows)
	}
}

// TestExhaustedRetriesSurfaceError verifies that an error other than a
// lost lock reaches the client at once: it is neither retried nor
// counted as exhausted, and the statement counts once.
func TestExhaustedRetriesSurfaceError(t *testing.T) {
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.NewSession()
	if _, err := s.ExecContext(context.Background(), `define entity SOLO (label = string)`); err != nil {
		t.Fatal(err)
	}
	reg := m.Obs()
	before := counters(reg, "mdm.statements", "storage.txn.retries", "storage.txn.exhausted")
	if _, err := s.ExecContext(context.Background(), `append to NOSUCH (label = "x")`); err == nil {
		t.Fatal("expected error for unknown entity type")
	}
	after := counters(reg, "mdm.statements", "storage.txn.retries", "storage.txn.exhausted")
	if got := after[0] - before[0]; got != 1 {
		t.Errorf("mdm.statements moved by %d, want 1", got)
	}
	if got := after[1] - before[1]; got != 0 {
		t.Fatalf("non-transient error was retried %d times", got)
	}
	if after[2] != before[2] {
		t.Fatalf("non-transient error counted as exhausted")
	}
}

// counters reads the named counters of reg.
func counters(reg *obs.Registry, names ...string) []uint64 {
	out := make([]uint64, len(names))
	for i, name := range names {
		out[i] = reg.Counter(name).Value()
	}
	return out
}

// TestRetryRerunsOnlyTheFailedStatement: a transient failure retries
// the statement that failed, never one before it in the same source,
// and in one loop only.  With B's relation X-locked elsewhere, the
// source's second statement times out on each of the loop's 8 attempts
// (once per attempt, not once per attempt of two nested loops); its
// first commits once.
func TestRetryRerunsOnlyTheFailedStatement(t *testing.T) {
	store, err := storage.Open(storage.Options{LockWaitTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mdl, err := model.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := meta.Bootstrap(mdl)
	if err != nil {
		t.Fatal(err)
	}
	m := &MDM{Store: store, Model: mdl, Catalog: cat}
	s := m.NewSession()
	ctx := context.Background()
	if _, err := s.ExecContext(ctx, "define entity A (a = integer)\ndefine entity B (b = integer)"); err != nil {
		t.Fatal(err)
	}
	holder := store.Begin()
	if err := holder.LockExclusive(mdl.InstanceRelation("B")); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()
	names := []string{"txn.lock.timeout", "storage.txn.retries", "storage.txn.exhausted", "mdm.statements"}
	before := counters(store.Obs(), names...)
	_, err = s.ExecContext(ctx, "append to A (a = 1)\nappend to B (b = 1)")
	if !errors.Is(err, txn.ErrTimeout) {
		t.Fatalf("err = %v, want the lock wait timeout", err)
	}
	if n := mdl.Count("A"); n != 1 {
		t.Fatalf("A holds %d rows, want 1: a retry re-ran the statement before the one that failed", n)
	}
	after := counters(store.Obs(), names...)
	for i, want := range []uint64{8, 7, 1, 2} {
		if got := after[i] - before[i]; got != want {
			t.Errorf("%s moved by %d, want %d", names[i], got, want)
		}
	}
}
