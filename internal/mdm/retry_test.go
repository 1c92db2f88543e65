package mdm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	const sessWorkers, rogueWorkers, iters = 4, 4, 40
	var (
		wg           sync.WaitGroup
		rogueVictims uint64
		errs         = make(chan error, sessWorkers+rogueWorkers)
		sessions     = make([]*Session, sessWorkers)
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
		sessions[w] = m.NewSession()
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
		}(w, sessions[w])
	}

	// Stop the rogues once every session has finished its statements.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		for {
			total := uint64(0)
			for _, s := range sessions {
				total += s.Stats().Statements
			}
			if total >= sessWorkers*iters {
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

	var total SessionStats
	for _, s := range sessions {
		st := s.Stats()
		total.Statements += st.Statements
		total.Retries += st.Retries
		total.Exhausted += st.Exhausted
	}
	t.Logf("retry stats: %d statements, %d session retries, %d exhausted; %d rogue deadlock victims",
		total.Statements, total.Retries, total.Exhausted, atomic.LoadUint64(&rogueVictims))
	if total.Exhausted != 0 {
		t.Fatalf("%d statements exhausted their retries", total.Exhausted)
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

// TestRetryBackoffShape pins the policy arithmetic: exponential growth,
// cap, jitter within ±50%.
func TestRetryBackoffShape(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	for attempt := 1; attempt <= 7; attempt++ {
		want := time.Millisecond << (attempt - 1)
		if want > p.MaxDelay {
			want = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := p.backoff(attempt)
			if d < want/2 || d > want*3/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want*3/2)
			}
		}
	}
	// Zero-value policy still yields a sane delay.
	if d := (RetryPolicy{}).backoff(1); d <= 0 {
		t.Fatalf("zero policy backoff = %v", d)
	}
}

// TestExhaustedRetriesSurfaceError verifies the session eventually gives
// up: with a 1-attempt policy a deadlock victim's error reaches the
// client, and the Exhausted counter records it.
func TestExhaustedRetriesSurfaceError(t *testing.T) {
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.NewSession()
	s.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	if _, err := s.ExecContext(context.Background(), `define entity SOLO (label = string)`); err != nil {
		t.Fatal(err)
	}
	// Not a transient error: surfaced immediately, never retried.
	if _, err := s.ExecContext(context.Background(), `append to NOSUCH (label = "x")`); err == nil {
		t.Fatal("expected error for unknown entity type")
	}
	st := s.Stats()
	if st.Retries != 0 {
		t.Fatalf("non-transient error was retried %d times", st.Retries)
	}
	if st.Exhausted != 0 {
		t.Fatalf("non-transient error counted as exhausted")
	}
}
