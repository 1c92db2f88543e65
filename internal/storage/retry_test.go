package storage

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/value"
)

// TestRunRetriesLostLockOnce: a transaction that keeps losing its lock
// wait is tried retryAttempts times in all, by the one retry loop, with
// a backoff between tries, and the loop counts each retry and the
// give-up once.
func TestRunRetriesLostLockOnce(t *testing.T) {
	db, err := Open(Options{LockWaitTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustCreate(t, db, "R")
	holder := db.Begin()
	if err := holder.LockExclusive("R"); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()

	reg := db.Obs()
	start := time.Now()
	err = insertSeq(db, "R", 1, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, txn.ErrTimeout) {
		t.Fatalf("err = %v, want the lock wait timeout", err)
	}
	for name, want := range map[string]uint64{
		"txn.lock.timeout":      retryAttempts,
		"storage.txn.retries":   retryAttempts - 1,
		"storage.txn.exhausted": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Eight 5 ms waits and seven sleeps of at least half their backoff.
	var floor time.Duration
	for n := 1; n < retryAttempts; n++ {
		floor += min(retryBaseDelay<<(n-1), retryMaxDelay) / 2
	}
	floor += retryAttempts * 5 * time.Millisecond
	if elapsed < floor {
		t.Errorf("gave up after %v, before the %v the waits and backoffs take", elapsed, floor)
	}
}

// TestRunCanceledDuringBackoff: a context canceled while the loop
// sleeps before a retry ends the call with txn.ErrCanceled at once,
// without waiting out the sleep or trying again.
func TestRunCanceledDuringBackoff(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The sleep before try retryAttempts is the longest: at least
	// half of 0.5 ms doubled six times, 16 ms.
	minSleep := min(retryBaseDelay<<(retryAttempts-2), retryMaxDelay) / 2
	tries := 0
	var lastTry time.Time
	err = db.RunCtx(ctx, func(*Tx) error {
		tries++
		if tries == retryAttempts-1 {
			time.AfterFunc(time.Millisecond, cancel)
		}
		lastTry = time.Now()
		return txn.ErrDeadlock
	})
	slept := time.Since(lastTry)
	if !errors.Is(err, txn.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want txn.ErrCanceled wrapping context.Canceled", err)
	}
	if tries != retryAttempts-1 {
		t.Fatalf("%d tries, want %d: the cancel did not end the sleep", tries, retryAttempts-1)
	}
	if slept >= minSleep {
		t.Errorf("returned %v after the last try, not before the %v sleep ended", slept, minSleep)
	}
	if got := db.Obs().Counter("storage.txn.exhausted").Value(); got != 0 {
		t.Errorf("storage.txn.exhausted = %d after a cancel, want 0", got)
	}
}

// TestRetryBackoffShape pins the backoff: exponential from
// retryBaseDelay, capped at retryMaxDelay, jittered within ±50 %.
func TestRetryBackoffShape(t *testing.T) {
	for n := 1; n < 12; n++ {
		want := min(retryBaseDelay<<(n-1), retryMaxDelay)
		for i := 0; i < 50; i++ {
			if d := backoff(n); d < want/2 || d >= want*3/2 {
				t.Fatalf("retry %d: backoff %v outside [%v, %v)", n, d, want/2, want*3/2)
			}
		}
	}
}

// TestQuiesceRetriesThroughTheLoop: the checkpoint's barrier loses its
// lock waits like any transaction and gives up through the same loop,
// counted once per retry.
func TestQuiesceRetriesThroughTheLoop(t *testing.T) {
	db, err := Open(Options{LockWaitTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustCreate(t, db, "R")
	holder := db.Begin()
	if _, err := holder.Insert("R", value.Tuple{value.Int(1), value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()
	if _, err := db.quiesce(); !errors.Is(err, txn.ErrTimeout) {
		t.Fatalf("quiesce under a held X lock: %v, want the lock wait timeout", err)
	}
	if got := db.Obs().Counter("storage.txn.retries").Value(); got != retryAttempts-1 {
		t.Errorf("storage.txn.retries = %d, want %d", got, retryAttempts-1)
	}
}
