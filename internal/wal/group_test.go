package wal

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/value"
)

// openGroup opens a log under a fault injector and wraps it in a
// committer with the given options.
func openGroup(t *testing.T, opts GroupOptions) (*GroupCommitter, *Log, *fault.Registry, string) {
	t.Helper()
	reg := fault.NewRegistry()
	inj := fault.NewInjector(fault.Disk{}, reg)
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(l, opts)
	g.SetFailpoints(inj.Logic)
	return g, l, reg, path
}

func commitRecord(txid uint64) []*Record {
	return []*Record{
		{Type: RecBegin, TxID: txid},
		{Type: RecInsert, TxID: txid, Relation: "R", RowID: txid, New: value.Tuple{value.Int(int64(txid))}},
		{Type: RecCommit, TxID: txid},
	}
}

// TestGroupCommitConcurrent drives many concurrent committers through
// one committer and checks that every batch lands durably, records are
// contiguous per batch, and flush rounds actually batch (fewer fsyncs
// than transactions).
func TestGroupCommitConcurrent(t *testing.T) {
	g, l, _, path := openGroup(t, GroupOptions{Group: true})
	reg := obs.NewRegistry()
	l.SetObserver(reg)
	g.SetObserver(reg)

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	states := make([]BatchState, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &Batch{Records: commitRecord(uint64(i + 1)), Sync: true}
			errs[i] = g.Commit(context.Background(), b)
			states[i] = b.State()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("commit %d: %v", i, errs[i])
		}
		if states[i] != BatchSynced {
			t.Fatalf("commit %d: state %v, want SYNCED", i, states[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every batch's three records must be contiguous in the log.
	var seq []uint64
	if err := Scan(path, func(_ int64, r *Record) error {
		seq = append(seq, r.TxID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3*n {
		t.Fatalf("log has %d records, want %d", len(seq), 3*n)
	}
	for i := 0; i < len(seq); i += 3 {
		if seq[i] != seq[i+1] || seq[i] != seq[i+2] {
			t.Fatalf("batch records interleaved at %d: %v", i, seq[i:i+3])
		}
	}

	var batches, txns uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "wal.group.batches":
			batches = m.Value
		case "wal.group.txns":
			txns = m.Value
		}
	}
	if txns != n {
		t.Fatalf("wal.group.txns = %d, want %d", txns, n)
	}
	if batches == 0 || batches > txns {
		t.Fatalf("wal.group.batches = %d (txns %d): want 1..txns", batches, txns)
	}
}

// TestGroupCommitSerialMode pins the baseline: without Group, every
// commit flushes alone (rounds == txns), still through the same path.
func TestGroupCommitSerialMode(t *testing.T) {
	g, l, _, _ := openGroup(t, GroupOptions{Group: false})
	reg := obs.NewRegistry()
	g.SetObserver(reg)
	for i := 1; i <= 5; i++ {
		b := &Batch{Records: commitRecord(uint64(i)), Sync: true}
		if err := g.Commit(context.Background(), b); err != nil {
			t.Fatalf("serial commit %d: %v", i, err)
		}
		if b.State() != BatchSynced {
			t.Fatalf("serial commit %d: state %v", i, b.State())
		}
	}
	var batches, txns uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "wal.group.batches":
			batches = m.Value
		case "wal.group.txns":
			txns = m.Value
		}
	}
	if batches != 5 || txns != 5 {
		t.Fatalf("serial mode: batches=%d txns=%d, want 5/5", batches, txns)
	}
	l.Close()
}

// TestGroupCommitSharedFsyncFailure pins fsyncgate across a batch: when
// the round's fsync fails, every waiter in the round gets the failure
// (durability unknown), and later commits fail against the poisoned log.
func TestGroupCommitSharedFsyncFailure(t *testing.T) {
	g, _, freg, path := openGroup(t, GroupOptions{Group: true, Window: 20 * time.Millisecond})
	freg.Arm(fault.Point(fault.OpSync, path), 1, fault.Outcome{})

	const n = 4
	var wg sync.WaitGroup
	batches := make([]*Batch, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		batches[i] = &Batch{Records: commitRecord(uint64(i + 1)), Sync: true}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = g.Commit(context.Background(), batches[i])
		}(i)
	}
	wg.Wait()
	// The leader's window makes one round of all four batches likely but
	// not guaranteed; whatever the grouping, each batch must have failed
	// with either the fsync failure or the poisoned-log append failure.
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			t.Fatalf("commit %d succeeded over failing fsync", i)
		}
		if st := batches[i].State(); st != BatchSyncFailed && st != BatchAppendFailed {
			t.Fatalf("commit %d: state %v", i, st)
		}
	}
	// The log is poisoned: new commits fail immediately.
	b := &Batch{Records: commitRecord(99), Sync: true}
	if err := g.Commit(context.Background(), b); err == nil {
		t.Fatal("commit after poisoned flush must fail")
	}
}

// TestGroupCommitAbandonedWaiter pins ctx abandonment: a waiter whose
// context dies before the flush stops waiting with ErrAbandoned, but
// its batch still flushes (in order) and its completion callback runs.
func TestGroupCommitAbandonedWaiter(t *testing.T) {
	g, l, _, path := openGroup(t, GroupOptions{Group: true, Window: 60 * time.Millisecond})

	// The first committer becomes leader and sleeps in the window; the
	// second enqueues behind it and abandons the wait almost at once.
	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- g.Commit(context.Background(), &Batch{Records: commitRecord(1), Sync: true})
	}()
	time.Sleep(10 * time.Millisecond) // let the leader take the baton

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	completed := make(chan BatchState, 1)
	b := &Batch{
		Records:    commitRecord(2),
		Sync:       true,
		OnComplete: func(st BatchState, _ error) { completed <- st },
	}
	err := g.Commit(ctx, b)
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("abandoned wait: got %v, want ErrAbandoned", err)
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader commit: %v", err)
	}
	select {
	case st := <-completed:
		if st != BatchSynced {
			t.Fatalf("abandoned batch completed as %v, want SYNCED", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned batch never completed")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := Scan(path, func(_ int64, r *Record) error {
		if r.Type == RecCommit && r.TxID == 2 {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("abandoned batch's records missing from the log")
	}
}

// TestGroupCommitMaxBytesSubRounds checks that one big queue is flushed
// in multiple byte-capped rounds, all successfully.
func TestGroupCommitMaxBytesSubRounds(t *testing.T) {
	g, l, _, _ := openGroup(t, GroupOptions{Group: true, MaxBytes: 256, Window: 20 * time.Millisecond})
	reg := obs.NewRegistry()
	g.SetObserver(reg)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = g.Commit(context.Background(), &Batch{Records: commitRecord(uint64(i + 1)), Sync: true})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	l.Close()
}

// TestExclusiveSerializesWithCommits: batches enqueued while Exclusive
// holds the baton wait and flush only after fn finishes.
func TestExclusiveSerializesWithCommits(t *testing.T) {
	g, l, _, _ := openGroup(t, GroupOptions{Group: true})
	inFn := make(chan struct{})
	fnDone := make(chan struct{})
	exclErr := make(chan error, 1)
	go func() {
		exclErr <- g.Exclusive(func() error {
			close(inFn)
			time.Sleep(30 * time.Millisecond)
			close(fnDone)
			return nil
		})
	}()
	<-inFn
	b := &Batch{Records: commitRecord(7), Sync: true}
	if err := g.Commit(context.Background(), b); err != nil {
		t.Fatalf("commit during exclusive: %v", err)
	}
	select {
	case <-fnDone:
	default:
		t.Fatal("commit completed while Exclusive fn was still running")
	}
	if err := <-exclErr; err != nil {
		t.Fatalf("exclusive: %v", err)
	}
	l.Close()
}

// TestExclusiveSyncsWhatItAcknowledges: a buffered batch enqueued while
// Exclusive's fn runs is flushed after fn and acknowledged before
// Exclusive returns, so that flush fsyncs — a checkpoint's caller may
// rely on every commit acknowledged before it returned being durable.
func TestExclusiveSyncsWhatItAcknowledges(t *testing.T) {
	g, l, _, _ := openGroup(t, GroupOptions{Group: true})
	reg := obs.NewRegistry()
	l.SetObserver(reg)
	fsyncs := reg.Histogram("wal.fsync.ns")
	committed := make(chan error, 1)
	var inFn uint64
	if err := g.Exclusive(func() error {
		inFn = fsyncs.Count()
		go func() { committed <- g.Commit(context.Background(), &Batch{Records: commitRecord(7)}) }()
		for queued := 0; queued == 0; time.Sleep(time.Millisecond) {
			g.mu.Lock()
			queued = len(g.queue)
			g.mu.Unlock()
		}
		return nil
	}); err != nil {
		t.Fatalf("exclusive: %v", err)
	}
	if err := <-committed; err != nil {
		t.Fatalf("commit during exclusive: %v", err)
	}
	if got := fsyncs.Count(); got <= inFn {
		t.Fatalf("buffered batch acknowledged by Exclusive without an fsync (%d fsyncs before and after the flush)", got)
	}
	l.Close()
}

// TestExclusivePropagatesFnError: fn's error comes back and the
// pipeline stays usable.
func TestExclusivePropagatesFnError(t *testing.T) {
	g, l, _, _ := openGroup(t, GroupOptions{Group: true})
	want := fmt.Errorf("snapshot failed")
	if err := g.Exclusive(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("exclusive error: %v", err)
	}
	if err := g.Commit(context.Background(), &Batch{Records: commitRecord(1), Sync: true}); err != nil {
		t.Fatalf("commit after failed exclusive: %v", err)
	}
	l.Close()
}

// TestGroupCommitCrashAtPreFsync pins the crash seam between the
// batched append and the fsync: the panic propagates to the harness,
// concurrent waiters complete as LOST rather than hanging, and the
// committer is poisoned for the rest of the "process" lifetime.
func TestGroupCommitCrashAtPreFsync(t *testing.T) {
	g, _, freg, _ := openGroup(t, GroupOptions{Group: true, Window: 30 * time.Millisecond})
	freg.Arm(fault.Point(fault.OpLogic, "group.pre-fsync"), 1, fault.Outcome{Crash: true})

	waiterErr := make(chan error, 1)
	waiterState := make(chan BatchState, 1)
	crashed := make(chan bool, 1)
	go func() {
		defer func() {
			_, isCrash := fault.AsCrash(recover())
			crashed <- isCrash
		}()
		_ = g.Commit(context.Background(), &Batch{Records: commitRecord(1), Sync: true})
		crashed <- false
	}()
	time.Sleep(10 * time.Millisecond) // leader inside its window
	go func() {
		b := &Batch{Records: commitRecord(2), Sync: true}
		waiterErr <- g.Commit(context.Background(), b)
		waiterState <- b.State()
	}()

	if !<-crashed {
		t.Fatal("leader goroutine did not crash-panic")
	}
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter succeeded across a crashed flush")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung after leader crash")
	}
	if st := <-waiterState; st != BatchLost {
		t.Fatalf("waiter state %v, want LOST", st)
	}
	// The committer is poisoned: nothing further flushes.
	if err := g.Commit(context.Background(), &Batch{Records: commitRecord(3), Sync: true}); err == nil {
		t.Fatal("commit on crashed committer must fail")
	}
}
