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

// preFsync is the flush's logic failpoint between the batched append
// and the fsync.
var preFsync = fault.Point(fault.OpLogic, "group.pre-fsync")

// holdLeader arms preFsync to block the next flush round until release
// is closed, with the outcome o then taking effect.  The round's leader
// keeps the baton meanwhile, so every Commit made while it is held
// queues behind it and the next round carries all of them.
func holdLeader(freg *fault.Registry, o fault.Outcome) (release func()) {
	ch := make(chan struct{})
	o.Block = ch
	freg.Arm(preFsync, 1, o)
	return func() { close(ch) }
}

// waitQueued waits until a leader is held at preFsync and n batches
// are queued behind it.
func waitQueued(g *GroupCommitter, freg *fault.Registry, n int) {
	for ; freg.Hits(preFsync) == 0; time.Sleep(100 * time.Microsecond) {
	}
	for queued := -1; queued < n; time.Sleep(100 * time.Microsecond) {
		g.mu.Lock()
		queued = len(g.queue)
		g.mu.Unlock()
	}
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
// A buffered batch leads the first round and is held before its flush,
// so the four syncing batches queue behind it and share one fsync.
func TestGroupCommitSharedFsyncFailure(t *testing.T) {
	g, _, freg, path := openGroup(t, GroupOptions{Group: true})
	reg := obs.NewRegistry()
	g.SetObserver(reg)
	freg.Arm(fault.Point(fault.OpSync, path), 1, fault.Outcome{})
	release := holdLeader(freg, fault.Outcome{})
	primed := make(chan error, 1)
	go func() { primed <- g.Commit(context.Background(), &Batch{Records: commitRecord(100)}) }()
	waitQueued(g, freg, 0)

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
	waitQueued(g, freg, n)
	release()
	wg.Wait()
	if err := <-primed; err != nil {
		t.Fatalf("buffered leader: %v", err)
	}
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			t.Fatalf("commit %d succeeded over failing fsync", i)
		}
		if st := batches[i].State(); st != BatchSyncFailed {
			t.Fatalf("commit %d: state %v, want SYNC_FAILED from the shared round", i, st)
		}
	}
	if got := reg.Counter("wal.group.batches").Value(); got != 2 {
		t.Fatalf("wal.group.batches = %d, want 2: the leader's round and one shared round", got)
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
	g, l, freg, path := openGroup(t, GroupOptions{Group: true})

	// The first committer leads and is held before its fsync; the second
	// queues behind it and abandons the wait almost at once.
	release := holdLeader(freg, fault.Outcome{})
	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- g.Commit(context.Background(), &Batch{Records: commitRecord(1), Sync: true})
	}()
	waitQueued(g, freg, 0)

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
	release()
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
// in multiple byte-capped rounds, all successfully: sixteen batches
// queue behind a held leader and are flushed in one drain of the queue.
func TestGroupCommitMaxBytesSubRounds(t *testing.T) {
	g, l, freg, _ := openGroup(t, GroupOptions{Group: true, MaxBytes: 256})
	reg := obs.NewRegistry()
	g.SetObserver(reg)
	release := holdLeader(freg, fault.Outcome{})

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n+1)
	for i := 0; i <= n; i++ {
		if i == 1 {
			waitQueued(g, freg, 0) // batch 0 leads and is held
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = g.Commit(context.Background(), &Batch{Records: commitRecord(uint64(i + 1)), Sync: true})
		}(i)
	}
	waitQueued(g, freg, n)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := reg.Counter("wal.group.batches").Value(); got < 3 {
		t.Fatalf("wal.group.batches = %d: the queue of %d was not split into byte-capped rounds", got, n)
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
	g, _, freg, _ := openGroup(t, GroupOptions{Group: true})
	crash := holdLeader(freg, fault.Outcome{Crash: true})

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
	waitQueued(g, freg, 0)
	go func() {
		b := &Batch{Records: commitRecord(2), Sync: true}
		waiterErr <- g.Commit(context.Background(), b)
		waiterState <- b.State()
	}()
	waitQueued(g, freg, 1)
	crash()

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
