package wal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Group commit (DeWitt et al., ARIES-style log forcing): committing
// transactions enqueue their records plus a durability request onto a
// commit queue instead of appending and fsyncing individually.  The
// first committer to find no flush in progress becomes the leader: it
// drains the queue, appends every waiter's records with one buffered
// write stream, pays ONE fsync for the whole round, and wakes all
// waiters with the shared outcome.  Later arrivals pile onto the queue
// while the leader is inside the fsync, so under concurrency the cost
// of a synchronous commit amortizes to fsync/N.
//
// Failure semantics are the log's, shared batch-wide (fsyncgate): a
// failed append or fsync poisons the underlying Log, and every batch in
// or behind the failing round completes with a failure state rather
// than retrying over ambiguous durable state.

// BatchState is the outcome of a commit batch.
type BatchState int

const (
	// BatchPending: not yet flushed (only observable while waiting).
	BatchPending BatchState = iota
	// BatchAppendFailed: the records are certainly not in the log (the
	// append was refused or failed before any byte of this batch was
	// accepted).  The owner may safely roll back.
	BatchAppendFailed
	// BatchBuffered: appended to the log buffer; durability was not
	// requested (Sync=false) and has not happened.
	BatchBuffered
	// BatchSynced: appended and fsynced — the batch is durable.
	BatchSynced
	// BatchSyncFailed: appended, but the flush or fsync failed.  The
	// records may or may not have reached stable storage; durability is
	// unknown and the log is poisoned.
	BatchSyncFailed
	// BatchLost: a simulated crash unwound the flush mid-flight; the
	// outcome is unknowable from inside the process.
	BatchLost
)

// String returns the state name.
func (s BatchState) String() string {
	switch s {
	case BatchPending:
		return "PENDING"
	case BatchAppendFailed:
		return "APPEND_FAILED"
	case BatchBuffered:
		return "BUFFERED"
	case BatchSynced:
		return "SYNCED"
	case BatchSyncFailed:
		return "SYNC_FAILED"
	case BatchLost:
		return "LOST"
	}
	return fmt.Sprintf("BatchState(%d)", int(s))
}

// ErrAbandoned is wrapped into the error a waiter receives when its
// context is canceled before the flush completes.  The batch itself is
// NOT withdrawn: its records still flush in order and its callbacks
// still run; only the waiting stops, so the commit's durability is
// unknown to the abandoning caller.
var ErrAbandoned = errors.New("wal: commit wait abandoned")

// errLeaderCrashed poisons a committer whose flush leader panicked (a
// simulated crash unwinding through the flush).
var errLeaderCrashed = errors.New("wal: group commit leader crashed")

// Batch is one unit of work on the commit queue: a transaction's log
// records plus its durability request.
type Batch struct {
	// Records are appended contiguously, in order, ahead of any batch
	// enqueued later.
	Records []*Record
	// Sync requests an fsync before completion (a synchronous commit).
	// Batches without Sync still ride the queue — they complete once
	// appended to the log buffer — and are made durable for free when
	// any batch in their round requests a sync.
	Sync bool
	// OnAppend, if set, runs on the flush goroutine immediately after
	// the batch's records are in the log buffer, before the fsync.
	// Storage uses it to release the transaction's locks early: once
	// the records are in the log in commit order, any dependent
	// transaction necessarily commits later in the log, and a poisoned
	// fsync fails them all, so waiting out the fsync under the locks
	// buys nothing.
	OnAppend func()
	// OnComplete, if set, runs on the flush goroutine when the outcome
	// is decided, before waiters wake.  It runs exactly once, whether
	// or not the waiter abandoned the wait — failure handling
	// (rollback, degrade) must live here, not in the waiter.
	OnComplete func(st BatchState, err error)

	start     time.Time
	state     BatchState
	err       error
	appended  bool
	completed bool
	done      chan struct{}
}

// State returns the batch outcome (BatchPending until completion).
func (b *Batch) State() BatchState { return b.state }

// Err returns the failure cause for unsuccessful states, nil otherwise.
func (b *Batch) Err() error { return b.err }

// Done returns a channel closed when the batch completes.
func (b *Batch) Done() <-chan struct{} { return b.done }

// GroupOptions tune a GroupCommitter.
type GroupOptions struct {
	// Group enables batching.  When false the committer runs in serial
	// mode — every Commit flushes alone with its own fsync (the classic
	// one-fsync-per-txn baseline) — but through the same code path, so
	// the two modes differ only in batching.
	Group bool
	// MaxBytes caps how many appended bytes one flush round covers
	// before it fsyncs and starts the next round.  Zero means 1MiB.
	MaxBytes int64
}

// groupMetrics holds the committer's resolved obs handles.
type groupMetrics struct {
	batches *obs.Counter   // wal.group.batches: flush rounds (one fsync each at most)
	txns    *obs.Counter   // wal.group.txns: commit batches flushed
	size    *obs.Histogram // wal.group.size: appended bytes per round
	wait    *obs.Histogram // wal.group.wait.ns: enqueue-to-completion latency
}

// GroupCommitter owns all physical access to a Log: once a Log is
// wrapped, nothing else may call its Append/Sync/Reset.  Committers
// call Commit; maintenance paths use Drain and Exclusive.
type GroupCommitter struct {
	log  *Log
	opts GroupOptions

	mu      sync.Mutex
	cond    *sync.Cond // leadership / freeze handoff
	queue   []*Batch
	leading bool  // a flush is in progress
	frozen  bool  // Exclusive holds the log
	err     error // sticky: the leader crashed; no flush is coming

	failpoint func(name string) error // nil outside fault-injection tests
	m         *groupMetrics           // nil when unobserved

	// Replication ship hook.  unsynced accumulates the records of every
	// batch appended since the last successful fsync; both fields are
	// touched only while holding the flush baton (leading or frozen), so
	// they need no lock of their own.
	onSync   func(recs []*Record)
	unsynced []*Record
}

// NewGroupCommitter wraps log in a commit pipeline.
func NewGroupCommitter(log *Log, opts GroupOptions) *GroupCommitter {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 1 << 20
	}
	g := &GroupCommitter{log: log, opts: opts}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// SetObserver wires the wal.group.* metrics into reg; nil detaches.
// Call before concurrent use.
func (g *GroupCommitter) SetObserver(reg *obs.Registry) {
	if reg == nil {
		g.m = nil
		return
	}
	g.m = &groupMetrics{
		batches: reg.Counter("wal.group.batches"),
		txns:    reg.Counter("wal.group.txns"),
		size:    reg.Histogram("wal.group.size"),
		wait:    reg.Histogram("wal.group.wait.ns"),
	}
}

// SetFailpoints installs the logic-failpoint hook (fault.Injector.Logic)
// the flush passes through at "group.pre-fsync" (between the batched
// append and the fsync) and "group.wakeup" (between waiter wakeups).
// The hook may panic to simulate a crash.  Call before concurrent use;
// nil detaches.
func (g *GroupCommitter) SetFailpoints(fn func(name string) error) { g.failpoint = fn }

// SetOnSync installs fn as the post-fsync ship hook: after every
// successful fsync, the flush goroutine hands fn all records made
// durable by that fsync (accumulated across any intervening unsynced
// rounds), in append order, before any waiter is woken.  That ordering
// is what lets a synchronous shipper guarantee "acked implies shipped":
// a committer cannot observe success until fn has returned.  fn must not
// re-enter the committer.  Install while the pipeline is quiesced — from
// inside Exclusive, or before concurrent use; nil detaches.
func (g *GroupCommitter) SetOnSync(fn func(recs []*Record)) { g.onSync = fn }

// Commit enqueues b and waits for its outcome.  The returned error is
// nil only if the batch completed as BatchSynced or BatchBuffered;
// inspect b.State to distinguish failure modes.  Canceling ctx abandons
// the wait — the batch still flushes and its callbacks still run — with
// an error wrapping ErrAbandoned and the context's error.
func (g *GroupCommitter) Commit(ctx context.Context, b *Batch) error {
	b.done = make(chan struct{})
	b.start = time.Now()
	g.mu.Lock()
	if !g.opts.Group {
		// Serial baseline: wait for the baton, flush alone.
		for g.leading || g.frozen {
			g.cond.Wait()
		}
		if g.err != nil {
			err := g.err
			g.mu.Unlock()
			g.complete(b, BatchAppendFailed, err)
			return b.err
		}
		g.leading = true
		g.mu.Unlock()
		g.flushAsLeader([]*Batch{b})
		return g.wait(ctx, b)
	}
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		g.complete(b, BatchAppendFailed, err)
		return b.err
	}
	g.queue = append(g.queue, b)
	if g.leading || g.frozen {
		// A leader is flushing (or Exclusive holds the log): it is
		// guaranteed to observe this batch before giving up the baton,
		// because it rechecks the queue under g.mu before exiting.
		g.mu.Unlock()
		return g.wait(ctx, b)
	}
	g.leading = true
	g.lead() // releases g.mu
	return g.wait(ctx, b)
}

// wait blocks until b completes or ctx is canceled.
func (g *GroupCommitter) wait(ctx context.Context, b *Batch) error {
	if ctx != nil {
		select {
		case <-b.done:
		case <-ctx.Done():
			select {
			case <-b.done: // settled concurrently: report the real outcome
			default:
				return fmt.Errorf("%w: %w", ErrAbandoned, ctx.Err())
			}
		}
	} else {
		<-b.done
	}
	return b.err
}

// Drain flushes every batch enqueued before the call and fsyncs the
// log, by riding an empty synchronous batch through the ordinary queue:
// when it completes, everything ahead of it is flushed and durable.
func (g *GroupCommitter) Drain() error {
	return g.Commit(context.Background(), &Batch{Sync: true})
}

// Exclusive drains the pipeline, then runs fn while holding the flush
// baton, so fn observes a log with no in-flight appends (checkpoints
// snapshot and reset the log inside fn).  Batches enqueued while fn
// runs wait and are flushed — into the post-fn log, and fsynced before
// any of them completes — before the baton is released: every batch
// acknowledged before Exclusive returns is durable, whether or not it
// asked to be.
func (g *GroupCommitter) Exclusive(fn func() error) error {
	if err := g.Drain(); err != nil {
		return err
	}
	g.mu.Lock()
	for g.leading || g.frozen {
		g.cond.Wait()
	}
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return err
	}
	g.frozen = true
	normal := false
	defer func() {
		if normal {
			return
		}
		g.crashUnwind(nil) // a crash unwound fn or a flush: wake everyone
	}()
	g.flushQueueLocked(false) // late arrivals between the Drain and the freeze
	err := g.log.Err()
	g.mu.Unlock()
	if err == nil {
		err = fn()
	}
	g.mu.Lock()
	g.flushQueueLocked(true) // batches that arrived while frozen land in the post-fn log
	g.frozen = false
	g.cond.Broadcast()
	g.mu.Unlock()
	normal = true
	return err
}

// flushQueueLocked flushes the queue to empty, fsyncing every round
// when sync is set.  Caller holds g.mu with the baton (leading or
// frozen); g.mu is held again on return.
func (g *GroupCommitter) flushQueueLocked(sync bool) {
	for len(g.queue) > 0 {
		round := g.queue
		g.queue = nil
		g.mu.Unlock()
		g.flushAll(round, sync)
		g.mu.Lock()
	}
}

// lead runs the leader loop.  Caller holds g.mu with g.leading set;
// lead returns with g.mu released and leadership dropped.  The queue is
// rechecked under g.mu before exit, so every batch enqueued while a
// leader exists is flushed by that leader.
func (g *GroupCommitter) lead() {
	normal := false
	defer func() {
		if normal {
			return
		}
		g.crashUnwind(nil)
	}()
	for len(g.queue) > 0 {
		round := g.queue
		g.queue = nil
		g.mu.Unlock()
		g.flushAll(round, false)
		g.mu.Lock()
	}
	g.leading = false
	g.cond.Broadcast()
	g.mu.Unlock()
	normal = true
}

// flushAsLeader flushes round and drops leadership (serial mode).
func (g *GroupCommitter) flushAsLeader(round []*Batch) {
	normal := false
	defer func() {
		if normal {
			return
		}
		g.crashUnwind(round)
	}()
	g.flushAll(round, false)
	g.mu.Lock()
	g.leading = false
	g.cond.Broadcast()
	g.mu.Unlock()
	normal = true
}

// crashUnwind is the deferred cleanup when a panic (a simulated crash)
// unwinds through a flush: the "process" is dying, so no further flush
// is coming.  It poisons the committer, drops the baton, and completes
// every batch still in flight or queued as BatchLost so no waiter — in
// this process's surviving goroutines — hangs.  The panic itself keeps
// propagating to the harness.
func (g *GroupCommitter) crashUnwind(inFlight []*Batch) {
	g.mu.Lock()
	if g.err == nil {
		g.err = errLeaderCrashed
	}
	err := g.err
	queued := g.queue
	g.queue = nil
	g.leading = false
	g.frozen = false
	g.cond.Broadcast()
	g.mu.Unlock()
	for _, b := range inFlight {
		g.complete(b, BatchLost, err)
	}
	for _, b := range queued {
		g.complete(b, BatchLost, err)
	}
}

// flushAll flushes round in sub-rounds bounded by MaxBytes, completing
// every batch; sync fsyncs every sub-round.  Runs on the flush
// goroutine, outside g.mu.
func (g *GroupCommitter) flushAll(round []*Batch, sync bool) {
	crashGuard := round
	defer func() {
		// Complete this round's stragglers if a crash panic unwinds a
		// sub-round; crashUnwind (further up the stack) handles the
		// rest of the pipeline.
		for _, b := range crashGuard {
			if !b.completed {
				g.complete(b, BatchLost, errLeaderCrashed)
			}
		}
	}()
	for len(round) > 0 {
		n := g.flushRound(round, sync)
		round = round[n:]
	}
	crashGuard = nil
}

// flushRound appends and (if sync is set or a batch requests it) fsyncs
// one sub-round: batches from the front of round until MaxBytes of log
// have been appended.  It completes every batch it consumed and returns
// how many that was.
func (g *GroupCommitter) flushRound(round []*Batch, sync bool) int {
	base := g.log.Size()
	var ioErr error
	needSync := sync
	n := 0
	for _, b := range round {
		if n > 0 && g.log.Size()-base >= g.opts.MaxBytes {
			break // sub-round full: fsync what we have, then continue
		}
		n++
		if ioErr == nil {
			ioErr = g.log.Err()
		}
		if ioErr != nil {
			// The log is poisoned; none of this batch's records were
			// accepted, so its owner may roll back.
			g.complete(b, BatchAppendFailed, ioErr)
			continue
		}
		appendFailed := false
		for _, r := range b.Records {
			if _, err := g.log.Append(r); err != nil {
				ioErr = err
				appendFailed = true
				break
			}
		}
		if appendFailed {
			// The batch is torn out of the buffered stream mid-append,
			// but a failed buffered write poisons the log, so no later
			// append can ever build on the partial records: to every
			// reader of the eventual log they do not exist.
			g.complete(b, BatchAppendFailed, ioErr)
			continue
		}
		b.appended = true
		if g.onSync != nil {
			g.unsynced = append(g.unsynced, b.Records...)
		}
		if b.OnAppend != nil {
			b.OnAppend()
		}
		if b.Sync {
			needSync = true
		}
	}
	consumed := round[:n]
	if ioErr == nil && g.failpoint != nil {
		ioErr = g.failpoint("group.pre-fsync")
	}
	if ioErr == nil && needSync {
		ioErr = g.log.Sync()
		if ioErr == nil && g.onSync != nil && len(g.unsynced) > 0 {
			recs := g.unsynced
			g.unsynced = nil
			g.onSync(recs)
		}
	}
	txns := uint64(0)
	for _, b := range consumed {
		if len(b.Records) > 0 {
			txns++
		}
		if b.completed { // failed at append time
			continue
		}
		switch {
		case ioErr != nil:
			// Appended but the round's flush failed: the prefix that
			// reached disk is unknowable.
			g.complete(b, BatchSyncFailed, ioErr)
		case b.Sync:
			g.complete(b, BatchSynced, nil)
		default:
			g.complete(b, BatchBuffered, nil)
		}
		if g.failpoint != nil {
			// Crash-only seam between waiter wakeups: some committers
			// have already been told "durable" when the process dies.
			_ = g.failpoint("group.wakeup")
		}
	}
	if g.m != nil {
		g.m.batches.Inc()
		g.m.txns.Add(txns)
		g.m.size.Observe(g.log.Size() - base)
	}
	return n
}

// complete settles a batch exactly once: outcome, callback, wakeup.
func (g *GroupCommitter) complete(b *Batch, st BatchState, err error) {
	if b.completed {
		return
	}
	b.completed = true
	b.state = st
	switch st {
	case BatchAppendFailed:
		b.err = fmt.Errorf("wal: group append: %w", err)
	case BatchSyncFailed:
		b.err = fmt.Errorf("wal: group flush: %w", err)
	case BatchLost:
		b.err = fmt.Errorf("wal: group flush lost: %w", err)
	}
	if g.m != nil {
		g.m.wait.ObserveSince(b.start)
	}
	if b.OnComplete != nil {
		b.OnComplete(st, b.err)
	}
	close(b.done)
}
