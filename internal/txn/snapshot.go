package txn

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file provides the transaction-layer half of snapshot-isolation
// reads: commit sequence numbers (CSNs) and the registry of live read
// snapshots.  The storage engine owns the version data; this package
// owns the clock.
//
// Every committed writer publishes its versions under the next CSN,
// serialized by the registry's publish lock so CSNs are dense and agree
// with WAL append order.  A read-only session pins the current CSN with
// BeginSnapshot and then scans version chains with zero lock
// acquisition: a version is visible when it was committed at or before
// the pinned CSN and not superseded by then.  The minimum pinned CSN is
// the garbage-collection watermark — versions dead at the watermark can
// never be seen again and may be reclaimed.

// CSN is a commit sequence number.  CSN 0 is the base state (whatever
// recovery or Open produced); the first published commit is CSN 1.
type CSN = uint64

// InfiniteCSN marks a version that has not been superseded: it is
// visible to every snapshot at or after its begin CSN.
const InfiniteCSN CSN = ^CSN(0)

// Snapshot is a pinned read point.  It holds no locks and blocks no
// writer; it only holds back the garbage-collection watermark until
// closed.  Close is idempotent.
type Snapshot struct {
	reg  *SnapshotRegistry
	csn  CSN
	done atomic.Bool
}

// CSN returns the pinned commit sequence number.
func (s *Snapshot) CSN() CSN { return s.csn }

// Close unpins the snapshot, letting the GC watermark advance past it.
func (s *Snapshot) Close() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.reg.unpin(s)
}

// SnapshotRegistry issues CSNs to committers and tracks live snapshots.
// One registry serves one storage engine; it is safe for concurrent use.
type SnapshotRegistry struct {
	last  atomic.Uint64 // highest published CSN
	pubMu sync.Mutex    // serializes Publish (CSN order = publish order)

	mu   sync.Mutex
	pins map[*Snapshot]int // live snapshot → pin count bucket (csn)
}

// NewSnapshotRegistry returns an empty registry at CSN 0.
func NewSnapshotRegistry() *SnapshotRegistry {
	return &SnapshotRegistry{pins: make(map[*Snapshot]int)}
}

// Last returns the highest published CSN.
func (r *SnapshotRegistry) Last() CSN { return r.last.Load() }

// Publish runs fn with the next CSN and then advances Last to it, all
// under the publish lock: concurrent committers stamp their versions in
// a total order, and no snapshot can pin a CSN whose versions are still
// being stamped (BeginSnapshot reads Last, which only moves after fn
// returns).
func (r *SnapshotRegistry) Publish(fn func(csn CSN)) CSN {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	c := r.last.Load() + 1
	fn(c)
	r.last.Store(c)
	return c
}

// BeginSnapshot pins the current CSN and returns the snapshot handle.
// The context only gates entry (a canceled context refuses the pin);
// the snapshot itself lives until Close.
func (r *SnapshotRegistry) BeginSnapshot(ctx context.Context) (*Snapshot, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	s := &Snapshot{reg: r, csn: r.last.Load()}
	r.mu.Lock()
	r.pins[s] = 1
	r.mu.Unlock()
	return s, nil
}

func (r *SnapshotRegistry) unpin(s *Snapshot) {
	r.mu.Lock()
	delete(r.pins, s)
	r.mu.Unlock()
}

// Live returns the number of open snapshots.
func (r *SnapshotRegistry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pins)
}

// Watermark returns the garbage-collection horizon: the minimum pinned
// CSN, or Last when no snapshot is open.  Versions whose end CSN is at
// or below the watermark are invisible to every present and future
// snapshot.
func (r *SnapshotRegistry) Watermark() CSN {
	w := r.last.Load()
	r.mu.Lock()
	for s := range r.pins {
		if s.csn < w {
			w = s.csn
		}
	}
	r.mu.Unlock()
	return w
}
