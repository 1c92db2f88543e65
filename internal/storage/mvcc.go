package storage

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/value"
)

// This file implements snapshot-isolation reads over the relational
// kernel: a commit-sequence-numbered (CSN) version store beside the
// heap, so read-only sessions pin a CSN (DB.BeginSnapshot) and scan a
// consistent committed state with zero lock acquisition, while writers
// keep the 2PL + group-commit path untouched.
//
// Mechanics:
//
//   - Every row carries a chain of rowVersion records (newest first).
//     A transaction's writes are collected as verOps and published
//     under the next CSN at the commit point — inside the WAL batch's
//     OnAppend for logged databases (so CSN order equals log order) or
//     directly in Commit for unlogged ones — while the writer still
//     holds its exclusive relation locks.  Aborted transactions never
//     publish, so chains contain only committed versions.
//
//   - A row no snapshot can see differently carries no record of its
//     own: its head is the shared settled version, meaning the live
//     row is its only committed state and every CSN sees it.  Its page
//     stores that as one bit; a real chain's head sits in the page's
//     heads array, which exists only while the page has one.  Recovery
//     settles every row; the vacuum re-settles a row once its single
//     version is visible at the watermark and is still the live row.
//     A write turns a settled head back into a real base version before
//     it changes the live row.
//
//   - Secondary indexes keep a companion history tree (index.hist) of
//     retired keys: updateRow/deleteRow record the outgoing tuple's key
//     at operation time, and the vacuum drops a key only once no
//     version a pinned snapshot can see encodes it, or the live tree
//     holds it for the same row.  So while a snapshot is pinned, every
//     key it can see stays in the live tree or in the history.  A
//     snapshot index range is the transaction's iterator
//     (Relation.indexRange) with the history merged in and a pick that
//     verifies each entry by re-deriving the visible version's key,
//     which filters uncommitted inserts, superseded keys, and abort
//     debris alike; the invariant lets it release the read lock between
//     batches and re-seek past the last key it considered.
//
//   - Old versions are reclaimed by a vacuum whose horizon is the
//     registry watermark (the oldest pinned CSN): amortized every
//     vacuumEvery publishes, when the last snapshot closes over a
//     backlog, or explicitly via DB.Vacuum.
const liveCSN = ^uint64(0)

// vacuumEvery is how many published commits accumulate between
// automatic vacuum passes.
const vacuumEvery = 256

// rowVersion is one committed state of a row, visible to snapshots in
// [begin, end).  end == liveCSN while the version is current.  Its row
// is usually the very row the slot held live when it committed, so a
// version shares the live row's bytes in the page block instead of
// copying them.
type rowVersion struct {
	begin, end uint64
	row        value.Row
	prev       *rowVersion // next older version
}

// settled is the version-chain head of every row whose live row is its
// only committed state, visible at every CSN.  It is shared and never
// written; its row is the slot's live row, so it holds none.
var settled = &rowVersion{end: liveCSN}

// unsettleLocked turns row id's settled head into a real base version of
// its live row, so a write can replace or remove the live row while
// snapshots keep reading the committed one.  The vacuum revisits the
// row to settle it again.  s is the row's state as read, and is updated
// too.  Caller holds r.mu exclusively.
func (r *Relation) unsettleLocked(id RowID, s *rowState) {
	if s.ver == settled {
		s.ver = &rowVersion{end: liveCSN, row: s.t}
		r.setLocked(id, s.t, s.ver)
	}
}

// verOpKind says how a committed write changes a row's version chain.
type verOpKind uint8

const (
	verAdd verOpKind = iota // new row
	verSet                  // replaced tuple
	verDel                  // deleted row
)

// verOp is one buffered version-chain mutation, stamped with the commit
// CSN at publish time.
type verOp struct {
	op  verOpKind
	rel string
	id  RowID
	t   value.Row // committed row for add/set; zero for del
}

// publish stamps a committed transaction's writes with the next CSN.
// Called at the commit point, before the writer's locks are released,
// so no conflicting writer can publish in between: CSN order is commit
// order (and, on logged databases, WAL append order).
func (db *DB) publish(vops []verOp) {
	if len(vops) == 0 {
		return
	}
	db.snaps.Publish(func(c uint64) {
		for i := range vops {
			if r := db.Relation(vops[i].rel); r != nil {
				r.applyVersion(c, &vops[i])
			}
			// Stamp the checkpoint dirty set inside the publish callback:
			// it runs before the registry advances to CSN c, so a fuzzy
			// checkpoint that pins CSN C afterwards can trust that every
			// commit at or below C has already stamped (ckpt.go).  vops
			// are grouped by relation, so dedup against the neighbor.
			if i == 0 || vops[i].rel != vops[i-1].rel {
				db.markDirty(vops[i].rel, c)
			}
		}
	})
	if db.pubCount.Add(1)%vacuumEvery == 0 {
		db.vacuumAsync()
	}
}

// applyVersion applies one committed write to the version chain at CSN c.
func (r *Relation) applyVersion(c uint64, op *verOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slotLocked(op.id)
	old := s.ver
	if old == settled {
		// The write went through insertRow, updateRow or deleteRow,
		// which unsettle the head before they touch the live row.
		panic(fmt.Sprintf("storage: %s: commit of row %d meets a settled head", r.name, op.id))
	}
	if old != nil && old.end == liveCSN {
		old.end = c
	}
	switch op.op {
	case verAdd, verSet:
		// The committed row is usually the live row; if a compaction
		// of the page has moved the live row since the write, the
		// version takes the live copy, so the vacuum can settle it.
		row := op.t
		if row.Equal(s.t) {
			row = s.t
		}
		r.setLocked(op.id, s.t, &rowVersion{begin: c, end: liveCSN, row: row, prev: old})
	case verDel:
		// The closed-off old version stays reachable until vacuumed.
	}
}

// seedVersions rebuilds the version store from the recovered heap: every
// row settled, empty history trees.  Recovery replay goes through the
// ordinary row mutators, which leave behind history entries and no
// chains; this resets both.
func (db *DB) seedVersions() {
	for _, name := range db.Relations() {
		if r := db.Relation(name); r != nil {
			r.seedVersions()
		}
	}
}

func (r *Relation) seedVersions() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eachLocked(func(id RowID, s rowState) {
		var v *rowVersion
		if !s.t.IsZero() {
			v = settled
		}
		r.setLocked(id, s.t, v)
	})
	for _, ix := range r.indexes {
		ix.hist = nil
		ix.createdAt = 0
	}
}

// appendSnapKey appends the history-tree key for row t of row id to
// dst: the index key always suffixed with the row id, so versions of
// distinct rows that shared a unique key over time remain distinct
// entries.
func (ix *index) appendSnapKey(dst []byte, id RowID, t value.Row) []byte {
	dst = ix.appendKey(dst, id, t)
	if ix.spec.Unique {
		dst = appendRowID(dst, id)
	}
	return dst
}

// retire records the outgoing row's key in the index history so
// snapshot scans can still find the row under its old key.  Called from
// deleteRow/updateRow under r.mu; entries that never correspond to a
// committed version (aborted writes, rollback compensation) are inert —
// candidate verification rejects them — and the vacuum sweeps them out.
// The key is built on the stack; btree.Set copies it into a leaf block.
func (ix *index) retire(id RowID, old value.Row) {
	if ix.hist == nil {
		ix.hist = btree.New()
	}
	var kb [64]byte
	ix.hist.Set(ix.appendSnapKey(kb[:0], id, old), id)
}

// setIndexFloor records the first CSN the named index can serve (set by
// CreateIndex right after the backfill).
func (r *Relation) setIndexFloor(name string, csn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.findIndex(name); ix != nil {
		ix.createdAt = csn
	}
}

// visible returns the row visible at CSN at, zero if none.
func (s rowState) visible(at uint64) value.Row {
	v := s.ver
	if v == settled {
		return s.t
	}
	for v != nil && v.begin > at {
		v = v.prev
	}
	if v != nil && v.end > at {
		return v.row
	}
	return value.Row{}
}

// snapScan iterates the rows visible at CSN at on the pages b admits,
// in row-id order, returning the number of rows seen; fn runs with no
// lock held.
func (r *Relation) snapScan(at uint64, b *Bounds, fn func(id RowID, t value.Row) bool) uint64 {
	return r.walk(b, func(p *page, i int) value.Row { return p.state(i).visible(at) }, fn)
}

// snapRangeFallback serves a snapshot index range from the version
// store, for an index that postdates the pin or is deferred for a bulk
// load: its trees cannot cover the keys the snapshot sees.  It keeps the
// rows visible at CSN at whose key falls in [lo, hi), sorts them by
// extended key, and calls fn with those past after (the last entry
// indexRange considered, if any) in direction dir until fn returns
// false.  It returns the number of calls.
func (r *Relation) snapRangeFallback(ix *index, at uint64, lo, hi []byte, dir int, after *entry, fn func(id RowID, t value.Row) bool) uint64 {
	type cand struct {
		e entry
		t value.Row
	}
	var cands []cand
	r.snapScan(at, nil, func(id RowID, t value.Row) bool {
		var kb [64]byte
		key := ix.appendKey(kb[:0], id, t)
		if (lo == nil || bytes.Compare(key, lo) >= 0) && (hi == nil || bytes.Compare(key, hi) < 0) {
			c := cand{entry{id: id, ext: ix.spec.Unique}, t}
			c.e.setKey(key)
			cands = append(cands, c)
		}
		return true
	})
	slices.SortFunc(cands, func(a, b cand) int { return dir * a.e.compare(&b.e) })
	var n uint64
	for i := range cands {
		c := &cands[i]
		if after != nil && dir*c.e.compare(after) <= 0 {
			continue
		}
		if n++; !fn(c.e.id, c.t) {
			break
		}
	}
	return n
}

// Snap is a pinned read-only view of the database at one CSN.  Its
// reads acquire no locks and are consistent with each other: they all
// observe exactly the transactions committed at or before the pinned
// CSN, in commit order.  Close it promptly — an open snapshot holds
// back version garbage collection.
type Snap struct {
	db  *DB
	csn uint64
	pin interface{ Close() }
}

// BeginSnapshot pins the current commit sequence number and returns a
// lock-free read view.  The context only gates entry; the snapshot
// lives until Close.
func (db *DB) BeginSnapshot(ctx context.Context) (*Snap, error) {
	pin, err := db.snaps.BeginSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	return &Snap{db: db, csn: pin.CSN(), pin: pin}, nil
}

// CSN returns the snapshot's pinned commit sequence number.
func (s *Snap) CSN() uint64 { return s.csn }

// Close unpins the snapshot and records how many commits it aged past
// (snap.csn.lag).  If it was the last open snapshot and a vacuum
// backlog accumulated, version reclamation is kicked off.
func (s *Snap) Close() {
	if s == nil || s.pin == nil {
		return
	}
	db := s.db
	db.m.snapCSNLag.Observe(int64(db.snaps.Last() - s.csn))
	s.pin.Close()
	s.pin = nil
	if db.snaps.Live() == 0 && db.pubCount.Load()-db.lastVacAt.Load() >= vacuumEvery {
		db.vacuumAsync()
	}
}

// Scan iterates the relation's rows visible in the snapshot, in row-id
// order, skipping the pages b prunes (none when b is nil).
func (s *Snap) Scan(relName string, b *Bounds, fn func(id RowID, t value.Row) bool) error {
	r := s.db.Relation(relName)
	if r == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	n := r.snapScan(s.csn, b, fn)
	s.db.m.snapReads.Add(n)
	s.db.m.rowsRead.Add(n)
	return nil
}

// IndexRange iterates visible rows of the named index in key order over
// [lo, hi) of encoded keys (descending with reverse); nil bounds mean
// unbounded.  Bound semantics match Tx.IndexRange.
func (s *Snap) IndexRange(relName, indexName string, lo, hi []byte, reverse bool, fn func(id RowID, t value.Row) bool) error {
	r := s.db.Relation(relName)
	if r == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	n, _, err := r.indexRange(indexName, s.csn, lo, hi, reverse, fn)
	s.db.m.snapReads.Add(n)
	s.db.m.rowsRead.Add(n)
	return err
}

// IndexGet returns the row whose key in the named unique index is key
// (the encoded columns) as visible in the snapshot, ok false if none.
func (s *Snap) IndexGet(relName, indexName string, key []byte) (RowID, value.Row, bool, error) {
	r := s.db.Relation(relName)
	if r == nil {
		return 0, value.Row{}, false, fmt.Errorf("storage: no relation %q", relName)
	}
	id, t, err := r.indexGet(indexName, s.csn, key)
	if err != nil || t.IsZero() {
		return 0, value.Row{}, false, err
	}
	s.db.m.snapReads.Inc()
	s.db.m.rowsRead.Inc()
	return id, t, true, nil
}

// Get returns the row of row id visible in the snapshot.
func (s *Snap) Get(relName string, id RowID) (value.Row, bool) {
	r := s.db.Relation(relName)
	if r == nil {
		return value.Row{}, false
	}
	r.mu.RLock()
	t := r.slotLocked(id).visible(s.csn)
	r.mu.RUnlock()
	if t.IsZero() {
		return value.Row{}, false
	}
	s.db.m.snapReads.Inc()
	s.db.m.rowsRead.Inc()
	return t, true
}

// Vacuum reclaims versions and history entries invisible below the
// current watermark (the oldest pinned snapshot CSN, or the latest CSN
// when no snapshot is open) and returns how many were reclaimed.
// Automatic passes run amortized behind commits; tests and operators
// call this directly.
func (db *DB) Vacuum() int {
	db.vacMu.Lock()
	defer db.vacMu.Unlock()
	return db.vacuum()
}

// vacuumAsync elects at most one background vacuum at a time; callers
// on the commit path must not wait for it.
func (db *DB) vacuumAsync() {
	if !db.vacMu.TryLock() {
		return
	}
	go func() {
		defer db.vacMu.Unlock()
		db.vacuum()
	}()
}

func (db *DB) vacuum() int {
	db.lastVacAt.Store(db.pubCount.Load())
	w := db.snaps.Watermark()
	total := 0
	for _, name := range db.Relations() {
		if r := db.Relation(name); r != nil {
			total += r.vacuum(w)
		}
	}
	if total > 0 {
		db.m.snapGCReclaimed.Add(uint64(total))
	}
	return total
}

// vacuum trims the relation's version chains and history trees against
// watermark w.  A version dead at w (end <= w) can never be read again:
// every open snapshot is pinned at or after w, and new snapshots pin at
// or after it too.  A row left with one live version visible at w, whose
// row is still the live row (no uncommitted write pending), is
// settled; a row is revisited until it is settled or gone.  A page
// whose block holds more than twice its live rows' bytes, after
// deletes or aborted writes, is compacted.
func (r *Relation) vacuum(w uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	reclaimed := 0
	for pi := range r.pages {
		// A setLocked below may drop the page, heads and all.
		for i := 0; i < pageSize && r.pages[pi].chains > 0; i++ {
			p := &r.pages[pi]
			head := p.heads[i]
			if head == nil {
				continue
			}
			id, t := RowID(pi)<<pageBits|RowID(i), p.row(i)
			// Find the newest version visible at the watermark;
			// everything older is unreachable by any snapshot at or
			// after w.
			var parent *rowVersion
			n := head
			for n != nil && n.begin > w {
				parent, n = n, n.prev
			}
			if n != nil {
				for o := n.prev; o != nil; o = o.prev {
					reclaimed++
				}
				n.prev = nil
				if n.end <= w {
					// Dead at the watermark: drop it from the chain.
					if parent == nil {
						r.setLocked(id, t, nil) // may drop the page
						head = nil
					} else {
						parent.prev = nil
					}
					reclaimed++
				}
			}
			if head != nil && head.prev == nil && head.end == liveCSN && head.begin <= w && head.row.Same(t) {
				r.setLocked(id, t, settled)
			}
		}
		if p := &r.pages[pi]; cap(p.block) > 2*p.bytes {
			p.compact(0)
		}
	}
	for _, ix := range r.indexes {
		if ix.hist == nil || ix.hist.Len() == 0 {
			continue
		}
		// A key Ascend passes is valid only during the call, so the
		// doomed keys are copied, end to end into one buffer.
		var doomed []byte
		var ends []int
		ix.hist.Ascend(nil, nil, func(k []byte, id uint64) bool {
			if !r.histNeededLocked(ix, k, id) {
				doomed = append(doomed, k...)
				ends = append(ends, len(doomed))
			}
			return true
		})
		start := 0
		for _, end := range ends {
			ix.hist.Delete(doomed[start:end])
			start = end
			reclaimed++
		}
	}
	return reclaimed
}

// histNeededLocked reports whether history entry (k, id) is still load-
// bearing: some version in the row's chain encodes k, and the live tree
// does not already carry it for the same row.
// The keys it compares are built on the stack.
func (r *Relation) histNeededLocked(ix *index, k []byte, id RowID) bool {
	s := r.slotLocked(id)
	v := s.ver
	if v == nil {
		return false
	}
	t := v.row
	if v == settled {
		t = s.t
	}
	var kb [64]byte
	if bytes.Equal(ix.appendSnapKey(kb[:0], id, t), k) {
		// The newest version encodes it; the entry is redundant only if
		// the live tree serves the same key for the same row (an abort
		// restored the key, or an update kept it).
		if tv, ok := ix.tree.Get(ix.appendKey(kb[:0], id, t)); ok && tv == id {
			return false
		}
		return true
	}
	for v = v.prev; v != nil; v = v.prev {
		if bytes.Equal(ix.appendSnapKey(kb[:0], id, v.row), k) {
			return true
		}
	}
	return false
}

// VersionStats reports the version-store footprint of one relation:
// chains (a settled row is a chain of one version), versions beyond the
// newest or a dead head, and history-tree entries.  Tests use it to
// prove the GC watermark reclaims.
func (r *Relation) VersionStats() (chains, oldVersions, histEntries int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.eachLocked(func(_ RowID, s rowState) {
		v := s.ver
		if v == nil {
			return
		}
		chains++
		for p := v.prev; p != nil; p = p.prev {
			oldVersions++
		}
		if v.end != liveCSN {
			oldVersions++
		}
	})
	for _, ix := range r.indexes {
		if ix.hist != nil {
			histEntries += ix.hist.Len()
		}
	}
	return
}
