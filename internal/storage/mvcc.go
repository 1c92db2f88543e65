package storage

import (
	"bytes"
	"context"
	"fmt"
	"sort"

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
//   - Secondary indexes keep a companion history tree (index.hist) of
//     retired keys: updateRow/deleteRow record the outgoing tuple's key
//     at operation time.  A snapshot index scan merges the live tree
//     with the history over the requested range and verifies each
//     candidate by re-deriving the visible version's key, which filters
//     uncommitted inserts, superseded keys, and abort debris alike.
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
// [begin, end).  end == liveCSN while the version is current.
type rowVersion struct {
	begin, end uint64
	tuple      value.Tuple
	prev       *rowVersion // next older version
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
	t   value.Tuple // committed tuple for add/set; nil for del
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
	old := r.vers[op.id]
	if old != nil && old.end == liveCSN {
		old.end = c
	}
	switch op.op {
	case verAdd, verSet:
		r.noteIDLocked(op.id)
		r.vers[op.id] = &rowVersion{begin: c, end: liveCSN, tuple: op.t, prev: old}
	case verDel:
		// The closed-off old version stays reachable until vacuumed.
	}
	r.verDirty[op.id] = struct{}{}
}

// seedVersions rebuilds the version store from the recovered heap: one
// base version per row at CSN 0, empty history trees.  Recovery replay
// goes through the ordinary row mutators, which leave behind history
// entries and no chains; this resets both.
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
	r.vers = make(map[RowID]*rowVersion, len(r.rows))
	for id, t := range r.rows {
		r.vers[id] = &rowVersion{begin: 0, end: liveCSN, tuple: t}
	}
	r.compactIDsLocked()
	r.verDirty = make(map[RowID]struct{})
	for _, ix := range r.indexes {
		ix.hist = nil
		ix.createdAt = 0
	}
}

// snapKey is the history-tree key for tuple t of row id: the index key
// always suffixed with the row id, so versions of distinct rows that
// shared a unique key over time remain distinct entries.
func (ix *index) snapKey(id RowID, t value.Tuple) []byte {
	var k []byte
	for _, c := range ix.cols {
		k = value.AppendKey(k, t[c])
	}
	return appendRowID(k, id)
}

// retire records the outgoing tuple's key in the index history so
// snapshot scans can still find the row under its old key.  Called from
// deleteRow/updateRow under r.mu; entries that never correspond to a
// committed version (aborted writes, rollback compensation) are inert —
// candidate verification rejects them — and the vacuum sweeps them out.
func (ix *index) retire(id RowID, old value.Tuple) {
	if ix.hist == nil {
		ix.hist = btree.New()
	}
	ix.hist.Set(ix.snapKey(id, old), id)
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

// snapVisibleLocked returns the tuple of row id visible at CSN at, or
// nil.  Caller holds r.mu (either mode).
func (r *Relation) snapVisibleLocked(id RowID, at uint64) value.Tuple {
	v := r.vers[id]
	for v != nil && v.begin > at {
		v = v.prev
	}
	if v != nil && v.end > at {
		return v.tuple
	}
	return nil
}

// snapScan iterates the rows visible at CSN at in row-id order,
// returning the number of rows seen; fn runs with no lock held.
func (r *Relation) snapScan(at uint64, fn func(id RowID, t value.Tuple) bool) uint64 {
	return r.walkIDs(func(id RowID) value.Tuple { return r.snapVisibleLocked(id, at) }, fn)
}

// snapCand is one candidate row of a snapshot index scan: the sort key
// (as the live tree orders it), the row, and its visible tuple.
type snapCand struct {
	key []byte
	id  RowID
	t   value.Tuple
}

// snapRange iterates rows visible at CSN at whose index key falls in
// [lo, hi), in key order (descending with reverse).  Bounds have the
// same semantics as ScanRange on the same index.  It merges the live
// tree with the key history, verifying every candidate against the
// visible version, then emits the deduplicated, sorted result outside
// the lock.
func (r *Relation) snapRange(indexName string, at uint64, lo, hi []byte, reverse bool, fn func(id RowID, t value.Tuple) bool) (uint64, error) {
	r.mu.RLock()
	ix := r.findIndex(indexName)
	if ix == nil {
		r.mu.RUnlock()
		return 0, fmt.Errorf("storage: no index %q on %s", indexName, r.name)
	}
	if at < ix.createdAt || r.deferred {
		// The index postdates the snapshot (or maintenance is deferred for
		// a bulk load): its trees cannot cover keys retired before it
		// existed.  Derive the range from the version store instead.
		cands := r.snapRangeFallbackLocked(ix, at, lo, hi)
		r.mu.RUnlock()
		return emitCands(cands, reverse, fn), nil
	}
	var cands []snapCand
	// A row can surface from both the live tree and the key history, but
	// only under its visible version's key — so one admitted candidate
	// per id, and the dedup is a set lookup, not a slice scan.
	seen := make(map[RowID]struct{})
	consider := func(key []byte, id RowID) {
		if _, dup := seen[id]; dup {
			return
		}
		t := r.snapVisibleLocked(id, at)
		if t == nil {
			return
		}
		want := ix.snapKey(id, t)
		if !bytes.Equal(want, key) {
			return
		}
		seen[id] = struct{}{}
		cands = append(cands, snapCand{key: key, id: id, t: t})
	}
	ix.tree.Ascend(lo, hi, func(key []byte, id uint64) bool {
		k := key
		if ix.spec.Unique {
			k = appendRowID(append([]byte(nil), key...), id)
		}
		consider(k, id)
		return true
	})
	if ix.hist != nil {
		ix.hist.Ascend(lo, hi, func(key []byte, id uint64) bool {
			consider(append([]byte(nil), key...), id)
			return true
		})
	}
	r.mu.RUnlock()
	return emitCands(cands, reverse, fn), nil
}

// snapRangeFallbackLocked computes a snapshot index range purely from
// version chains (used when the index is newer than the snapshot).  The
// sort/bound key mirrors what the live tree would hold: the encoded
// columns, row-id-suffixed only for non-unique indexes.
func (r *Relation) snapRangeFallbackLocked(ix *index, at uint64, lo, hi []byte) []snapCand {
	var cands []snapCand
	for _, id := range r.ids {
		t := r.snapVisibleLocked(id, at)
		if t == nil {
			continue
		}
		key := ix.key(id, t)
		if lo != nil && bytes.Compare(key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(key, hi) >= 0 {
			continue
		}
		if ix.spec.Unique {
			key = appendRowID(key, id)
		}
		cands = append(cands, snapCand{key: key, id: id, t: t})
	}
	return cands
}

func emitCands(cands []snapCand, reverse bool, fn func(id RowID, t value.Tuple) bool) uint64 {
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i].key, cands[j].key) < 0 })
	var n uint64
	if reverse {
		for i := len(cands) - 1; i >= 0; i-- {
			n++
			if !fn(cands[i].id, cands[i].t) {
				break
			}
		}
		return n
	}
	for _, c := range cands {
		n++
		if !fn(c.id, c.t) {
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
// order.
func (s *Snap) Scan(relName string, fn func(id RowID, t value.Tuple) bool) error {
	r := s.db.Relation(relName)
	if r == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	n := r.snapScan(s.csn, fn)
	s.db.m.snapReads.Add(n)
	s.db.m.rowsRead.Add(n)
	return nil
}

// IndexRange iterates visible rows of the named index in key order over
// [lo, hi) of encoded keys (descending with reverse); nil bounds mean
// unbounded.  Bound semantics match Tx.IndexRange.
func (s *Snap) IndexRange(relName, indexName string, lo, hi []byte, reverse bool, fn func(id RowID, t value.Tuple) bool) error {
	r := s.db.Relation(relName)
	if r == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	n, err := r.snapRange(indexName, s.csn, lo, hi, reverse, fn)
	s.db.m.snapReads.Add(n)
	s.db.m.rowsRead.Add(n)
	return err
}

// IndexGet returns the row whose key in the named unique index is key
// (the encoded columns) as visible in the snapshot, ok false if none: a
// live-tree probe, or — when the row has since left the tree under that
// key, or the tree postdates the pin — the range read over the key.
func (s *Snap) IndexGet(relName, indexName string, key []byte) (RowID, value.Tuple, bool, error) {
	r := s.db.Relation(relName)
	if r == nil {
		return 0, nil, false, fmt.Errorf("storage: no relation %q", relName)
	}
	var id RowID
	var t value.Tuple
	var kb [64]byte
	r.mu.RLock()
	if ix := r.findIndex(indexName); ix != nil && s.csn >= ix.createdAt && !r.deferred {
		if id, _ = ix.tree.Get(key); id != 0 {
			if t = r.snapVisibleLocked(id, s.csn); t != nil && !bytes.Equal(ix.appendKey(kb[:0], id, t), key) {
				t = nil
			}
		}
	}
	r.mu.RUnlock()
	if t == nil {
		hi := append(append(make([]byte, 0, len(key)+9), key...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		if _, err := r.snapRange(indexName, s.csn, key, hi, false, func(rid RowID, tu value.Tuple) bool {
			id, t = rid, tu
			return false
		}); err != nil || t == nil {
			return 0, nil, false, err
		}
	}
	s.db.m.snapReads.Inc()
	s.db.m.rowsRead.Inc()
	return id, t, true, nil
}

// Get returns the tuple of row id visible in the snapshot.
func (s *Snap) Get(relName string, id RowID) (value.Tuple, bool) {
	r := s.db.Relation(relName)
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	t := r.snapVisibleLocked(id, s.csn)
	r.mu.RUnlock()
	if t == nil {
		return nil, false
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
// or after it too.
func (r *Relation) vacuum(w uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	reclaimed := 0
	for id := range r.verDirty {
		head := r.vers[id]
		if head == nil {
			delete(r.verDirty, id)
			continue
		}
		// Find the newest version visible at the watermark; everything
		// older is unreachable by any snapshot at or after w.
		var parent *rowVersion
		n := head
		for n != nil && n.begin > w {
			parent, n = n, n.prev
		}
		if n != nil {
			for p := n.prev; p != nil; p = p.prev {
				reclaimed++
			}
			n.prev = nil
			if n.end <= w {
				// Dead at the watermark: drop it from the chain.
				if parent == nil {
					delete(r.vers, id)
				} else {
					parent.prev = nil
				}
				reclaimed++
			}
		}
		if h := r.vers[id]; h == nil || (h.prev == nil && h.end == liveCSN) {
			delete(r.verDirty, id)
		}
	}
	// Ids of vacuumed rows stay (scans skip them) until they are over a
	// fifth of r.ids: compacting per delete is O(rows) under r.mu.
	if 4*len(r.ids) > 5*max(len(r.rows), len(r.vers)) {
		r.compactIDsLocked()
	}
	for _, ix := range r.indexes {
		if ix.hist == nil || ix.hist.Len() == 0 {
			continue
		}
		var doomed [][]byte
		ix.hist.Ascend(nil, nil, func(k []byte, id uint64) bool {
			if !r.histNeededLocked(ix, k, id) {
				doomed = append(doomed, append([]byte(nil), k...))
			}
			return true
		})
		for _, k := range doomed {
			ix.hist.Delete(k)
			reclaimed++
		}
	}
	return reclaimed
}

// histNeededLocked reports whether history entry (k, id) is still load-
// bearing: some version in the row's chain encodes k, and the live tree
// does not already carry it for the same row.
func (r *Relation) histNeededLocked(ix *index, k []byte, id RowID) bool {
	v := r.vers[id]
	if v == nil {
		return false
	}
	if bytes.Equal(ix.snapKey(id, v.tuple), k) {
		// The newest version encodes it; the entry is redundant only if
		// the live tree serves the same key for the same row (an abort
		// restored the key, or an update kept it).
		if tv, ok := ix.tree.Get(ix.key(id, v.tuple)); ok && tv == id {
			return false
		}
		return true
	}
	for v = v.prev; v != nil; v = v.prev {
		if bytes.Equal(ix.snapKey(id, v.tuple), k) {
			return true
		}
	}
	return false
}

// VersionStats reports the version-store footprint of one relation:
// chains with more than one version or a dead head, and history-tree
// entries.  Tests use it to prove the GC watermark reclaims.
func (r *Relation) VersionStats() (chains, oldVersions, histEntries int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.vers {
		chains++
		for p := v.prev; p != nil; p = p.prev {
			oldVersions++
		}
		if v.end != liveCSN {
			oldVersions++
		}
	}
	for _, ix := range r.indexes {
		if ix.hist != nil {
			histEntries += ix.hist.Len()
		}
	}
	return
}
