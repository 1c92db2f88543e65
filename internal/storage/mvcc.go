package storage

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

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
//     row is its only committed state and every CSN sees it.  Recovery
//     settles every row; the vacuum re-settles a row once its single
//     version is visible at the watermark and is still the live row.
//     A write turns a settled head back into a real base version before
//     it changes the live row.
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
// [begin, end).  end == liveCSN while the version is current.  Its row
// is usually the very row the slot held live when it committed, so a
// version shares the live row's bytes instead of copying them.
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
// row to settle it again.  s is the slot as read, and is updated too.
// Caller holds r.mu exclusively.
func (r *Relation) unsettleLocked(id RowID, s *slot) {
	if s.ver == settled {
		s.ver = &rowVersion{end: liveCSN, row: s.t}
		r.setLocked(id, s.t, s.ver)
		r.verDirty[id] = struct{}{}
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
		r.setLocked(op.id, s.t, &rowVersion{begin: c, end: liveCSN, row: op.t, prev: old})
	case verDel:
		// The closed-off old version stays reachable until vacuumed.
	}
	r.verDirty[op.id] = struct{}{}
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
	r.eachLocked(func(id RowID, s *slot) {
		var v *rowVersion
		if !s.t.IsZero() {
			v = settled
		}
		r.setLocked(id, s.t, v)
	})
	r.verDirty = make(map[RowID]struct{})
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
// The key is built on the stack; btree.Set makes the tree's copy.
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

// snapVisibleLocked returns the row of row id visible at CSN at, zero
// if none.  Caller holds r.mu (either mode).
func (r *Relation) snapVisibleLocked(id RowID, at uint64) value.Row {
	s := r.slotLocked(id)
	return s.visible(at)
}

// visible returns the slot's row visible at CSN at, zero if none.
func (s *slot) visible(at uint64) value.Row {
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
	return r.walk(b, func(s *slot) value.Row { return s.visible(at) }, fn)
}

// snapCand is one candidate row of a snapshot index scan: the sort key
// (as the history tree orders it; nil when candidates arrive in order),
// the row id, and its visible row, kept as the immutable row it is.
type snapCand struct {
	key []byte
	id  RowID
	t   value.Row
}

// snapRange iterates rows visible at CSN at whose index key falls in
// [lo, hi), in key order (descending with reverse).  Bounds have the
// same semantics as ScanRange on the same index.  Every candidate is
// verified against its visible version's key, and the result is emitted
// outside the lock.  When the key history holds no key in the range,
// every visible row sits in the live tree under its visible key, so the
// live tree alone yields each row once and in key order; otherwise the
// two trees are merged, deduplicated and sorted.  The candidates are
// collected into a slice from candPool.
func (r *Relation) snapRange(indexName string, at uint64, lo, hi []byte, reverse bool, fn func(id RowID, t value.Row) bool) (uint64, error) {
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
		r.mu.RUnlock()
		cands := r.snapRangeFallback(ix, at, lo, hi)
		sortCands(cands)
		return emitCands(cands, reverse, fn), nil
	}
	var kb [64]byte
	buf := kb[:0]
	cp := candPool.Get().(*[]snapCand)
	cands := (*cp)[:0]
	if !ix.histHas(lo, hi) {
		ix.tree.Ascend(lo, hi, func(key []byte, id uint64) bool {
			if t := r.snapVisibleLocked(id, at); !t.IsZero() {
				if buf = ix.appendKey(buf[:0], id, t); bytes.Equal(buf, key) {
					cands = append(cands, snapCand{id: id, t: t})
				}
			}
			return true
		})
		r.mu.RUnlock()
		return emitPooled(cp, cands, reverse, fn), nil
	}
	// A row can surface from both the live tree and the key history, but
	// only under its visible version's key — so one admitted candidate
	// per id, and the dedup is a set lookup, not a slice scan.  History
	// keys always carry the row id; the sort key does too.
	seen := make(map[RowID]struct{})
	consider := func(key []byte, id RowID, hist bool) {
		if _, dup := seen[id]; dup {
			return
		}
		t := r.snapVisibleLocked(id, at)
		if t.IsZero() {
			return
		}
		if buf = ix.appendKey(buf[:0], id, t); hist && ix.spec.Unique {
			buf = appendRowID(buf, id)
		}
		if !bytes.Equal(buf, key) {
			return
		}
		seen[id] = struct{}{}
		switch {
		case hist:
			key = append([]byte(nil), key...)
		case ix.spec.Unique:
			key = appendRowID(append([]byte(nil), key...), id)
		}
		cands = append(cands, snapCand{key: key, id: id, t: t})
	}
	ix.tree.Ascend(lo, hi, func(key []byte, id uint64) bool {
		consider(key, id, false)
		return true
	})
	ix.hist.Ascend(lo, hi, func(key []byte, id uint64) bool {
		consider(key, id, true)
		return true
	})
	r.mu.RUnlock()
	sortCands(cands)
	return emitPooled(cp, cands, reverse, fn), nil
}

// candPool recycles snapRange's candidate slices: once warm, a range
// read allocates nothing for its candidates, however many it holds.
var candPool = sync.Pool{New: func() any { return new([]snapCand) }}

// emitPooled emits cands, then clears them, so the pool keeps no row
// alive, and returns them to candPool in cp.
func emitPooled(cp *[]snapCand, cands []snapCand, reverse bool, fn func(id RowID, t value.Row) bool) uint64 {
	n := emitCands(cands, reverse, fn)
	clear(cands)
	*cp = cands[:0]
	candPool.Put(cp)
	return n
}

// histHas reports whether the key history holds a key in [lo, hi).
func (ix *index) histHas(lo, hi []byte) bool {
	found := false
	if ix.hist != nil {
		ix.hist.Ascend(lo, hi, func([]byte, uint64) bool {
			found = true
			return false
		})
	}
	return found
}

// snapRangeFallback computes a snapshot index range purely from version
// chains (used when the index is newer than the snapshot), walking the
// slots like a snapshot scan.  The sort/bound key mirrors what the live
// tree would hold: the encoded columns, row-id-suffixed only for
// non-unique indexes.
func (r *Relation) snapRangeFallback(ix *index, at uint64, lo, hi []byte) []snapCand {
	var cands []snapCand
	r.snapScan(at, nil, func(id RowID, t value.Row) bool {
		key := ix.key(id, t)
		if (lo == nil || bytes.Compare(key, lo) >= 0) && (hi == nil || bytes.Compare(key, hi) < 0) {
			if ix.spec.Unique {
				key = appendRowID(key, id)
			}
			cands = append(cands, snapCand{key: key, id: id, t: t})
		}
		return true
	})
	return cands
}

func sortCands(cands []snapCand) {
	sort.Slice(cands, func(i, j int) bool { return bytes.Compare(cands[i].key, cands[j].key) < 0 })
}

// emitCands calls fn for the candidates, in order or in reverse, and
// returns how many it saw.
func emitCands(cands []snapCand, reverse bool, fn func(id RowID, t value.Row) bool) uint64 {
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
	n, err := r.snapRange(indexName, s.csn, lo, hi, reverse, fn)
	s.db.m.snapReads.Add(n)
	s.db.m.rowsRead.Add(n)
	return err
}

// IndexGet returns the row whose key in the named unique index is key
// (the encoded columns) as visible in the snapshot, ok false if none: a
// live-tree probe, or — when the row has since left the tree under that
// key, or the tree postdates the pin — the range read over the key.
func (s *Snap) IndexGet(relName, indexName string, key []byte) (RowID, value.Row, bool, error) {
	r := s.db.Relation(relName)
	if r == nil {
		return 0, value.Row{}, false, fmt.Errorf("storage: no relation %q", relName)
	}
	var id RowID
	var t value.Row
	var kb [64]byte
	r.mu.RLock()
	if ix := r.findIndex(indexName); ix != nil && s.csn >= ix.createdAt && !r.deferred {
		if id, _ = ix.tree.Get(key); id != 0 {
			if t = r.snapVisibleLocked(id, s.csn); !t.IsZero() && !bytes.Equal(ix.appendKey(kb[:0], id, t), key) {
				t = value.Row{}
			}
		}
	}
	r.mu.RUnlock()
	if t.IsZero() {
		hi := AppendKeyUpper(key[:len(key):len(key)])
		if _, err := r.snapRange(indexName, s.csn, key, hi, false, func(rid RowID, tu value.Row) bool {
			id, t = rid, tu
			return false
		}); err != nil || t.IsZero() {
			return 0, value.Row{}, false, err
		}
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
	t := r.snapVisibleLocked(id, s.csn)
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
// settled; a row is revisited until it is settled or gone.
func (r *Relation) vacuum(w uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	reclaimed := 0
	for id := range r.verDirty {
		s := r.slotLocked(id)
		head := s.ver
		if head == nil || head == settled {
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
					r.setLocked(id, s.t, nil) // may drop the slot's page
					head = nil
				} else {
					parent.prev = nil
				}
				reclaimed++
			}
		}
		switch {
		case head == nil:
			delete(r.verDirty, id)
		case head.prev == nil && head.end == liveCSN && head.begin <= w && head.row.Same(s.t):
			r.setLocked(id, s.t, settled)
			delete(r.verDirty, id)
		}
	}
	for _, ix := range r.indexes {
		if ix.hist == nil || ix.hist.Len() == 0 {
			continue
		}
		// The tree never writes a key's bytes after Set copied them in,
		// so the doomed keys are the tree's own, held until deleted.
		var doomed [][]byte
		ix.hist.Ascend(nil, nil, func(k []byte, id uint64) bool {
			if !r.histNeededLocked(ix, k, id) {
				doomed = append(doomed, k)
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
	r.eachLocked(func(_ RowID, s *slot) {
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
