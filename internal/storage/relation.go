// Package storage implements the relational kernel of the music data
// manager: named relations of typed tuples, secondary B-tree indexes,
// snapshot persistence, and ACID transactions built from the write-ahead
// log (package wal) and two-phase locking (package txn).
//
// The paper layers its music data model on the INGRES relational system;
// this package is the corresponding substrate.  Relations live in memory
// for query execution; durability is write-ahead logging plus checkpoint
// snapshots, and recovery replays committed work (redo-only, §2's
// "standard" recovery duty).
package storage

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/value"
)

// RowID identifies a tuple within one relation.  RowIDs are assigned by
// an ever-increasing counter and never reused, so they are stable handles
// for entity surrogates.
type RowID = uint64

// IndexSpec describes a secondary index over a relation.
type IndexSpec struct {
	Name    string
	Columns []string // indexed attribute names, in key order
	Unique  bool
}

// index is a live secondary index.  Beside the live tree it keeps a
// history tree of retired keys (see mvcc.go) so snapshot scans can find
// rows under keys that updates or deletes have since removed, and the
// CSN it was created at, so snapshots older than the index fall back to
// a version-store scan instead of trusting trees that cannot cover them.
type index struct {
	spec      IndexSpec
	cols      []int // resolved column positions
	tree      *btree.Tree
	hist      *btree.Tree // retired keys, always row-id-suffixed; nil until first retire
	createdAt uint64      // first CSN the index can serve; 0 = since the base state

	// Planner statistics (stats.go): last built summary and the
	// relation modCount it was built at, both guarded by r.mu.
	stats   *IndexStats
	statsAt uint64
}

// Relation is a named collection of tuples sharing a schema, with zero or
// more secondary indexes.  Relations are manipulated through a DB
// transaction; the methods here are internal and assume the caller holds
// appropriate locks.
type Relation struct {
	name    string
	schema  *value.Schema
	mu      sync.RWMutex
	rows    map[RowID]value.Tuple
	nextRow RowID
	indexes []*index

	// Snapshot-read version store (mvcc.go): committed version chains
	// per row, and the rows whose chains the vacuum should revisit.
	vers     map[RowID]*rowVersion
	verDirty map[RowID]struct{}

	// ids holds, ascending, every row id in rows or vers (and stale ones
	// until vacuum compacts them), so scans need no sort.  Guarded by mu.
	ids []RowID

	// Planner-statistics bookkeeping (stats.go): mutations since open,
	// guarded by mu, and the counter the owning DB reports rebuilds to.
	modCount      uint64
	statsRebuilds *obs.Counter

	// deferred suspends secondary-index maintenance (bulk loading):
	// mutations touch only the heap, index reads act as if no indexes
	// exist, and buildIndexes reconstructs every tree bottom-up from a
	// sorted run.  Guarded by mu.
	deferred bool
}

func newRelation(name string, schema *value.Schema) *Relation {
	return &Relation{
		name:     name,
		schema:   schema,
		rows:     make(map[RowID]value.Tuple),
		nextRow:  1,
		vers:     make(map[RowID]*rowVersion),
		verDirty: make(map[RowID]struct{}),
	}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *value.Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rows)
}

// addIndex creates and backfills a secondary index.
func (r *Relation) addIndex(spec IndexSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ix := range r.indexes {
		if ix.spec.Name == spec.Name {
			return fmt.Errorf("storage: index %q already exists on %s", spec.Name, r.name)
		}
	}
	cols := make([]int, len(spec.Columns))
	for i, c := range spec.Columns {
		pos, ok := r.schema.Index(c)
		if !ok {
			return fmt.Errorf("storage: index %q: no column %q in %s%s", spec.Name, c, r.name, r.schema)
		}
		cols[i] = pos
	}
	ix := &index{spec: spec, cols: cols, tree: btree.New()}
	if !r.deferred {
		tree, err := r.buildTreeLocked(ix)
		if err != nil {
			return fmt.Errorf("storage: backfill index %q: %w", spec.Name, err)
		}
		ix.tree = tree
	}
	r.indexes = append(r.indexes, ix)
	return nil
}

// buildTreeLocked bulk-builds ix's tree bottom-up from a sorted run over
// the heap: collect every row's key, sort once, pack the B-tree in O(n).
// Caller holds r.mu.  Unique violations surface as adjacent equal keys
// in the run.
func (r *Relation) buildTreeLocked(ix *index) (*btree.Tree, error) {
	type run struct {
		key []byte
		id  RowID
	}
	runs := make([]run, 0, len(r.rows))
	for id, t := range r.rows {
		runs = append(runs, run{key: ix.key(id, t), id: id})
	}
	sort.Slice(runs, func(a, b int) bool {
		if c := bytes.Compare(runs[a].key, runs[b].key); c != 0 {
			return c < 0
		}
		return runs[a].id < runs[b].id
	})
	keys := make([][]byte, len(runs))
	vals := make([]uint64, len(runs))
	for j, rn := range runs {
		if j > 0 && bytes.Equal(runs[j-1].key, rn.key) {
			// Only unique indexes can collide: non-unique keys carry a
			// row-id suffix.
			return nil, fmt.Errorf("%w: index %q, key %s",
				ErrDuplicateKey, ix.spec.Name, tupleKeyString(ix, r.rows[rn.id]))
		}
		keys[j] = rn.key
		vals[j] = rn.id
	}
	return btree.NewFromSorted(keys, vals)
}

// deferIndexes suspends secondary-index maintenance for bulk loading:
// subsequent mutations touch only the heap, and index reads behave as if
// the relation had no indexes (planners fall back to heap scans,
// snapshot ranges to version-store scans).  buildIndexes resumes.
func (r *Relation) deferIndexes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deferred = true
}

// Deferred reports whether index maintenance is suspended.
func (r *Relation) Deferred() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.deferred
}

// buildIndexes reconstructs every secondary index from a sorted run over
// the heap and resumes inline maintenance.  On error (a unique violation
// surfaced by the sorted pass) the relation stays deferred and no tree
// is replaced.
func (r *Relation) buildIndexes() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.deferred {
		return nil
	}
	rebuilt := make([]*btree.Tree, len(r.indexes))
	for i, ix := range r.indexes {
		tree, err := r.buildTreeLocked(ix)
		if err != nil {
			return fmt.Errorf("storage: %s: bulk build: %w", r.name, err)
		}
		rebuilt[i] = tree
	}
	for i, ix := range r.indexes {
		ix.tree = rebuilt[i]
		ix.hist = nil // retired keys predate the rebuild; the floor covers them
		ix.stats = nil
		ix.statsAt = 0
	}
	r.deferred = false
	r.modCount++
	return nil
}

// key builds the index key for tuple t with row id: the order-preserving
// encoding of the indexed columns, suffixed with the row id for
// non-unique indexes so that duplicate attribute values remain distinct
// tree keys.
func (ix *index) key(id RowID, t value.Tuple) []byte {
	return ix.appendKey(nil, id, t)
}

// appendKey appends ix.key(id, t) to dst.
func (ix *index) appendKey(dst []byte, id RowID, t value.Tuple) []byte {
	for _, c := range ix.cols {
		dst = value.AppendKey(dst, t[c])
	}
	if !ix.spec.Unique {
		dst = appendRowID(dst, id)
	}
	return dst
}

func appendRowID(k []byte, id RowID) []byte {
	return append(k, byte(id>>56), byte(id>>48), byte(id>>40), byte(id>>32),
		byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

func (ix *index) insert(id RowID, t value.Tuple) error {
	k := ix.key(id, t)
	if ix.spec.Unique {
		if _, exists := ix.tree.Get(k); exists {
			return fmt.Errorf("%w: index %q, key %s", ErrDuplicateKey, ix.spec.Name, tupleKeyString(ix, t))
		}
	}
	ix.tree.Set(k, id)
	return nil
}

func (ix *index) remove(id RowID, t value.Tuple) {
	ix.tree.Delete(ix.key(id, t))
}

func tupleKeyString(ix *index, t value.Tuple) string {
	parts := make([]string, len(ix.cols))
	for i, c := range ix.cols {
		parts[i] = t[c].Quoted()
	}
	return fmt.Sprint(parts)
}

// insertRow stores t (already validated) under a fresh row id, updating
// indexes.  If id is non-zero, that specific id is used (recovery path).
func (r *Relation) insertRow(id RowID, t value.Tuple) (RowID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		id = r.nextRow
	}
	if _, exists := r.rows[id]; exists {
		return 0, fmt.Errorf("storage: %s: row %d already exists", r.name, id)
	}
	if !r.deferred {
		for i, ix := range r.indexes {
			if err := ix.insert(id, t); err != nil {
				for _, undo := range r.indexes[:i] {
					undo.remove(id, t)
				}
				return 0, fmt.Errorf("storage: %s: %w", r.name, err)
			}
		}
	}
	r.noteIDLocked(id)
	r.rows[id] = t
	if id >= r.nextRow {
		r.nextRow = id + 1
	}
	r.modCount++
	return id, nil
}

// deleteRow removes row id, returning the old tuple.
func (r *Relation) deleteRow(id RowID) (value.Tuple, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.rows[id]
	if !ok {
		return nil, fmt.Errorf("storage: %s: no row %d", r.name, id)
	}
	if !r.deferred {
		for _, ix := range r.indexes {
			ix.retire(id, old)
			ix.remove(id, old)
		}
	}
	delete(r.rows, id)
	r.modCount++
	return old, nil
}

// updateRow replaces row id with t, returning the old tuple.
func (r *Relation) updateRow(id RowID, t value.Tuple) (value.Tuple, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.rows[id]
	if !ok {
		return nil, fmt.Errorf("storage: %s: no row %d", r.name, id)
	}
	if !r.deferred {
		for _, ix := range r.indexes {
			ix.retire(id, old)
			ix.remove(id, old)
		}
		for i, ix := range r.indexes {
			if err := ix.insert(id, t); err != nil {
				// Roll the index changes back.
				for _, redo := range r.indexes[:i] {
					redo.remove(id, t)
				}
				for _, redo := range r.indexes {
					redo.insert(id, old) //nolint:errcheck // restoring prior state
				}
				return nil, fmt.Errorf("storage: %s: %w", r.name, err)
			}
		}
	}
	r.rows[id] = t
	r.modCount++
	return old, nil
}

// get returns the tuple stored under id.
func (r *Relation) get(id RowID) (value.Tuple, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.rows[id]
	return t, ok
}

// scan invokes fn for every row in ascending row-id order, returning the
// number of rows seen.  Iteration stops if fn returns false.
func (r *Relation) scan(fn func(id RowID, t value.Tuple) bool) uint64 {
	return r.walkIDs(func(id RowID) value.Tuple { return r.rows[id] }, fn)
}

// walkIDs calls fn in row-id order with each id of r.ids that pick maps
// to a tuple until fn returns false, and returns the number of calls.
// pick runs under the read lock 128 ids at a time, fn with no lock held;
// each chunk resumes after the last id visited.
func (r *Relation) walkIDs(pick func(id RowID) value.Tuple, fn func(id RowID, t value.Tuple) bool) (n uint64) {
	const chunk = 128
	ids, ts := make([]RowID, 0, chunk), make([]value.Tuple, 0, chunk)
	for next, more := RowID(0), true; more; {
		ids, ts = ids[:0], ts[:0]
		r.mu.RLock()
		i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= next })
		end := min(i+chunk, len(r.ids))
		for _, id := range r.ids[i:end] {
			if t := pick(id); t != nil {
				ids, ts = append(ids, id), append(ts, t)
			}
			next = id + 1
		}
		more = end < len(r.ids)
		r.mu.RUnlock()
		for k, id := range ids {
			if n++; !fn(id, ts[k]) {
				return n
			}
		}
	}
	return n
}

// noteIDLocked adds id to r.ids unless present: almost always an append,
// as new rows take ever-larger ids; one arriving out of order (replay, a
// rolled-back delete) is placed by binary search.  Caller holds r.mu.
func (r *Relation) noteIDLocked(id RowID) {
	n := len(r.ids)
	if n == 0 || r.ids[n-1] < id {
		r.ids = append(r.ids, id)
	} else if i := sort.Search(n, func(i int) bool { return r.ids[i] >= id }); r.ids[i] != id {
		r.ids = slices.Insert(r.ids, i, id)
	}
}

// compactIDsLocked drops the ids in neither rows nor vers.
func (r *Relation) compactIDsLocked() {
	r.ids = slices.DeleteFunc(r.ids, func(id RowID) bool {
		_, live := r.rows[id]
		_, kept := r.vers[id]
		return !live && !kept
	})
}

// Indexes returns the specs of the relation's secondary indexes, in
// creation order.
func (r *Relation) Indexes() []IndexSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	specs := make([]IndexSpec, len(r.indexes))
	for i, ix := range r.indexes {
		specs[i] = ix.spec
	}
	return specs
}

// IndexByColumn returns the spec of the first index whose leading key
// column is col (case-insensitive).  Query planners use it to match a
// sargable predicate to an access path.
func (r *Relation) IndexByColumn(col string) (IndexSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.deferred {
		return IndexSpec{}, false
	}
	for _, ix := range r.indexes {
		if len(ix.spec.Columns) > 0 && strings.EqualFold(ix.spec.Columns[0], col) {
			return ix.spec, true
		}
	}
	return IndexSpec{}, false
}

// IndexRangeCount returns the number of entries of the named index in
// the encoded key range [lo, hi), computed from the B-tree's order
// statistics without iterating.  It reports false if the index does not
// exist.  All index-tree mutations happen under r.mu (insertRow,
// deleteRow, updateRow), so the read lock suffices.
func (r *Relation) IndexRangeCount(indexName string, lo, hi []byte) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix := r.findIndex(indexName)
	if ix == nil || r.deferred {
		return 0, false
	}
	return ix.tree.CountRange(lo, hi), true
}

// IndexHas reports whether the named index holds key (for a unique
// index, the encoded columns).  Like IndexRangeCount it reads the live
// tree, uncommitted changes included: a hint for callers that confirm
// under a lock.
func (r *Relation) IndexHas(indexName string, key []byte) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix := r.findIndex(indexName)
	if ix == nil || r.deferred {
		return false
	}
	_, ok := ix.tree.Get(key)
	return ok
}

// IndexAt returns the i'th smallest key (0-based) of the named index,
// from the B-tree's order statistics in O(log n); ok is false when i is
// out of range or the index does not exist.  It reads the live tree: a
// transactional caller holds the relation's lock.  The key must not be
// modified.
func (r *Relation) IndexAt(indexName string, i int) (key []byte, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix := r.findIndex(indexName)
	if ix == nil || r.deferred {
		return nil, false
	}
	key, _, ok = ix.tree.At(i)
	return key, ok
}

// ScanRange iterates rows of the named index in key order over the range
// [lo, hi) of encoded keys; nil bounds mean unbounded.  With reverse set,
// the same range is visited in descending key order.  Iteration stops if
// fn returns false.  The relation lock is held for the duration; callers
// go through Tx.IndexRange for transactional isolation.
func (r *Relation) ScanRange(indexName string, lo, hi []byte, reverse bool, fn func(id RowID, t value.Tuple) bool) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix := r.findIndex(indexName)
	if ix == nil {
		return fmt.Errorf("storage: no index %q on %s", indexName, r.name)
	}
	if r.deferred {
		return fmt.Errorf("storage: index %q on %s is deferred for bulk load", indexName, r.name)
	}
	visit := func(_ []byte, id uint64) bool {
		t, ok := r.rows[id]
		if !ok {
			return true
		}
		return fn(id, t)
	}
	if reverse {
		ix.tree.Descend(hi, lo, visit)
	} else {
		ix.tree.Ascend(lo, hi, visit)
	}
	return nil
}

// dropIndex removes the named index (used to back out an index whose
// creation could not be logged).
func (r *Relation) dropIndex(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, ix := range r.indexes {
		if ix.spec.Name == name {
			r.indexes = append(r.indexes[:i], r.indexes[i+1:]...)
			return
		}
	}
}

// CheckIndexes verifies that every secondary index agrees exactly with
// the heap: same cardinality, every entry pointing at a live row, every
// key matching the row it indexes, and the underlying B-tree structurally
// sound.  Used by the crash-recovery torture harness after every reopen.
func (r *Relation) CheckIndexes() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.deferred {
		return nil // trees are detached until buildIndexes reconstructs them
	}
	for _, ix := range r.indexes {
		if err := ix.tree.CheckInvariants(); err != nil {
			return fmt.Errorf("storage: %s index %q: %w", r.name, ix.spec.Name, err)
		}
		if got, want := ix.tree.Len(), len(r.rows); got != want {
			return fmt.Errorf("storage: %s index %q: %d entries for %d rows", r.name, ix.spec.Name, got, want)
		}
		var bad error
		ix.tree.Ascend(nil, nil, func(key []byte, id uint64) bool {
			t, ok := r.rows[id]
			if !ok {
				bad = fmt.Errorf("storage: %s index %q: entry for dead row %d", r.name, ix.spec.Name, id)
				return false
			}
			if want := ix.key(id, t); !bytes.Equal(key, want) {
				bad = fmt.Errorf("storage: %s index %q: stale key for row %d", r.name, ix.spec.Name, id)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// findIndex returns the index with the given name.
func (r *Relation) findIndex(name string) *index {
	for _, ix := range r.indexes {
		if ix.spec.Name == name {
			return ix
		}
	}
	return nil
}
