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
	nextRow RowID
	indexes []*index

	// pages holds one slot per row id, pageSize ids to a page
	// (pages[id>>pageBits]; row id 0 is never used).  A slot holds the
	// row's live row and the head of its committed version chain
	// (mvcc.go), or nothing.  A page is allocated when one of its slots
	// gains content and dropped when its last one empties (setLocked),
	// so the slots held follow the rows and versions still held, not
	// every row id ever issued.  Row ids are never reused, so a walk in
	// page order is a walk in row-id order.  live counts the slots with
	// a live row.  Guarded by mu.
	pages []page
	live  int

	// verDirty holds the rows whose version chains the vacuum should
	// revisit.
	verDirty map[RowID]struct{}

	// Planner-statistics bookkeeping (stats.go): mutations since open,
	// guarded by mu, and the counter the owning DB reports rebuilds to.
	modCount      uint64
	statsRebuilds *obs.Counter

	// deferred suspends secondary-index maintenance (bulk loading):
	// mutations touch only the heap, index reads act as if no indexes
	// exist, and buildIndexes reconstructs every tree bottom-up from a
	// sorted run.  Guarded by mu.
	deferred bool

	// scratch is the tuple setLocked decodes rows into to widen page
	// summaries.  Guarded by mu held exclusively.
	scratch value.Tuple
}

// slot is one row id's place in a relation: the live row, uncommitted
// writes included (zero when there is no live row), and the newest
// committed version (nil when no snapshot can see the row; settled when
// the live row is the row's only committed state, see mvcc.go).  A slot
// is 24 bytes: a row is its encoded bytes, immutable, so a slot never
// holds a decoded tuple.
type slot struct {
	t   value.Row
	ver *rowVersion
}

// pageBits sizes a page of slots: 256 row ids, one read-lock hold of a
// walk.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// page is the directory entry of pageSize consecutive row ids: their
// slots (nil while none holds anything), how many hold a tuple or a
// version, and the integer summary of every tuple the page has held.
// The slots are allocated apart so each takes exactly 8 KiB.
type page struct {
	slots *[pageSize]slot
	used  int
	sum   []span // per column; nil while the page is dropped
}

// span is one column's summary on a page: every value the page's live
// tuples and version-chain heads have held in that column lies in
// [lo, hi].  lo > hi marks a column that has held a value of another
// kind: value.Compare orders kinds apart, so a range says nothing.
type span struct{ lo, hi int64 }

// unsummarized is the span of a column that has held a non-integer.
var unsummarized = span{1, 0}

// widen extends the page's summary over tuple t.  Summaries only ever
// widen — a tuple that leaves the page leaves its values in the range —
// so a snapshot at any CSN sees a superset of the values it can read,
// and the summary resets only when the page is dropped.
func (p *page) widen(t value.Tuple) {
	if p.sum == nil {
		p.sum = make([]span, len(t))
		for c, v := range t {
			if v.Kind() == value.KindInt {
				p.sum[c] = span{v.AsInt(), v.AsInt()}
			} else {
				p.sum[c] = unsummarized
			}
		}
		return
	}
	for c := range p.sum {
		sp := &p.sum[c]
		switch {
		case sp.lo > sp.hi:
		case c >= len(t) || t[c].Kind() != value.KindInt:
			*sp = unsummarized
		case t[c].AsInt() < sp.lo:
			sp.lo = t[c].AsInt()
		case t[c].AsInt() > sp.hi:
			sp.hi = t[c].AsInt()
		}
	}
}

// Bound is one integer column condition a full scan can skip pages by:
// a row satisfies it only if value.Compare(t[Col], value.Int(V)) is a
// result c with bit c+1 of Accept set (bit 0 less, bit 1 equal, bit 2
// greater).
type Bound struct {
	Col    int
	V      int64
	Accept uint8
}

// Bounds prunes a full scan: the scan skips every page on which some
// bound accepts no value of the page's summary, so it yields a superset
// of the rows satisfying every bound and the caller still filters each
// row.  A nil *Bounds scans every page.  Walked and Pages are set by
// the scan: the pages it read and the pages allocated when it began.
type Bounds struct {
	Ints          []Bound
	Walked, Pages int
}

// admits reports whether a row the page has held can satisfy every
// bound.
func (p *page) admits(b *Bounds) bool {
	for _, bd := range b.Ints {
		if bd.Col >= len(p.sum) {
			continue
		}
		sp := p.sum[bd.Col]
		if sp.lo > sp.hi {
			continue
		}
		var can uint8
		if sp.lo < bd.V {
			can |= 0b001
		}
		if sp.lo <= bd.V && bd.V <= sp.hi {
			can |= 0b010
		}
		if sp.hi > bd.V {
			can |= 0b100
		}
		if can&bd.Accept == 0 {
			return false
		}
	}
	return true
}

func newRelation(name string, schema *value.Schema) *Relation {
	return &Relation{
		name:     name,
		schema:   schema,
		nextRow:  1,
		verDirty: make(map[RowID]struct{}),
	}
}

// slotLocked returns row id's slot, empty when its page is absent.
// Caller holds mu.
func (r *Relation) slotLocked(id RowID) slot {
	if pi := id >> pageBits; pi < RowID(len(r.pages)) && r.pages[pi].slots != nil {
		return r.pages[pi].slots[id&(pageSize-1)]
	}
	return slot{}
}

// liveLocked returns the live row of row id, zero if none.  Caller
// holds mu.
func (r *Relation) liveLocked(id RowID) value.Row {
	return r.slotLocked(id).t
}

// setLocked stores row id's live row t and version-chain head v.  The
// slot's page is allocated when the slot gains content and dropped when
// its last occupied slot empties; its summary widens over t and v.
// Caller holds mu exclusively.
func (r *Relation) setLocked(id RowID, t value.Row, v *rowVersion) {
	pi, now := id>>pageBits, !t.IsZero() || v != nil
	if n := RowID(len(r.pages)); pi >= n {
		if !now {
			return
		}
		r.pages = slices.Grow(r.pages, int(pi+1-n))[:pi+1]
		clear(r.pages[n:])
	}
	p := &r.pages[pi]
	if p.slots == nil {
		if !now {
			return
		}
		p.slots = new([pageSize]slot)
	}
	s := &p.slots[id&(pageSize-1)]
	if s.t.IsZero() != t.IsZero() {
		if !t.IsZero() {
			r.live++
		} else {
			r.live--
		}
	}
	if was := !s.t.IsZero() || s.ver != nil; was != now {
		if now {
			p.used++
		} else if p.used--; p.used == 0 {
			p.slots, p.sum = nil, nil
			return
		}
	}
	if !t.IsZero() && !t.Same(s.t) {
		r.scratch = t.Decode(r.scratch)
		p.widen(r.scratch)
	}
	if v != nil && v != s.ver && v != settled && !v.row.Same(t) {
		r.scratch = v.row.Decode(r.scratch)
		p.widen(r.scratch)
	}
	s.t, s.ver = t, v
}

// eachLocked calls fn with every slot of every allocated page, in
// row-id order.  fn may call setLocked.  Caller holds mu.
func (r *Relation) eachLocked(fn func(id RowID, s *slot)) {
	for pi := range r.pages {
		if p := r.pages[pi].slots; p != nil {
			base := RowID(pi) << pageBits
			for i := range p {
				fn(base+RowID(i), &p[i])
			}
		}
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
	return r.live
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
	runs := make([]run, 0, r.live)
	r.eachLocked(func(id RowID, s *slot) {
		if !s.t.IsZero() {
			runs = append(runs, run{key: ix.key(id, s.t), id: id})
		}
	})
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
				ErrDuplicateKey, ix.spec.Name, tupleKeyString(ix, r.liveLocked(rn.id)))
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

// key builds the index key for row t with row id: the order-preserving
// encoding of the indexed columns, suffixed with the row id for
// non-unique indexes so that duplicate attribute values remain distinct
// tree keys.  It is for keys a caller keeps (a bulk build's run): the
// key is built on the stack and copied out once.  Keys handed to
// btree.Set, which copies them, or only looked up are built with
// appendKey on a stack buffer and allocate nothing.
func (ix *index) key(id RowID, t value.Row) []byte {
	var kb [64]byte
	return bytes.Clone(ix.appendKey(kb[:0], id, t))
}

// appendKey appends ix.key(id, t) to dst, reading the indexed columns
// from the row.
func (ix *index) appendKey(dst []byte, id RowID, t value.Row) []byte {
	for _, c := range ix.cols {
		dst = value.AppendKey(dst, t.Col(c))
	}
	if !ix.spec.Unique {
		dst = appendRowID(dst, id)
	}
	return dst
}

// AppendKeyUpper appends nine 0xFF bytes to the encoded value enc.  The
// result sorts above every index key whose value part is enc, the 8-byte
// row-id suffix of a non-unique index included, and, because no encoded
// value is a prefix of another, below every key of a larger value:
// [enc, AppendKeyUpper(enc)) is the key range of an equality lookup.
func AppendKeyUpper(enc []byte) []byte {
	return append(enc, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
}

func appendRowID(k []byte, id RowID) []byte {
	return append(k, byte(id>>56), byte(id>>48), byte(id>>40), byte(id>>32),
		byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// insert adds row t's key.  The key is built on the stack: btree.Set
// makes the tree's one copy.
func (ix *index) insert(id RowID, t value.Row) error {
	var kb [64]byte
	k := ix.appendKey(kb[:0], id, t)
	if ix.spec.Unique {
		if _, exists := ix.tree.Get(k); exists {
			return fmt.Errorf("%w: index %q, key %s", ErrDuplicateKey, ix.spec.Name, tupleKeyString(ix, t))
		}
	}
	ix.tree.Set(k, id)
	return nil
}

// remove deletes row t's key, built on the stack.
func (ix *index) remove(id RowID, t value.Row) {
	var kb [64]byte
	ix.tree.Delete(ix.appendKey(kb[:0], id, t))
}

func tupleKeyString(ix *index, t value.Row) string {
	parts := make([]string, len(ix.cols))
	for i, c := range ix.cols {
		parts[i] = t.Col(c).Quoted()
	}
	return fmt.Sprint(parts)
}

// insertRow stores t (already validated) under a fresh row id, updating
// indexes.  If id is non-zero, that specific id is used (recovery path).
func (r *Relation) insertRow(id RowID, t value.Row) (RowID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		id = r.nextRow
	}
	s := r.slotLocked(id)
	if !s.t.IsZero() {
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
	r.setLocked(id, t, s.ver)
	if id >= r.nextRow {
		r.nextRow = id + 1
	}
	r.modCount++
	return id, nil
}

// deleteRow removes row id, returning the old row.
func (r *Relation) deleteRow(id RowID) (value.Row, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slotLocked(id)
	old := s.t
	if old.IsZero() {
		return value.Row{}, fmt.Errorf("storage: %s: no row %d", r.name, id)
	}
	r.unsettleLocked(id, &s)
	if !r.deferred {
		for _, ix := range r.indexes {
			ix.retire(id, old)
			ix.remove(id, old)
		}
	}
	r.setLocked(id, value.Row{}, s.ver)
	r.modCount++
	return old, nil
}

// updateRow replaces row id with t, returning the old row.
func (r *Relation) updateRow(id RowID, t value.Row) (value.Row, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slotLocked(id)
	old := s.t
	if old.IsZero() {
		return value.Row{}, fmt.Errorf("storage: %s: no row %d", r.name, id)
	}
	r.unsettleLocked(id, &s)
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
				return value.Row{}, fmt.Errorf("storage: %s: %w", r.name, err)
			}
		}
	}
	r.setLocked(id, t, s.ver)
	r.modCount++
	return old, nil
}

// get returns the row stored under id.
func (r *Relation) get(id RowID) (value.Row, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.liveLocked(id)
	return t, !t.IsZero()
}

// scan invokes fn for every live row on the pages b admits, in
// ascending row-id order, returning the number of rows seen.  Iteration
// stops if fn returns false.
func (r *Relation) scan(b *Bounds, fn func(id RowID, t value.Row) bool) uint64 {
	return r.walk(b, func(s *slot) value.Row { return s.t }, fn)
}

// walk calls fn in row-id order with each row that pick maps to a
// non-zero row on the pages b admits (every allocated page when b is
// nil) until fn returns false, and returns the number of calls.  pick
// runs under the read lock over one walked page at a time, fn with no
// lock held; each hold resumes at the page after the last one picked
// from.  Rows are immutable, so a page's picks are collected as they
// are, 16 bytes each, and never decoded here.
func (r *Relation) walk(b *Bounds, pick func(s *slot) value.Row, fn func(id RowID, t value.Row) bool) (n uint64) {
	if b != nil {
		b.Walked, b.Pages = 0, 0
		r.mu.RLock()
		for pi := range r.pages {
			if r.pages[pi].slots != nil {
				b.Pages++
			}
		}
		r.mu.RUnlock()
	}
	ids, ts := make([]RowID, 0, pageSize), make([]value.Row, 0, pageSize)
	for pi := 0; ; pi++ {
		ids, ts = ids[:0], ts[:0]
		r.mu.RLock()
		for pi < len(r.pages) && (r.pages[pi].slots == nil || b != nil && !r.pages[pi].admits(b)) {
			pi++
		}
		if pi == len(r.pages) {
			r.mu.RUnlock()
			return n
		}
		if b != nil {
			b.Walked++
		}
		p, base := r.pages[pi].slots, RowID(pi)<<pageBits
		for i := range p {
			if t := pick(&p[i]); !t.IsZero() {
				ids, ts = append(ids, base+RowID(i)), append(ts, t)
			}
		}
		r.mu.RUnlock()
		for k, id := range ids {
			if n++; !fn(id, ts[k]) {
				return n
			}
		}
	}
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
func (r *Relation) ScanRange(indexName string, lo, hi []byte, reverse bool, fn func(id RowID, t value.Row) bool) error {
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
		t := r.liveLocked(id)
		if t.IsZero() {
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
		if got, want := ix.tree.Len(), r.live; got != want {
			return fmt.Errorf("storage: %s index %q: %d entries for %d rows", r.name, ix.spec.Name, got, want)
		}
		var bad error
		var kb [64]byte
		ix.tree.Ascend(nil, nil, func(key []byte, id uint64) bool {
			t := r.liveLocked(id)
			if t.IsZero() {
				bad = fmt.Errorf("storage: %s index %q: entry for dead row %d", r.name, ix.spec.Name, id)
				return false
			}
			if want := ix.appendKey(kb[:0], id, t); !bytes.Equal(key, want) {
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
