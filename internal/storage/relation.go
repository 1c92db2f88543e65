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
	"cmp"
	"fmt"
	"math"
	"slices"
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
	// (pages[id>>pageBits]; row id 0 is never used).  A page packs its
	// slots' live rows into one append-only block and holds the heads
	// of their committed version chains (mvcc.go).  A page is allocated
	// when one of its slots gains content and dropped when its last one
	// empties (setLocked), so the pages held follow the rows and
	// versions still held, not every row id ever issued.  Row ids are
	// never reused, so a walk in page order is a walk in row-id order.
	// live counts the slots with a live row.  Guarded by mu.
	pages []page
	live  int

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

// slot is one row id's place in its page: the live row, uncommitted
// writes included, as the n bytes at off in the page's block (n is 0
// when there is no live row; an encoded tuple is never empty).  A slot
// is 8 bytes and holds no pointer.
type slot struct{ off, n uint32 }

// pageBits sizes a page of slots: 256 row ids, one read-lock hold of a
// walk.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// page is the directory entry of pageSize consecutive row ids.  It
// holds their slots (nil while none holds anything) and the block their
// live rows' bytes are packed in.  A slot's version-chain head is
// settled when its bit in settled is set, else heads[i]; heads exists
// only while some slot has a real chain (chains counts them).  used
// counts the slots holding a live row or a version, bytes the live
// rows' bytes, and sum summarizes every row the page has held.
//
// The block follows the B-tree's rule for key blocks: it is only ever
// appended to (put), and a block without room is replaced by a new one
// holding the live rows (compact), never overwritten.  So every Row the
// page hands out, a string over block bytes, reads the same bytes for
// as long as its holder keeps it, whatever is written, deleted or
// compacted afterwards.
type page struct {
	slots   *[pageSize]slot
	block   []byte
	heads   *[pageSize]*rowVersion
	settled [pageSize / 64]uint64
	used    int
	chains  int
	bytes   int
	sum     []span // per column; nil while the page is dropped
}

// headsPool recycles the heads arrays of pages whose last chain was
// settled or reclaimed, all nil again: a page written between two
// vacuum passes takes one back instead of allocating 2 KiB.
var headsPool = sync.Pool{New: func() any { return new([pageSize]*rowVersion) }}

// rowState is a row id's state as its page holds it: the live row
// (zero when none) and the head of its committed version chain (nil
// when no snapshot can see the row; settled when the live row is the
// row's only committed state, see mvcc.go).
type rowState struct {
	t   value.Row
	ver *rowVersion
}

// row returns slot i's live row, a string over its block bytes; zero
// if none.
func (p *page) row(i int) value.Row {
	s := p.slots[i]
	if s.n == 0 {
		return value.Row{}
	}
	return value.RowIn(p.block[s.off : s.off+s.n])
}

// head returns slot i's version-chain head.
func (p *page) head(i int) *rowVersion {
	if p.settled[i>>6]&(1<<(i&63)) != 0 {
		return settled
	}
	if p.heads != nil {
		return p.heads[i]
	}
	return nil
}

// state returns slot i's live row and version-chain head.
func (p *page) state(i int) rowState { return rowState{p.row(i), p.head(i)} }

// setHead makes v slot i's version-chain head, taking a heads array for
// the page's first real chain and giving it back with the last.
func (p *page) setHead(i int, v *rowVersion) {
	if bit := uint64(1) << (i & 63); v == settled {
		p.settled[i>>6] |= bit
		v = nil
	} else {
		p.settled[i>>6] &^= bit
	}
	switch was := p.heads != nil && p.heads[i] != nil; {
	case v != nil && !was:
		if p.chains++; p.heads == nil {
			p.heads = headsPool.Get().(*[pageSize]*rowVersion)
		}
	case v == nil && was:
		p.heads[i] = nil
		if p.chains--; p.chains == 0 {
			headsPool.Put(p.heads)
			p.heads = nil
		}
		return
	case v == nil:
		return
	}
	p.heads[i] = v
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
		name:    name,
		schema:  schema,
		nextRow: 1,
	}
}

// slotLocked returns row id's live row and version-chain head, empty
// when its page is absent.  Caller holds mu.
func (r *Relation) slotLocked(id RowID) rowState {
	if pi := id >> pageBits; pi < RowID(len(r.pages)) && r.pages[pi].slots != nil {
		return r.pages[pi].state(int(id & (pageSize - 1)))
	}
	return rowState{}
}

// liveLocked returns the live row of row id, zero if none.  Caller
// holds mu.
func (r *Relation) liveLocked(id RowID) value.Row {
	return r.slotLocked(id).t
}

// setLocked stores row id's live row t and version-chain head v, and
// returns the live row as stored: t itself when it is already the
// slot's row (Same), else a copy of t's bytes in the page's block.  The
// slot's page is allocated when the slot gains content and dropped when
// its last occupied slot empties; its summary widens over t and v.
// Caller holds mu exclusively.
func (r *Relation) setLocked(id RowID, t value.Row, v *rowVersion) value.Row {
	pi, now := id>>pageBits, !t.IsZero() || v != nil
	if !now && (pi >= RowID(len(r.pages)) || r.pages[pi].slots == nil) {
		return t
	}
	p := r.pageLocked(pi)
	i := int(id & (pageSize - 1))
	was := p.state(i)
	if was.t.IsZero() != t.IsZero() {
		if !t.IsZero() {
			r.live++
		} else {
			r.live--
		}
	}
	if v != was.ver {
		p.setHead(i, v)
	}
	if had := !was.t.IsZero() || was.ver != nil; had != now {
		if now {
			p.used++
		} else if p.used--; p.used == 0 {
			*p = page{}
			return t
		}
	}
	if !t.Same(was.t) {
		p.bytes -= int(p.slots[i].n)
		p.slots[i] = slot{}
		if !t.IsZero() {
			t = p.put(i, t)
			r.scratch = t.Decode(r.scratch)
			p.widen(r.scratch)
		}
	}
	if v != nil && v != was.ver && v != settled && !v.row.Same(t) {
		r.scratch = v.row.Decode(r.scratch)
		p.widen(r.scratch)
	}
	return t
}

// pageLocked returns page pi, growing the directory and allocating the
// page's slots as needed.  Caller holds mu exclusively.
func (r *Relation) pageLocked(pi RowID) *page {
	if n := RowID(len(r.pages)); pi >= n {
		r.pages = slices.Grow(r.pages, int(pi+1-n))[:pi+1]
		clear(r.pages[n:])
	}
	p := &r.pages[pi]
	if p.slots == nil {
		p.slots = new([pageSize]slot)
	}
	return p
}

// put copies t into the page's block as slot i's live row, which slot i
// must not hold, and returns the stored row.  The bytes go into the
// block's spare capacity, which no row handed out has ever covered; a
// block without room is replaced first (compact).
func (p *page) put(i int, t value.Row) value.Row {
	n := t.Len()
	if n > cap(p.block)-len(p.block) {
		p.compact(n)
	}
	p.slots[i] = slot{uint32(len(p.block)), uint32(n)}
	p.block = t.AppendTo(p.block)
	p.bytes += n
	return p.row(i)
}

// compact replaces the page's block by a new one holding only its live
// rows, with room for extra more bytes: one and a half times the bytes
// of both.  So a page's writes copy each live byte about twice, and a
// page stays within twice its live bytes until deletes take a quarter
// of them (the vacuum compacts it then).  The old block is dropped, not
// cleared: rows handed out from it, and versions holding rows no slot
// holds live any more, keep reading the same bytes.  A version that
// held a live row moves to its copy, so the vacuum still finds the
// version Same as the live row (mvcc.go).
func (p *page) compact(extra int) {
	size := (p.bytes + extra) * 3 / 2
	if size > math.MaxUint32 {
		panic("storage: page rows exceed 4 GiB")
	}
	var b []byte
	if size > 0 {
		b = make([]byte, 0, size)
	}
	for i := range p.slots {
		old := p.row(i)
		if old.IsZero() {
			continue
		}
		off := len(b)
		b = old.AppendTo(b)
		p.slots[i].off = uint32(off)
		if p.heads != nil {
			moved := value.RowIn(b[off:])
			for v := p.heads[i]; v != nil; v = v.prev {
				if v.row.Same(old) {
					v.row = moved
				}
			}
		}
	}
	p.block = b
}

// reserveLocked gives the empty page of row id a block with room for
// size bytes, so a segment load copies the page's rows into one
// allocation of their exact size.  Caller holds mu exclusively.
func (r *Relation) reserveLocked(id RowID, size int) {
	if p := r.pageLocked(id >> pageBits); p.used == 0 && size > 0 {
		p.block = make([]byte, 0, size)
	}
}

// eachLocked calls fn with the state of every occupied slot, in row-id
// order.  fn may call setLocked for the row it is given.  Caller holds
// mu.
func (r *Relation) eachLocked(fn func(id RowID, s rowState)) {
	for pi := range r.pages {
		base := RowID(pi) << pageBits
		for i := 0; i < pageSize && r.pages[pi].slots != nil; i++ {
			if s := r.pages[pi].state(i); !s.t.IsZero() || s.ver != nil {
				fn(base+RowID(i), s)
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
// the heap: append every row's key to one buffer, sort the run of
// (offset, row id) pairs once, and feed the keys in order to
// btree.NewFromSorted, which copies them into its leaf blocks.  Caller
// holds r.mu.  Unique violations surface as adjacent equal keys in the
// run.
func (r *Relation) buildTreeLocked(ix *index) (*btree.Tree, error) {
	type run struct {
		lo, hi int // the key is buf[lo:hi]
		id     RowID
	}
	var buf []byte
	runs := make([]run, 0, r.live)
	r.eachLocked(func(id RowID, s rowState) {
		if !s.t.IsZero() {
			lo := len(buf)
			buf = ix.appendKey(buf, id, s.t)
			runs = append(runs, run{lo: lo, hi: len(buf), id: id})
		}
	})
	slices.SortFunc(runs, func(a, b run) int {
		if c := bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for j := 1; j < len(runs); j++ {
		if a, b := runs[j-1], runs[j]; bytes.Equal(buf[a.lo:a.hi], buf[b.lo:b.hi]) {
			// Only unique indexes can collide: non-unique keys carry a
			// row-id suffix.
			return nil, fmt.Errorf("%w: index %q, key %s",
				ErrDuplicateKey, ix.spec.Name, tupleKeyString(ix, r.liveLocked(b.id)))
		}
	}
	return btree.NewFromSorted(len(runs), func(j int) ([]byte, uint64) {
		rn := runs[j]
		return buf[rn.lo:rn.hi], rn.id
	})
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
// the heap and resumes inline maintenance.  The rebuilt trees serve
// snapshots from CSN floor on, set in the same lock hold that installs
// them.  On error (a unique violation surfaced by the sorted pass) the
// relation stays deferred and no tree is replaced.
func (r *Relation) buildIndexes(floor uint64) error {
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
		ix.createdAt = floor
		ix.stats = nil
		ix.statsAt = 0
	}
	r.deferred = false
	r.modCount++
	return nil
}

// appendKey appends the index key for row t with row id to dst: the
// order-preserving encoding of the indexed columns, read from the row,
// suffixed with the row id for non-unique indexes so that duplicate
// attribute values remain distinct tree keys.  Keys handed to btree.Set,
// which copies them into a leaf block, or only looked up are built on a
// stack buffer and allocate nothing.
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
// copies it into a leaf block, usually into room the block already has.
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
// indexes, and returns the id and the row as stored (a copy in the
// page's block).  If id is non-zero, that specific id is used (recovery
// path).
func (r *Relation) insertRow(id RowID, t value.Row) (RowID, value.Row, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		id = r.nextRow
	}
	s := r.slotLocked(id)
	if !s.t.IsZero() {
		return 0, value.Row{}, fmt.Errorf("storage: %s: row %d already exists", r.name, id)
	}
	if !r.deferred {
		for i, ix := range r.indexes {
			if err := ix.insert(id, t); err != nil {
				for _, undo := range r.indexes[:i] {
					undo.remove(id, t)
				}
				return 0, value.Row{}, fmt.Errorf("storage: %s: %w", r.name, err)
			}
		}
	}
	t = r.setLocked(id, t, s.ver)
	if id >= r.nextRow {
		r.nextRow = id + 1
	}
	r.modCount++
	return id, t, nil
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

// updateRow replaces row id with t, returning the old row and the new
// one as stored (a copy in the page's block).
func (r *Relation) updateRow(id RowID, t value.Row) (old, stored value.Row, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slotLocked(id)
	old = s.t
	if old.IsZero() {
		return value.Row{}, value.Row{}, fmt.Errorf("storage: %s: no row %d", r.name, id)
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
				return value.Row{}, value.Row{}, fmt.Errorf("storage: %s: %w", r.name, err)
			}
		}
	}
	stored = r.setLocked(id, t, s.ver)
	r.modCount++
	return old, stored, nil
}

// restoreRow puts old back as row id's live row for an aborted write:
// insertRow for an undone delete, updateRow for an undone update.  The
// live row is a copy of old in the page's block; the row's current
// committed version, which old restores, moves to the copy, so the
// vacuum finds the two Same and settles the row again.
func (r *Relation) restoreRow(id RowID, old value.Row, deleted bool) {
	if deleted {
		r.insertRow(id, old) //nolint:errcheck // compensations cannot fail
	} else {
		r.updateRow(id, old) //nolint:errcheck
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.slotLocked(id); s.ver != nil && s.ver != settled && s.ver.end == liveCSN && s.ver.row.Equal(s.t) {
		s.ver.row = s.t
	}
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
	return r.walk(b, (*page).row, fn)
}

// walk calls fn in row-id order with each row that pick maps to a
// non-zero row on the pages b admits (every allocated page when b is
// nil) until fn returns false, and returns the number of calls.  pick
// runs under the read lock over one walked page at a time, fn with no
// lock held; each hold resumes at the page after the last one picked
// from.  Rows are immutable, so a page's picks are collected as they
// are, 16 bytes each, and never decoded here.
func (r *Relation) walk(b *Bounds, pick func(p *page, i int) value.Row, fn func(id RowID, t value.Row) bool) (n uint64) {
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
		p, base := &r.pages[pi], RowID(pi)<<pageBits
		for i := range pageSize {
			if t := pick(p, i); !t.IsZero() {
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

// IndexAt appends the i'th smallest key (0-based) of the named index to
// dst and returns the result, from the B-tree's order statistics in
// O(log n); ok is false when i is out of range or the index does not
// exist.  It reads the live tree: a transactional caller holds the
// relation's lock.
func (r *Relation) IndexAt(dst []byte, indexName string, i int) (key []byte, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix := r.findIndex(indexName)
	if ix == nil || r.deferred {
		return dst, false
	}
	key, _, ok = ix.tree.At(dst, i)
	return key, ok
}

// rangeBatch is the most index entries one read-lock hold of
// indexRange examines: a B-tree leaf's worth.
const rangeBatch = 63

// entry is an index entry as indexRange merges the live tree and the
// key history: ordered by its key extended with its row id when ext is
// set (a unique index's live keys lack the id; every other key carries
// it).  Its key is a copy, held in the entry itself up to len(kb) bytes
// and in an allocation of its own beyond, so an entry stays valid with
// no lock held and points at nothing on its holder's stack.
type entry struct {
	id   RowID
	ext  bool
	n    int      // the key's length
	kb   [64]byte // the key, if it fits
	long []byte   // the key, if it does not
}

// key returns e's key.
func (e *entry) key() []byte {
	if e.n > len(e.kb) {
		return e.long
	}
	return e.kb[:e.n]
}

// setKey copies key into e.
func (e *entry) setKey(key []byte) {
	if e.n = len(key); e.n > len(e.kb) {
		e.long = bytes.Clone(key)
	} else {
		copy(e.kb[:], key)
	}
}

// load copies the key under it into e.  A long key gets a new
// allocation: a copy of e may still hold the last one.  (Copying it
// out of kb's overflow, rather than keeping that, keeps e on its
// holder's stack: the escape analysis cannot tell the two apart.)
func (e *entry) load(it *btree.Iter) {
	if k := it.Key(e.kb[:0]); len(k) > len(e.kb) {
		e.n, e.long = len(k), append([]byte(nil), k...)
	} else {
		e.n = len(k)
	}
}

// appendTo appends e's extended key to dst.
func (e *entry) appendTo(dst []byte) []byte {
	if dst = append(dst, e.key()...); e.ext {
		dst = appendRowID(dst, e.id)
	}
	return dst
}

// compare orders a and b by their extended keys, built on the stack.
func (a *entry) compare(b *entry) int {
	if !a.ext && !b.ext {
		return bytes.Compare(a.key(), b.key())
	}
	var ab, bb [72]byte
	return bytes.Compare(a.appendTo(ab[:0]), b.appendTo(bb[:0]))
}

// pick maps index entry e to the row its reader sees under e's key,
// zero if none; at is the reader's CSN.  It runs under r.mu's read
// lock.  A transaction (liveCSN) sees the live row, its own uncommitted
// writes included: the live tree holds exactly the live rows' keys, so
// no key check is needed.  A snapshot sees the row visible at at, if
// that version's key is e's: the check filters uncommitted inserts,
// keys the row has left since the pin, and abort debris alike.  The key
// it compares is built on the stack.
func (r *Relation) pick(ix *index, at uint64, e *entry) value.Row {
	if at == liveCSN {
		return r.liveLocked(e.id)
	}
	t := r.slotLocked(e.id).visible(at)
	if t.IsZero() {
		return t
	}
	var kb [64]byte
	k := ix.appendKey(kb[:0], e.id, t)
	if ix.spec.Unique && !e.ext { // a unique index's history key
		k = appendRowID(k, e.id)
	}
	if !bytes.Equal(k, e.key()) {
		return value.Row{}
	}
	return t
}

// rangeCursor walks one tree of an index range in the reader's
// direction (dir 1 forward, -1 in reverse); e is its entry while ok.
// The range's far end, bound (hi forward, lo in reverse; nil for none),
// is passed to each step instead of kept: a cursor's entries reach the
// pick, so a bound kept beside them would move a caller's stack-built
// bounds to the heap.
type rangeCursor struct {
	it   btree.Iter
	e    entry
	ok   bool
	dir  int
	span int // entries from it on in its leaf known to lie inside the bound
}

// seekRange returns a cursor over t at the first entry at or past from
// (the near end of the range, or a key to resume at); in reverse,
// strictly below from, and at the largest key when from is nil.
func seekRange(t *btree.Tree, ext bool, from, bound []byte, dir int) rangeCursor {
	c := rangeCursor{it: t.Seek(from), e: entry{ext: ext}, dir: dir}
	if dir < 0 {
		if from == nil || !c.it.Valid() {
			c.it = t.Max()
		} else {
			c.it.Prev()
		}
	}
	c.load(bound)
	return c
}

// load reads the entry under the iterator; ok is false past bound.  The
// bound is compared once per leaf, when the walk enters it (Span): only
// the leaf that holds the bound is searched for it.
func (c *rangeCursor) load(bound []byte) {
	if c.ok = c.it.Valid(); !c.ok {
		return
	}
	if c.span == 0 {
		if c.span = c.it.Span(bound, c.dir < 0); c.span == 0 {
			c.ok = false
			return
		}
	}
	c.span--
	c.e.load(&c.it)
	c.e.id = c.it.Val()
}

// next steps the cursor in the reader's direction.
func (c *rangeCursor) next(bound []byte) {
	if c.dir > 0 {
		c.it.Next()
	} else {
		c.it.Prev()
	}
	c.load(bound)
}

// indexRange calls fn in key order over [lo, hi) of the named index's
// encoded keys (descending with reverse; nil bounds mean unbounded) with
// each entry that pick maps to a row, until fn returns false.  It
// returns the number of calls and the number of tree entries it
// examined.  at is a snapshot's CSN, whose range also reads the key
// history, or liveCSN for a transaction, which reads the live tree
// alone.
//
// Like walk, it works in batches.  Each read-lock hold seeks the live
// tree (and the history) strictly past the last entry considered,
// merges the two by extended key and runs pick over a batch of entries,
// collecting the rows on the stack; fn then runs over them with no lock
// held.  The first batch is one entry, the rest rangeBatch: a reader
// that stops at its first row (a point read, a neighbour) pays for one
// entry, a long range for one seek per leaf.  A row can be in
// both trees only under the same extended key, so the merge drops the
// history's twin of the live entry it takes.  A snapshot whose index
// postdates its pin, or is deferred for a bulk load, continues from the
// version store (snapRangeFallback).
func (r *Relation) indexRange(name string, at uint64, lo, hi []byte, reverse bool, fn func(id RowID, t value.Row) bool) (n, examined uint64, err error) {
	var ids [rangeBatch]RowID
	var ts [rangeBatch]value.Row
	var kb, lb [64]byte
	var last entry // the last entry considered, once started
	started, from, bound, dir := false, lo, hi, 1
	if reverse {
		from, bound, dir = hi, lo, -1
	}
	for batch := 1; ; batch = rangeBatch {
		r.mu.RLock()
		ix := r.findIndex(name)
		switch {
		case ix == nil:
			r.mu.RUnlock()
			return n, examined, fmt.Errorf("storage: no index %q on %s", name, r.name)
		case at == liveCSN && r.deferred:
			r.mu.RUnlock()
			return n, examined, fmt.Errorf("storage: index %q on %s is deferred for bulk load", name, r.name)
		case at != liveCSN && (at < ix.createdAt || r.deferred):
			r.mu.RUnlock()
			var after *entry
			if started {
				after = &last
			}
			return n + r.snapRangeFallback(ix, at, lo, hi, dir, after, fn), examined, nil
		}
		liveFrom := from
		if started {
			from = last.appendTo(kb[:0])
			if liveFrom = from; ix.spec.Unique {
				// A unique index's live keys lack the row id: resume at
				// last's key (just above it in reverse), whose live entry
				// may extend past last with another row id.
				liveFrom = append(lb[:0], from[:len(from)-8]...)
				if dir < 0 {
					liveFrom = AppendKeyUpper(liveFrom)
				}
			}
		}
		var hist rangeCursor
		live := seekRange(ix.tree, ix.spec.Unique, liveFrom, bound, dir)
		if at != liveCSN && ix.hist != nil {
			hist = seekRange(ix.hist, false, from, bound, dir)
		}
		// After the seeks, at most one entry of each tree lies at or
		// before last.
		for _, c := range []*rangeCursor{&live, &hist} {
			for started && c.ok && dir*c.e.compare(&last) <= 0 {
				c.next(bound)
			}
		}
		// took is the cursor of the entry considered last, stepped past
		// it only when the next one is needed, so that the batch's last
		// entry is copied into last once, not every entry.
		var took *rangeCursor
		k, i := 0, 0
		for ; i < batch; i++ {
			if took != nil {
				took.next(bound)
			}
			c := &live
			if hist.ok {
				switch d := dir * hist.e.compare(&live.e); {
				case !live.ok || d < 0:
					c = &hist
				case d == 0:
					hist.next(bound)
				}
			}
			if !c.ok {
				break
			}
			took = c
			if t := r.pick(ix, at, &c.e); !t.IsZero() {
				ids[k], ts[k] = c.e.id, t
				k++
			}
		}
		if examined += uint64(i); i == batch {
			last, started = took.e, true
		}
		r.mu.RUnlock()
		for j := range k {
			if n++; !fn(ids[j], ts[j]) {
				return n, examined, nil
			}
		}
		if i < batch {
			return n, examined, nil
		}
	}
}

// indexGet returns the row under key in the named unique index as pick
// sees it at at, zero if none: a probe of the live tree, then, if that
// finds nothing for a snapshot (its row may have left the tree under
// key) or the index cannot serve the probe, the range read over the key
// stopped at its first row.  The range's upper bound is built on the
// stack.
func (r *Relation) indexGet(name string, at uint64, key []byte) (id RowID, t value.Row, err error) {
	r.mu.RLock()
	ix := r.findIndex(name)
	probe := ix != nil && !r.deferred && (at == liveCSN || at >= ix.createdAt)
	if probe {
		if id, _ = ix.tree.Get(key); id != 0 {
			e := entry{id: id, ext: true}
			e.setKey(key)
			t = r.pick(ix, at, &e)
		}
	}
	r.mu.RUnlock()
	if !t.IsZero() || probe && at == liveCSN {
		return id, t, nil
	}
	var hb [64]byte
	_, _, err = r.indexRange(name, at, key, AppendKeyUpper(append(hb[:0], key...)), false, func(rid RowID, row value.Row) bool {
		id, t = rid, row
		return false
	})
	return id, t, err
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
