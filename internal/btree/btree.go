// Package btree implements an in-memory B+tree over byte-string keys with
// order statistics.
//
// The tree serves two roles in the music data manager:
//
//   - Secondary indexes over relations.  §5.2 of the paper observes that
//     relational systems implement ordering "purely as a performance
//     optimization" by sorting records on key attributes; this tree is the
//     mechanism behind that optimization (sorted scans, key-range
//     selections) and the baseline against which the hierarchical-ordering
//     operators are benchmarked.
//
//   - Order-statistics support for hierarchical orderings.  Each internal
//     node maintains subtree cardinalities, so the i'th element under a
//     parent ("the third note in chord x") is found in O(log n), and the
//     rank of an element is computed in O(log n).
//
// Keys are arbitrary byte strings compared with bytes.Compare; callers use
// the order-preserving encoding in package value to index typed tuples.
// Keys are unique; non-unique indexes append a row identifier to the key.
//
// Every node keeps its keys in one pointer-free byte block, each key
// behind its uvarint length, and one 32-bit offset per key, so an entry
// costs its key bytes plus 13 bytes (the length, for keys under 128
// bytes, the offset and the value) and the garbage collector has no key
// pointers to trace.  A block is append-only: Set copies a key into the
// block's spare capacity, Delete leaves the key's bytes where they are,
// and a block without room is replaced by a new one holding the live
// keys, never overwritten.  So every key slice the tree hands out
// (Iter.Key, At, the keys passed to Ascend) reads the same
// bytes for as long as its holder keeps it, whatever is set, deleted,
// split or merged afterwards.  Internal nodes copy their separators into
// blocks of their own, so no separator holds on to a replaced leaf block.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// degree is the maximum number of children of an internal node.  Leaves
// hold up to degree-1 entries.  The value 64 spreads a node's fixed cost
// (its header and its blocks' size-class rounding) over many entries
// while bounding height at ~4 for a million keys.
const degree = 64

const (
	maxEntries = degree - 1
	minEntries = maxEntries / 2
)

// Tree is an order-statistics B+tree.  The zero value is not usable; call
// New.  Tree is not safe for concurrent mutation; the storage layer
// serializes access through its lock manager.
type Tree struct {
	root *node
	size int
}

// node is either a leaf (no branch) or an internal node.  Key i of a
// node is the length-prefixed key at block[offs[i]:].  A leaf's keys are
// its entries, vals[i] being key i's value.  An internal node's keys are
// separators: every key in children[i]'s subtree sorts below key i, and
// every key in children[i+1]'s sorts at or above it.  The internal-only
// fields sit behind a pointer, so a node header is 96 bytes on 64-bit
// platforms.
type node struct {
	block   []byte   // append-only; see the package comment
	offs    []uint32 // one per key, in key order
	vals    []uint64 // leaf only
	*branch          // internal only
	next    *node    // leaf chain for range scans
	prev    *node
}

// branch holds an internal node's children, and in counts[i] the number
// of entries in children[i]'s subtree.
type branch struct {
	children []*node
	counts   []int // len == len(children)
}

func (n *node) leaf() bool { return n.branch == nil }

// key returns key i of n.  Its capacity ends with the key, so a holder's
// append reallocates instead of writing into the block.
func (n *node) key(i int) []byte { return keyAt(n.block, n.offs[i]) }

// keyAt returns the key whose uvarint length prefix is at b[off].  It
// inlines, and a key under 128 bytes costs one branch.
func keyAt(b []byte, off uint32) []byte {
	i, ln := int(off)+1, int(b[off])
	if ln >= 0x80 {
		ln &= 0x7f
		for s := 7; b[i-1] >= 0x80; s += 7 {
			ln |= int(b[i]&0x7f) << s
			i++
		}
	}
	return b[i : i+ln : i+ln]
}

// encSize returns the bytes a key takes in a block, its prefix included.
func encSize(key []byte) int {
	w := 1
	for u := len(key); u >= 0x80; u >>= 7 {
		w++
	}
	return w + len(key)
}

// live returns the bytes n's keys [from, to) take in its block.
func (n *node) live(from, to int) int {
	total := 0
	for i := from; i < to; i++ {
		total += encSize(n.key(i))
	}
	return total
}

// newBlock returns an empty block with room for size bytes, rounded up
// to the allocator's size class (the rounding is free room for Set).
func newBlock(size int) []byte {
	if size > math.MaxUint32 {
		panic("btree: node keys exceed 4 GiB")
	}
	return slices.Grow([]byte(nil), size)
}

// room returns the size of a new block for cnt keys taking live bytes:
// room for keys of their average size up to a full node, but never more
// than twice live, so a block grows as a slice does and a few huge keys
// do not reserve a node's worth of them.
func room(live, cnt int) int {
	return min(live*(maxEntries+1)/cnt, 2*live)
}

// put copies key, behind its length, into n's block and returns its
// offset.  The bytes go into the block's spare capacity, which no key
// handed out has ever covered; a block without room is replaced first
// (compact).
func (n *node) put(key []byte) uint32 {
	if encSize(key) > cap(n.block)-len(n.block) {
		n.compact(encSize(key))
	}
	off := uint32(len(n.block))
	n.block = binary.AppendUvarint(n.block, uint64(len(key)))
	n.block = append(n.block, key...)
	return off
}

// compact replaces n's block by a new one holding only its live keys,
// with room for extra more bytes and then some (room).  The old block is
// dropped, not cleared: keys handed out from it keep reading the same
// bytes.
func (n *node) compact(extra int) {
	live := n.live(0, len(n.offs)) + extra
	b := newBlock(room(live, len(n.offs)+1))
	for i := range n.offs {
		k := n.key(i)
		off := uint32(len(b))
		b = append(binary.AppendUvarint(b, uint64(len(k))), k...)
		n.offs[i] = off
	}
	n.block = b
}

// setKey replaces key i of internal node n by a copy of key.
func (n *node) setKey(i int, key []byte) {
	off := n.put(key)
	n.offs[i] = off
}

// insertKey inserts a copy of key as key i of n.
func (n *node) insertKey(i int, key []byte) {
	off := n.put(key)
	n.offs = slices.Insert(n.offs, i, off)
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Get returns the value stored under key and whether it exists.
func (t *Tree) Get(key []byte) (uint64, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n, key)]
	}
	i, ok := leafIndex(n, key)
	if !ok {
		return 0, false
	}
	return n.vals[i], true
}

// childIndex returns the index of the child of n whose subtree may
// contain key.
func childIndex(n *node, key []byte) int {
	b, offs := n.block, n.offs
	lo, hi := 0, len(offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(key, keyAt(b, offs[mid])) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex returns the position of key in leaf n, or the insertion point
// and false.
func leafIndex(n *node, key []byte) (int, bool) {
	b, offs := n.block, n.offs
	lo, hi := 0, len(offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch bytes.Compare(key, keyAt(b, offs[mid])) {
		case 0:
			return mid, true
		case -1:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// Set inserts or updates the value under key.  It reports whether the key
// was newly inserted.  The tree keeps a copy of key.
func (t *Tree) Set(key []byte, val uint64) bool {
	inserted, split, sepKey, right := t.root.set(key, val)
	if inserted {
		t.size++
	}
	if split {
		old := t.root
		root := &node{branch: &branch{
			children: []*node{old, right},
			counts:   []int{old.count(), right.count()},
		}}
		root.insertKey(0, sepKey)
		t.root = root
	}
	return inserted
}

// NewFromSorted builds a tree of n entries from entry(0) … entry(n-1),
// whose keys must be strictly increasing, by packing full leaves left to
// right and building the internal levels bottom-up — O(n) instead of the
// O(n log n) of repeated Set, with no node splits.  Bulk index builds use
// it.  entry is called once per position, in order; each leaf copies its
// keys into one block of exactly their size, so a key need only stay
// unchanged until NewFromSorted returns.
func NewFromSorted(n int, entry func(i int) (key []byte, val uint64)) (*Tree, error) {
	if n < 0 {
		return nil, fmt.Errorf("btree: negative entry count %d", n)
	}
	t := New()
	if n == 0 {
		return t, nil
	}
	t.size = n
	// Pack leaves full; the trailing leaf keeps whatever remains.
	var level []*node
	var keys [maxEntries][]byte
	var last []byte // the previous entry's key, as the tree holds it
	for i := 0; i < n; i += maxEntries {
		m := min(maxEntries, n-i)
		leaf := &node{offs: make([]uint32, m), vals: make([]uint64, m)}
		live := 0
		for j := range keys[:m] {
			keys[j], leaf.vals[j] = entry(i + j)
			live += encSize(keys[j])
		}
		leaf.block = newBlock(live)
		for j, k := range keys[:m] {
			if i+j > 0 && bytes.Compare(last, k) >= 0 {
				return nil, fmt.Errorf("btree: keys not strictly increasing at position %d", i+j)
			}
			leaf.offs[j] = leaf.put(k)
			last = leaf.key(j)
		}
		if len(level) > 0 {
			prev := level[len(level)-1]
			prev.next = leaf
			leaf.prev = prev
		}
		level = append(level, leaf)
	}
	// Build internal levels until one node remains.  Chunks never leave a
	// single orphan node for the last parent.
	for len(level) > 1 {
		var up []*node
		for i := 0; i < len(level); {
			j := i + degree
			if j > len(level) {
				j = len(level)
			}
			if rem := len(level) - j; rem == 1 {
				j--
			}
			kids := level[i:j]
			n := &node{
				offs: make([]uint32, len(kids)-1),
				branch: &branch{
					children: slices.Clone(kids),
					counts:   make([]int, len(kids)),
				},
			}
			live := 0
			for k, c := range kids {
				n.counts[k] = c.count()
				if k > 0 {
					live += encSize(leftmostKey(c))
				}
			}
			n.block = newBlock(live)
			for k, c := range kids[1:] {
				n.offs[k] = n.put(leftmostKey(c))
			}
			up = append(up, n)
			i = j
		}
		level = up
	}
	t.root = level[0]
	return t, nil
}

// leftmostKey returns the smallest key in n's subtree.
func leftmostKey(n *node) []byte {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.key(0)
}

// count returns the number of entries in n's subtree.
func (n *node) count() int {
	if n.leaf() {
		return len(n.offs)
	}
	total := 0
	for _, c := range n.counts {
		total += c
	}
	return total
}

// set inserts into n's subtree.  It returns whether a new entry was
// created and, if n split, the separator key and new right sibling.
func (n *node) set(key []byte, val uint64) (inserted, split bool, sepKey []byte, right *node) {
	if n.leaf() {
		i, found := leafIndex(n, key)
		switch {
		case found:
			n.vals[i] = val
			return false, false, nil, nil
		case len(n.offs) < maxEntries:
			n.insertEntry(i, key, val)
			return true, false, nil, nil
		}
		right = n.splitLeaf(i, key, val)
		return true, true, right.key(0), right
	}
	ci := childIndex(n, key)
	ins, sp, sk, r := n.children[ci].set(key, val)
	if ins {
		n.counts[ci]++
	}
	if sp {
		n.counts[ci] = n.children[ci].count()
		n.insertKey(ci, sk)
		n.children = slices.Insert(n.children, ci+1, r)
		n.counts = slices.Insert(n.counts, ci+1, r.count())
		if len(n.children) > degree {
			sepKey, right = n.splitInternal()
			return ins, true, sepKey, right
		}
	}
	return ins, false, nil, nil
}

// insertEntry inserts (key, val) as entry i of leaf n.
func (n *node) insertEntry(i int, key []byte, val uint64) {
	n.insertKey(i, key)
	n.vals = slices.Insert(n.vals, i, val)
}

// splitLeaf splits the full leaf n around the new entry (key, val),
// whose position is i, into two halves: n keeps the lower, and the upper
// moves to a new right sibling with a block and arrays of its own, sized
// for a full leaf.  n keeps its block; the moved keys' bytes stay in it,
// dead, until n next needs room.  An entry past the last key of the
// last leaf, as ascending sets make, splits nothing off: n stays full
// and the new leaf starts with the new entry alone, so a tree grown in
// key order packs every leaf but its last.
func (n *node) splitLeaf(i int, key []byte, val uint64) *node {
	s := (maxEntries + 1) / 2 // n keeps entries [0, s) of its own
	if i < s {
		s--
	}
	sized := s // the new block has room for keys the size of [sized, len)
	if n.next == nil && i == len(n.offs) {
		s, sized = len(n.offs), 0
	}
	live, cnt := n.live(sized, len(n.offs)), len(n.offs)-sized
	if i >= s {
		live, cnt = live+encSize(key), cnt+1
	}
	right := &node{
		block: newBlock(room(live, cnt)),
		offs:  make([]uint32, 0, maxEntries),
		vals:  append(make([]uint64, 0, maxEntries), n.vals[s:]...),
		next:  n.next,
		prev:  n,
	}
	for j := s; j < len(n.offs); j++ {
		right.offs = append(right.offs, right.put(n.key(j)))
	}
	n.offs, n.vals = n.offs[:s], n.vals[:s]
	if i >= s {
		right.insertEntry(i-s, key, val)
	} else {
		n.insertEntry(i, key, val)
	}
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	return right
}

// splitInternal moves the upper half of n's children to a new right
// sibling, whose separators go into a block of its own, and returns the
// separator between the halves (still a key of n's block: the caller
// copies it).
func (n *node) splitInternal() (sepKey []byte, right *node) {
	mid := len(n.children) / 2
	sepKey = n.key(mid - 1)
	right = &node{
		offs: make([]uint32, 0, len(n.offs)-mid),
		branch: &branch{
			children: slices.Clone(n.children[mid:]),
			counts:   slices.Clone(n.counts[mid:]),
		},
	}
	live := n.live(mid, len(n.offs))
	right.block = newBlock(room(live, len(n.offs)-mid))
	for j := mid; j < len(n.offs); j++ {
		right.offs = append(right.offs, right.put(n.key(j)))
	}
	clear(n.children[mid:])
	n.offs = n.offs[:mid-1]
	n.children = n.children[:mid]
	n.counts = n.counts[:mid]
	return sepKey, right
}

// Delete removes key and reports whether it was present.
func (t *Tree) Delete(key []byte) bool {
	deleted := t.root.delete(key)
	if deleted {
		t.size--
	}
	if !t.root.leaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (n *node) delete(key []byte) bool {
	if n.leaf() {
		i, found := leafIndex(n, key)
		if !found {
			return false
		}
		n.offs = slices.Delete(n.offs, i, i+1)
		n.vals = slices.Delete(n.vals, i, i+1)
		return true
	}
	ci := childIndex(n, key)
	deleted := n.children[ci].delete(key)
	if !deleted {
		return false
	}
	n.counts[ci]--
	n.rebalance(ci)
	return true
}

// rebalance restores the minimum-occupancy invariant of child ci by
// borrowing from or merging with a sibling.  Keys that move are copied
// into the receiving node's block; the giver's bytes stay where they are.
func (n *node) rebalance(ci int) {
	c := n.children[ci]
	if c.occupancy() >= minEntries {
		return
	}
	// Try to borrow from the left sibling.
	if ci > 0 && n.children[ci-1].occupancy() > minEntries {
		left := n.children[ci-1]
		if c.leaf() {
			last := len(left.offs) - 1
			c.insertEntry(0, left.key(last), left.vals[last])
			left.offs, left.vals = left.offs[:last], left.vals[:last]
			n.setKey(ci-1, c.key(0))
		} else {
			last := len(left.children) - 1
			c.insertKey(0, n.key(ci-1))
			c.children = slices.Insert(c.children, 0, left.children[last])
			c.counts = slices.Insert(c.counts, 0, left.counts[last])
			n.setKey(ci-1, left.key(last-1))
			left.offs = left.offs[:last-1]
			left.children[last] = nil
			left.children = left.children[:last]
			left.counts = left.counts[:last]
		}
		n.counts[ci-1] = left.count()
		n.counts[ci] = c.count()
		return
	}
	// Try to borrow from the right sibling.
	if ci < len(n.children)-1 && n.children[ci+1].occupancy() > minEntries {
		right := n.children[ci+1]
		if c.leaf() {
			c.insertEntry(len(c.offs), right.key(0), right.vals[0])
			right.offs = slices.Delete(right.offs, 0, 1)
			right.vals = slices.Delete(right.vals, 0, 1)
			n.setKey(ci, right.key(0))
		} else {
			c.insertKey(len(c.offs), n.key(ci))
			c.children = append(c.children, right.children[0])
			c.counts = append(c.counts, right.counts[0])
			n.setKey(ci, right.key(0))
			right.offs = slices.Delete(right.offs, 0, 1)
			right.children = slices.Delete(right.children, 0, 1)
			right.counts = slices.Delete(right.counts, 0, 1)
		}
		n.counts[ci] = c.count()
		n.counts[ci+1] = right.count()
		return
	}
	// Merge with a sibling.
	if ci > 0 {
		ci-- // merge children[ci] and children[ci+1] into children[ci]
	}
	if ci+1 >= len(n.children) {
		return // root with a single child; handled by caller
	}
	left, right := n.children[ci], n.children[ci+1]
	if left.leaf() {
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		if right.next != nil {
			right.next.prev = left
		}
	} else {
		left.insertKey(len(left.offs), n.key(ci))
		left.children = append(left.children, right.children...)
		left.counts = append(left.counts, right.counts...)
	}
	for j := range right.offs {
		left.insertKey(len(left.offs), right.key(j))
	}
	n.offs = slices.Delete(n.offs, ci, ci+1)
	n.children = slices.Delete(n.children, ci+1, ci+2)
	n.counts = slices.Delete(n.counts, ci+1, ci+2)
	n.counts[ci] = left.count()
}

// occupancy returns the fill metric used by rebalancing: entries for
// leaves, children for internal nodes.
func (n *node) occupancy() int {
	if n.leaf() {
		return len(n.offs)
	}
	return len(n.children)
}

// At returns the i'th smallest entry (0-based) using the order-statistics
// counts, in O(log n).  The key must not be modified.
func (t *Tree) At(i int) (key []byte, val uint64, ok bool) {
	if i < 0 || i >= t.size {
		return nil, 0, false
	}
	n := t.root
	for !n.leaf() {
		for ci := range n.children {
			if i < n.counts[ci] {
				n = n.children[ci]
				break
			}
			i -= n.counts[ci]
		}
	}
	return n.key(i), n.vals[i], true
}

// Rank returns the number of entries strictly less than key.
func (t *Tree) Rank(key []byte) int {
	n := t.root
	rank := 0
	for !n.leaf() {
		ci := childIndex(n, key)
		for j := 0; j < ci; j++ {
			rank += n.counts[j]
		}
		n = n.children[ci]
	}
	i, _ := leafIndex(n, key)
	return rank + i
}

// Iter is a position at a leaf entry.  It is a plain value: seeking and
// walking allocate nothing.
type Iter struct {
	n *node
	i int
}

// Valid reports whether the iterator points at an entry.
func (it *Iter) Valid() bool { return it.n != nil && it.i >= 0 && it.i < len(it.n.offs) }

// Key returns the current key.  The slice must not be modified.
func (it *Iter) Key() []byte { return it.n.key(it.i) }

// Val returns the current value.
func (it *Iter) Val() uint64 { return it.n.vals[it.i] }

// Next advances the iterator.
func (it *Iter) Next() {
	it.i++
	for it.n != nil && it.i >= len(it.n.offs) {
		it.n = it.n.next
		it.i = 0
	}
}

// Prev moves the iterator backwards.
func (it *Iter) Prev() {
	it.i--
	for it.n != nil && it.i < 0 {
		it.n = it.n.prev
		if it.n != nil {
			it.i = len(it.n.offs) - 1
		}
	}
}

// find returns the leaf whose key range holds key and the position of
// the first of its entries >= key (len of its entries if none is).
// Every entry in the leaves before it sorts below key.
func (t *Tree) find(key []byte) (*node, int) {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n, key)]
	}
	i, _ := leafIndex(n, key)
	return n, i
}

// Seek returns an iterator positioned at the first entry with key >= key.
func (t *Tree) Seek(key []byte) Iter {
	n, i := t.find(key)
	it := Iter{n: n, i: i}
	if i >= len(n.offs) {
		it.i = i - 1
		it.Next()
	}
	return it
}

// lastLeaf returns the rightmost leaf.
func (t *Tree) lastLeaf() *node {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n
}

// Max returns an iterator at the largest entry (invalid if empty).
func (t *Tree) Max() Iter {
	n := t.lastLeaf()
	return Iter{n: n, i: len(n.offs) - 1}
}

// Ascend calls fn for each entry with lo <= key < hi in order.  A nil lo
// means from the start; a nil hi means to the end.  Iteration stops if fn
// returns false.  The bound hi is compared once per leaf, not per key:
// a leaf whose last key sorts below hi is walked whole.
func (t *Tree) Ascend(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	for n, i := t.find(lo); n != nil; n, i = n.next, 0 {
		end := len(n.offs)
		if hi != nil && end > 0 && bytes.Compare(n.key(end-1), hi) >= 0 {
			end, _ = leafIndex(n, hi)
		}
		for ; i < end; i++ {
			if !fn(n.key(i), n.vals[i]) {
				return
			}
		}
		if end < len(n.offs) {
			return
		}
	}
}

// CountRange returns the number of entries with lo <= key < hi without
// iterating them, using the order-statistics counts (two O(log n) rank
// computations).  Nil bounds are unbounded.  Query planners use this to
// estimate index-range selectivity before choosing an access path.
func (t *Tree) CountRange(lo, hi []byte) int {
	upper := t.size
	if hi != nil {
		upper = t.Rank(hi)
	}
	lower := 0
	if lo != nil {
		lower = t.Rank(lo)
	}
	if upper < lower {
		return 0
	}
	return upper - lower
}

// SplitRange returns up to parts-1 interior boundary keys that divide
// the entries with lo <= key < hi into roughly equal runs, using the
// order-statistics counts (O(parts log n)).  Nil bounds are unbounded.
// The returned keys are copies, strictly increasing, and all inside
// (lo, hi), so [lo, b0), [b0, b1), ... [bk, hi) partition the range.
// Index statistics use it for their equi-depth histogram boundaries.
func (t *Tree) SplitRange(lo, hi []byte, parts int) [][]byte {
	if parts <= 1 {
		return nil
	}
	lower := 0
	if lo != nil {
		lower = t.Rank(lo)
	}
	upper := t.size
	if hi != nil {
		upper = t.Rank(hi)
	}
	n := upper - lower
	if n <= 1 {
		return nil
	}
	if parts > n {
		parts = n
	}
	var bounds [][]byte
	var prev []byte
	for p := 1; p < parts; p++ {
		key, _, ok := t.At(lower + p*n/parts)
		if !ok {
			break
		}
		// Skip duplicate boundaries (heavy key skew) and anything not
		// strictly inside the range.
		if prev != nil && bytes.Compare(key, prev) <= 0 {
			continue
		}
		if lo != nil && bytes.Compare(key, lo) <= 0 {
			continue
		}
		if hi != nil && bytes.Compare(key, hi) >= 0 {
			break
		}
		cp := append([]byte(nil), key...)
		bounds = append(bounds, cp)
		prev = cp
	}
	return bounds
}

// CheckInvariants verifies structural invariants (key order, separators
// bounding their subtrees, counts, balance, the leaf chain, every key
// inside the written part of its block) and returns an error describing
// the first violation.  It is used by tests and by the storage engine's
// consistency checker.
func (t *Tree) CheckInvariants() error {
	var prevLeaf *node
	// check verifies n's subtree, whose keys must lie in [lo, hi); a nil
	// bound (hasLo or hasHi false) is open.
	var check func(n *node, lo, hi []byte, hasLo, hasHi bool, depth int) (count, height int, err error)
	check = func(n *node, lo, hi []byte, hasLo, hasHi bool, depth int) (int, int, error) {
		for i, off := range n.offs {
			if int(off) >= len(n.block) {
				return 0, 0, fmt.Errorf("key %d at depth %d outside its block", i, depth)
			}
			if ln, w := binary.Uvarint(n.block[off:]); w <= 0 || uint64(len(n.block)-int(off)-w) < ln {
				return 0, 0, fmt.Errorf("key %d at depth %d runs past its block", i, depth)
			}
			k := n.key(i)
			if i > 0 && bytes.Compare(n.key(i-1), k) >= 0 {
				return 0, 0, fmt.Errorf("keys out of order at depth %d: %x >= %x", depth, n.key(i-1), k)
			}
			if hasLo && bytes.Compare(k, lo) < 0 || hasHi && bytes.Compare(k, hi) >= 0 {
				return 0, 0, fmt.Errorf("key %x at depth %d outside its separators", k, depth)
			}
		}
		if n.leaf() {
			if len(n.offs) != len(n.vals) {
				return 0, 0, fmt.Errorf("leaf keys/vals mismatch")
			}
			if n.prev != prevLeaf || prevLeaf != nil && prevLeaf.next != n {
				return 0, 0, fmt.Errorf("leaf chain broken at depth %d", depth)
			}
			prevLeaf = n
			return len(n.offs), 1, nil
		}
		if len(n.children) != len(n.counts) || len(n.offs) != len(n.children)-1 {
			return 0, 0, fmt.Errorf("internal node shape invalid")
		}
		total, h0 := 0, -1
		for ci, c := range n.children {
			clo, chi, cHasLo, cHasHi := lo, hi, hasLo, hasHi
			if ci > 0 {
				clo, cHasLo = n.key(ci-1), true
			}
			if ci < len(n.offs) {
				chi, cHasHi = n.key(ci), true
			}
			cnt, h, err := check(c, clo, chi, cHasLo, cHasHi, depth+1)
			if err != nil {
				return 0, 0, err
			}
			if cnt != n.counts[ci] {
				return 0, 0, fmt.Errorf("count cache wrong at depth %d: have %d want %d", depth, n.counts[ci], cnt)
			}
			if h0 == -1 {
				h0 = h
			} else if h != h0 {
				return 0, 0, fmt.Errorf("unbalanced tree")
			}
			total += cnt
		}
		return total, h0 + 1, nil
	}
	total, _, err := check(t.root, nil, nil, false, false, 0)
	if err != nil {
		return err
	}
	if prevLeaf.next != nil {
		return fmt.Errorf("leaf chain runs past the last leaf")
	}
	if total != t.size {
		return fmt.Errorf("size %d != counted %d", t.size, total)
	}
	return nil
}

// String renders a compact summary for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "btree[%d entries]", t.size)
	return b.String()
}
