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
package btree

import (
	"bytes"
	"fmt"
	"strings"
)

// degree is the maximum number of children of an internal node.  Leaves
// hold up to degree-1 entries.  The value 32 keeps nodes around two cache
// lines of key pointers while bounding height at ~4 for a million keys.
const degree = 32

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

// node is either a leaf (children == nil) or an internal node.  In an
// internal node, keys[i] is the smallest key in children[i+1]'s subtree,
// and counts[i] caches the number of entries in children[i]'s subtree.
type node struct {
	keys     [][]byte
	vals     []uint64 // leaf only
	children []*node  // internal only
	counts   []int    // internal only; len == len(children)
	next     *node    // leaf chain for range scans
	prev     *node
}

func (n *node) leaf() bool { return n.children == nil }

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
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.keys[mid]) < 0 {
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
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(key, n.keys[mid]) {
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
// was newly inserted.
func (t *Tree) Set(key []byte, val uint64) bool {
	k := make([]byte, len(key))
	copy(k, key)
	inserted, split, sepKey, right := t.root.set(k, val)
	if inserted {
		t.size++
	}
	if split {
		old := t.root
		t.root = &node{
			keys:     [][]byte{sepKey},
			children: []*node{old, right},
			counts:   []int{old.count(), right.count()},
		}
	}
	return inserted
}

// NewFromSorted builds a tree from pre-sorted, strictly increasing
// (key, value) pairs by packing full leaves left to right and
// constructing the internal levels bottom-up — O(n) instead of the
// O(n log n) of repeated Set, with no node splits.  Bulk index builds
// use it: collect keys into a sorted run, then build the tree in one
// pass.  The key slices are taken over, not copied; callers must not
// modify them afterwards.
func NewFromSorted(keys [][]byte, vals []uint64) (*Tree, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("btree: %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return nil, fmt.Errorf("btree: keys not strictly increasing at position %d", i)
		}
	}
	t := New()
	if len(keys) == 0 {
		return t, nil
	}
	t.size = len(keys)
	// Pack leaves full; the trailing leaf keeps whatever remains.  Full
	// slice expressions cap each leaf at its own region, so a later Set
	// reallocates instead of scribbling on a neighbor's entries.
	var level []*node
	for i := 0; i < len(keys); i += maxEntries {
		j := i + maxEntries
		if j > len(keys) {
			j = len(keys)
		}
		leaf := &node{keys: keys[i:j:j], vals: vals[i:j:j]}
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
				children: append([]*node(nil), kids...),
				counts:   make([]int, 0, len(kids)),
				keys:     make([][]byte, 0, len(kids)-1),
			}
			for _, c := range kids {
				n.counts = append(n.counts, c.count())
			}
			for k := 1; k < len(kids); k++ {
				n.keys = append(n.keys, leftmostKey(kids[k]))
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
	return n.keys[0]
}

// count returns the number of entries in n's subtree.
func (n *node) count() int {
	if n.leaf() {
		return len(n.keys)
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
		if found {
			n.vals[i] = val
			return false, false, nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) > maxEntries {
			sepKey, right = n.splitLeaf()
			return true, true, sepKey, right
		}
		return true, false, nil, nil
	}
	ci := childIndex(n, key)
	ins, sp, sk, r := n.children[ci].set(key, val)
	if ins {
		n.counts[ci]++
	}
	if sp {
		n.counts[ci] = n.children[ci].count()
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sk
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = r
		n.counts = append(n.counts, 0)
		copy(n.counts[ci+2:], n.counts[ci+1:])
		n.counts[ci+1] = r.count()
		if len(n.children) > degree {
			sepKey, right = n.splitInternal()
			return ins, true, sepKey, right
		}
	}
	return ins, false, nil, nil
}

func (n *node) splitLeaf() (sepKey []byte, right *node) {
	mid := len(n.keys) / 2
	right = &node{
		keys: append([][]byte(nil), n.keys[mid:]...),
		vals: append([]uint64(nil), n.vals[mid:]...),
		next: n.next,
		prev: n,
	}
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	return right.keys[0], right
}

func (n *node) splitInternal() (sepKey []byte, right *node) {
	mid := len(n.children) / 2
	sepKey = n.keys[mid-1]
	right = &node{
		keys:     append([][]byte(nil), n.keys[mid:]...),
		children: append([]*node(nil), n.children[mid:]...),
		counts:   append([]int(nil), n.counts[mid:]...),
	}
	n.keys = n.keys[: mid-1 : mid-1]
	n.children = n.children[:mid:mid]
	n.counts = n.counts[:mid:mid]
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
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
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
// borrowing from or merging with a sibling.
func (n *node) rebalance(ci int) {
	c := n.children[ci]
	if c.occupancy() >= minEntries {
		return
	}
	// Try to borrow from the left sibling.
	if ci > 0 && n.children[ci-1].occupancy() > minEntries {
		left := n.children[ci-1]
		if c.leaf() {
			last := len(left.keys) - 1
			c.keys = append([][]byte{left.keys[last]}, c.keys...)
			c.vals = append([]uint64{left.vals[last]}, c.vals...)
			left.keys = left.keys[:last]
			left.vals = left.vals[:last]
			n.keys[ci-1] = c.keys[0]
		} else {
			last := len(left.children) - 1
			c.keys = append([][]byte{n.keys[ci-1]}, c.keys...)
			c.children = append([]*node{left.children[last]}, c.children...)
			c.counts = append([]int{left.counts[last]}, c.counts...)
			n.keys[ci-1] = left.keys[last-1]
			left.keys = left.keys[:last-1]
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
			c.keys = append(c.keys, right.keys[0])
			c.vals = append(c.vals, right.vals[0])
			right.keys = right.keys[1:]
			right.vals = right.vals[1:]
			n.keys[ci] = right.keys[0]
		} else {
			c.keys = append(c.keys, n.keys[ci])
			c.children = append(c.children, right.children[0])
			c.counts = append(c.counts, right.counts[0])
			n.keys[ci] = right.keys[0]
			right.keys = right.keys[1:]
			right.children = right.children[1:]
			right.counts = right.counts[1:]
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
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		if right.next != nil {
			right.next.prev = left
		}
	} else {
		left.keys = append(left.keys, n.keys[ci])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
		left.counts = append(left.counts, right.counts...)
	}
	n.keys = append(n.keys[:ci], n.keys[ci+1:]...)
	n.children = append(n.children[:ci+1], n.children[ci+2:]...)
	n.counts = append(n.counts[:ci+1], n.counts[ci+2:]...)
	n.counts[ci] = left.count()
}

// occupancy returns the fill metric used by rebalancing: entries for
// leaves, children for internal nodes.
func (n *node) occupancy() int {
	if n.leaf() {
		return len(n.keys)
	}
	return len(n.children)
}

// At returns the i'th smallest entry (0-based) using the order-statistics
// counts, in O(log n).
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
	return n.keys[i], n.vals[i], true
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

// Iter is a forward iterator positioned at a leaf entry.
type Iter struct {
	n *node
	i int
}

// Valid reports whether the iterator points at an entry.
func (it *Iter) Valid() bool { return it.n != nil && it.i < len(it.n.keys) }

// Key returns the current key.  The slice must not be modified.
func (it *Iter) Key() []byte { return it.n.keys[it.i] }

// Val returns the current value.
func (it *Iter) Val() uint64 { return it.n.vals[it.i] }

// Next advances the iterator.
func (it *Iter) Next() {
	it.i++
	for it.n != nil && it.i >= len(it.n.keys) {
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
			it.i = len(it.n.keys) - 1
		}
	}
}

// Seek returns an iterator positioned at the first entry with key >= key.
func (t *Tree) Seek(key []byte) *Iter {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n, key)]
	}
	i, _ := leafIndex(n, key)
	it := &Iter{n: n, i: i}
	if i >= len(n.keys) {
		it.i = i - 1
		it.Next()
	}
	return it
}

// Max returns an iterator at the largest entry (invalid if empty).
func (t *Tree) Max() *Iter {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return &Iter{n: n, i: len(n.keys) - 1}
}

// Ascend calls fn for each entry with lo <= key < hi in order.  A nil lo
// means from the start; a nil hi means to the end.  Iteration stops if fn
// returns false.
func (t *Tree) Ascend(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	it := t.Seek(lo)
	for it.Valid() {
		if hi != nil && bytes.Compare(it.Key(), hi) >= 0 {
			return
		}
		if !fn(it.Key(), it.Val()) {
			return
		}
		it.Next()
	}
}

// Descend calls fn for each entry with lo <= key < hi in descending key
// order.  A nil hi means from the largest entry; a nil lo means down to
// the smallest.  Iteration stops if fn returns false.  This is the
// reverse companion of Ascend, used for descending index range scans.
func (t *Tree) Descend(hi, lo []byte, fn func(key []byte, val uint64) bool) {
	it := t.Max()
	if hi != nil {
		it = t.Seek(hi) // first entry >= hi
		if it.Valid() {
			it.Prev() // last entry < hi
		} else {
			it = t.Max()
		}
	}
	for it.n != nil && it.i >= 0 && it.i < len(it.n.keys) {
		if lo != nil && bytes.Compare(it.Key(), lo) < 0 {
			return
		}
		if !fn(it.Key(), it.Val()) {
			return
		}
		it.Prev()
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
// Parallel executors use this to carve an index range into morsels.
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

// CheckInvariants verifies structural invariants (sortedness, counts,
// occupancy, leaf chaining) and returns an error describing the first
// violation.  It is used by tests and by the storage engine's consistency
// checker.
func (t *Tree) CheckInvariants() error {
	var prevKey []byte
	var checkNode func(n *node, depth int) (count, height int, err error)
	checkNode = func(n *node, depth int) (int, int, error) {
		if n.leaf() {
			if len(n.keys) != len(n.vals) {
				return 0, 0, fmt.Errorf("leaf keys/vals mismatch")
			}
			for _, k := range n.keys {
				if prevKey != nil && bytes.Compare(prevKey, k) >= 0 {
					return 0, 0, fmt.Errorf("keys out of order: %x >= %x", prevKey, k)
				}
				prevKey = k
			}
			return len(n.keys), 1, nil
		}
		if len(n.children) != len(n.counts) || len(n.keys) != len(n.children)-1 {
			return 0, 0, fmt.Errorf("internal node shape invalid")
		}
		total, h0 := 0, -1
		for ci, c := range n.children {
			cnt, h, err := checkNode(c, depth+1)
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
	total, _, err := checkNode(t.root, 0)
	if err != nil {
		return err
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
