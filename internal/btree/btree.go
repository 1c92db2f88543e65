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
// Every node keeps its keys in one pointer-free byte block, front-
// compressed as in Bayer and Unterauer's prefix B-trees: the block
// begins with the leading bytes all the node's keys share (its prefix),
// behind their uvarint length, followed by each key's remaining bytes
// (its suffix) behind theirs, and the node holds one 32-bit offset per
// suffix.  So an entry costs the bytes of its suffix plus 13 (the
// length, for suffixes under 128 bytes, the offset and the value), and
// the garbage collector has no key pointers to trace.  A search compares
// the probe with the prefix once and then only the suffixes.  A key that
// does not begin with a node's prefix, put there by a Set at either end
// of a leaf or by a split, borrow or merge, rebuilds the node's block
// behind the shorter prefix; splits, borrows and merges recompute the
// prefix of every node they touch.
//
// A block is append-only: Set copies a suffix into its spare capacity,
// Delete leaves the suffix's bytes where they are, and a block without
// room or with the wrong prefix is replaced by a new one holding the
// live keys, never rewritten.  The tree itself relies on that while it
// moves keys between nodes; callers cannot, because no key is one slice
// of a block: Iter.Key and At append a key to the caller's buffer, and
// the key Ascend passes its callback is valid only during the call.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
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
// serializes access through its lock manager.  Reads may run
// concurrently with each other.
type Tree struct {
	root *node
	size int
	// scratch is Ascend's key buffer, kept between calls so that a walk
	// allocates nothing.  An Ascend takes it by setting busy; one that
	// finds it taken (a concurrent or nested walk) uses its own.
	busy    atomic.Bool
	scratch []byte
}

// node is either a leaf (no branch) or an internal node.  Its block
// holds, behind their uvarint lengths, first its prefix and then its
// keys' suffixes; key i is the prefix followed by the suffix at
// block[offs[i]:].  A node with no block has an empty prefix.  A leaf's
// keys are its entries, vals[i] being key i's value.  An internal node's
// keys are separators: every key in children[i]'s subtree sorts below
// key i, and every key in children[i+1]'s sorts at or above it.  The
// internal-only fields sit behind a pointer, so a node header is 96
// bytes on 64-bit platforms.
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

// keyAt returns the byte string whose uvarint length is at b[off].  It
// inlines, and a string under 128 bytes costs one branch.  Its capacity
// ends with the string, so an append reallocates instead of writing
// into the block.
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

// prefix returns the bytes every key of n begins with.
func (n *node) prefix() []byte {
	if len(n.block) == 0 {
		return nil
	}
	return keyAt(n.block, 0)
}

// suffix returns the bytes of key i of n past n's prefix.
func (n *node) suffix(i int) []byte { return keyAt(n.block, n.offs[i]) }

// part returns key i of n as its two pieces.
func (n *node) part(i int) skey { return skey{n.prefix(), n.suffix(i)} }

// appendKey appends key i of n to dst.
func (n *node) appendKey(dst []byte, i int) []byte {
	return append(append(dst, n.prefix()...), n.suffix(i)...)
}

// strip compares key with n's prefix.  If key begins with it, strip
// returns the rest of key and 0; otherwise nil and -1 or 1, as key sorts
// below or above every key n can hold.
func (n *node) strip(key []byte) ([]byte, int) {
	p := n.prefix()
	if len(key) < len(p) {
		return nil, bytes.Compare(key, p) // never 0: the lengths differ
	}
	if string(key[:len(p)]) != string(p) { // cheaper than Compare when equal
		return nil, bytes.Compare(key[:len(p)], p)
	}
	return key[len(p):], 0
}

// compareKey compares key with key i of n.
func (n *node) compareKey(key []byte, i int) int {
	rest, c := n.strip(key)
	if c != 0 {
		return c
	}
	return bytes.Compare(rest, n.suffix(i))
}

// skey is a key held as two pieces, pre followed by suf: a node's
// prefix and one of its suffixes, or a caller's key whole in suf.  The
// pieces point into blocks, which are never rewritten, so an skey stays
// valid while the tree moves keys between nodes.
type skey struct{ pre, suf []byte }

func whole(key []byte) skey { return skey{suf: key} }

func (k skey) len() int { return len(k.pre) + len(k.suf) }

// at returns byte i of k.
func (k skey) at(i int) byte {
	if i < len(k.pre) {
		return k.pre[i]
	}
	return k.suf[i-len(k.pre)]
}

// appendRange appends bytes [from, to) of k to dst.
func (k skey) appendRange(dst []byte, from, to int) []byte {
	if from < len(k.pre) {
		dst = append(dst, k.pre[from:min(to, len(k.pre))]...)
	}
	if to > len(k.pre) {
		dst = append(dst, k.suf[max(from-len(k.pre), 0):to-len(k.pre)]...)
	}
	return dst
}

// hasPrefix reports whether k begins with p.
func (k skey) hasPrefix(p []byte) bool {
	if len(p) <= len(k.pre) {
		return bytes.HasPrefix(k.pre, p)
	}
	return bytes.Equal(k.pre, p[:len(k.pre)]) && bytes.HasPrefix(k.suf, p[len(k.pre):])
}

// from returns k's bytes from i to the end of the piece holding byte i.
func (k skey) from(i int) []byte {
	if i < len(k.pre) {
		return k.pre[i:]
	}
	return k.suf[i-len(k.pre):]
}

// common returns the length of the longest prefix a and b share.
func (a skey) common(b skey) int {
	n, m := 0, min(a.len(), b.len())
	for n < m {
		x, y := a.from(n), b.from(n)
		l := min(len(x), len(y))
		c := 0
		for c < l && x[c] == y[c] {
			c++
		}
		if n += c; c < l {
			break
		}
	}
	return n
}

// order compares a with b.
func (a skey) order(b skey) int {
	c := a.common(b)
	switch {
	case c == a.len() && c == b.len():
		return 0
	case c == a.len():
		return -1
	case c == b.len():
		return 1
	case a.at(c) < b.at(c):
		return -1
	}
	return 1
}

// encSize returns the bytes a string of ln bytes takes in a block, its
// length included.
func encSize(ln int) int {
	w := 1
	for u := ln; u >= 0x80; u >>= 7 {
		w++
	}
	return w + ln
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

// layout returns the length p of the prefix the keys ks, in order,
// share (that of the first and the last) and the bytes a block holding
// them behind it takes.
func layout(ks []skey) (p, live int) {
	if len(ks) > 0 {
		p = ks[0].common(ks[len(ks)-1])
	}
	live = encSize(p)
	for _, k := range ks {
		live += encSize(k.len() - p)
	}
	return p, live
}

// fill replaces n's block by a new one with room for size bytes holding
// the keys ks, in order, behind their first p bytes, and points n's
// offsets at them.  The old block is dropped, not cleared, so ks may
// point into it.
func (n *node) fill(ks []skey, p, size int) {
	b := binary.AppendUvarint(newBlock(size), uint64(p))
	if len(ks) > 0 {
		b = ks[0].appendRange(b, 0, p)
	}
	n.offs = n.offs[:0]
	for _, k := range ks {
		n.offs = append(n.offs, uint32(len(b)))
		b = k.appendRange(binary.AppendUvarint(b, uint64(k.len()-p)), p, k.len())
	}
	n.block = b
}

// refill rebuilds n's block around the keys ks, in order, behind the
// prefix they share, with room for more keys of their size (room).
func (n *node) refill(ks []skey) {
	p, live := layout(ks)
	n.fill(ks, p, room(live, len(ks)))
}

// parts fills dst with n's keys from key from on and returns it.  The
// callers put a key of their own into the same array by a direct store
// to the array: a store through a slice (or an append) would move that
// key, which its caller may have built on the stack, to the heap.
func (n *node) parts(dst []skey, from int) []skey {
	p := n.prefix()
	for j := range dst {
		dst[j] = skey{p, n.suffix(from + j)}
	}
	return dst
}

// refit recomputes n's prefix as the one its first and last keys share
// and, if that is longer than the prefix n's block holds (n lost a key
// at an end), rebuilds the block behind it.
func (n *node) refit() {
	if last := len(n.offs) - 1; last >= 0 && n.part(0).common(n.part(last)) > len(n.prefix()) {
		var buf [degree + 1]skey
		n.refill(n.parts(buf[:len(n.offs)], 0))
	}
}

// put copies k's suffix, behind its length, into n's block and returns
// its offset, if k begins with n's prefix and its suffix fits the
// block's spare room; otherwise it reports false.
func (n *node) put(k skey) (uint32, bool) {
	if len(n.block) == 0 {
		return 0, false
	}
	p := n.prefix()
	ln := k.len() - len(p)
	if !k.hasPrefix(p) || encSize(ln) > cap(n.block)-len(n.block) {
		return 0, false
	}
	off := uint32(len(n.block))
	n.block = k.appendRange(binary.AppendUvarint(n.block, uint64(ln)), len(p), k.len())
	return off, true
}

// setKey replaces key i of internal node n by a copy of k.
func (n *node) setKey(i int, k skey) {
	if off, ok := n.put(k); ok {
		n.offs[i] = off
		return
	}
	var buf [degree + 1]skey
	n.parts(buf[:len(n.offs)], 0)
	buf[i] = k
	n.refill(buf[:len(n.offs)])
}

// insertKey inserts a copy of k as key i of n.
func (n *node) insertKey(i int, k skey) {
	if off, ok := n.put(k); ok {
		n.offs = slices.Insert(n.offs, i, off)
		return
	}
	var buf [degree + 1]skey
	m := len(n.offs)
	n.parts(buf[:i], 0)
	buf[i] = k
	n.parts(buf[i+1:m+1], i)
	n.refill(buf[:m+1])
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
	rest, c := n.strip(key)
	switch {
	case c < 0:
		return 0
	case c > 0:
		return len(n.offs)
	}
	b, offs := n.block, n.offs
	lo, hi := 0, len(offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(rest, keyAt(b, offs[mid])) < 0 {
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
	rest, c := n.strip(key)
	switch {
	case c < 0:
		return 0, false
	case c > 0:
		return len(n.offs), false
	}
	b, offs := n.block, n.offs
	lo, hi := 0, len(offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch bytes.Compare(rest, keyAt(b, offs[mid])) {
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
	inserted, split, sep, right := t.root.set(key, val)
	if inserted {
		t.size++
	}
	if split {
		old := t.root
		root := &node{branch: &branch{
			children: []*node{old, right},
			counts:   []int{old.count(), right.count()},
		}}
		root.insertKey(0, sep)
		t.root = root
	}
	return inserted
}

// NewFromSorted builds a tree of n entries from entry(0) … entry(n-1),
// whose keys must be strictly increasing, by packing full leaves left to
// right and building the internal levels bottom-up — O(n) instead of the
// O(n log n) of repeated Set, with no node splits.  Bulk index builds use
// it.  entry is called once per position, in order; each leaf copies its
// keys, behind the prefix its first and last key share, into one block
// of exactly their size, so a key need only stay unchanged until
// NewFromSorted returns.
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
	var ks [degree]skey
	for i := 0; i < n; i += maxEntries {
		m := min(maxEntries, n-i)
		leaf := &node{offs: make([]uint32, 0, m), vals: make([]uint64, m)}
		for j := range ks[:m] {
			var k []byte
			k, leaf.vals[j] = entry(i + j)
			ks[j] = whole(k)
			if j > 0 && bytes.Compare(ks[j-1].suf, k) >= 0 ||
				j == 0 && i > 0 && level[len(level)-1].part(maxEntries-1).order(ks[0]) >= 0 {
				return nil, fmt.Errorf("btree: keys not strictly increasing at position %d", i+j)
			}
		}
		p, live := layout(ks[:m])
		leaf.fill(ks[:m], p, live)
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
				offs: make([]uint32, 0, len(kids)-1),
				branch: &branch{
					children: slices.Clone(kids),
					counts:   make([]int, len(kids)),
				},
			}
			for k, c := range kids {
				n.counts[k] = c.count()
				if k > 0 {
					ks[k-1] = leftmostKey(c)
				}
			}
			p, live := layout(ks[:len(kids)-1])
			n.fill(ks[:len(kids)-1], p, live)
			up = append(up, n)
			i = j
		}
		level = up
	}
	t.root = level[0]
	return t, nil
}

// leftmostKey returns the smallest key in n's subtree.
func leftmostKey(n *node) skey {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.part(0)
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
func (n *node) set(key []byte, val uint64) (inserted, split bool, sep skey, right *node) {
	if n.leaf() {
		i, found := leafIndex(n, key)
		switch {
		case found:
			n.vals[i] = val
			return false, false, skey{}, nil
		case len(n.offs) < maxEntries:
			n.insertKey(i, whole(key))
			n.vals = slices.Insert(n.vals, i, val)
			return true, false, skey{}, nil
		}
		right = n.splitLeaf(i, key, val)
		return true, true, right.part(0), right
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
			sep, right = n.splitInternal()
			return ins, true, sep, right
		}
	}
	return ins, false, skey{}, nil
}

// splitLeaf splits the full leaf n around the new entry (key, val),
// whose position is i, into two halves: n keeps the lower, and the upper
// moves to a new right sibling with arrays of its own, sized for a full
// leaf.  Both get a new block behind the prefix of their own keys.  An
// entry past the last key of the last leaf, as ascending sets make,
// splits nothing off: n stays full and as it is, and the new leaf starts
// with the new entry alone, so a tree grown in key order packs every
// leaf but its last.  That leaf's block is sized, and its prefix cut,
// for keys like all of n's: the prefix n's first key shares with the
// new one, which the keys set after it are likely to share too.
func (n *node) splitLeaf(i int, key []byte, val uint64) *node {
	var buf [degree]skey
	n.parts(buf[:i], 0)
	buf[i] = whole(key)
	n.parts(buf[i+1:], i)
	ks := buf[:]
	s := (maxEntries + 1) / 2 // n keeps entries [0, s) of its own
	if i < s {
		s--
	}
	cut := s // n keeps ks[:cut]
	if i < s {
		cut++
	}
	sized := cut // the new block has room and a prefix for keys like ks[sized:]
	if n.next == nil && i == len(n.offs) {
		s, cut, sized = len(n.offs), len(n.offs), 0
	}
	right := &node{
		offs: make([]uint32, 0, maxEntries),
		vals: append(make([]uint64, 0, maxEntries), n.vals[s:]...),
		next: n.next,
		prev: n,
	}
	p, live := layout(ks[sized:])
	right.fill(ks[cut:], p, room(live, len(ks)-sized))
	n.vals = n.vals[:s]
	if i >= s {
		right.vals = slices.Insert(right.vals, i-s, val)
	} else {
		n.vals = slices.Insert(n.vals, i, val)
	}
	if sized > 0 {
		n.refill(ks[:cut])
	}
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	return right
}

// splitInternal moves the upper half of n's children to a new right
// sibling, rebuilds both blocks behind their own separators' prefix, and
// returns the separator between the halves (a key of n's old block,
// which the caller copies).
func (n *node) splitInternal() (sep skey, right *node) {
	mid := len(n.children) / 2
	var buf [degree + 1]skey
	ks := n.parts(buf[:len(n.offs)], 0)
	sep = ks[mid-1]
	right = &node{
		offs: make([]uint32, 0, len(ks)-mid),
		branch: &branch{
			children: slices.Clone(n.children[mid:]),
			counts:   slices.Clone(n.counts[mid:]),
		},
	}
	right.refill(ks[mid:])
	n.refill(ks[:mid-1])
	clear(n.children[mid:])
	n.children = n.children[:mid]
	n.counts = n.counts[:mid]
	return sep, right
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
// into the receiving node's block, and every node that gains or loses a
// key at an end recomputes its prefix (refit).
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
			c.insertKey(0, left.part(last))
			c.vals = slices.Insert(c.vals, 0, left.vals[last])
			left.offs, left.vals = left.offs[:last], left.vals[:last]
			n.setKey(ci-1, c.part(0))
		} else {
			last := len(left.children) - 1
			c.insertKey(0, n.part(ci-1))
			c.children = slices.Insert(c.children, 0, left.children[last])
			c.counts = slices.Insert(c.counts, 0, left.counts[last])
			n.setKey(ci-1, left.part(last-1))
			left.offs = left.offs[:last-1]
			left.children[last] = nil
			left.children = left.children[:last]
			left.counts = left.counts[:last]
		}
		n.counts[ci-1] = left.count()
		n.counts[ci] = c.count()
		left.refit()
		c.refit()
		n.refit()
		return
	}
	// Try to borrow from the right sibling.
	if ci < len(n.children)-1 && n.children[ci+1].occupancy() > minEntries {
		right := n.children[ci+1]
		if c.leaf() {
			c.insertKey(len(c.offs), right.part(0))
			c.vals = append(c.vals, right.vals[0])
			right.offs = slices.Delete(right.offs, 0, 1)
			right.vals = slices.Delete(right.vals, 0, 1)
			n.setKey(ci, right.part(0))
		} else {
			c.insertKey(len(c.offs), n.part(ci))
			c.children = append(c.children, right.children[0])
			c.counts = append(c.counts, right.counts[0])
			n.setKey(ci, right.part(0))
			right.offs = slices.Delete(right.offs, 0, 1)
			right.children = slices.Delete(right.children, 0, 1)
			right.counts = slices.Delete(right.counts, 0, 1)
		}
		n.counts[ci] = c.count()
		n.counts[ci+1] = right.count()
		right.refit()
		c.refit()
		n.refit()
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
	var buf [degree + 1]skey
	l := len(left.offs)
	left.parts(buf[:l], 0)
	if left.leaf() {
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		if right.next != nil {
			right.next.prev = left
		}
	} else {
		buf[l] = n.part(ci)
		l++
		left.children = append(left.children, right.children...)
		left.counts = append(left.counts, right.counts...)
	}
	right.parts(buf[l:l+len(right.offs)], 0)
	left.refill(buf[:l+len(right.offs)])
	n.offs = slices.Delete(n.offs, ci, ci+1)
	n.children = slices.Delete(n.children, ci+1, ci+2)
	n.counts = slices.Delete(n.counts, ci+1, ci+2)
	n.counts[ci] = left.count()
	n.refit()
}

// occupancy returns the fill metric used by rebalancing: entries for
// leaves, children for internal nodes.
func (n *node) occupancy() int {
	if n.leaf() {
		return len(n.offs)
	}
	return len(n.children)
}

// At appends the i'th smallest key (0-based) to dst and returns it with
// its value, using the order-statistics counts, in O(log n).
func (t *Tree) At(dst []byte, i int) (key []byte, val uint64, ok bool) {
	if i < 0 || i >= t.size {
		return dst, 0, false
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
	return n.appendKey(dst, i), n.vals[i], true
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

// Key appends the current key to dst and returns the result.
func (it *Iter) Key(dst []byte) []byte { return it.n.appendKey(dst, it.i) }

// Val returns the current value.
func (it *Iter) Val() uint64 { return it.n.vals[it.i] }

// Span returns how many entries of the current leaf, from the current
// one on in the walk's direction (backward with reverse), lie inside
// bound: below it going forward, at or above it going backward; a nil
// bound holds every key.  One compare with the leaf's far key settles
// every leaf but the one that holds bound, which is searched.
func (it *Iter) Span(bound []byte, reverse bool) int {
	n, i := it.n, it.i
	switch {
	case !reverse && (bound == nil || n.compareKey(bound, len(n.offs)-1) > 0):
		return len(n.offs) - i
	case reverse && (bound == nil || n.compareKey(bound, 0) <= 0):
		return i + 1
	}
	j, _ := leafIndex(n, bound)
	if reverse {
		return max(i-j+1, 0)
	}
	return max(j-i, 0)
}

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
// returns false.  The key fn is passed is valid only during the call and
// must not be modified.  The bound hi is compared once per leaf, not per
// key: a leaf whose last key sorts below hi is walked whole.
func (t *Tree) Ascend(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	var buf []byte
	if t.busy.CompareAndSwap(false, true) {
		buf = t.scratch
		defer func() { t.scratch = buf; t.busy.Store(false) }()
	}
	for n, i := t.find(lo); n != nil; n, i = n.next, 0 {
		end := len(n.offs)
		if hi != nil && end > 0 && n.compareKey(hi, end-1) <= 0 {
			end, _ = leafIndex(n, hi)
		}
		buf = append(buf[:0], n.prefix()...)
		p := len(buf)
		for ; i < end; i++ {
			buf = append(buf[:p], n.suffix(i)...)
			if !fn(buf[:len(buf):len(buf)], n.vals[i]) {
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
// The returned keys are the caller's, strictly increasing, and all inside
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
		key, _, ok := t.At(nil, lower+p*n/parts)
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
		bounds = append(bounds, key)
		prev = key
	}
	return bounds
}

// CheckInvariants verifies structural invariants (every key and the
// prefix inside the written part of its block, key order, separators
// bounding their subtrees, counts, balance, the leaf chain) and returns
// an error describing the first violation.  It is used by tests and by
// the storage engine's consistency checker.
func (t *Tree) CheckInvariants() error {
	var prevLeaf *node
	// check verifies n's subtree, whose keys must lie in [lo, hi); a nil
	// bound (hasLo or hasHi false) is open.
	var check func(n *node, lo, hi skey, hasLo, hasHi bool, depth int) (count, height int, err error)
	check = func(n *node, lo, hi skey, hasLo, hasHi bool, depth int) (int, int, error) {
		if len(n.offs) > 0 {
			if len(n.block) == 0 {
				return 0, 0, fmt.Errorf("keys at depth %d without a block", depth)
			}
			if ln, w := binary.Uvarint(n.block); w <= 0 || uint64(len(n.block)-w) < ln {
				return 0, 0, fmt.Errorf("prefix at depth %d runs past its block", depth)
			}
		}
		for i, off := range n.offs {
			if start := encSize(len(n.prefix())); int(off) < start || int(off) >= len(n.block) {
				return 0, 0, fmt.Errorf("key %d at depth %d outside its block's suffixes", i, depth)
			}
			if ln, w := binary.Uvarint(n.block[off:]); w <= 0 || uint64(len(n.block)-int(off)-w) < ln {
				return 0, 0, fmt.Errorf("key %d at depth %d runs past its block", i, depth)
			}
			k := n.part(i)
			if i > 0 && n.part(i-1).order(k) >= 0 {
				return 0, 0, fmt.Errorf("keys out of order at depth %d: %x >= %x", depth, n.appendKey(nil, i-1), n.appendKey(nil, i))
			}
			if hasLo && k.order(lo) < 0 || hasHi && k.order(hi) >= 0 {
				return 0, 0, fmt.Errorf("key %x at depth %d outside its separators", n.appendKey(nil, i), depth)
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
				clo, cHasLo = n.part(ci-1), true
			}
			if ci < len(n.offs) {
				chi, cHasHi = n.part(ci), true
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
	total, _, err := check(t.root, skey{}, skey{}, false, false, 0)
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
