package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// varKey returns a key of 8 to 20 bytes that sorts as i does.
func varKey(i int) []byte {
	return append(key(i), bytes.Repeat([]byte{'k'}, i%13)...)
}

// footprint sums the capacities the tree's nodes hold, in bytes: each
// leaf's block, offsets and values, and each internal node's block,
// offsets, child pointers and counts.
func footprint(t *Tree) (leaves, internal int) {
	var walk func(n *node)
	walk = func(n *node) {
		b := cap(n.block) + 4*cap(n.offs)
		if n.leaf() {
			leaves += b + 8*cap(n.vals)
			return
		}
		internal += b + 8*cap(n.children) + 8*cap(n.counts)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return leaves, internal
}

// TestNodeSize: a node header is three slices and three pointers
// (96 bytes on 64-bit platforms); the internal-only fields sit behind
// one of the pointers.
func TestNodeSize(t *testing.T) {
	if got, want := unsafe.Sizeof(node{}), 12*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("node is %d bytes, want %d", got, want)
	}
}

// sizeClass returns the capacity the allocator gives a byte slice of n.
func sizeClass(n int) int { return cap(slices.Grow([]byte(nil), n)) }

// sharedLen returns the length of the longest common prefix of a and b.
func sharedLen(a, b []byte) int {
	n := 0
	for n < min(len(a), len(b)) && a[n] == b[n] {
		n++
	}
	return n
}

// bulkLeafBudget returns the bytes NewFromSorted's leaves may hold for
// keys, in order: per leaf of maxEntries consecutive keys, the prefix
// its first and last key share, stored once behind its length, and each
// key's suffix; 16 bytes an entry (the suffix's length, its offset and
// its value, with room to spare); and each block's size-class rounding.
// It also returns the bytes the blocks would take holding every key
// whole, rounding included.
func bulkLeafBudget(keys [][]byte) (budget, wholeBlocks int) {
	for i := 0; i < len(keys); i += maxEntries {
		leaf := keys[i:min(i+maxEntries, len(keys))]
		p := sharedLen(leaf[0], leaf[len(leaf)-1])
		block, unprefixed := encSize(p), 0
		for _, k := range leaf {
			block += encSize(len(k) - p)
			unprefixed += encSize(len(k))
		}
		budget += sizeClass(block) + 16*len(leaf)
		wholeBlocks += sizeClass(unprefixed)
	}
	return budget, wholeBlocks
}

// TestBulkFootprint: a bulk-built leaf costs its keys' suffixes, one
// prefix, 16 bytes an entry (two offsets and a value) and its block's
// size-class rounding; the internal levels add a small fraction on top.
func TestBulkFootprint(t *testing.T) {
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = varKey(i)
	}
	tr, err := NewFromSorted(n, func(i int) ([]byte, uint64) { return keys[i], uint64(i) })
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves, internal := footprint(tr)
	budget, _ := bulkLeafBudget(keys)
	if leaves > budget {
		t.Errorf("leaves hold %d bytes, budget %d", leaves, budget)
	}
	if internal > leaves/16 {
		t.Errorf("internal nodes hold %d bytes against %d in leaves", internal, leaves)
	}
	t.Logf("%d entries: leaves %d B (%.1f B/entry, budget %d B), internal %d B",
		n, leaves, float64(leaves)/n, budget, internal)
}

// TestParentRankFootprint: keys shaped as a (parent, rank) ordering
// index's are (a 9-byte parent ref, a 17-byte rank and an 8-byte row
// id), whose leaves each hold one parent's children, share most of
// their bytes within a leaf: storing the leaf's prefix once saves at
// least a fifth of the leaf blocks that hold the keys whole.
func TestParentRankFootprint(t *testing.T) {
	const parents, children = 500, maxEntries
	var keys [][]byte
	for p := 1; p <= parents; p++ {
		for c := 1; c <= children; c++ {
			k := binary.BigEndian.AppendUint64([]byte{0x0b}, uint64(p))
			k = binary.BigEndian.AppendUint64(append(k, 0x05), uint64(c)<<20)
			k = binary.BigEndian.AppendUint64(k, 0)
			k = binary.BigEndian.AppendUint64(k, uint64(len(keys)+1))
			keys = append(keys, k)
		}
	}
	tr, err := NewFromSorted(len(keys), func(i int) ([]byte, uint64) { return keys[i], uint64(i + 1) })
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for l := tr.Seek(nil).n; l != nil; l = l.next {
		blocks += cap(l.block)
	}
	budget, whole := bulkLeafBudget(keys)
	if blocks > whole*4/5 {
		t.Errorf("leaf blocks hold %d bytes, want at most 80%% of the %d they take holding each key whole", blocks, whole)
	}
	if leaves, _ := footprint(tr); leaves > budget {
		t.Errorf("leaves hold %d bytes, budget %d", leaves, budget)
	}
	for i, k := range keys {
		if v, ok := tr.Get(k); !ok || v != uint64(i+1) {
			t.Fatalf("Get(key %d) = %d, %v", i, v, ok)
		}
	}
	t.Logf("%d keys of %d bytes: leaf blocks %d B against %d B holding each key whole (%.0f%% saved)",
		len(keys), len(keys[0]), blocks, whole, 100-100*float64(blocks)/float64(whole))
}

// TestChurnFootprint: after many random sets and deletes the tree holds
// at most twice the live budget (key bytes plus 16 bytes an entry), so
// no replaced block and no dead room outlives its use.
func TestChurnFootprint(t *testing.T) {
	const universe = 20_000
	tr := New()
	rng := rand.New(rand.NewSource(35))
	live := map[int]bool{}
	for len(live) < 10_000 {
		i := rng.Intn(universe)
		tr.Set(varKey(i), uint64(i))
		live[i] = true
	}
	for op := 0; op < 200_000; op++ {
		i := rng.Intn(universe)
		if rng.Intn(2) == 0 {
			tr.Set(varKey(i), uint64(op))
			live[i] = true
		} else {
			tr.Delete(varKey(i))
			delete(live, i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(live) {
		t.Fatalf("len %d, want %d", tr.Len(), len(live))
	}
	budget := 0
	for i := range live {
		budget += len(varKey(i)) + 16
	}
	leaves, internal := footprint(tr)
	if leaves+internal > 2*budget {
		t.Errorf("tree holds %d bytes (%d leaves, %d internal), more than twice the live budget %d",
			leaves+internal, leaves, internal, budget)
	}
	t.Logf("%d live entries: %d B held against a live budget of %d B (%.2fx)",
		len(live), leaves+internal, budget, float64(leaves+internal)/float64(budget))
}

// TestAscendingFootprint: a tree grown by ascending sets, as an index
// over appended refs is, packs its leaves: every leaf but the last holds
// at least 60 of its 63 entries, and the tree stays within a quarter of
// the live budget (key bytes plus 16 bytes an entry).
func TestAscendingFootprint(t *testing.T) {
	const n = 100_000
	tr := New()
	budget := 0
	for i := 0; i < n; i++ {
		k := varKey(i)
		tr.Set(k, uint64(i))
		budget += len(k) + 16
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leafCount := 0
	for l := tr.Seek(nil).n; l != nil; l = l.next {
		leafCount++
		if l.next != nil && len(l.offs) < 60 {
			t.Fatalf("leaf %d holds %d entries, want at least 60", leafCount, len(l.offs))
		}
	}
	leaves, internal := footprint(tr)
	if leaves+internal > budget*5/4 {
		t.Errorf("tree holds %d bytes (%d leaves, %d internal), more than 1.25x the live budget %d",
			leaves+internal, leaves, internal, budget)
	}
	t.Logf("%d entries in %d leaves: %d B held against a live budget of %d B (%.2fx)",
		n, leafCount, leaves+internal, budget, float64(leaves+internal)/float64(budget))
}

// TestRangeReadAllocs: range reads walk from a by-value position, so
// neither Ascend nor a bounded reverse walk allocates.
func TestRangeReadAllocs(t *testing.T) {
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Set(key(i), uint64(i))
	}
	lo, hi := key(1000), key(1500)
	var sum uint64
	visit := func(_ []byte, v uint64) bool { sum += v; return true }
	if got := testing.AllocsPerRun(100, func() { tr.Ascend(lo, hi, visit) }); got != 0 {
		t.Errorf("Ascend over a range: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { descend(tr, hi, lo, visit) }); got != 0 {
		t.Errorf("reverse walk over a range: %v allocations, want 0", got)
	}
	if sum == 0 {
		t.Fatal("ranges visited nothing")
	}
}

// TestSetReusesBlockRoom: inserting into a leaf with room in its block
// allocates nothing; the tree's copies of the keys cost less than one
// allocation per key on average.
func TestSetReusesBlockRoom(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		tr.Set(key(rng.Intn(1<<30)), 0)
	}
	next := 0
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = key(rng.Intn(1 << 30))
	}
	if got := testing.AllocsPerRun(len(keys)-1, func() {
		tr.Set(keys[next], 1)
		next++
	}); got >= 1 {
		t.Errorf("random Set: %v allocations per key, want fewer than 1", got)
	}
}

// TestLongKeys: keys whose length prefix takes one, two and three bytes
// read back whole, through Set and through NewFromSorted.
func TestLongKeys(t *testing.T) {
	var keys [][]byte
	for i, n := range []int{0, 1, 127, 128, 200, 16383, 16384, 20000} {
		keys = append(keys, append([]byte{byte(i)}, bytes.Repeat([]byte{byte(n)}, n)...))
	}
	tr := New()
	for i := len(keys) - 1; i >= 0; i-- {
		tr.Set(keys[i], uint64(i))
	}
	bulk, err := NewFromSorted(len(keys), func(i int) ([]byte, uint64) { return keys[i], uint64(i) })
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{tr, bulk} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if v, ok := tr.Get(k); !ok || v != uint64(i) {
				t.Fatalf("Get(key %d) = %d, %v", i, v, ok)
			}
			if got, _, _ := tr.At(nil, i); !bytes.Equal(got, k) {
				t.Fatalf("At(%d) reads %d bytes, want %d", i, len(got), len(k))
			}
		}
	}
}
