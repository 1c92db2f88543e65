package btree

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refEntry is one entry of the sorted-slice model FuzzBTree checks the
// tree against.
type refEntry struct {
	key []byte
	val uint64
}

// refTree is the model: entries sorted by key.
type refTree []refEntry

// search returns the position of the first entry with key >= k.
func (r refTree) search(k []byte) int {
	return sort.Search(len(r), func(i int) bool { return bytes.Compare(r[i].key, k) >= 0 })
}

// keySpace is the number of distinct keys FuzzBTree uses: few enough
// that operations collide, enough for runs of sets to grow the tree
// past one internal level, so that internal nodes split and merge too.
const keySpace = 1 << 12

// longShared is the bytes the keys of fuzzKey's upper half share: more
// than a node prefix's one-byte length can say.
var longShared = bytes.Repeat([]byte{0xc0}, 130)

// fuzzKey returns key i of keySpace.  Key 0 is the empty key.  The rest
// of the lower half are 2 to 11 bytes, in the order of i.  The upper
// half share their first 130 bytes and come in groups of 64 whose
// shortest key is a prefix of the others; a leaf of them holds a long
// prefix, which a lower key set at its front, or a merge with a leaf of
// the lower half, shortens and a later split or merge regrows.
func fuzzKey(i int) []byte {
	i %= keySpace
	switch {
	case i == 0:
		return []byte{}
	case i < keySpace/2:
		k := []byte{byte(i >> 8), byte(i)}
		return append(k, bytes.Repeat([]byte{byte(i)}, i%10)...)
	}
	k := append(slices.Clip(longShared), byte(i>>6))
	return append(k, bytes.Repeat([]byte{byte(i)}, i%3)...)
}

// maxOps bounds the operations one FuzzBTree input runs, so each input
// stays fast to run and to minimize.
const maxOps = 400

// FuzzBTree runs a byte-coded sequence of operations — Set, Delete,
// Get, Seek, Ascend, the forward and reverse walks of an index range
// (Seek or Max, Next or Prev, Span), At, Rank, CountRange, runs of sets
// and deletes, and rebuilds through NewFromSorted — against the tree and
// a sorted slice, checking every answer, CheckInvariants after every
// step, and that every key the tree copies out (Iter.Key and At, into a
// buffer already holding bytes, and the keys of the walks) equals the
// slice's.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 4, 1, 2, 8, 0, 0, 2, 255})
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{64, 600, maxOps * 3} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	// Runs of inserts over the whole key space, reads, then runs of
	// deletes: leaf and internal splits, then borrows and merges.
	var runs []byte
	for i := 0; i < keySpace; i += 256 {
		runs = append(runs, 13, byte(i>>8), 0, 13, byte(i>>8), 128)
	}
	runs = append(runs, 9, 5, 0, 8, 0, 0, 7, 3, 3, 12, 0, 0)
	for i := 0; i < keySpace; i += 256 {
		runs = append(runs, 14, byte(i>>8), 200, 15, byte(i>>8)+8, 100, 6, byte(i>>8), 7)
	}
	f.Add(runs)
	// Keys at both ends of leaves of the long-prefix half, the empty key
	// and the keys of the lower half set at their front, then deletes
	// that merge the leaves and a rebuild: prefixes shrink and regrow.
	var ends []byte
	for i := keySpace / 2; i < keySpace; i += 256 {
		ends = append(ends, 13, byte(i>>8), 0)
	}
	ends = append(ends, 0, 0, 0, 1, 0, 1, 0, 7, 255, 13, 0, 255, 6, 0, 0, 9, 8, 0)
	for i := keySpace / 2; i < keySpace; i += 512 {
		ends = append(ends, 14, byte(i>>8), 255, 15, byte(i>>8)+1, 90, 6, byte(i>>8), 64, 7, 1, byte(i>>8))
	}
	ends = append(ends, 12, 0, 0, 3, 0, 0, 8, 255, 0, 10, 8, 0)
	f.Add(ends)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), maxOps*3)]
		tr := New()
		var ref refTree
		// copied checks a key the tree appended to a buffer holding
		// "x": the buffer must read "x" and then the model's key.
		copied := func(step int, got, want []byte) {
			if len(got) == 0 || got[0] != 'x' || !bytes.Equal(got[1:], want) {
				t.Fatalf("step %d: a key copied out reads %x, want x%x", step, got, want)
			}
		}
		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0]%16, ops[1], ops[2]
			ops = ops[3:]
			ki := int(a)<<8 | int(b)
			k := fuzzKey(ki)
			at := ref.search(k)
			found := at < len(ref) && bytes.Equal(ref[at].key, k)
			switch op {
			case 0, 1, 2: // Set
				v := uint64(step)
				if got := tr.Set(k, v); got != !found {
					t.Fatalf("step %d: Set(%x) inserted=%v, want %v", step, k, got, !found)
				}
				if found {
					ref[at].val = v
				} else {
					ref = slices.Insert(ref, at, refEntry{bytes.Clone(k), v})
				}
			case 3, 4: // Delete
				if got := tr.Delete(k); got != found {
					t.Fatalf("step %d: Delete(%x) = %v, want %v", step, k, got, found)
				}
				if found {
					ref = slices.Delete(ref, at, at+1)
				}
			case 5: // Get
				v, ok := tr.Get(k)
				if ok != found || found && v != ref[at].val {
					t.Fatalf("step %d: Get(%x) = %d,%v", step, k, v, ok)
				}
			case 6: // Seek
				it := tr.Seek(k)
				if it.Valid() != (at < len(ref)) {
					t.Fatalf("step %d: Seek(%x) valid=%v, model has %d at or above", step, k, it.Valid(), len(ref)-at)
				}
				if it.Valid() {
					if it.Val() != ref[at].val {
						t.Fatalf("step %d: Seek(%x) at value %d, want %d", step, k, it.Val(), ref[at].val)
					}
					copied(step, it.Key([]byte{'x'}), ref[at].key)
				}
			case 7, 8: // Ascend or the reverse walk over [lo, hi), with an early stop
				hi := fuzzKey(int(b)<<8 | int(a))
				lo := k
				if bytes.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				want := ref[ref.search(lo):ref.search(hi)]
				limit := int(a%40) * 8
				var got []refEntry
				visit := func(key []byte, val uint64) bool {
					got = append(got, refEntry{bytes.Clone(key), val})
					return len(got) < limit
				}
				switch {
				case op == 7 && step%2 == 0:
					tr.Ascend(lo, hi, visit)
				case op == 7:
					ascendIter(tr, lo, hi, visit)
				default:
					descend(tr, hi, lo, visit)
					want = slices.Clone(want)
					slices.Reverse(want)
				}
				want = want[:min(len(want), max(limit, 1))]
				if !slices.EqualFunc(got, want, func(x, y refEntry) bool { return bytes.Equal(x.key, y.key) && x.val == y.val }) {
					t.Fatalf("step %d: range [%x, %x) op %d visited %d entries, want %d", step, lo, hi, op, len(got), len(want))
				}
			case 9: // At
				i := int(a)<<8 | int(b)
				if len(ref) > 0 {
					i %= len(ref) + 1
				}
				key, val, ok := tr.At([]byte{'x'}, i)
				if ok != (i < len(ref)) || ok && val != ref[i].val {
					t.Fatalf("step %d: At(%d) = %x,%d,%v", step, i, key, val, ok)
				}
				if ok {
					copied(step, key, ref[i].key)
				}
			case 10: // Rank
				if got := tr.Rank(k); got != at {
					t.Fatalf("step %d: Rank(%x) = %d, want %d", step, k, got, at)
				}
			case 11: // CountRange
				hi := fuzzKey(int(b)<<8 | int(a))
				want := max(0, ref.search(hi)-at)
				if got := tr.CountRange(k, hi); got != want {
					t.Fatalf("step %d: CountRange(%x, %x) = %d, want %d", step, k, hi, got, want)
				}
			case 12: // rebuild from the model through NewFromSorted
				rebuilt, err := NewFromSorted(len(ref), func(i int) ([]byte, uint64) { return ref[i].key, ref[i].val })
				if err != nil {
					t.Fatalf("step %d: NewFromSorted: %v", step, err)
				}
				tr = rebuilt
			case 13: // a run of sets of increasing keys
				for j := 0; j < 128+int(b); j++ {
					rk := fuzzKey(ki + j)
					ri := ref.search(rk)
					if ri < len(ref) && bytes.Equal(ref[ri].key, rk) {
						ref[ri].val = uint64(step)
					} else {
						ref = slices.Insert(ref, ri, refEntry{bytes.Clone(rk), uint64(step)})
					}
					tr.Set(rk, uint64(step))
				}
			case 14, 15: // a run of deletes from k upwards
				n := int(b) + 1
				for j := 0; j < n && at < len(ref); j++ {
					if !tr.Delete(ref[at].key) {
						t.Fatalf("step %d: Delete(%x) missed a present key", step, ref[at].key)
					}
					ref = slices.Delete(ref, at, at+1)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, want %d", step, tr.Len(), len(ref))
			}
		}
		// The whole tree matches the model.
		i := 0
		tr.Ascend(nil, nil, func(k []byte, v uint64) bool {
			if i >= len(ref) || !bytes.Equal(k, ref[i].key) || v != ref[i].val {
				t.Fatalf("final ascend differs at %d", i)
			}
			i++
			return true
		})
		if i != len(ref) {
			t.Fatalf("final ascend visited %d of %d", i, len(ref))
		}
	})
}
