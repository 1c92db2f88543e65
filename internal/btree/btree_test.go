package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestSetGet(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("empty len")
	}
	if _, ok := tr.Get(key(1)); ok {
		t.Fatal("get on empty")
	}
	if !tr.Set(key(1), 100) {
		t.Fatal("first set should insert")
	}
	if tr.Set(key(1), 200) {
		t.Fatal("second set should update")
	}
	v, ok := tr.Get(key(1))
	if !ok || v != 200 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatal("len after update")
	}
}

func TestInsertManyOrdered(t *testing.T) {
	tr := New()
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i*10))
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != uint64(i*10) {
			t.Fatalf("get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestInsertManyRandom(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(5000)
	for _, i := range perm {
		tr.Set(key(i), uint64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Full scan must be sorted and complete.
	i := 0
	tr.Ascend(nil, nil, func(k []byte, v uint64) bool {
		if !bytes.Equal(k, key(i)) || v != uint64(i) {
			t.Fatalf("scan at %d: key %x val %d", i, k, v)
		}
		i++
		return true
	})
	if i != 5000 {
		t.Fatalf("scanned %d", i)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i))
	}
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	deleted := map[int]bool{}
	for step, i := range perm {
		if !tr.Delete(key(i)) {
			t.Fatalf("delete(%d) failed", i)
		}
		if tr.Delete(key(i)) {
			t.Fatalf("double delete(%d) succeeded", i)
		}
		deleted[i] = true
		if step%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
			for j := 0; j < n; j += 97 {
				_, ok := tr.Get(key(j))
				if ok == deleted[j] {
					t.Fatalf("get(%d) presence wrong", j)
				}
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len after all deletes = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedWorkloadAgainstMap(t *testing.T) {
	tr := New()
	ref := map[string]uint64{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 20000; op++ {
		k := key(rng.Intn(800))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			tr.Set(k, v)
			ref[string(k)] = v
		case 2:
			got := tr.Delete(k)
			_, want := ref[string(k)]
			if got != want {
				t.Fatalf("op %d: delete mismatch", op)
			}
			delete(ref, string(k))
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("len %d != %d", tr.Len(), len(ref))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, want := range ref {
		got, ok := tr.Get([]byte(k))
		if !ok || got != want {
			t.Fatalf("get(%x) = %d,%v want %d", k, got, ok, want)
		}
	}
}

func TestAtAndRank(t *testing.T) {
	tr := New()
	const n = 2500
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(n) {
		tr.Set(key(i*2), uint64(i)) // even keys only
	}
	for i := 0; i < n; i++ {
		k, v, ok := tr.At(nil, i)
		if !ok || !bytes.Equal(k, key(i*2)) || v != uint64(i) {
			t.Fatalf("At(%d) = %x,%d,%v", i, k, v, ok)
		}
		if r := tr.Rank(key(i * 2)); r != i {
			t.Fatalf("Rank(even %d) = %d", i, r)
		}
		// Rank of a missing odd key equals count of smaller entries.
		if r := tr.Rank(key(i*2 + 1)); r != i+1 {
			t.Fatalf("Rank(odd %d) = %d", i, r)
		}
	}
	if _, _, ok := tr.At(nil, -1); ok {
		t.Fatal("At(-1)")
	}
	if _, _, ok := tr.At(nil, n); ok {
		t.Fatal("At(n)")
	}
}

func TestAtRankAfterDeletes(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i))
	}
	// Delete every third key.
	for i := 0; i < n; i += 3 {
		tr.Delete(key(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			want = append(want, i)
		}
	}
	for pos, i := range want {
		k, _, ok := tr.At(nil, pos)
		if !ok || !bytes.Equal(k, key(i)) {
			t.Fatalf("At(%d) after deletes", pos)
		}
		if r := tr.Rank(key(i)); r != pos {
			t.Fatalf("Rank(%d) = %d want %d", i, r, pos)
		}
	}
}

func TestSeekAndIterate(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Set(key(i*10), uint64(i))
	}
	it := tr.Seek(key(45)) // between 40 and 50
	if !it.Valid() || !bytes.Equal(it.Key(nil), key(50)) {
		t.Fatal("seek between keys")
	}
	it = tr.Seek(key(50))
	if !it.Valid() || !bytes.Equal(it.Key(nil), key(50)) {
		t.Fatal("seek exact")
	}
	it = tr.Seek(key(99999))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
	// Backward iteration from Max.
	it = tr.Max()
	for i := 99; i >= 0; i-- {
		if !it.Valid() || it.Val() != uint64(i) {
			t.Fatalf("backward at %d", i)
		}
		it.Prev()
	}
	if it.Valid() {
		t.Fatal("iterator should exhaust")
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Set(key(i), uint64(i))
	}
	var got []uint64
	tr.Ascend(key(100), key(110), func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("range scan: %v", got)
	}
	// Early termination.
	calls := 0
	tr.Ascend(nil, nil, func(k []byte, v uint64) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop: %d", calls)
	}
}

// descend calls fn for each entry with lo <= key < hi in descending
// key order, walking as a reverse index range does: from the entry
// below Seek(hi), or from Max when hi is nil or past the end, back with
// Prev, a leaf's Span at a time.  The key fn is passed is the tree's
// scratch buffer, as in Ascend (the tests walk one tree at a time).
func descend(tr *Tree, hi, lo []byte, fn func(key []byte, val uint64) bool) {
	it := tr.Max()
	if hi != nil {
		if it = tr.Seek(hi); it.Valid() {
			it.Prev()
		} else {
			it = tr.Max()
		}
	}
	buf := tr.scratch
	defer func() { tr.scratch = buf }()
	for it.Valid() {
		n := it.Span(lo, true)
		whole := n == it.i+1
		for ; n > 0; n-- {
			buf = it.Key(buf[:0])
			if !fn(buf, it.Val()) {
				return
			}
			it.Prev()
		}
		if !whole {
			return
		}
	}
}

// ascendIter is Ascend as a forward index range walks: Seek(lo), then
// Next, a leaf's Span at a time.
func ascendIter(tr *Tree, lo, hi []byte, fn func(key []byte, val uint64) bool) {
	buf := tr.scratch
	defer func() { tr.scratch = buf }()
	for it := tr.Seek(lo); it.Valid(); {
		n := it.Span(hi, false)
		whole := n == len(it.n.offs)-it.i
		for ; n > 0; n-- {
			buf = it.Key(buf[:0])
			if !fn(buf, it.Val()) {
				return
			}
			it.Next()
		}
		if !whole {
			return
		}
	}
}

// TestDescendRange: the reverse walk of an index range (Seek or Max,
// then Prev) visits a bounded range, the whole tree, a range whose hi is
// past the end, stops early, and visits nothing in an empty tree.
func TestDescendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Set(key(i), uint64(i))
	}
	var got []uint64
	descend(tr, key(110), key(100), func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 109 || got[9] != 100 {
		t.Fatalf("descending range scan: %v", got)
	}
	// Open bounds: full reverse iteration.
	got = got[:0]
	descend(tr, nil, nil, func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 1000 || got[0] != 999 || got[999] != 0 {
		t.Fatalf("full descend: len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
	// hi beyond the largest key starts at the maximum.
	got = got[:0]
	descend(tr, key(5000), key(997), func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 || got[0] != 999 {
		t.Fatalf("hi past end: %v", got)
	}
	// Early termination.
	calls := 0
	descend(tr, nil, nil, func(k []byte, v uint64) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop: %d", calls)
	}
	// Empty tree is a no-op.
	empty := New()
	descend(empty, nil, nil, func(k []byte, v uint64) bool {
		t.Fatal("callback on empty tree")
		return false
	})
}

func TestCountRange(t *testing.T) {
	tr := New()
	if tr.CountRange(nil, nil) != 0 {
		t.Fatal("empty tree count")
	}
	for i := 0; i < 1000; i++ {
		tr.Set(key(i), uint64(i))
	}
	cases := []struct {
		lo, hi []byte
		want   int
	}{
		{nil, nil, 1000},
		{key(100), key(110), 10},
		{key(0), key(1000), 1000},
		{key(500), nil, 500},
		{nil, key(500), 500},
		{key(700), key(700), 0},
		{key(800), key(700), 0}, // inverted range
		{key(2000), nil, 0},     // past the end
	}
	for _, c := range cases {
		if got := tr.CountRange(c.lo, c.hi); got != c.want {
			t.Fatalf("CountRange(%v, %v) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
	// Counts agree with an actual scan on random subranges.
	for i := 0; i < 50; i++ {
		lo, hi := key(i*13%997), key(i*31%997)
		n := 0
		tr.Ascend(lo, hi, func([]byte, uint64) bool { n++; return true })
		if got := tr.CountRange(lo, hi); got != n {
			t.Fatalf("CountRange(%x, %x) = %d, scan says %d", lo, hi, got, n)
		}
	}
}

func TestKeyAliasing(t *testing.T) {
	// Set must copy the key; mutating the caller's buffer must not
	// corrupt the tree.
	tr := New()
	k := []byte("mutate-me")
	tr.Set(k, 1)
	k[0] = 'X'
	if _, ok := tr.Get([]byte("mutate-me")); !ok {
		t.Fatal("tree aliased caller's key buffer")
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := New()
	keys := []string{"", "a", "ab", "abc", "b", "ba", "\x00", "\x00\x01", "zzzz"}
	for i, k := range keys {
		tr.Set([]byte(k), uint64(i))
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	i := 0
	tr.Ascend(nil, nil, func(k []byte, v uint64) bool {
		if string(k) != sorted[i] {
			t.Fatalf("at %d: %q want %q", i, k, sorted[i])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatal("missing keys")
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(key(i), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

func BenchmarkAt(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i))
	}
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.At(buf[:0], i%n)
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 37) % (n - 100)
		count := 0
		tr.Ascend(key(lo), key(lo+100), func(k []byte, v uint64) bool { count++; return true })
		if count != 100 {
			b.Fatalf("count=%d", count)
		}
	}
}

func TestStringSummary(t *testing.T) {
	tr := New()
	tr.Set(key(1), 1)
	if got := tr.String(); got != fmt.Sprintf("btree[%d entries]", 1) {
		t.Errorf("String = %q", got)
	}
}

// TestQuickRandomKeys drives the tree with arbitrary byte-string keys
// from testing/quick and cross-checks Get/Rank/At against a sorted
// reference.
func TestQuickRandomKeys(t *testing.T) {
	prop := func(keys [][]byte) bool {
		tr := New()
		ref := map[string]uint64{}
		for i, k := range keys {
			tr.Set(k, uint64(i))
			ref[string(k)] = uint64(i)
		}
		if tr.Len() != len(ref) {
			return false
		}
		sorted := make([]string, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for i, k := range sorted {
			v, ok := tr.Get([]byte(k))
			if !ok || v != ref[k] {
				return false
			}
			if tr.Rank([]byte(k)) != i {
				return false
			}
			gk, gv, ok := tr.At(nil, i)
			if !ok || string(gk) != k || gv != ref[k] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Set(key(i), uint64(i))
	}

	// verify checks that the boundaries partition [lo,hi) exhaustively:
	// strictly increasing, inside the range, and the sub-range counts sum
	// to the full count with no sub-range empty.
	verify := func(lo, hi []byte, parts int) {
		t.Helper()
		bounds := tr.SplitRange(lo, hi, parts)
		if len(bounds) > parts-1 {
			t.Fatalf("SplitRange(%v): %d bounds for %d parts", lo, len(bounds), parts)
		}
		prev := lo
		total := 0
		edges := append(append([][]byte{}, bounds...), hi)
		for _, b := range edges {
			if prev != nil && b != nil && bytes.Compare(prev, b) >= 0 {
				t.Fatalf("bounds not increasing: %x >= %x", prev, b)
			}
			n := tr.CountRange(prev, b)
			if n == 0 && len(bounds) > 0 {
				t.Fatalf("empty sub-range [%x, %x)", prev, b)
			}
			total += n
			prev = b
		}
		if want := tr.CountRange(lo, hi); total != want {
			t.Fatalf("sub-ranges cover %d entries, want %d", total, want)
		}
	}

	verify(nil, nil, 8)
	verify(key(100), key(900), 4)
	verify(key(0), key(1000), 16)
	verify(key(500), key(510), 4) // small range: fewer parts than asked
	verify(key(500), key(501), 8) // single entry: no bounds
	if b := tr.SplitRange(nil, nil, 1); b != nil {
		t.Fatalf("parts=1 should yield no bounds, got %d", len(b))
	}
	if b := tr.SplitRange(key(10), key(10), 4); b != nil {
		t.Fatalf("empty range should yield no bounds, got %d", len(b))
	}

	// Balance: with 1000 uniform keys and 8 parts every run should be
	// within 2x of the ideal eighth.
	bounds := tr.SplitRange(nil, nil, 8)
	if len(bounds) != 7 {
		t.Fatalf("want 7 bounds, got %d", len(bounds))
	}
	prev := []byte(nil)
	for _, b := range append(bounds, nil) {
		n := tr.CountRange(prev, b)
		if n < 1000/8/2 || n > 1000/8*2 {
			t.Fatalf("unbalanced run: %d entries", n)
		}
		prev = b
	}

	// Heavy duplicates collapse boundaries rather than emitting equal keys.
	dup := New()
	for i := 0; i < 100; i++ {
		dup.Set(append(key(7), byte(i)), uint64(i)) // same 8-byte prefix
	}
	db := dup.SplitRange(nil, nil, 4)
	for i := 1; i < len(db); i++ {
		if bytes.Compare(db[i-1], db[i]) >= 0 {
			t.Fatalf("duplicate/unordered bounds at %d", i)
		}
	}
}

func TestNewFromSorted(t *testing.T) {
	for _, n := range []int{0, 1, 2, 31, 32, 33, 992, 993, 10_000, 100_000} {
		keys := make([][]byte, n)
		vals := make([]uint64, n)
		for i := 0; i < n; i++ {
			keys[i] = key(i * 3)
			vals[i] = uint64(i * 7)
		}
		tr, err := fromSlices(keys, vals)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: len %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Point lookups, order statistics, and the leaf chain all agree.
		for _, i := range []int{0, 1, n / 3, n / 2, n - 1} {
			if i < 0 || i >= n {
				continue
			}
			if v, ok := tr.Get(key(i * 3)); !ok || v != uint64(i*7) {
				t.Fatalf("n=%d: get(%d) = %d, %v", n, i, v, ok)
			}
			if k, v, ok := tr.At(nil, i); !ok || !bytes.Equal(k, key(i*3)) || v != uint64(i*7) {
				t.Fatalf("n=%d: at(%d) wrong", n, i)
			}
			if r := tr.Rank(key(i * 3)); r != i {
				t.Fatalf("n=%d: rank(%d) = %d", n, i, r)
			}
		}
		got := 0
		tr.Ascend(nil, nil, func(k []byte, v uint64) bool {
			if !bytes.Equal(k, key(got*3)) || v != uint64(got*7) {
				t.Fatalf("n=%d: ascend wrong at %d", n, got)
			}
			got++
			return true
		})
		if got != n {
			t.Fatalf("n=%d: ascend visited %d", n, got)
		}
	}
}

func TestNewFromSortedMutable(t *testing.T) {
	// A bulk-built tree must accept subsequent Set/Delete without
	// corrupting neighbors.
	keys := make([][]byte, 500)
	vals := make([]uint64, 500)
	for i := range keys {
		keys[i] = key(i * 2)
		vals[i] = uint64(i)
	}
	tr, err := fromSlices(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.Set(key(i*2+1), uint64(1000+i))
	}
	for i := 0; i < 250; i++ {
		tr.Delete(key(i * 4))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 750 {
		t.Fatalf("len %d", tr.Len())
	}
	for i := 0; i < 500; i++ {
		if v, ok := tr.Get(key(i*2 + 1)); !ok || v != uint64(1000+i) {
			t.Fatalf("get(%d) = %d, %v", i*2+1, v, ok)
		}
	}
}

func TestNewFromSortedRejectsBadInput(t *testing.T) {
	if _, err := NewFromSorted(-1, nil); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := fromSlices([][]byte{key(2), key(1)}, []uint64{0, 0}); err == nil {
		t.Fatal("out-of-order keys accepted")
	}
	if _, err := fromSlices([][]byte{key(1), key(1)}, []uint64{0, 0}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	// Order is checked across leaf boundaries too.
	keys := make([][]byte, 3*maxEntries)
	for i := range keys {
		keys[i] = key(i)
	}
	keys[maxEntries] = key(maxEntries - 1)
	if _, err := fromSlices(keys, make([]uint64, len(keys))); err == nil {
		t.Fatal("duplicate keys across a leaf boundary accepted")
	}
}

// fromSlices bulk-builds a tree from parallel key and value slices.
func fromSlices(keys [][]byte, vals []uint64) (*Tree, error) {
	return NewFromSorted(len(keys), func(i int) ([]byte, uint64) { return keys[i], vals[i] })
}
