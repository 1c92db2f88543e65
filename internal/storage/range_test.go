package storage

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/value"
)

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

// TestEntryCompare: entries order as their extended keys do, built out
// in full, for keys of any lengths (held in the entry or, past 64
// bytes, beside it) and either extension.
func TestEntryCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() entry {
		k := make([]byte, rng.Intn(24)+50*rng.Intn(2))
		for i := range k {
			k[i] = byte(rng.Intn(2))
		}
		e := entry{id: RowID(rng.Intn(2)) << (8 * rng.Intn(8)), ext: rng.Intn(2) == 0}
		e.setKey(k)
		if !bytes.Equal(e.key(), k) {
			t.Fatalf("entry holds %x, want %x", e.key(), k)
		}
		return e
	}
	for range 20000 {
		a, b := draw(), draw()
		if got, want := a.compare(&b), bytes.Compare(a.appendTo(nil), b.appendTo(nil)); got != want {
			t.Fatalf("%x ext=%v id %d vs %x ext=%v id %d: %d, want %d", a.key(), a.ext, a.id, b.key(), b.ext, b.id, got, want)
		}
	}
}

// TestIndexRangeStopsEarly: a reader that stops after its first row
// examines at most two batches of index entries however many the range
// holds, at 1 000 rows and at 20 000: a transaction, a snapshot whose
// range holds no history key, one pinned before churn whose rows the
// history serves, and one pinned after it, which rejects the history's
// keys.  Both directions, on a non-unique and a unique index.  A pick
// that counts its calls measures the entries examined.
func TestIndexRangeStopsEarly(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		db := notesDB(t, n, IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true})
		r := db.Relation("NOTE")
		ctx := context.Background()
		plain, err := db.BeginSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Churn after the pin: every third row moves out of [1, n], every
		// fifth is deleted, so the history holds keys all over the range.
		pinned, err := db.BeginSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mustTx(t, db, func(tx *Tx) {
			for id := RowID(1); id <= RowID(n); id++ {
				var err error
				switch {
				case id%5 == 0:
					err = tx.Delete("NOTE", id)
				case id%3 == 0:
					far := value.Int(int64(id) + 10*int64(n))
					err = tx.Update("NOTE", id, value.Tuple{far, far, value.Str("moved")})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		fresh, err := db.BeginSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := pitchRange(1, int64(n)+1); !r.findIndex("by_pitch").histHas(lo, hi) {
			t.Fatal("churn left no history key in the range")
		}
		readers := []struct {
			name string
			at   uint64
		}{
			{"tx", liveCSN},
			{"snap/no-history", plain.csn},
			{"snap/history", pinned.csn},
			{"snap/after-churn", fresh.csn},
		}
		lo, hi := value.AppendKey(nil, value.Int(1)), value.AppendKey(nil, value.Int(int64(n)+1))
		for _, ixName := range []string{"by_pitch", "by_name"} {
			for _, rd := range readers {
				for _, reverse := range []bool{false, true} {
					var all []RowID
					if _, _, err := r.indexRange(ixName, rd.at, lo, hi, reverse, func(id RowID, _ value.Row) bool {
						all = append(all, id)
						return true
					}); err != nil {
						t.Fatal(err)
					}
					var got []RowID
					_, examined, err := r.indexRange(ixName, rd.at, lo, hi, reverse, func(id RowID, _ value.Row) bool {
						got = append(got, id)
						return false
					})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("n=%d %s %s reverse=%v", n, ixName, rd.name, reverse)
					if len(all) < n/2 || len(got) != 1 || got[0] != all[0] {
						t.Errorf("%s: stopped after %v, want the first of %d rows", name, got, len(all))
					}
					if examined > 2*rangeBatch {
						t.Errorf("%s: stopping after one row examined %d entries, want at most %d", name, examined, 2*rangeBatch)
					}
				}
			}
		}
		plain.Close()
		pinned.Close()
		fresh.Close()
		db.Close()
	}
}

// TestSnapIndexGetAllocs: a snapshot's unique-index point read
// allocates nothing, hit or miss; a miss falls through to the range
// read over the key.
func TestSnapIndexGetAllocs(t *testing.T) {
	db := notesDB(t, 1000, IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true})
	defer db.Close()
	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []int64{500, 5000} {
		key := value.AppendKey(nil, value.Int(name))
		if _, _, ok, err := s.IndexGet("NOTE", "by_name", key); err != nil || ok != (name == 500) {
			t.Fatalf("IndexGet(%d): ok %v, %v", name, ok, err)
		}
		if got := testing.AllocsPerRun(100, func() { s.IndexGet("NOTE", "by_name", key) }); got != 0 {
			t.Errorf("IndexGet(%d): %v allocations, want 0", name, got)
		}
	}
}

// TestTxIndexRangeWritesInCallback: a transaction's callback runs with
// no relation latch held, so it may rewrite the rows of the range it is
// reading; a row moved ahead of the walk is met again under its new key.
func TestTxIndexRangeWritesInCallback(t *testing.T) {
	db := notesDB(t, 100)
	defer db.Close()
	lo, hi := pitchRange(1, 200)
	calls := 0
	mustTx(t, db, func(tx *Tx) {
		if err := tx.IndexRange("NOTE", "by_pitch", lo, hi, false, func(id RowID, row value.Row) bool {
			calls++
			if p := row.Col(1).AsInt(); p < 50 {
				if err := tx.UpdateField("NOTE", id, "pitch", value.Int(p+100)); err != nil {
					t.Fatal(err)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if calls != 100+49 {
		t.Fatalf("%d calls, want each of 100 rows once and the 49 moved ahead again", calls)
	}
}

// fuzzBytes hands out the fuzzer's bytes, then draws from a generator
// seeded by them.
type fuzzBytes struct {
	b   []byte
	i   int
	rng *rand.Rand
}

func (p *fuzzBytes) next() int {
	if p.i >= len(p.b) {
		return p.rng.Intn(256)
	}
	p.i++
	return int(p.b[p.i-1])
}

// write runs one random transaction on NOTE, which FuzzSnapRange indexes
// by name (unique) and by pitch: an insert, an update or a delete of a
// row id up to *top, committed or aborted.  Writes that fail (a
// duplicate name, a missing row) abort.
func (p *fuzzBytes) write(db *DB, top *RowID) error {
	op := p.next()
	row := value.Tuple{value.Int(int64(p.next())), value.Int(int64(p.next() % 24)), value.Str("w")}
	id := 1 + RowID(p.next())%max(*top, 1)
	tx := db.Begin()
	var err error
	switch op % 3 {
	case 0:
		var nid RowID
		if nid, err = tx.Insert("NOTE", row); err == nil {
			*top = max(*top, nid)
		}
	case 1:
		err = tx.Update("NOTE", id, row)
	default:
		err = tx.Delete("NOTE", id)
	}
	if err != nil || op&0x80 != 0 {
		tx.Abort()
		return nil
	}
	return tx.Commit()
}

// FuzzSnapRange checks Snap.IndexRange against the rows a snapshot
// sees.  Each input writes and pins a snapshot twice, writes more and
// vacuums, then reads a range of the unique or the non-unique index in
// one of the two snapshots, forward or reverse, stopping at a random
// row, while the callback commits writes to the same relation (and now
// and then vacuums) between the rows it is handed.  The oracle is
// Snap.Scan's rows, keyed and sorted, cut at the same stop.
func FuzzSnapRange(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0x41, 0x07, 0x13, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		p := &fuzzBytes{b: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
		db := memDB(t)
		defer db.Close()
		if _, err := db.CreateRelation("NOTE", noteSchema()); err != nil {
			t.Fatal(err)
		}
		for _, spec := range []IndexSpec{
			{Name: "by_name", Columns: []string{"name"}, Unique: true},
			{Name: "by_pitch", Columns: []string{"pitch"}},
		} {
			if err := db.CreateIndex("NOTE", spec); err != nil {
				t.Fatal(err)
			}
		}
		// A base of rows that spans several batches, then random writes.
		top := RowID(0)
		mustTx(t, db, func(tx *Tx) {
			for i := 0; i < 150; i++ {
				if top, _ = tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(i % 24)), value.Str("b")}); top == 0 {
					t.Fatal("base insert failed")
				}
			}
		})
		write := func(k int) {
			for range k {
				if err := p.write(db, &top); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Two pins: the older one keeps history keys the reader's
		// snapshot must pass over.
		var pins [2]*Snap
		for i := range pins {
			write(p.next())
			s, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			pins[i] = s
		}
		write(p.next())
		db.Vacuum()
		s := pins[p.next()%2]

		unique := p.next()%2 == 0
		ixName, col := "by_pitch", 1
		if unique {
			ixName, col = "by_name", 0
		}
		var lo, hi []byte
		if b := p.next(); b%3 != 0 {
			lo = value.AppendKey(nil, value.Int(int64(b%260)-2))
		}
		if b := p.next(); b%3 != 0 {
			hi = value.AppendKey(nil, value.Int(int64(b%260)-2))
		}
		reverse := p.next()%2 == 0
		stop := 1 + p.next()*2

		type kept struct {
			key []byte
			id  RowID
			row value.Row
		}
		var want []kept
		if err := s.Scan("NOTE", nil, func(id RowID, row value.Row) bool {
			key := value.AppendKey(nil, row.Col(col))
			if !unique {
				key = appendRowID(key, id)
			}
			if (lo == nil || bytes.Compare(key, lo) >= 0) && (hi == nil || bytes.Compare(key, hi) < 0) {
				want = append(want, kept{key, id, row})
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(want, func(a, b kept) int { return bytes.Compare(a.key, b.key) })
		if reverse {
			slices.Reverse(want)
		}
		if stop < len(want) {
			want = want[:stop]
		}

		var got []kept
		if err := s.IndexRange("NOTE", ixName, lo, hi, reverse, func(id RowID, row value.Row) bool {
			got = append(got, kept{id: id, row: row})
			if len(got) == stop {
				return false
			}
			write(p.next() % 4)
			if p.next()%16 == 0 {
				db.Vacuum()
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s reverse=%v [%x, %x) stop %d: %d rows, want %d", ixName, reverse, lo, hi, stop, len(got), len(want))
		}
		for i := range got {
			if got[i].id != want[i].id || got[i].row.String() != want[i].row.String() {
				t.Fatalf("%s reverse=%v [%x, %x): row %d is %d %s, want %d %s", ixName, reverse, lo, hi, i,
					got[i].id, got[i].row, want[i].id, want[i].row)
			}
		}
	})
}

// TestCopiedKeysOutliveWrites: the B-tree hands out copies of its keys,
// never its blocks, so a key IndexAt appended to a caller's buffer (a
// stack array or a new one) and the last key a snapshot range read
// keeps between its batches read the same after later writes rebuild
// the leaves that held them: rows set below and above every key (which
// shortens the leaves' prefixes), rows deleted and moved, and vacuums of
// the key history.
func TestCopiedKeysOutliveWrites(t *testing.T) {
	const n = 1000
	db := notesDB(t, n)
	defer db.Close()
	r := db.Relation("NOTE")
	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var kb [64]byte
	stackKey, ok := r.IndexAt(kb[:0], "by_pitch", n/2)
	if !ok {
		t.Fatal("IndexAt found no middle key")
	}
	var keys, copies [][]byte
	for _, i := range []int{0, 1, n / 2, n - 1} {
		k, ok := r.IndexAt(nil, "by_pitch", i)
		if !ok {
			t.Fatalf("IndexAt(%d) found no key", i)
		}
		keys, copies = append(keys, k), append(copies, bytes.Clone(k))
	}
	stackCopy := bytes.Clone(stackKey)

	// The snapshot reads every row in pitch order while each row it is
	// handed commits writes all over the index and vacuums.
	var got []RowID
	next := int64(n)
	if err := s.IndexRange("NOTE", "by_pitch", nil, nil, false, func(id RowID, _ value.Row) bool {
		got = append(got, id)
		mustTx(t, db, func(tx *Tx) {
			next++
			for _, pitch := range []int64{-next, next} {
				if _, err := tx.Insert("NOTE", value.Tuple{value.Int(next), value.Int(pitch), value.Str("new")}); err != nil {
					t.Fatal(err)
				}
			}
			if ahead := id + 3; ahead <= n {
				if err := tx.UpdateField("NOTE", ahead, "pitch", value.Int(-next)); err != nil {
					t.Fatal(err)
				}
			}
			if behind := id - 2; behind >= 1 && behind%2 == 0 {
				if err := tx.Delete("NOTE", behind); err != nil {
					t.Fatal(err)
				}
			}
		})
		if id%50 == 0 {
			db.Vacuum()
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("snapshot range read %d rows, want %d", len(got), n)
	}
	for i, id := range got {
		if id != RowID(i+1) {
			t.Fatalf("snapshot range read row %d at position %d, want row %d", id, i, i+1)
		}
	}
	if err := r.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !bytes.Equal(k, copies[i]) {
			t.Fatalf("key %d reads %x after the writes, was %x", i, k, copies[i])
		}
	}
	if !bytes.Equal(stackKey, stackCopy) {
		t.Fatalf("stack-held key reads %x after the writes, was %x", stackKey, stackCopy)
	}
}

// BenchmarkSnapIndexRange100 times a snapshot's 100-row range read over
// a 20 000-row index, each row decoded.
func BenchmarkSnapIndexRange100(b *testing.B) {
	const n = 20_000
	db := notesDB(b, n)
	defer db.Close()
	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var buf value.Tuple
	rows := 0
	read := func(_ RowID, r value.Row) bool { buf = r.Decode(buf); rows++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i*37%(n-100)) + 1
		lb, ub := pitchRange(lo, lo+100)
		rows = 0
		if err := s.IndexRange("NOTE", "by_pitch", lb, ub, false, read); err != nil || rows != 100 {
			b.Fatalf("read %d rows, %v", rows, err)
		}
	}
}
