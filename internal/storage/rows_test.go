package storage

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/value"
)

// TestSlotSize: a slot is a 16-byte row and a version pointer.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("slot is %d bytes, want 24", got)
	}
}

// notesDB returns a store whose NOTE relation holds n rows, indexed by
// pitch, every row's pitch its row id.
func notesDB(t testing.TB, n int) *DB {
	t.Helper()
	db := memDB(t)
	if _, err := db.CreateRelation("NOTE", noteSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(func(tx *Tx) error {
		for i := 1; i <= n; i++ {
			if _, err := tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(i)), value.Str("n")}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReadAllocsFlat: a full Snap.Scan, Tx.Scan and Snap.IndexRange
// allocate the same whether they pass 1 000 rows or 4 000, each row
// decoded into the reader's one buffer: no read allocates per row, and
// a warm snapshot range allocates nothing for its candidates.
func TestReadAllocsFlat(t *testing.T) {
	passes := func(n int) [3]float64 {
		db := notesDB(t, n)
		defer db.Close()
		var buf value.Tuple
		sum := int64(0)
		read := func(_ RowID, r value.Row) bool {
			buf = r.Decode(buf)
			sum += buf[1].AsInt()
			return true
		}
		s, err := db.BeginSnapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tx := db.Begin()
		defer tx.Abort()
		var got [3]float64
		for i, pass := range []func() error{
			func() error { return s.Scan("NOTE", nil, read) },
			func() error { return tx.Scan("NOTE", nil, read) },
			func() error { return s.IndexRange("NOTE", "by_pitch", nil, nil, false, read) },
		} {
			if err := pass(); err != nil {
				t.Fatal(err)
			}
			sum = 0
			got[i] = testing.AllocsPerRun(5, func() { pass() })
			// AllocsPerRun adds one warm-up call to its five.
			if want := int64(n) * int64(n+1) / 2; sum != 6*want {
				t.Fatalf("pass %d read pitch sum %d, want %d", i, sum, 6*want)
			}
		}
		return got
	}
	small, large := passes(1000), passes(4000)
	for i, name := range []string{"Snap.Scan", "Tx.Scan", "Snap.IndexRange"} {
		if raceEnabled && name == "Snap.IndexRange" {
			continue // its candidates come from a sync.Pool
		}
		if small[i] != large[i] {
			t.Errorf("%s: %v allocations over 1000 rows, %v over 4000", name, small[i], large[i])
		}
	}
}

// TestKeptRowsOutliveWrites: rows kept from a scan still decode to
// what they held after the rows are updated and deleted, committed,
// and vacuumed: a stored row is never written in place.
func TestKeptRowsOutliveWrites(t *testing.T) {
	db := notesDB(t, 600)
	defer db.Close()
	type kept struct {
		id  RowID
		row value.Row
	}
	var rows []kept
	want := map[RowID]string{}
	mustTx(t, db, func(tx *Tx) {
		if err := tx.Scan("NOTE", nil, func(id RowID, r value.Row) bool {
			rows = append(rows, kept{id, r})
			want[id] = r.String()
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	mustTx(t, db, func(tx *Tx) {
		for _, k := range rows {
			var err error
			switch k.id % 3 {
			case 0:
				err = tx.Delete("NOTE", k.id)
			case 1:
				err = tx.Update("NOTE", k.id, value.Tuple{value.Int(-1), value.Int(0), value.Str("rewritten")})
			default:
				err = tx.UpdateField("NOTE", k.id, "label", value.Str("relabelled"))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	db.Vacuum()
	if chains, old, hist := db.Relation("NOTE").VersionStats(); old != 0 || hist != 0 {
		t.Fatalf("vacuum left %d chains, %d old versions, %d history keys", chains, old, hist)
	}
	var buf value.Tuple
	for _, k := range rows {
		buf = k.row.Decode(buf)
		if got := buf.String(); got != want[k.id] {
			t.Fatalf("kept row %d decodes to %s, held %s", k.id, got, want[k.id])
		}
		if buf[1].AsInt() != int64(k.id) || buf[2].AsString() != "n" {
			t.Fatalf("kept row %d decodes to %s", k.id, buf)
		}
	}
}

// TestIndexKeyAllocs: index maintenance builds its keys on the stack.
// Adding a key allocates once (the tree's copy), removing one or
// checking a history entry allocates nothing.
func TestIndexKeyAllocs(t *testing.T) {
	db := notesDB(t, 1)
	defer db.Close()
	r := db.Relation("NOTE")
	ix := r.findIndex("by_pitch")
	const n = 2000
	rows := make([]value.Row, n+2) // AllocsPerRun adds a warm-up call
	for i := range rows {
		rows[i] = value.RowOf(value.Tuple{value.Int(int64(i)), value.Int(int64(i % 97)), value.Str("x")})
	}
	next := RowID(100)
	if got := testing.AllocsPerRun(n, func() {
		next++
		if err := ix.insert(next, rows[next-100]); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("index insert: %v allocations per key, want 1", got)
	}
	next = 100
	if got := testing.AllocsPerRun(n, func() {
		next++
		ix.remove(next, rows[next-100])
	}); got != 0 {
		t.Errorf("index remove: %v allocations per key, want 0", got)
	}
	if ix.tree.Len() != 1 {
		t.Fatalf("tree holds %d keys, want the seeded row's", ix.tree.Len())
	}

	// One committed update leaves a history entry the row's version
	// chain still needs while a snapshot pins the old version.
	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustTx(t, db, func(tx *Tx) {
		if err := tx.UpdateField("NOTE", 1, "pitch", value.Int(99)); err != nil {
			t.Fatal(err)
		}
	})
	var hk []byte
	var hid RowID
	ix.hist.Ascend(nil, nil, func(k []byte, id uint64) bool { hk, hid = k, id; return false })
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.histNeededLocked(ix, hk, hid) {
		t.Fatal("history entry of a pinned version reads as unneeded")
	}
	if got := testing.AllocsPerRun(100, func() { r.histNeededLocked(ix, hk, hid) }); got != 0 {
		t.Errorf("history check: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		next++
		ix.retire(next, rows[1])
	}); got != 1 {
		t.Errorf("retire: %v allocations per key, want 1", got)
	}
}
