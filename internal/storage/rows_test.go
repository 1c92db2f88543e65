package storage

import (
	"bytes"
	"context"
	"testing"
	"unsafe"

	"repro/internal/value"
)

// TestSlotSize: a slot is its row's offset and length in the page's
// block, and holds no pointer.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 8 {
		t.Fatalf("slot is %d bytes, want 8", got)
	}
}

// notesDB returns a store whose NOTE relation holds n rows, indexed by
// pitch and by the extra indexes, every row's name and pitch its row id.
func notesDB(t testing.TB, n int, extra ...IndexSpec) *DB {
	t.Helper()
	return notesIn(t, memDB(t), n, extra...)
}

// notesIn is notesDB on the database db.
func notesIn(t testing.TB, db *DB, n int, extra ...IndexSpec) *DB {
	t.Helper()
	if _, err := db.CreateRelation("NOTE", noteSchema()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range append([]IndexSpec{{Name: "by_pitch", Columns: []string{"pitch"}}}, extra...) {
		if err := db.CreateIndex("NOTE", spec); err != nil {
			t.Fatal(err)
		}
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

// TestReadAllocsFlat: full scans and index ranges allocate the same
// whether they pass 1 000 rows or 4 000, each row decoded into the
// reader's one buffer: no read allocates per row or per batch.  The
// snapshot's ranges run over the half of the rows no write has touched
// since its pin and over all of them, where the key history holds the
// old keys of rows that swapped pitches.
func TestReadAllocsFlat(t *testing.T) {
	names := []string{"Snap.Scan", "Tx.Scan", "Snap.IndexRange", "Tx.IndexRange", "Snap.IndexRange/history"}
	passes := func(n int) []float64 {
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
		// Swap the pitches of neighbouring rows in the upper half: the
		// sums stay, and the key history gains keys there.
		mustTx(t, db, func(tx *Tx) {
			for id := RowID(n/2 + 1); id+1 <= RowID(n); id += 8 {
				for _, sw := range [][2]RowID{{id, id + 1}, {id + 1, id}} {
					if err := tx.UpdateField("NOTE", sw[0], "pitch", value.Int(int64(sw[1]))); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		if lo, hi := pitchRange(int64(n/2+1), int64(n+1)); !db.Relation("NOTE").findIndex("by_pitch").histHas(lo, hi) {
			t.Fatal("no history key in the upper half")
		}
		tx := db.Begin()
		defer tx.Abort()
		lower, mid := pitchRange(1, int64(n/2+1))
		total, half := int64(n)*int64(n+1)/2, int64(n/2)*int64(n/2+1)/2
		got := make([]float64, len(names))
		for i, pass := range []struct {
			read func() error
			want int64
		}{
			{func() error { return s.Scan("NOTE", nil, read) }, total},
			{func() error { return tx.Scan("NOTE", nil, read) }, total},
			{func() error { return s.IndexRange("NOTE", "by_pitch", lower, mid, false, read) }, half},
			{func() error { return tx.IndexRange("NOTE", "by_pitch", nil, nil, false, read) }, total},
			{func() error { return s.IndexRange("NOTE", "by_pitch", nil, nil, false, read) }, total},
		} {
			if err := pass.read(); err != nil {
				t.Fatal(err)
			}
			sum = 0
			got[i] = testing.AllocsPerRun(5, func() { pass.read() })
			// AllocsPerRun adds one warm-up call to its five.
			if sum != 6*pass.want {
				t.Fatalf("%s read pitch sum %d, want %d", names[i], sum, 6*pass.want)
			}
		}
		return got
	}
	small, large := passes(1000), passes(4000)
	for i, name := range names {
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
// Adding a key allocates at most once (the tree copies it into a leaf
// block, usually into room the block already has, so the average is
// often below one), removing one or checking a history entry allocates
// nothing.
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
	}); got > 1 {
		t.Errorf("index insert: %v allocations per key, want at most 1", got)
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
	ix.hist.Ascend(nil, nil, func(k []byte, id uint64) bool { hk, hid = bytes.Clone(k), id; return false })
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
	}); got > 1 {
		t.Errorf("retire: %v allocations per key, want at most 1", got)
	}
}

// TestUpdateAllocs: Tx.Update encodes the new row into the
// transaction's reused buffer, which updateRow copies into the page, and
// builds a log record only when the database keeps a log: an update
// inside a running transaction allocates nothing on an in-memory
// database and only its log record on a logged one.
func TestUpdateAllocs(t *testing.T) {
	const n = 2000
	logged, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		db   *DB
		max  float64
	}{
		{"in-memory", notesDB(t, n), 0},
		{"logged", notesIn(t, logged, n), 1},
	} {
		tx := c.db.Begin()
		tu := value.Tuple{value.Int(1), value.Int(2), value.Str("n")}
		want := make([]int64, n+1) // pitch by row id
		i := 0
		if got := testing.AllocsPerRun(n, func() {
			i++
			id := RowID(i%n + 1)
			want[id] = int64(i % 97)
			tu[1] = value.Int(want[id])
			if err := tx.Update("NOTE", id, tu); err != nil {
				t.Fatal(err)
			}
		}); got > c.max {
			t.Errorf("%s: Tx.Update: %v allocations per update, want at most %v", c.name, got, c.max)
		}
		// Every row holds its own update, not the buffer's last contents.
		for id := RowID(1); id <= n; id++ {
			row, err := tx.Get("NOTE", id)
			if err != nil {
				t.Fatal(err)
			}
			if got := row.Col(1).AsInt(); got != want[id] {
				t.Fatalf("%s: row %d pitch %d, want %d", c.name, id, got, want[id])
			}
		}
		tx.Abort()
		c.db.Close()
	}
}
