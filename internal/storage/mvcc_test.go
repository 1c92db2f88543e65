package storage

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/value"
)

func mustTx(t *testing.T, db *DB, fn func(tx *Tx)) {
	t.Helper()
	tx := db.Begin()
	fn(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func snapRows(t *testing.T, s *Snap, rel string) map[RowID]int64 {
	t.Helper()
	out := map[RowID]int64{}
	if err := s.Scan(rel, nil, func(id RowID, tuRow value.Row) bool {
		tu := tuRow.Tuple()
		out[id] = tu[1].AsInt()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotScanIsolation: a snapshot keeps seeing the state at its
// pinned CSN across later updates, deletes, and inserts, while a fresh
// snapshot sees the new state.
func TestSnapshotScanIsolation(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	var id1, id2 RowID
	mustTx(t, db, func(tx *Tx) {
		id1, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("c4")})
		id2, _ = tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(62), value.Str("d4")})
	})

	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	mustTx(t, db, func(tx *Tx) {
		if err := tx.Update("NOTE", id1, value.Tuple{value.Int(1), value.Int(72), value.Str("c5")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("NOTE", id2); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("NOTE", value.Tuple{value.Int(3), value.Int(64), value.Str("e4")}); err != nil {
			t.Fatal(err)
		}
	})

	got := snapRows(t, old, "NOTE")
	if len(got) != 2 || got[id1] != 60 || got[id2] != 62 {
		t.Fatalf("old snapshot rows = %v", got)
	}
	if tu, ok := old.Get("NOTE", id2); !ok || tu.Col(1).AsInt() != 62 {
		t.Fatalf("old snapshot Get deleted row = %v %v", tu, ok)
	}

	fresh, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	got = snapRows(t, fresh, "NOTE")
	if len(got) != 2 || got[id1] != 72 {
		t.Fatalf("fresh snapshot rows = %v", got)
	}
	if _, ok := fresh.Get("NOTE", id2); ok {
		t.Fatal("fresh snapshot sees deleted row")
	}
}

// TestSnapshotIgnoresUncommittedAndAborted: in-flight writes are
// invisible (they publish only at commit), and aborted transactions
// never publish at all.
func TestSnapshotIgnoresUncommittedAndAborted(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	var id RowID
	mustTx(t, db, func(tx *Tx) {
		id, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("c4")})
	})

	tx := db.Begin()
	if err := tx.Update("NOTE", id, value.Tuple{value.Int(1), value.Int(99), value.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(61), value.Str("cs4")}); err != nil {
		t.Fatal(err)
	}
	// Pinned while tx is in flight: sees only the committed base row.
	mid, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := snapRows(t, mid, "NOTE")
	mid.Close()
	if len(got) != 1 || got[id] != 60 {
		t.Fatalf("snapshot saw uncommitted state: %v", got)
	}
	tx.Abort()

	after, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	got = snapRows(t, after, "NOTE")
	if len(got) != 1 || got[id] != 60 {
		t.Fatalf("snapshot after abort: %v", got)
	}
}

func pitchRange(lo, hi int64) (lb, ub []byte) {
	return value.AppendKey(nil, value.Int(lo)), value.AppendKey(nil, value.Int(hi))
}

// TestSnapshotIndexRange: a snapshot index scan finds rows under the
// keys they had at the pinned CSN — updated rows under their old key,
// never the new one — for unique and non-unique indexes alike.
func TestSnapshotIndexRange(t *testing.T) {
	for _, unique := range []bool{false, true} {
		t.Run(fmt.Sprintf("unique=%v", unique), func(t *testing.T) {
			db := memDB(t)
			db.CreateRelation("NOTE", noteSchema())
			if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}, Unique: unique}); err != nil {
				t.Fatal(err)
			}
			var id RowID
			mustTx(t, db, func(tx *Tx) {
				id, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("c4")})
				if _, err := tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(64), value.Str("e4")}); err != nil {
					t.Fatal(err)
				}
			})
			old, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer old.Close()
			mustTx(t, db, func(tx *Tx) {
				if err := tx.Update("NOTE", id, value.Tuple{value.Int(1), value.Int(72), value.Str("c5")}); err != nil {
					t.Fatal(err)
				}
			})

			scan := func(s *Snap, lo, hi int64) []int64 {
				lb, ub := pitchRange(lo, hi)
				var pitches []int64
				if err := s.IndexRange("NOTE", "by_pitch", lb, ub, false, func(_ RowID, tuRow value.Row) bool {
					tu := tuRow.Tuple()
					pitches = append(pitches, tu[1].AsInt())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return pitches
			}
			if got := scan(old, 0, 128); len(got) != 2 || got[0] != 60 || got[1] != 64 {
				t.Fatalf("old snapshot range = %v", got)
			}
			if got := scan(old, 70, 128); len(got) != 0 {
				t.Fatalf("old snapshot sees post-snapshot key: %v", got)
			}
			fresh, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if got := scan(fresh, 0, 128); len(got) != 2 || got[0] != 64 || got[1] != 72 {
				t.Fatalf("fresh snapshot range = %v", got)
			}
			// Reverse order too.
			lb, ub := pitchRange(0, 128)
			var rev []int64
			if err := fresh.IndexRange("NOTE", "by_pitch", lb, ub, true, func(_ RowID, tuRow value.Row) bool {
				tu := tuRow.Tuple()
				rev = append(rev, tu[1].AsInt())
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(rev) != 2 || rev[0] != 72 || rev[1] != 64 {
				t.Fatalf("reverse range = %v", rev)
			}
		})
	}
}

// TestSnapshotIndexRangeMergesHistory: while a writer moves rows between
// keys, deletes and inserts, a pinned snapshot's range reads keep
// returning exactly its own rows, in key order, both where the range
// holds retired keys (the live and history trees are merged) and where
// it holds none (the live tree alone answers).
func TestSnapshotIndexRangeMergesHistory(t *testing.T) {
	for _, unique := range []bool{false, true} {
		t.Run(fmt.Sprintf("unique=%v", unique), func(t *testing.T) {
			db := memDB(t)
			db.CreateRelation("NOTE", noteSchema())
			if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}, Unique: unique}); err != nil {
				t.Fatal(err)
			}
			ids := make([]RowID, 40)
			mustTx(t, db, func(tx *Tx) {
				for i := range ids {
					ids[i], _ = tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(i)), value.Str("n")})
				}
			})
			old, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer old.Close()
			scan := func(s *Snap, lo, hi int64, reverse bool) []int64 {
				lb, ub := pitchRange(lo, hi)
				var names []int64
				if err := s.IndexRange("NOTE", "by_pitch", lb, ub, reverse, func(_ RowID, tuRow value.Row) bool {
					tu := tuRow.Tuple()
					names = append(names, tu[0].AsInt())
					return true
				}); err != nil {
					t.Error(err)
				}
				return names
			}
			// The pinned state: name i at pitch i.
			check := func(lo, hi int64) {
				got, rev := scan(old, lo, hi, false), scan(old, lo, hi, true)
				if len(got) != int(hi-lo) || len(rev) != len(got) {
					t.Errorf("[%d, %d): got %v, reverse %v", lo, hi, got, rev)
					return
				}
				for i, n := range got {
					if n != lo+int64(i) || rev[len(rev)-1-i] != n {
						t.Errorf("[%d, %d): got %v, reverse %v", lo, hi, got, rev)
						return
					}
				}
			}

			// The writer moves names 10..19 to pitches 110..119, deletes
			// 20..24, and inserts one row at 210..224 per step; keys 0..9
			// and 25..39 are never touched.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 10; i < 25; i++ {
					tx := db.Begin()
					var err error
					if i < 20 {
						err = tx.Update("NOTE", ids[i], value.Tuple{value.Int(int64(i)), value.Int(int64(100 + i)), value.Str("n")})
					} else {
						err = tx.Delete("NOTE", ids[i])
					}
					if err == nil {
						_, err = tx.Insert("NOTE", value.Tuple{value.Int(int64(200 + i)), value.Int(int64(200 + i)), value.Str("n")})
					}
					if err == nil {
						err = tx.Commit()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				check(0, 40)
				check(10, 25)
			}
			ix := db.Relation("NOTE").findIndex("by_pitch")
			if lb, ub := pitchRange(10, 25); !ix.histHas(lb, ub) {
				t.Fatal("no retired key in [10, 25): the merge path was not exercised")
			}
			if lb, ub := pitchRange(0, 10); ix.histHas(lb, ub) {
				t.Fatal("retired key in [0, 10): the live-tree path was not exercised")
			}
			check(0, 10)
			check(25, 40)

			fresh, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if got := scan(fresh, 0, 1000, false); len(got) != 50 || got[9] != 9 || got[10] != 25 || got[25] != 10 || got[35] != 210 || got[49] != 224 {
				t.Fatalf("fresh snapshot range = %v", got)
			}
			if got := scan(fresh, 10, 25, false); len(got) != 0 {
				t.Fatalf("fresh snapshot sees retired keys: %v", got)
			}
		})
	}
}

// TestSnapshotIndexCreatedAfterPin: an index created after the snapshot
// was pinned cannot serve it from its trees; the scan falls back to the
// version store and still returns the right rows in key order.
func TestSnapshotIndexCreatedAfterPin(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	mustTx(t, db, func(tx *Tx) {
		for i, p := range []int64{64, 60, 62} {
			if _, err := tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(p), value.Str("n")}); err != nil {
				t.Fatal(err)
			}
		}
	})
	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	lb, ub := pitchRange(0, 128)
	var pitches []int64
	if err := old.IndexRange("NOTE", "by_pitch", lb, ub, false, func(_ RowID, tuRow value.Row) bool {
		tu := tuRow.Tuple()
		pitches = append(pitches, tu[1].AsInt())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pitches) != 3 || pitches[0] != 60 || pitches[1] != 62 || pitches[2] != 64 {
		t.Fatalf("fallback range = %v", pitches)
	}
}

// TestVacuumWatermark: an open snapshot holds back reclamation of the
// versions it can still see; once it closes, Vacuum trims chains back
// to a single live version and drains the index history.
func TestVacuumWatermark(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	var id RowID
	mustTx(t, db, func(tx *Tx) {
		id, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("c4")})
	})
	snap, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		mustTx(t, db, func(tx *Tx) {
			if err := tx.Update("NOTE", id, value.Tuple{value.Int(1), value.Int(60 + i), value.Str("c4")}); err != nil {
				t.Fatal(err)
			}
		})
	}
	rel := db.Relation("NOTE")
	if _, old, _ := rel.VersionStats(); old < 5 {
		t.Fatalf("expected >=5 old versions before vacuum, have %d", old)
	}

	// Pinned snapshot: the version it reads must survive any vacuum.
	db.Vacuum()
	if tu, ok := snap.Get("NOTE", id); !ok || tu.Col(1).AsInt() != 60 {
		t.Fatalf("pinned snapshot lost its version after vacuum: %v %v", tu, ok)
	}
	lb, ub := pitchRange(60, 61)
	n := 0
	if err := snap.IndexRange("NOTE", "by_pitch", lb, ub, false, func(RowID, value.Row) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("pinned snapshot index lookup found %d rows", n)
	}

	snap.Close()
	if got := db.Vacuum(); got == 0 {
		t.Fatal("vacuum reclaimed nothing after last snapshot closed")
	}
	chains, old, hist := rel.VersionStats()
	if chains != 1 || old != 0 || hist != 0 {
		t.Fatalf("after full vacuum: chains=%d old=%d hist=%d", chains, old, hist)
	}
	// The live state is untouched.
	fresh, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if tu, ok := fresh.Get("NOTE", id); !ok || tu.Col(1).AsInt() != 65 {
		t.Fatalf("live row after vacuum: %v %v", tu, ok)
	}
}

// TestVacuumReclaimsDeletedRows: a deleted row's chain disappears
// entirely once no snapshot can see it.
func TestVacuumReclaimsDeletedRows(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	var id RowID
	mustTx(t, db, func(tx *Tx) {
		id, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("c4")})
	})
	mustTx(t, db, func(tx *Tx) {
		if err := tx.Delete("NOTE", id); err != nil {
			t.Fatal(err)
		}
	})
	db.Vacuum()
	rel := db.Relation("NOTE")
	chains, old, _ := rel.VersionStats()
	if chains != 0 || old != 0 {
		t.Fatalf("deleted row not reclaimed: chains=%d old=%d", chains, old)
	}
}

// TestSnapshotMultiRowAtomicity: a snapshot sees all of a committed
// transaction's writes or none of them, even while commits race.
func TestSnapshotMultiRowAtomicity(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	const rows = 4
	ids := make([]RowID, rows)
	mustTx(t, db, func(tx *Tx) {
		for i := range ids {
			ids[i], _ = tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(0), value.Str("n")})
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(1); v <= 200; v++ {
			tx := db.Begin()
			for _, id := range ids {
				if err := tx.Update("NOTE", id, value.Tuple{value.Int(0), value.Int(v), value.Str("n")}); err != nil {
					tx.Abort()
					return
				}
			}
			if err := tx.Commit(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 400; i++ {
		s, err := db.BeginSnapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int{}
		s.Scan("NOTE", nil, func(_ RowID, tuRow value.Row) bool {
			tu := tuRow.Tuple()
			seen[tu[1].AsInt()]++
			return true
		})
		s.Close()
		if len(seen) != 1 {
			t.Fatalf("snapshot observed a torn commit: %v", seen)
		}
		for _, n := range seen {
			if n != rows {
				t.Fatalf("snapshot missing rows: %v", seen)
			}
		}
	}
	<-done
}

// scanIDs returns the row ids a snapshot scan and a locking scan of rel
// visit, in visiting order.
func scanIDs(t *testing.T, db *DB, rel string) (snap, locking []RowID) {
	t.Helper()
	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Scan(rel, nil, func(id RowID, _ value.Row) bool {
		snap = append(snap, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Scan(rel, nil, func(id RowID, _ value.Row) bool {
		locking = append(locking, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return snap, locking
}

// TestRowOrderOutOfOrderPublish: versions published out of row-id order
// (commits racing, replay) land in their own slots and still scan in
// row-id order, with no sort.
func TestRowOrderOutOfOrderPublish(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	for _, id := range []RowID{5, 3, 9, 4, 1} {
		db.publish([]verOp{{op: verAdd, rel: "NOTE", id: id,
			t: value.RowOf(value.Tuple{value.Int(int64(id)), value.Int(60), value.Str("n")})}})
	}
	snap, _ := scanIDs(t, db, "NOTE")
	if want := []RowID{1, 3, 4, 5, 9}; fmt.Sprint(snap) != fmt.Sprint(want) {
		t.Fatalf("snapshot scan order %v, want %v", snap, want)
	}
	r := db.Relation("NOTE")
	if len(r.pages) != 1 || r.pages[0].used != 5 {
		t.Fatalf("%d pages, want one holding 5 slots", len(r.pages))
	}
	for id := RowID(0); id < pageSize; id++ {
		s := r.slotLocked(id)
		if got := s.ver != nil && s.ver.row.Col(0).AsInt() == int64(id); got != (id == 1 || id == 3 || id == 4 || id == 5 || id == 9) {
			t.Fatalf("slot %d holds %v", id, s.ver)
		}
	}
}

// TestRowOrderDeletesAndVacuum: deleted and vacuumed rows leave empty
// slots that scans, Len, the content hash and a checkpoint skip, and a
// quiesced vacuum leaves no old versions or history.
func TestRowOrderDeletesAndVacuum(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	const n = 100
	ids := make([]RowID, n)
	mustTx(t, db, func(tx *Tx) {
		for i := range ids {
			ids[i], _ = tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(i % 12)), value.Str("n")})
		}
	})
	r := db.Relation("NOTE")
	del := func(from, to int) {
		mustTx(t, db, func(tx *Tx) {
			for i := from; i < to; i++ {
				if err := tx.Delete("NOTE", ids[i]); err != nil {
					t.Fatal(err)
				}
			}
		})
		db.Vacuum()
	}
	check := func(live []RowID) {
		t.Helper()
		snap, locking := scanIDs(t, db, "NOTE")
		if fmt.Sprint(snap) != fmt.Sprint(live) || fmt.Sprint(locking) != fmt.Sprint(live) {
			t.Fatalf("scans %v / %v, want %v", snap, locking, live)
		}
		if chains, old, hist := r.VersionStats(); chains != len(live) || old != 0 || hist != 0 {
			t.Fatalf("after a quiesced vacuum: chains=%d old=%d hist=%d, want %d/0/0", chains, old, hist, len(live))
		}
		if r.Len() != len(live) {
			t.Fatalf("Len %d, want %d", r.Len(), len(live))
		}
		for _, id := range ids[:n-len(live)] {
			if s := r.slotLocked(id); !s.t.IsZero() || s.ver != nil {
				t.Fatalf("deleted and vacuumed row %d still holds %v / %v", id, s.t, s.ver)
			}
		}
	}

	del(0, 10)
	check(ids[10:])
	del(10, 40)
	check(ids[40:])
	if r.nextRow != n+1 {
		t.Fatalf("next row id %d, want %d: row ids are not reused", r.nextRow, n+1)
	}

	// The fallback index range (a snapshot older than its index) and
	// point read walk the same slots, empty ones included.
	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	var names []int64
	if err := old.IndexRange("NOTE", "by_name", nil, nil, false, func(_ RowID, tuRow value.Row) bool {
		tu := tuRow.Tuple()
		names = append(names, tu[0].AsInt())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != n-40 || names[0] != 40 || names[len(names)-1] != n-1 {
		t.Fatalf("fallback range: %v", names)
	}
	for name, want := range map[int64]bool{39: false, 40: true, 99: true} {
		if _, _, ok, err := old.IndexGet("NOTE", "by_name", value.AppendKey(nil, value.Int(name))); err != nil || ok != want {
			t.Fatalf("fallback point read of %d: ok=%v err=%v, want ok=%v", name, ok, err, want)
		}
	}
}

// TestRowOrderReopen: a reopened store rebuilds its slots from its image
// and log (seedVersions): a hole from a logged delete stays empty.
func TestRowOrderReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	var ids []RowID
	mustTx(t, db, func(tx *Tx) {
		for i := 0; i < 20; i++ {
			id, _ := tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(60), value.Str("n")})
			ids = append(ids, id)
		}
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint: a delete and an insert only the log holds.
	mustTx(t, db, func(tx *Tx) {
		if err := tx.Delete("NOTE", ids[3]); err != nil {
			t.Fatal(err)
		}
		id, _ := tx.Insert("NOTE", value.Tuple{value.Int(20), value.Int(60), value.Str("n")})
		ids = append(ids, id)
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	live := append(append([]RowID(nil), ids[:3]...), ids[4:]...)
	snap, locking := scanIDs(t, db, "NOTE")
	if fmt.Sprint(snap) != fmt.Sprint(live) || fmt.Sprint(locking) != fmt.Sprint(live) {
		t.Fatalf("after reopen: scans %v / %v, want %v", snap, locking, live)
	}
	r := db.Relation("NOTE")
	if s := r.slotLocked(ids[3]); !s.t.IsZero() || s.ver != nil || r.Len() != len(live) {
		t.Fatalf("after reopen: slot %d holds %v / %v, Len %d; want empty, %d", ids[3], s.t, s.ver, r.Len(), len(live))
	}
}

// TestSnapshotIndexGet: the unique-index point read sees a row under the
// key it had at the snapshot — through the key history once an update
// or delete has taken it out of the live tree — and never under a key
// it only gained later.
func TestSnapshotIndexGet(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	var a, b RowID
	mustTx(t, db, func(tx *Tx) {
		a, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("a")})
		b, _ = tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(62), value.Str("b")})
	})
	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	mustTx(t, db, func(tx *Tx) {
		if err := tx.Update("NOTE", a, value.Tuple{value.Int(3), value.Int(60), value.Str("a")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("NOTE", b); err != nil {
			t.Fatal(err)
		}
	})
	get := func(s *Snap, name int64) string {
		_, tu, ok, err := s.IndexGet("NOTE", "by_name", value.AppendKey(nil, value.Int(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return "-"
		}
		return tu.Col(2).AsString()
	}
	if got := get(old, 1) + get(old, 2) + get(old, 3); got != "ab-" {
		t.Fatalf("old snapshot reads names 1,2,3 as %q, want \"ab-\"", got)
	}
	fresh, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := get(fresh, 1) + get(fresh, 2) + get(fresh, 3); got != "--a" {
		t.Fatalf("fresh snapshot reads names 1,2,3 as %q, want \"--a\"", got)
	}
	if _, _, _, err := fresh.IndexGet("NOTE", "no_such", nil); err == nil {
		t.Fatal("IndexGet on a missing index: no error")
	}
}

// TestSettledRows: recovery leaves every row settled — no version record
// of its own — and snapshots still read each row's committed state
// across an uncommitted write, a vacuum during it, its commit, and a
// delete.  The vacuum must not settle a row while a write is pending:
// the live tuple is then not the committed one.
func TestSettledRows(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	var ids []RowID
	mustTx(t, db, func(tx *Tx) {
		for i := 0; i < 10; i++ {
			id, _ := tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(60 + int64(i)), value.Str("n")})
			ids = append(ids, id)
		}
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := db.Relation("NOTE")
	heads := func() (n int) {
		r.mu.RLock()
		defer r.mu.RUnlock()
		r.eachLocked(func(_ RowID, s *slot) {
			if !s.t.IsZero() && s.ver == settled {
				n++
			}
		})
		return n
	}
	if n := heads(); n != len(ids) || r.Len() != len(ids) {
		t.Fatalf("after reopen: %d of %d live rows settled", n, r.Len())
	}
	pin := func() *Snap {
		t.Helper()
		s, err := db.BeginSnapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pitch := func(s *Snap, id RowID) int64 {
		t.Helper()
		tu, ok := s.Get("NOTE", id)
		if !ok {
			return -1
		}
		return tu.Col(1).AsInt()
	}
	byPitch := func(s *Snap, p int64) []RowID {
		t.Helper()
		var got []RowID
		lo := value.AppendKey(nil, value.Int(p))
		if err := s.IndexRange("NOTE", "by_pitch", lo, AppendKeyUpper(lo), false, func(id RowID, _ value.Row) bool {
			got = append(got, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, d := ids[0], ids[1]

	// An uncommitted update, then a vacuum with no snapshot open: the
	// row's one version is visible at the watermark, but it is not the
	// live tuple, so the row stays unsettled and snapshots read it.
	tx := db.Begin()
	if err := tx.Update("NOTE", a, value.Tuple{value.Int(0), value.Int(99), value.Str("n")}); err != nil {
		t.Fatal(err)
	}
	db.Vacuum()
	mid := pin()
	if p := pitch(mid, a); p != 60 {
		t.Fatalf("snapshot during an uncommitted update reads pitch %d, want 60", p)
	}
	if got := byPitch(mid, 60); len(got) != 1 || got[0] != a {
		t.Fatalf("snapshot index read of pitch 60 during an uncommitted update: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := pin()
	if p, q := pitch(mid, a), pitch(after, a); p != 60 || q != 99 {
		t.Fatalf("after commit: pinned before reads %d, after reads %d; want 60, 99", p, q)
	}
	if got := byPitch(after, 99); len(got) != 1 || got[0] != a {
		t.Fatalf("snapshot index read of pitch 99 after commit: %v", got)
	}
	db.Vacuum() // mid holds the watermark below the new version
	if p := pitch(mid, a); p != 60 {
		t.Fatalf("vacuum under a pin: pinned before reads %d, want 60", p)
	}
	mid.Close()
	after.Close()

	// An aborted update leaves the committed tuple live again.
	tx = db.Begin()
	if err := tx.Update("NOTE", d, value.Tuple{value.Int(1), value.Int(7), value.Str("n")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	// With no pin left, the vacuum settles both rows again.
	db.Vacuum()
	if n := heads(); n != len(ids) {
		t.Fatalf("after a quiesced vacuum %d of %d rows settled", n, len(ids))
	}
	if chains, old, hist := r.VersionStats(); chains != len(ids) || old != 0 || hist != 0 {
		t.Fatalf("after a quiesced vacuum: chains=%d old=%d hist=%d, want %d/0/0", chains, old, hist, len(ids))
	}

	// A delete of a settled row is not seen by a snapshot pinned before
	// it, even across a vacuum that snapshot holds back.
	old := pin()
	defer old.Close()
	mustTx(t, db, func(tx *Tx) {
		if err := tx.Delete("NOTE", d); err != nil {
			t.Fatal(err)
		}
	})
	db.Vacuum()
	now := pin()
	defer now.Close()
	if p, q := pitch(old, d), pitch(now, d); p != 61 || q != -1 {
		t.Fatalf("delete: pinned before reads %d, after reads %d; want 61, none", p, q)
	}
	if got := byPitch(old, 61); len(got) != 1 || got[0] != d {
		t.Fatalf("snapshot index read of a deleted row's pitch: %v", got)
	}
	if p := pitch(old, a); p != 99 {
		t.Fatalf("settled row reads %d under an old pin, want 99", p)
	}
}
