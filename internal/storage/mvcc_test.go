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
	if err := s.Scan(rel, func(id RowID, tu value.Tuple) bool {
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
	if tu, ok := old.Get("NOTE", id2); !ok || tu[1].AsInt() != 62 {
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
				if err := s.IndexRange("NOTE", "by_pitch", lb, ub, false, func(_ RowID, tu value.Tuple) bool {
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
			if err := fresh.IndexRange("NOTE", "by_pitch", lb, ub, true, func(_ RowID, tu value.Tuple) bool {
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
	if err := old.IndexRange("NOTE", "by_pitch", lb, ub, false, func(_ RowID, tu value.Tuple) bool {
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
	if tu, ok := snap.Get("NOTE", id); !ok || tu[1].AsInt() != 60 {
		t.Fatalf("pinned snapshot lost its version after vacuum: %v %v", tu, ok)
	}
	lb, ub := pitchRange(60, 61)
	n := 0
	if err := snap.IndexRange("NOTE", "by_pitch", lb, ub, false, func(RowID, value.Tuple) bool {
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
	if tu, ok := fresh.Get("NOTE", id); !ok || tu[1].AsInt() != 65 {
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
		s.Scan("NOTE", func(_ RowID, tu value.Tuple) bool {
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
	if err := s.Scan(rel, func(id RowID, _ value.Tuple) bool {
		snap = append(snap, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Scan(rel, func(id RowID, _ value.Tuple) bool {
		locking = append(locking, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return snap, locking
}

// ascending reports whether ids are strictly increasing.
func ascending(ids []RowID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// TestRowOrderOutOfOrderPublish: versions published out of row-id order
// (commits racing, replay) still scan in row-id order, with no sort.
func TestRowOrderOutOfOrderPublish(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	for _, id := range []RowID{5, 3, 9, 4, 1} {
		db.publish([]verOp{{op: verAdd, rel: "NOTE", id: id,
			t: value.Tuple{value.Int(int64(id)), value.Int(60), value.Str("n")}}})
	}
	snap, _ := scanIDs(t, db, "NOTE")
	if want := []RowID{1, 3, 4, 5, 9}; fmt.Sprint(snap) != fmt.Sprint(want) {
		t.Fatalf("snapshot scan order %v, want %v", snap, want)
	}
	if r := db.Relation("NOTE"); !ascending(r.ids) {
		t.Fatalf("ids not in row-id order: %v", r.ids)
	}
}

// TestRowOrderDeletesAndVacuum: deleted rows leave their ids behind;
// vacuum compacts them only once they exceed a fifth of the list (a
// removal is O(1) amortized), scans skip them meanwhile, and a quiesced
// vacuum leaves no old versions or history.
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
	}

	del(0, 10) // 10 % stale: kept in place
	check(ids[10:])
	if len(r.ids) != n {
		t.Fatalf("after 10 deletes: %d ids, want %d (no compaction yet)", len(r.ids), n)
	}
	del(10, 40) // past a fifth: compacted
	check(ids[40:])
	if len(r.ids) != n-40 {
		t.Fatalf("after 40 deletes: %d ids, want %d", len(r.ids), n-40)
	}

	// The fallback index range (a snapshot older than its index) and
	// point read walk the same ordered ids, stale ones included.
	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	var names []int64
	if err := old.IndexRange("NOTE", "by_name", nil, nil, false, func(_ RowID, tu value.Tuple) bool {
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

// TestRowOrderReopen: a reopened store rebuilds the ordered ids from its
// image and log (seedVersions), stale ids dropped.
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
	if r := db.Relation("NOTE"); fmt.Sprint(r.ids) != fmt.Sprint(live) {
		t.Fatalf("after reopen: ids %v, want %v", r.ids, live)
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
		return tu[2].AsString()
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
