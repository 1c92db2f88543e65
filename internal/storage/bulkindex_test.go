package storage

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// keySchema is a two-column schema with a unique and a non-unique index
// applied by the bulk-build tests.
func bulkDB(t *testing.T) *DB {
	t.Helper()
	db := memDB(t)
	if _, err := db.CreateRelation("W", value.NewSchema(
		value.Field{Name: "id", Kind: value.KindInt},
		value.Field{Name: "grp", Kind: value.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("W", IndexSpec{Name: "by_id", Columns: []string{"id"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("W", IndexSpec{Name: "by_grp", Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDeferredIndexBuild(t *testing.T) {
	db := bulkDB(t)
	if err := db.DeferIndexes("W"); err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("W")
	if !rel.Deferred() {
		t.Fatal("relation should report deferred")
	}
	err := db.Run(func(tx *Tx) error {
		for i := 0; i < 1000; i++ {
			if _, err := tx.Insert("W", value.Tuple{value.Int(int64(i)), value.Int(int64(i % 7))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// While deferred, the planner-facing index surface is gone.
	if _, ok := rel.IndexByColumn("id"); ok {
		t.Fatal("IndexByColumn should miss while deferred")
	}
	if _, ok := rel.IndexRangeCount("by_id", nil, nil); ok {
		t.Fatal("IndexRangeCount should miss while deferred")
	}
	if err := rel.ScanRange("by_id", nil, nil, false, func(RowID, value.Row) bool { return true }); err == nil {
		t.Fatal("ScanRange should fail while deferred")
	}
	if err := rel.CheckIndexes(); err != nil {
		t.Fatalf("CheckIndexes while deferred: %v", err)
	}

	if err := db.BuildIndexes("W"); err != nil {
		t.Fatal(err)
	}
	if rel.Deferred() {
		t.Fatal("build should clear deferral")
	}
	if err := rel.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	if n, ok := rel.IndexRangeCount("by_id", nil, nil); !ok || n != 1000 {
		t.Fatalf("by_id count = %d, %v", n, ok)
	}
	// The rebuilt trees serve ordinary scans and point ranges.
	lo := value.AppendKey(nil, value.Int(3))
	hi := append(append([]byte(nil), lo...), 0xFF)
	seen := 0
	err = rel.ScanRange("by_grp", lo, hi, false, func(_ RowID, tuRow value.Row) bool {
		tu := tuRow.Tuple()
		if tu[1].AsInt() != 3 {
			t.Fatalf("wrong group %d", tu[1].AsInt())
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 143 { // i%7 == 3 for i in [0, 1000)
		t.Fatalf("group scan saw %d rows", seen)
	}
	// Maintenance is live again.
	err = db.Run(func(tx *Tx) error {
		_, err := tx.Insert("W", value.Tuple{value.Int(5000), value.Int(1)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rel.IndexRangeCount("by_id", nil, nil); n != 1001 {
		t.Fatalf("post-build insert not indexed: %d", n)
	}
	if err := rel.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredUniqueViolationSurfacesAtBuild(t *testing.T) {
	db := bulkDB(t)
	if err := db.DeferIndexes("W"); err != nil {
		t.Fatal(err)
	}
	err := db.Run(func(tx *Tx) error {
		for _, id := range []int64{1, 2, 2, 3} {
			if _, err := tx.Insert("W", value.Tuple{value.Int(id), value.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.BuildIndexes("W")
	if err == nil || !strings.Contains(err.Error(), "unique index") {
		t.Fatalf("want unique violation, got %v", err)
	}
	// The failed build leaves the relation deferred; fixing the heap and
	// retrying succeeds.
	if !db.Relation("W").Deferred() {
		t.Fatal("failed build should leave relation deferred")
	}
	var dupID RowID
	db.Run(func(tx *Tx) error { //nolint:errcheck
		seen := map[int64]bool{}
		return tx.Scan("W", nil, func(id RowID, tuRow value.Row) bool {
			tu := tuRow.Tuple()
			v := tu[0].AsInt()
			if seen[v] {
				dupID = id
			}
			seen[v] = true
			return true
		})
	})
	err = db.Run(func(tx *Tx) error { return tx.Delete("W", dupID) })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes("W"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relation("W").CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredSnapshotFallback(t *testing.T) {
	db := bulkDB(t)
	err := db.Run(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if _, err := tx.Insert("W", value.Tuple{value.Int(int64(i)), value.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeferIndexes("W"); err != nil {
		t.Fatal(err)
	}
	err = db.Run(func(tx *Tx) error {
		_, err := tx.Insert("W", value.Tuple{value.Int(100), value.Int(0)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot range over the deferred index must not trust the stale
	// tree: the version-store fallback sees all 11 rows.
	rel := db.Relation("W")
	n, err := rel.snapRange("by_id", db.snaps.Last(), nil, nil, false, func(RowID, value.Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("snapshot fallback saw %d rows, want 11", n)
	}
	if err := db.BuildIndexes("W"); err != nil {
		t.Fatal(err)
	}
}
