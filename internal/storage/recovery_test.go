package storage

import (
	"testing"

	"repro/internal/value"
)

// TestSchemaCrashRecovery pins the WAL schema-record behavior: relations
// and indexes created after the last checkpoint (here: never
// checkpointed at all) must survive a crash, along with their data.
func TestSchemaCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("LATE", value.NewSchema(
		value.Field{Name: "v", Kind: value.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("LATE", IndexSpec{Name: "by_v", Columns: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			tx.Insert("LATE", value.Tuple{value.Int(int64(i))})
		}
		return nil
	})
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Checkpoint.

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel := db2.Relation("LATE")
	if rel == nil {
		t.Fatal("relation lost in crash")
	}
	if rel.Len() != 10 {
		t.Fatalf("rows after crash: %d", rel.Len())
	}
	// The index was rebuilt and works.
	count := 0
	db2.Run(func(tx *Tx) error {
		return prefixScan(tx, "LATE", "by_v", value.Tuple{value.Int(5)},
			func(RowID, value.Row) bool { count++; return true })
	})
	if count != 1 {
		t.Fatalf("index after crash: %d hits", count)
	}
}

// TestDropSurvivesCrash pins RecDropRelation replay.
func TestDropSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("DOOMED", value.NewSchema(value.Field{Name: "v", Kind: value.KindInt}))
	db.Run(func(tx *Tx) error {
		_, err := tx.Insert("DOOMED", value.Tuple{value.Int(1)})
		return err
	})
	if err := db.DropRelation("DOOMED"); err != nil {
		t.Fatal(err)
	}
	db.Sync()
	// Crash.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Relation("DOOMED") != nil {
		t.Fatal("dropped relation resurrected")
	}
}

// TestSnapshotPlusLogInterleaving checkpoints mid-stream, then crashes:
// the snapshot carries the first half, the log the second.
func TestSnapshotPlusLogInterleaving(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("R", value.NewSchema(value.Field{Name: "v", Kind: value.KindInt}))
	db.Run(func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			tx.Insert("R", value.Tuple{value.Int(int64(i))})
		}
		return nil
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint: a second relation and more data.
	db.CreateRelation("S", value.NewSchema(value.Field{Name: "v", Kind: value.KindInt}))
	db.Run(func(tx *Tx) error {
		for i := 5; i < 10; i++ {
			tx.Insert("R", value.Tuple{value.Int(int64(i))})
			tx.Insert("S", value.Tuple{value.Int(int64(i))})
		}
		return nil
	})
	db.Sync()
	// Crash.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Relation("R").Len() != 10 {
		t.Fatalf("R rows: %d", db2.Relation("R").Len())
	}
	if db2.Relation("S") == nil || db2.Relation("S").Len() != 5 {
		t.Fatal("post-checkpoint relation lost")
	}
}
