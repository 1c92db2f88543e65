package storage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

func statsTestDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, SyncCommits: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func fillNotes(t *testing.T, db *DB, n int) *Relation {
	t.Helper()
	schema := value.NewSchema(
		value.Field{Name: "name", Kind: value.KindString},
		value.Field{Name: "pitch", Kind: value.KindInt},
	)
	rel, err := db.CreateRelation("NOTE", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "ix_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		// 12 distinct pitches, heavily duplicated.
		if _, err := tx.Insert("NOTE", value.Tuple{value.Str(fmt.Sprintf("n%d", i)), value.Int(int64(i % 12))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestIndexStats(t *testing.T) {
	db := statsTestDB(t, t.TempDir())
	rel := fillNotes(t, db, 600)

	st, ok := rel.Stats("ix_pitch")
	if !ok {
		t.Fatal("no stats for ix_pitch")
	}
	if st.Rows != 600 {
		t.Fatalf("Rows = %d, want 600", st.Rows)
	}
	if st.Distinct != 12 {
		t.Fatalf("Distinct = %d, want 12", st.Distinct)
	}
	if len(st.Boundaries) == 0 || len(st.Boundaries) > histBuckets-1 {
		t.Fatalf("Boundaries = %d", len(st.Boundaries))
	}
	if _, ok := rel.Stats("no_such_index"); ok {
		t.Fatal("stats for a missing index")
	}

	// Within the staleness window the cached summary is returned as-is.
	tx := db.Begin()
	for i := 0; i < 10; i++ {
		if _, err := tx.Insert("NOTE", value.Tuple{value.Str("x"), value.Int(99)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st2, _ := rel.Stats("ix_pitch")
	if st2.Rows != 600 {
		t.Fatalf("stats rebuilt inside staleness window: Rows = %d", st2.Rows)
	}

	// A checkpoint forces the rebuild.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st3, _ := rel.Stats("ix_pitch")
	if st3.Rows != 610 || st3.Distinct != 13 {
		t.Fatalf("post-checkpoint stats: Rows=%d Distinct=%d, want 610/13", st3.Rows, st3.Distinct)
	}
	if got := db.Obs().Counter("quel.stats.rebuilds").Value(); got == 0 {
		t.Fatal("quel.stats.rebuilds counter never incremented")
	}

	// Enough churn triggers a lazy rebuild without a checkpoint.
	tx = db.Begin()
	for i := 0; i < 600; i++ {
		if _, err := tx.Insert("NOTE", value.Tuple{value.Str("y"), value.Int(50)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st4, _ := rel.Stats("ix_pitch")
	if st4.Rows != 1210 {
		t.Fatalf("lazy rebuild did not fire: Rows = %d, want 1210", st4.Rows)
	}
}

func TestDropIndex(t *testing.T) {
	dir := t.TempDir()
	db := statsTestDB(t, dir)
	fillNotes(t, db, 100)

	if err := db.DropIndex("NOTE", "nope"); err == nil || !strings.Contains(err.Error(), "no index") {
		t.Fatalf("drop missing index: %v", err)
	}
	if err := db.DropIndex("NOPE", "ix_pitch"); err == nil || !strings.Contains(err.Error(), "no relation") {
		t.Fatalf("drop on missing relation: %v", err)
	}
	if err := db.DropIndex("NOTE", "ix_pitch"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Relation("NOTE").Stats("ix_pitch"); ok {
		t.Fatal("stats still served for dropped index")
	}
	// Mutations after the drop must not touch the dead index.
	tx := db.Begin()
	if _, err := tx.Insert("NOTE", value.Tuple{value.Str("z"), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The drop is durable: reopen replays RecDropIndex over the
	// pre-drop checkpoint state.
	db.Close()
	db2 := statsTestDB(t, dir)
	rel := db2.Relation("NOTE")
	if rel == nil {
		t.Fatal("NOTE missing after reopen")
	}
	for _, spec := range rel.Indexes() {
		if spec.Name == "ix_pitch" {
			t.Fatal("dropped index resurrected by recovery")
		}
	}
	if rel.Len() != 101 {
		t.Fatalf("rows after reopen = %d, want 101", rel.Len())
	}
	if err := rel.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}
