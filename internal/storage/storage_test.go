package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

func memDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func noteSchema() *value.Schema {
	return value.NewSchema(
		value.Field{Name: "name", Kind: value.KindInt},
		value.Field{Name: "pitch", Kind: value.KindInt},
		value.Field{Name: "label", Kind: value.KindString},
	)
}

func TestCreateRelation(t *testing.T) {
	db := memDB(t)
	r, err := db.CreateRelation("NOTE", noteSchema())
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "NOTE" || r.Schema().Len() != 3 {
		t.Fatal("relation shape")
	}
	if _, err := db.CreateRelation("NOTE", noteSchema()); err == nil {
		t.Fatal("duplicate relation should fail")
	}
	if db.Relation("NOTE") == nil || db.Relation("NOPE") != nil {
		t.Fatal("lookup")
	}
	if len(db.Relations()) != 1 {
		t.Fatal("Relations()")
	}
	if err := db.DropRelation("NOTE"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("NOTE"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	tx := db.Begin()
	id, err := tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("c4")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Get("NOTE", id)
	if err != nil || got[1].AsInt() != 60 {
		t.Fatalf("get: %v %v", got, err)
	}
	if err := tx.Update("NOTE", id, value.Tuple{value.Int(1), value.Int(62), value.Str("d4")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.UpdateField("NOTE", id, "pitch", value.Int(64)); err != nil {
		t.Fatal(err)
	}
	got, _ = tx.Get("NOTE", id)
	if got[1].AsInt() != 64 || got[2].AsString() != "d4" {
		t.Fatalf("after updates: %v", got)
	}
	if err := tx.Delete("NOTE", id); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("NOTE", id); err == nil {
		t.Fatal("get after delete")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxValidation(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Insert("NOTE", value.Tuple{value.Int(1)}); err == nil {
		t.Fatal("arity violation accepted")
	}
	if _, err := tx.Insert("NOTE", value.Tuple{value.Str("x"), value.Int(1), value.Str("y")}); err == nil {
		t.Fatal("kind violation accepted")
	}
	if _, err := tx.Insert("NOPE", value.Tuple{}); err == nil {
		t.Fatal("missing relation accepted")
	}
	if err := tx.Delete("NOTE", 99); err == nil {
		t.Fatal("delete missing row accepted")
	}
	if err := tx.Update("NOTE", 99, value.Tuple{value.Int(1), value.Int(2), value.Str("z")}); err == nil {
		t.Fatal("update missing row accepted")
	}
	if err := tx.UpdateField("NOTE", 1, "nope", value.Int(1)); err == nil {
		t.Fatal("missing field accepted")
	}
}

func TestTxDone(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatal("double commit")
	}
	if _, err := tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(2), value.Str("x")}); !errors.Is(err, ErrTxDone) {
		t.Fatal("insert after commit")
	}
	tx.Abort() // no-op, must not panic
}

func TestAbortRollsBack(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	// Committed baseline row.
	var keep RowID
	db.Run(func(tx *Tx) error {
		var err error
		keep, err = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("keep")})
		return err
	})

	tx := db.Begin()
	tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(61), value.Str("drop")})
	tx.UpdateField("NOTE", keep, "pitch", value.Int(99))
	tx.Delete("NOTE", keep)
	tx.Abort()

	tx2 := db.Begin()
	defer tx2.Abort()
	got, err := tx2.Get("NOTE", keep)
	if err != nil {
		t.Fatal("baseline row lost after abort")
	}
	if got[1].AsInt() != 60 {
		t.Fatalf("update not rolled back: %v", got)
	}
	count := 0
	tx2.Scan("NOTE", nil, func(id RowID, _ value.Tuple) bool { count++; return true })
	if count != 1 {
		t.Fatalf("abort left %d rows, want 1", count)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	db.Run(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(50 + i)), value.Str("n")})
		}
		return nil
	})
	var ids []RowID
	db.Run(func(tx *Tx) error {
		return tx.Scan("NOTE", nil, func(id RowID, _ value.Tuple) bool {
			ids = append(ids, id)
			return len(ids) < 5
		})
	})
	if len(ids) != 5 {
		t.Fatalf("early stop: %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("scan not in rowid order")
		}
	}
}

func TestUniqueIndex(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_name", Columns: []string{"name"}}); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "bad", Columns: []string{"nope"}}); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if err := db.CreateIndex("NOPE", IndexSpec{Name: "x", Columns: []string{"name"}}); err == nil {
		t.Fatal("index on missing relation accepted")
	}
	err := db.Run(func(tx *Tx) error {
		if _, err := tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("a")}); err != nil {
			return err
		}
		_, err := tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(61), value.Str("b")})
		return err
	})
	if err == nil {
		t.Fatal("unique violation accepted")
	}
	// The failed Run aborted; nothing should remain.
	db.Run(func(tx *Tx) error {
		count := 0
		tx.Scan("NOTE", nil, func(RowID, value.Tuple) bool { count++; return true })
		if count != 0 {
			t.Errorf("rows after aborted run: %d", count)
		}
		return nil
	})
}

func TestUniqueIndexUpdateConflictRestoresOld(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	db.CreateIndex("NOTE", IndexSpec{Name: "by_name", Columns: []string{"name"}, Unique: true})
	var id1, id2 RowID
	db.Run(func(tx *Tx) error {
		id1, _ = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("a")})
		id2, _ = tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(61), value.Str("b")})
		return nil
	})
	tx := db.Begin()
	err := tx.Update("NOTE", id2, value.Tuple{value.Int(1), value.Int(61), value.Str("b")})
	if err == nil {
		t.Fatal("update creating duplicate key accepted")
	}
	// Old index entry must be restored: lookup by name=2 still finds id2.
	found := 0
	prefixScan(tx, "NOTE", "by_name", value.Tuple{value.Int(2)}, func(id RowID, _ value.Tuple) bool {
		if id != id2 {
			t.Errorf("wrong row %d", id)
		}
		found++
		return true
	})
	if found != 1 {
		t.Fatalf("index entry lost after failed update: %d", found)
	}
	tx.Commit()
	_ = id1
}

func TestIndexScanRangeAndPrefix(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}})
	db.Run(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(i % 12)), value.Str("n")})
		}
		return nil
	})
	db.Run(func(tx *Tx) error {
		// Prefix scan: pitch == 5 should find ~8-9 rows.
		count := 0
		prefixScan(tx, "NOTE", "by_pitch", value.Tuple{value.Int(5)}, func(_ RowID, tp value.Tuple) bool {
			if tp[1].AsInt() != 5 {
				t.Errorf("wrong pitch %d", tp[1].AsInt())
			}
			count++
			return true
		})
		if count != 8 {
			t.Errorf("prefix scan count = %d want 8", count)
		}
		// Range scan over [3, 6): pitches 3,4,5 in sorted order.
		lo := value.AppendKey(nil, value.Int(3))
		hi := value.AppendKey(nil, value.Int(6))
		last := int64(-1)
		n := 0
		tx.IndexRange("NOTE", "by_pitch", lo, hi, false, func(_ RowID, tp value.Tuple) bool {
			p := tp[1].AsInt()
			if p < 3 || p >= 6 || p < last {
				t.Errorf("range scan out of order or range: %d", p)
			}
			last = p
			n++
			return true
		})
		if n != 25 { // pitch 3 occurs 9 times (i=3..99), pitches 4,5 occur 8 times each
			t.Errorf("range count = %d", n)
		}
		if err := tx.IndexRange("NOTE", "nope", nil, nil, false, nil); err == nil {
			t.Error("missing index accepted")
		}
		return nil
	})
}

func TestIndexBackfill(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	db.Run(func(tx *Tx) error {
		for i := 0; i < 50; i++ {
			tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(i)), value.Str("n")})
		}
		return nil
	})
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	count := 0
	db.Run(func(tx *Tx) error {
		return tx.IndexRange("NOTE", "by_pitch", nil, nil, false, func(RowID, value.Tuple) bool { count++; return true })
	})
	if count != 50 {
		t.Fatalf("backfilled index sees %d rows", count)
	}
}

func TestConcurrentTransfers(t *testing.T) {
	// Classic isolation check: concurrent balance transfers preserve the
	// total.  Uses two relations to create lock-ordering conflicts.
	db := memDB(t)
	acct := value.NewSchema(value.Field{Name: "balance", Kind: value.KindInt})
	db.CreateRelation("A", acct)
	db.CreateRelation("B", acct)
	var aID, bID RowID
	db.Run(func(tx *Tx) error {
		aID, _ = tx.Insert("A", value.Tuple{value.Int(1000)})
		bID, _ = tx.Insert("B", value.Tuple{value.Int(1000)})
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src, dst, sid, did := "A", "B", aID, bID
				if (w+i)%2 == 0 {
					src, dst, sid, did = "B", "A", bID, aID
				}
				err := db.Run(func(tx *Tx) error {
					s, err := tx.Get(src, sid)
					if err != nil {
						return err
					}
					if err := tx.UpdateField(src, sid, "balance", value.Int(s[0].AsInt()-1)); err != nil {
						return err
					}
					d, err := tx.Get(dst, did)
					if err != nil {
						return err
					}
					return tx.UpdateField(dst, did, "balance", value.Int(d[0].AsInt()+1))
				})
				if err != nil {
					// Deadlock retries exhausted is acceptable; any
					// other error is a bug.
					t.Logf("transfer error: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	db.Run(func(tx *Tx) error {
		a, _ := tx.Get("A", aID)
		b, _ := tx.Get("B", bID)
		if a[0].AsInt()+b[0].AsInt() != 2000 {
			t.Errorf("total corrupted: %d + %d", a[0].AsInt(), b[0].AsInt())
		}
		return nil
	})
}

func TestRunRetriesAndPropagates(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	sentinel := errors.New("boom")
	if err := db.Run(func(tx *Tx) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatal("Run should propagate non-deadlock errors")
	}
	calls := 0
	db.Run(func(tx *Tx) error { calls++; return nil })
	if calls != 1 {
		t.Fatal("Run should not retry success")
	}
}

func TestSeq(t *testing.T) {
	db := memDB(t)
	if db.NextSeq("surrogate") != 1 || db.NextSeq("surrogate") != 2 {
		t.Fatal("sequence")
	}
	if db.NextSeq("other") != 1 {
		t.Fatal("sequences independent")
	}
	db.BumpSeq("surrogate", 100)
	if db.NextSeq("surrogate") != 101 {
		t.Fatal("bump")
	}
	db.BumpSeq("surrogate", 5) // no-op
	if db.NextSeq("surrogate") != 102 {
		t.Fatal("bump should not lower")
	}
}

func fullState(t *testing.T, db *DB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, name := range db.Relations() {
		var rows []string
		err := db.Run(func(tx *Tx) error {
			return tx.Scan(name, nil, func(id RowID, tp value.Tuple) bool {
				rows = append(rows, fmt.Sprintf("%d:%s", id, tp))
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}})
	db.Run(func(tx *Tx) error {
		for i := 0; i < 20; i++ {
			tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(int64(60 + i)), value.Str("n")})
		}
		return nil
	})
	db.NextSeq("surrogate")
	db.NextSeq("surrogate")
	want := fullState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := fullState(t, db2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("state differs after reopen:\n got %v\nwant %v", got, want)
	}
	if db2.NextSeq("surrogate") != 3 {
		t.Fatal("sequence not durable")
	}
	// Index survived: range scan works.
	count := 0
	db2.Run(func(tx *Tx) error {
		return tx.IndexRange("NOTE", "by_pitch", nil, nil, false, func(RowID, value.Tuple) bool { count++; return true })
	})
	if count != 20 {
		t.Fatalf("index after reopen: %d", count)
	}
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	// Simulate a crash: sync the WAL but never checkpoint or Close.
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	// Checkpoint so the relation definition is in the snapshot.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Tx) error {
		tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("committed")})
		return nil
	})
	// An uncommitted transaction in the log must not be replayed.
	tx := db.Begin()
	tx.Insert("NOTE", value.Tuple{value.Int(2), value.Int(61), value.Str("uncommitted")})
	db.Sync()
	// Crash: drop the DB without Close.

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var labels []string
	db2.Run(func(tx *Tx) error {
		return tx.Scan("NOTE", nil, func(_ RowID, tp value.Tuple) bool {
			labels = append(labels, tp[2].AsString())
			return true
		})
	})
	if len(labels) != 1 || labels[0] != "committed" {
		t.Fatalf("recovered rows: %v", labels)
	}
}

func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CheckpointBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	for i := 0; i < 200; i++ {
		db.Run(func(tx *Tx) error {
			_, err := tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(60), value.Str("xxxxxxxxxxxxxxxx")})
			return err
		})
	}
	// The log must have been truncated by automatic checkpoints.
	if sz := dbLogSize(db); sz > 64*1024 {
		t.Fatalf("log grew unbounded: %d bytes", sz)
	}
	db.Close()
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	count := 0
	db2.Run(func(tx *Tx) error {
		return tx.Scan("NOTE", nil, func(RowID, value.Tuple) bool { count++; return true })
	})
	if count != 200 {
		t.Fatalf("rows after checkpointed reopen: %d", count)
	}
}

func dbLogSize(db *DB) int64 {
	if db.log == nil {
		return 0
	}
	return db.log.Size()
}

func TestNoWALMode(t *testing.T) {
	db, err := Open(Options{NoWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	if err := db.Run(func(tx *Tx) error {
		_, err := tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(2), value.Str("x")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoDirtyReads: 2PL prevents a reader from observing uncommitted
// writes — the reader blocks until the writer finishes, then sees the
// committed state (§2's "standard" concurrency duty).
func TestNoDirtyReads(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	var id RowID
	db.Run(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("NOTE", value.Tuple{value.Int(1), value.Int(60), value.Str("clean")})
		return err
	})
	writer := db.Begin()
	if err := writer.UpdateField("NOTE", id, "label", value.Str("dirty")); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		reader := db.Begin()
		defer reader.Abort()
		tup, err := reader.Get("NOTE", id)
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		got <- tup[2].AsString()
	}()
	select {
	case v := <-got:
		t.Fatalf("reader returned %q while writer uncommitted", v)
	case <-time.After(50 * time.Millisecond):
		// Correct: reader is blocked on the lock.
	}
	writer.Abort() // roll back the dirty write
	select {
	case v := <-got:
		if v != "clean" {
			t.Fatalf("reader saw %q after abort", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader never unblocked")
	}
}

// prefixScan visits the rows whose key in the named index starts with
// the encoding of vals (a leading-column equality lookup): the range
// from that prefix to past any row-id suffix.
func prefixScan(tx *Tx, rel, ix string, vals value.Tuple, fn func(RowID, value.Tuple) bool) error {
	lo := value.AppendKeyTuple(nil, vals)
	hi := append(append([]byte(nil), lo...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	return tx.IndexRange(rel, ix, lo, hi, false, fn)
}
