package quel

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/fault/torture"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestReadStmtCanceled: a retrieve under a canceled context pins no
// snapshot and runs nothing; its error matches both txn.ErrCanceled and
// context.Canceled.
func TestReadStmtCanceled(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	mustExec(t, s, `range of n is NOTE`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.ExecCtx(ctx, `retrieve (n.pitch)`)
	if res != nil || !errors.Is(err, txn.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("res %v, err %v; want txn.ErrCanceled wrapping context.Canceled", res, err)
	}
}

// commitsOf runs src and returns how far it moved storage.txn.commit.
func commitsOf(t *testing.T, db *model.Database, s *Session, src string) (uint64, *Result) {
	t.Helper()
	c := db.Store().Obs().Counter("storage.txn.commit")
	before := c.Value()
	res := mustExec(t, s, src)
	return c.Value() - before, res
}

// TestStatementCommitsOnce: a k-row replace, a k-row delete of ordered
// children (detached and deleted with their relationship instances) and
// an append each commit exactly one storage transaction.
func TestStatementCommitsOnce(t *testing.T) {
	db, s := newSession(t)
	chord, notes := setupChords(t, db)
	if _, err := db.DefineRelationship("SAME", []model.Role{
		{Name: "a", EntityType: "NOTE"}, {Name: "b", EntityType: "NOTE"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("SAME", map[string]value.Ref{"a": notes[0], "b": notes[1]}, nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `range of n is NOTE`)

	if n, res := commitsOf(t, db, s, `replace n (pitch = n.pitch + 12) where n.pitch >= 0`); n != 1 || res.Affected != len(notes) {
		t.Fatalf("replace of %d rows: %d commits, %d affected; want 1 commit", len(notes), n, res.Affected)
	}
	if n, res := commitsOf(t, db, s, `append to NOTE (name = 9, pitch = 1)`); n != 1 || res.Affected != 1 {
		t.Fatalf("append: %d commits, %d affected; want 1 commit", n, res.Affected)
	}
	if n, res := commitsOf(t, db, s, `delete n where n.pitch > 12`); n != 1 || res.Affected != len(notes) {
		t.Fatalf("delete of %d ordered children: %d commits, %d affected; want 1 commit", len(notes), n, res.Affected)
	}
	if kids, err := db.Children("note_in_chord", chord); err != nil || len(kids) != 0 {
		t.Fatalf("children after delete: %v %v", kids, err)
	}
	if insts, err := db.Related("SAME", "a", notes[0]); err != nil || len(insts) != 0 {
		t.Fatalf("relationship after delete: %v %v", insts, err)
	}
	if got := db.Count("NOTE"); got != 1 {
		t.Fatalf("%d notes left, want the appended one", got)
	}
}

// TestStatementFailsWhole: a replace whose last row fails leaves every
// row as it was.
func TestStatementFailsWhole(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	mustExec(t, s, `range of n is NOTE`)
	if _, err := s.Exec(`replace n (pitch = 100 / (5 - n.name)) where n.name >= 1`); err == nil {
		t.Fatal("division by zero on the fifth row: no error")
	}
	res := mustExec(t, s, `retrieve (n.pitch) where n.pitch >= 100`)
	if len(res.Rows) != 0 {
		t.Fatalf("%d rows changed by a failed statement", len(res.Rows))
	}
}

// TestTortureStatementReplace crashes the process at every WAL write
// and sync while 50-row replace statements run, and requires every
// recovery to hold all 50 rows at one generation: the last acknowledged
// one, or the next if its commit reached the log.  A replace that
// committed row by row would leave a mixed generation behind.
func TestTortureStatementReplace(t *testing.T) {
	const rows = 50
	dir := t.TempDir()
	r := torture.New(t)
	open := func() (*model.Database, error) {
		store, err := storage.Open(storage.Options{Dir: dir, SyncCommits: true, FS: r.FS})
		if err != nil {
			return nil, err
		}
		db, err := model.Open(store)
		if err != nil {
			store.Close()
		}
		return db, err
	}
	db, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineEntity("ROW", value.Field{Name: "gen", Kind: value.KindInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewEntities("ROW", rows, func(int) model.Attrs { return model.Attrs{"gen": value.Int(0)} }); err != nil {
		t.Fatal(err)
	}
	if err := db.Store().Close(); err != nil {
		t.Fatal(err)
	}

	acked := int64(0)
	points := []string{
		fault.Point(fault.OpWrite, filepath.Join(dir, storage.WALFileName)),
		fault.Point(fault.OpSync, filepath.Join(dir, storage.WALFileName)),
	}
	maxNth := 12
	if testing.Short() {
		maxNth = 6
	}
	for _, point := range points {
		for nth := 1; nth <= maxNth; nth++ {
			crashed, err := r.CrashCycle(point, nth, func() error {
				db, err := open()
				if err != nil {
					return err
				}
				defer db.Store().Close()
				s := NewSession(db)
				for i := 0; i < 4; i++ {
					if _, err := s.Exec(`range of r is ROW replace r (gen = r.gen + 1)`); err != nil {
						return err
					}
					acked++
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s hit %d: workload failed: %v", point, nth, err)
			}
			if !crashed {
				break
			}
			db, err := open()
			if err != nil {
				t.Fatalf("%s hit %d: reopen: %v", point, nth, err)
			}
			gens := map[int64]int{}
			if err := db.Instances("ROW", func(_ value.Ref, attrs value.Tuple) bool {
				gens[attrs[0].AsInt()]++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			db.Store().Close()
			if len(gens) != 1 {
				t.Fatalf("%s hit %d: rows at mixed generations %v", point, nth, gens)
			}
			for gen, n := range gens {
				if n != rows || (gen != acked && gen != acked+1) {
					t.Fatalf("%s hit %d: %d rows at generation %d, acknowledged %d", point, nth, n, gen, acked)
				}
				acked = gen
			}
		}
	}
	if r.Cycles < 2*3 {
		t.Fatalf("only %d crash cycles", r.Cycles)
	}
	t.Log(fmt.Sprintf("%d crash cycles, final generation %d", r.Cycles, acked))
}

// TestConcurrentOrderedDeletesNoDeadlock: deletes of two child types of
// one ordering, each qualified through that ordering, run concurrently.
// Each statement takes its target and the ordering X before its
// qualification reads the ordering, so neither upgrades S to X and they
// wait for each other instead of deadlocking.
func TestConcurrentOrderedDeletesNoDeadlock(t *testing.T) {
	db, _ := newSession(t)
	if _, err := NewSession(db).Exec(`
define entity SCORE (name = integer)
define entity NOTE (name = integer)
define entity REST (name = integer)
define ordering item_in_score (NOTE, REST) under SCORE
`); err != nil {
		t.Fatal(err)
	}
	// Each score holds NOTE 2i, REST 2i, NOTE 2i+1, REST 2i+1.  A
	// statement deletes, for `per` scores, the NOTE (or REST) before the
	// one named 2i+1: one ordering probe per score, so both statements
	// spend most of their time reading the ordering.
	const scores, per = 400, 50
	for i := 0; i < scores; i++ {
		sc, err := db.NewEntity("SCORE", model.Attrs{"name": value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			for _, typ := range []string{"NOTE", "REST"} {
				ref, err := db.NewEntity(typ, model.Attrs{"name": value.Int(int64(2*i + k))})
				if err != nil {
					t.Fatal(err)
				}
				if err := db.InsertChild("item_in_score", sc, ref, model.Last()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	deadlocks := db.Store().Obs().Counter("txn.deadlock")
	start := make(chan struct{})
	errs := make(chan error, 2)
	for _, typ := range []string{"NOTE", "REST"} {
		s := NewSession(db)
		mustExec(t, s, fmt.Sprintf("range of a, b is %s", typ))
		go func() {
			<-start
			for lo := 0; lo < 2*scores; lo += 2 * per {
				res, err := s.Exec(fmt.Sprintf(`delete a where a before b in item_in_score and b.name >= %d and b.name < %d`, lo, lo+2*per))
				if err == nil && res.Affected != per {
					err = fmt.Errorf("delete from %d: %d rows, want %d", lo, res.Affected, per)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	close(start)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := deadlocks.Value(); n != 0 {
		t.Fatalf("%d deadlock victims, want 0", n)
	}
	if db.Count("NOTE") != scores || db.Count("REST") != scores {
		t.Fatalf("left %d notes and %d rests, want %d each", db.Count("NOTE"), db.Count("REST"), scores)
	}
}

// TestQualifiedDeleteRacesDeleteEntity: a QUEL delete of notes whose
// qualification reads CHORD races DeleteEntity of childless chords.
// DeleteEntity X-locks CHORD and then note_in_chord; the statement takes
// CHORD S before it X-locks note_in_chord (entity relations before
// orderings), so the two wait for each other instead of deadlocking.
func TestQualifiedDeleteRacesDeleteEntity(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`
define entity CHORD (name = integer, tag = integer)
define entity NOTE (name = integer, chord = integer)
define ordering note_in_chord (NOTE) under CHORD
`); err != nil {
		t.Fatal(err)
	}
	const kept, notes, spares, per = 20, 2000, 400, 50
	var chords, spare []value.Ref
	for i := 0; i < kept+spares; i++ {
		tag := int64(1)
		if i >= kept {
			tag = 0
		}
		ref, err := db.NewEntity("CHORD", model.Attrs{"name": value.Int(int64(i)), "tag": value.Int(tag)})
		if err != nil {
			t.Fatal(err)
		}
		if i < kept {
			chords = append(chords, ref)
		} else {
			spare = append(spare, ref)
		}
	}
	for i := 0; i < notes; i++ {
		ref, err := db.NewEntity("NOTE", model.Attrs{"name": value.Int(int64(i)), "chord": value.Int(int64(i % kept))})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := db.InsertChild("note_in_chord", chords[i%kept], ref, model.Last()); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustExec(t, s, "range of n is NOTE")
	mustExec(t, s, "range of c is CHORD")
	deadlocks := db.Store().Obs().Counter("txn.deadlock")
	start := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		<-start
		for lo := 0; lo < notes; lo += per {
			res, err := s.Exec(fmt.Sprintf(`delete n where n.chord = c.name and c.tag = 1 and n.name >= %d and n.name < %d`, lo, lo+per))
			if err == nil && res.Affected != per {
				err = fmt.Errorf("delete from %d: %d rows, want %d", lo, res.Affected, per)
			}
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		<-start
		for _, ref := range spare {
			if err := db.DeleteEntity(ref); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	close(start)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := deadlocks.Value(); n != 0 {
		t.Fatalf("%d deadlock victims, want 0", n)
	}
	if db.Count("NOTE") != 0 || db.Count("CHORD") != kept {
		t.Fatalf("left %d notes and %d chords, want 0 and %d", db.Count("NOTE"), db.Count("CHORD"), kept)
	}
}
