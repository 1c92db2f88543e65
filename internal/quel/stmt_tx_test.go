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
