package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/fault/torture"
	"repro/internal/value"
)

// tortureState is the model-based oracle for the crash workload.  The
// workload is single-threaded, so at any crash instant the database is
// in one of three logical states:
//
//	building    — a transaction is (maybe) in flight; its effects are
//	              uncommitted, so recovery must yield committed.
//	committing  — Commit has been called for pending; the COMMIT record
//	              may or may not have reached stable storage, so recovery
//	              may yield either committed or pending.
//
// Checkpointing never changes the logical row set, so it needs no phase
// of its own.
type tortureState struct {
	committed map[RowID]string // durably committed rows (encoded tuples)
	pending   map[RowID]string // rows as of the in-flight commit
	phase     string           // "building" | "committing"

	maxSeq   uint64 // highest sequence value ever handed out
	seqFloor uint64 // sequence value at the last completed checkpoint
}

func encTuple(t value.Tuple) string { return string(value.AppendTuple(nil, t)) }

func cloneModel(m map[RowID]string) map[RowID]string {
	c := make(map[RowID]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// TestTortureCrashRecovery sweeps a randomized workload across every
// durability-relevant failpoint, crashing the simulated process at the
// 1st, 2nd, ... nth hit of each, reopening after crash-loss semantics
// are applied, and asserting the recovery invariants:
//
//  1. every transaction whose Commit returned success is present
//     (SyncCommits means success ⇒ durable);
//  2. no uncommitted or aborted work resurfaces;
//  3. a commit interrupted mid-fsync lands on exactly one side of the
//     ambiguity (all-or-nothing, never a partial transaction);
//  4. secondary indexes agree exactly with the heap;
//  5. the persistent sequence never falls behind its value at the last
//     completed checkpoint.
func TestTortureCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	r := torture.New(t)
	st := &tortureState{
		committed: make(map[RowID]string),
		phase:     "building",
	}

	wal := filepath.Join(dir, "mdm.wal")
	segTmp := filepath.Join(dir, "mdm.seg.T.tmp")
	seg := filepath.Join(dir, "mdm.seg.T")
	manTmp := filepath.Join(dir, "mdm.manifest.tmp")
	man := filepath.Join(dir, "mdm.manifest")
	points := []string{
		fault.Point(fault.OpWrite, wal),    // log flush (append / commit / sync)
		fault.Point(fault.OpSync, wal),     // commit & checkpoint fsync
		fault.Point(fault.OpTruncate, wal), // checkpoint log reset
		fault.Point(fault.OpCreate, segTmp),
		fault.Point(fault.OpWrite, segTmp),
		fault.Point(fault.OpSync, segTmp),
		fault.Point(fault.OpRename, segTmp), // segment install
		fault.Point(fault.OpCreate, manTmp),
		fault.Point(fault.OpWrite, manTmp),
		fault.Point(fault.OpRename, manTmp), // manifest install
		fault.Point(fault.OpSyncDir, dir),   // rename / truncate durability
		fault.Point(fault.OpRead, wal),      // recovery replay
		fault.Point(fault.OpReadFile, man),  // manifest load
		fault.Point(fault.OpReadFile, seg),  // segment load
		"logic:ckpt.segment",                // between segment writes
		"logic:ckpt.pre-manifest",           // segments durable, manifest not yet written
		"logic:ckpt.post-manifest",          // manifest durable, log not yet reset
	}

	maxNth := 14
	if testing.Short() {
		maxNth = 3
	}

	cycle := 0
	for _, point := range points {
		for nth := 1; nth <= maxNth; nth++ {
			cycle++
			seed := int64(cycle)
			crashed, err := r.CrashCycle(point, nth, func() error {
				return tortureLifetime(dir, r.FS, st, seed)
			})
			if err != nil {
				t.Fatalf("point %s nth %d: workload failed: %v", point, nth, err)
			}
			if !crashed {
				break // workload no longer reaches this hit count
			}
			tortureVerify(t, dir, r.FS, st, point, nth)
		}
	}

	t.Logf("torture: %d crash-recovery cycles across %d failpoints", r.Cycles, len(r.CrashesAt))
	minCycles, minPoints := 50, 8
	if testing.Short() {
		minCycles, minPoints = 15, 5
	}
	if r.Cycles < minCycles {
		t.Fatalf("only %d crash-recovery cycles, want >= %d", r.Cycles, minCycles)
	}
	if len(r.CrashesAt) < minPoints {
		t.Fatalf("only %d distinct failpoints crashed, want >= %d: %v", len(r.CrashesAt), minPoints, r.CrashesAt)
	}
}

// tortureLifetime is one simulated process lifetime: open (recovering),
// run a randomized transaction mix with periodic checkpoints, close.
// It may be cut short at any point by an armed crash.
func tortureLifetime(dir string, fs fault.FS, st *tortureState, seed int64) error {
	st.phase = "building"
	db, err := Open(Options{Dir: dir, SyncCommits: true, FS: fs})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	if err := tortureSetup(db, st); err != nil {
		return err
	}
	db.BumpSeq("t", st.maxSeq)

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 25; i++ {
		if s := db.NextSeq("t"); s > st.maxSeq {
			st.maxSeq = s
		}
		pending := cloneModel(st.committed)
		tx := db.Begin()
		nops := 1 + rng.Intn(3)
		for j := 0; j < nops; j++ {
			if err := tortureOp(tx, rng, pending); err != nil {
				tx.Abort()
				return err
			}
		}
		if rng.Intn(5) == 0 { // ~20% aborts: must never resurface
			tx.Abort()
			continue
		}
		st.pending = pending
		st.phase = "committing"
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		st.committed = pending
		st.phase = "building"

		if i%8 == 7 {
			if err := db.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			st.seqFloor = st.maxSeq
		}
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	st.seqFloor = st.maxSeq // Close checkpoints
	return nil
}

// tortureSetup creates the relation and index on first use.  DDL is
// idempotent across crashes: if committed rows exist, the creation
// record is necessarily durable (it precedes them in the log), so a
// missing relation is only legal while the model is still empty.
func tortureSetup(db *DB, st *tortureState) error {
	if rel := db.Relation("T"); rel != nil {
		// A torn log tail can keep the relation record but lose the
		// index record (prefix durability splits them); recreate it.
		if rel.findIndex("T_k") == nil {
			return db.CreateIndex("T", IndexSpec{Name: "T_k", Columns: []string{"k"}})
		}
		return nil
	}
	if len(st.committed) > 0 {
		return fmt.Errorf("relation T lost but %d committed rows expected", len(st.committed))
	}
	if _, err := db.CreateRelation("T", value.NewSchema(
		value.Field{Name: "k", Kind: value.KindInt},
		value.Field{Name: "s", Kind: value.KindString},
	)); err != nil {
		return err
	}
	return db.CreateIndex("T", IndexSpec{Name: "T_k", Columns: []string{"k"}})
}

// tortureOp applies one random mutation through tx and mirrors it in the
// model.
func tortureOp(tx *Tx, rng *rand.Rand, model map[RowID]string) error {
	roll := rng.Intn(10)
	switch {
	case roll < 5 || len(model) == 0: // insert
		t := value.Tuple{value.Int(int64(rng.Intn(100))), value.Str(fmt.Sprintf("row-%d", rng.Int63()))}
		id, err := tx.Insert("T", t)
		if err != nil {
			return err
		}
		model[id] = encTuple(t)
	case roll < 8: // update
		id := pickRow(rng, model)
		t := value.Tuple{value.Int(int64(rng.Intn(100))), value.Str(fmt.Sprintf("upd-%d", rng.Int63()))}
		if err := tx.Update("T", id, t); err != nil {
			return err
		}
		model[id] = encTuple(t)
	default: // delete
		id := pickRow(rng, model)
		if err := tx.Delete("T", id); err != nil {
			return err
		}
		delete(model, id)
	}
	return nil
}

func pickRow(rng *rand.Rand, model map[RowID]string) RowID {
	ids := make([]RowID, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	// map order is random; sort-free deterministic pick via min-search
	// would bias, so select by index after a stable ordering.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids[rng.Intn(len(ids))]
}

// tortureVerify reopens the database after a crash and checks every
// recovery invariant, then checkpoints so the adopted state becomes the
// durable baseline for the next cycle.
func tortureVerify(t *testing.T, dir string, fs fault.FS, st *tortureState, point string, nth int) {
	t.Helper()
	db, err := Open(Options{Dir: dir, SyncCommits: true, FS: fs})
	if err != nil {
		t.Fatalf("reopen after crash at %s (hit %d): %v", point, nth, err)
	}

	observed := make(map[RowID]string)
	if rel := db.Relation("T"); rel != nil {
		rel.scan(nil, func(id RowID, tu value.Tuple) bool {
			observed[id] = encTuple(tu)
			return true
		})
		if err := rel.CheckIndexes(); err != nil {
			t.Fatalf("after crash at %s (hit %d): %v", point, nth, err)
		}
	}

	switch {
	case modelsEqual(observed, st.committed):
		// The in-flight commit (if any) did not survive; forget it.
	case st.phase == "committing" && modelsEqual(observed, st.pending):
		// The ambiguous commit made it to stable storage before the
		// crash: adopt it.
		st.committed = st.pending
	default:
		t.Fatalf("after crash at %s (hit %d): recovered state matches neither committed (%d rows) nor pending (%d rows): got %d rows, phase %s",
			point, nth, len(st.committed), len(st.pending), len(observed), st.phase)
	}
	st.phase = "building"
	st.pending = nil

	// Sequences must not fall behind the last completed checkpoint.
	if got := db.NextSeq("t"); got <= st.seqFloor {
		t.Fatalf("after crash at %s (hit %d): sequence regressed to %d, floor %d", point, nth, got, st.seqFloor)
	} else if got > st.maxSeq {
		st.maxSeq = got
	}
	db.BumpSeq("t", st.maxSeq)

	if err := db.Close(); err != nil {
		t.Fatalf("close after verify (%s hit %d): %v", point, nth, err)
	}
	st.committed = observed
	st.seqFloor = st.maxSeq
}

func modelsEqual(a, b map[RowID]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
