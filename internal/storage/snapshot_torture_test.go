package storage

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/fault/torture"
	"repro/internal/value"
)

// snapTortureRows is the fixed row count of the snapshot torture
// relation.  Every committed transaction rewrites all of them to one
// version number, so "every visible row carries the same version" is
// exactly transaction atomicity as seen by a snapshot.
const snapTortureRows = 4

// TestSnapshotTortureCrashRecovery drives the MVCC read path through
// crash-recovery cycles at every durability-relevant failpoint.  Each
// simulated lifetime rewrites all rows to successive version numbers in
// single transactions while snapshots pinned before, during, and after
// the writes assert they only ever observe whole commits; after each
// crash the reopened store must serve fresh snapshots that agree
// exactly with the locking read path (the version store is reseeded
// from the recovered heap), including over the secondary index, and
// vacuum must run clean.  Uncommitted work, torn multi-row states, and
// stale post-crash version chains would all surface here.
func TestSnapshotTortureCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	r := torture.New(t)

	wal := filepath.Join(dir, "mdm.wal")
	segTmp := filepath.Join(dir, "mdm.seg.S.tmp")
	manTmp := filepath.Join(dir, "mdm.manifest.tmp")
	points := []string{
		fault.Point(fault.OpWrite, wal),
		fault.Point(fault.OpSync, wal),
		fault.Point(fault.OpTruncate, wal),
		fault.Point(fault.OpWrite, segTmp),
		fault.Point(fault.OpRename, segTmp),
		fault.Point(fault.OpWrite, manTmp),
		fault.Point(fault.OpRename, manTmp),
		fault.Point(fault.OpSyncDir, dir),
		fault.Point(fault.OpRead, wal),
		"logic:ckpt.post-manifest",
	}

	maxNth := 10
	if testing.Short() {
		maxNth = 3
	}

	cycle := 0
	for _, point := range points {
		for nth := 1; nth <= maxNth; nth++ {
			cycle++
			crashed, err := r.CrashCycle(point, nth, func() error {
				return snapTortureLifetime(dir, r.FS, int64(cycle))
			})
			if err != nil {
				t.Fatalf("point %s nth %d: workload failed: %v", point, nth, err)
			}
			if !crashed {
				break
			}
			snapTortureVerify(t, dir, r.FS, point, nth)
		}
	}

	t.Logf("snapshot torture: %d crash-recovery cycles across %d failpoints", r.Cycles, len(r.CrashesAt))
	minCycles := 30
	if testing.Short() {
		minCycles = 10
	}
	if r.Cycles < minCycles {
		t.Fatalf("only %d crash-recovery cycles, want >= %d", r.Cycles, minCycles)
	}
}

// snapTortureCheck asserts snapshot s sees a whole commit: exactly
// snapTortureRows rows, all carrying one version.  want < 0 accepts any
// single version and returns it.
func snapTortureCheck(s *Snap, want int64) (int64, error) {
	versions := map[int64]int{}
	if err := s.Scan("S", nil, func(_ RowID, tu value.Tuple) bool {
		versions[tu[0].AsInt()]++
		return true
	}); err != nil {
		return 0, err
	}
	if len(versions) != 1 {
		return 0, fmt.Errorf("snapshot at CSN %d sees torn state: %v", s.CSN(), versions)
	}
	for v, n := range versions {
		if n != snapTortureRows {
			return 0, fmt.Errorf("snapshot at CSN %d sees %d rows of version %d", s.CSN(), n, v)
		}
		if want >= 0 && v != want {
			return 0, fmt.Errorf("snapshot at CSN %d sees version %d, want %d", s.CSN(), v, want)
		}
		return v, nil
	}
	return 0, fmt.Errorf("snapshot at CSN %d sees no rows", s.CSN())
}

// snapTortureSetup seeds the fixed rows on first use.  Seeding is one
// transaction, so across crashes the relation has either zero rows or
// all of them.
func snapTortureSetup(db *DB) error {
	rel := db.Relation("S")
	if rel == nil {
		if _, err := db.CreateRelation("S", value.NewSchema(
			value.Field{Name: "v", Kind: value.KindInt},
			value.Field{Name: "slot", Kind: value.KindInt},
		)); err != nil {
			return err
		}
		if err := db.CreateIndex("S", IndexSpec{Name: "S_v", Columns: []string{"v"}}); err != nil {
			return err
		}
		rel = db.Relation("S")
	} else if rel.findIndex("S_v") == nil {
		// A torn log tail can lose the index record but keep the
		// relation; recreate it.
		if err := db.CreateIndex("S", IndexSpec{Name: "S_v", Columns: []string{"v"}}); err != nil {
			return err
		}
	}
	if rel.Len() == snapTortureRows {
		return nil
	}
	if rel.Len() != 0 {
		return fmt.Errorf("seed relation has %d rows, want 0 or %d", rel.Len(), snapTortureRows)
	}
	tx := db.Begin()
	for i := 0; i < snapTortureRows; i++ {
		if _, err := tx.Insert("S", value.Tuple{value.Int(0), value.Int(int64(i))}); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// snapTortureLifetime is one simulated process lifetime, cut short at
// any point by an armed crash.
func snapTortureLifetime(dir string, fs fault.FS, seed int64) error {
	db, err := Open(Options{Dir: dir, SyncCommits: true, FS: fs})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	if err := snapTortureSetup(db); err != nil {
		return err
	}

	ctx := context.Background()
	// A fresh snapshot right after recovery must agree with the locking
	// read path: the version store was reseeded from the recovered heap.
	base, err := db.BeginSnapshot(ctx)
	if err != nil {
		return err
	}
	baseV, err := snapTortureCheck(base, -1)
	if err != nil {
		base.Close()
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	v := baseV
	for i := 0; i < 20; i++ {
		v++
		tx := db.Begin()
		werr := func() error {
			var ids []RowID
			if err := tx.Scan("S", nil, func(id RowID, _ value.Tuple) bool {
				ids = append(ids, id)
				return true
			}); err != nil {
				return err
			}
			for slot, id := range ids {
				if err := tx.Update("S", id, value.Tuple{value.Int(v), value.Int(int64(slot))}); err != nil {
					return err
				}
			}
			return nil
		}()
		if werr != nil {
			tx.Abort()
			return werr
		}
		if rng.Intn(4) == 0 { // aborted rewrites must stay invisible
			tx.Abort()
			v--
		} else if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit v%d: %w", v, err)
		}

		// The lifetime-old snapshot still sees its pinned version, and a
		// fresh one sees exactly the last commit.
		if _, err := snapTortureCheck(base, baseV); err != nil {
			base.Close()
			return err
		}
		cur, err := db.BeginSnapshot(ctx)
		if err != nil {
			base.Close()
			return err
		}
		_, cerr := snapTortureCheck(cur, v)
		cur.Close()
		if cerr != nil {
			base.Close()
			return cerr
		}

		if i%7 == 6 {
			db.Vacuum()
			if err := db.Checkpoint(); err != nil {
				base.Close()
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	base.Close()
	return db.Close()
}

// snapTortureVerify reopens after a crash and checks the MVCC read path
// against the locking one: fresh snapshots serve exactly the recovered
// heap, over the heap scan and the secondary index alike, and a vacuum
// pass leaves single-version chains with empty history.
func snapTortureVerify(t *testing.T, dir string, fs fault.FS, point string, nth int) {
	t.Helper()
	db, err := Open(Options{Dir: dir, SyncCommits: true, FS: fs})
	if err != nil {
		t.Fatalf("reopen after crash at %s (hit %d): %v", point, nth, err)
	}
	defer db.Close()

	rel := db.Relation("S")
	if rel == nil {
		return // crashed before the schema became durable
	}
	locked := map[RowID]string{}
	tx := db.Begin()
	if err := tx.Scan("S", nil, func(id RowID, tu value.Tuple) bool {
		locked[id] = encTuple(tu)
		return true
	}); err != nil {
		t.Fatalf("after crash at %s (hit %d): scan: %v", point, nth, err)
	}
	tx.Abort()

	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snapped := map[RowID]string{}
	if err := s.Scan("S", nil, func(id RowID, tu value.Tuple) bool {
		snapped[id] = encTuple(tu)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(locked, snapped) {
		t.Fatalf("after crash at %s (hit %d): snapshot scan (%d rows) disagrees with locking scan (%d rows)",
			point, nth, len(snapped), len(locked))
	}
	if len(locked) > 0 {
		if _, err := snapTortureCheck(s, -1); err != nil {
			t.Fatalf("after crash at %s (hit %d): %v", point, nth, err)
		}
	}
	if rel.findIndex("S_v") != nil {
		viaIndex := map[RowID]string{}
		if err := s.IndexRange("S", "S_v", nil, nil, false, func(id RowID, tu value.Tuple) bool {
			viaIndex[id] = encTuple(tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(locked, viaIndex) {
			t.Fatalf("after crash at %s (hit %d): snapshot index scan (%d rows) disagrees with heap (%d rows)",
				point, nth, len(viaIndex), len(locked))
		}
	}
	db.Vacuum()
	if chains, old, hist := rel.VersionStats(); old != 0 || hist != 0 {
		t.Fatalf("after crash at %s (hit %d): vacuum left chains=%d old=%d hist=%d with no snapshot open before this one",
			point, nth, chains, old, hist)
	}
}
