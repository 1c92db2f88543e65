package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/value"
)

// ckptCounter reads one storage.ckpt.* counter from the db's registry.
func ckptCounter(t *testing.T, db *DB, name string) uint64 {
	t.Helper()
	m, ok := db.Obs().Get(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return m.Value
}

func mustExist(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("%s should exist: %v", filepath.Base(path), err)
	}
}

func mustNotExist(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s should not exist (err %v)", filepath.Base(path), err)
	}
}

// TestSegmentedCheckpointRoundtrip pins the checkpoint format: a
// manifest plus per-relation segment files, and a reopen that restores relations, rows, indexes, and sequences from
// them.
func TestSegmentedCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B"} {
		if _, err := db.CreateRelation(name, value.NewSchema(
			value.Field{Name: "k", Kind: value.KindInt},
			value.Field{Name: "s", Kind: value.KindString},
		)); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex(name, IndexSpec{Name: name + "_k", Columns: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(func(tx *Tx) error {
			for i := 0; i < 10; i++ {
				if _, err := tx.Insert(name, value.Tuple{value.Int(int64(i)), value.Str(name)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		lastSeq = db.NextSeq("s")
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExist(t, filepath.Join(dir, ManifestFileName))
	mustExist(t, filepath.Join(dir, SegmentFileName("A")))
	mustExist(t, filepath.Join(dir, SegmentFileName("B")))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, name := range []string{"A", "B"} {
		rel := db2.Relation(name)
		if rel == nil {
			t.Fatalf("relation %s lost across reopen", name)
		}
		if rel.Len() != 10 {
			t.Fatalf("relation %s: %d rows after reopen, want 10", name, rel.Len())
		}
		if rel.findIndex(name+"_k") == nil {
			t.Fatalf("relation %s lost its index across reopen", name)
		}
		if err := rel.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db2.NextSeq("s"); got <= lastSeq {
		t.Fatalf("sequence regressed across reopen: %d, want > %d", got, lastSeq)
	}
}

// TestIncrementalCheckpointSkipsCleanRelations pins the incremental
// contract: a checkpoint after dirtying one of many relations rewrites
// exactly that relation's segment and reuses every other, with the
// skip visible in both the counters and the bytes written.
func TestIncrementalCheckpointSkipsCleanRelations(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const nRel = 20
	for i := 0; i < nRel; i++ {
		name := fmt.Sprintf("R%02d", i)
		if _, err := db.CreateRelation(name, value.NewSchema(
			value.Field{Name: "v", Kind: value.KindString},
		)); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(func(tx *Tx) error {
			for j := 0; j < 50; j++ {
				if _, err := tx.Insert(name, value.Tuple{value.Str(strings.Repeat("x", 100))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	written0 := ckptCounter(t, db, "storage.ckpt.segments.written")
	bytes0 := ckptCounter(t, db, "storage.ckpt.bytes")
	if written0 != nRel {
		t.Fatalf("first checkpoint wrote %d segments, want %d", written0, nRel)
	}

	// Dirty exactly one relation, then checkpoint again.
	if err := db.Run(func(tx *Tx) error {
		_, err := tx.Insert("R07", value.Tuple{value.Str("dirty")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	written := ckptCounter(t, db, "storage.ckpt.segments.written") - written0
	skipped := ckptCounter(t, db, "storage.ckpt.segments.skipped")
	bytes := ckptCounter(t, db, "storage.ckpt.bytes") - bytes0
	if written != 1 {
		t.Fatalf("incremental checkpoint wrote %d segments, want 1", written)
	}
	if skipped != nRel-1 {
		t.Fatalf("incremental checkpoint skipped %d segments, want %d", skipped, nRel-1)
	}
	if bytes*4 > bytes0 {
		t.Fatalf("incremental checkpoint wrote %d bytes, want far less than the full %d", bytes, bytes0)
	}

	// A fully clean checkpoint rewrites nothing and keeps the store
	// consistent on reopen.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if w := ckptCounter(t, db, "storage.ckpt.segments.written") - written0 - written; w != 0 {
		t.Fatalf("clean checkpoint rewrote %d segments, want 0", w)
	}
}

// TestOrphanLegacySnapshotFailsClosed pins the retirement of the
// monolithic image format: a directory holding mdm.snapshot and no
// manifest must not open — empty would mean logging over a store the
// engine can no longer read — while the same stale file beside a
// manifest (a crash state of the old one-way migration) is ignored.
func TestOrphanLegacySnapshotFailsClosed(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, retiredSnapshotFileName)
	if err := os.WriteFile(legacy, []byte("MDMSNAP1\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Dir: dir}, {Dir: dir, NoWAL: true}, {Dir: dir, Replica: true}} {
		db, err := Open(opts)
		if err == nil {
			db.Close()
			t.Fatalf("Open(%+v) succeeded over an orphan legacy snapshot", opts)
		}
		if !strings.Contains(err.Error(), retiredSnapshotFileName) || !strings.Contains(err.Error(), ManifestFileName) {
			t.Fatalf("error does not name the files involved: %v", err)
		}
		mustNotExist(t, filepath.Join(dir, WALFileName))
	}

	// With a manifest beside it the stale file is inert.
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("M", value.NewSchema(value.Field{Name: "v", Kind: value.KindInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mustExist(t, filepath.Join(dir, ManifestFileName))
	if err := os.WriteFile(legacy, []byte("MDMSNAP1\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("stale legacy snapshot beside a manifest blocked open: %v", err)
	}
	defer db2.Close()
	if db2.Relation("M") == nil {
		t.Fatal("manifest image not loaded")
	}
}

// TestDroppedRelationSegmentGC pins segment garbage collection: dropping
// a relation removes its segment file at the next checkpoint and the
// manifest stops naming it.
func TestDroppedRelationSegmentGC(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"KEEP", "DROP"} {
		if _, err := db.CreateRelation(name, value.NewSchema(value.Field{Name: "v", Kind: value.KindInt})); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(func(tx *Tx) error {
			_, err := tx.Insert(name, value.Tuple{value.Int(1)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExist(t, filepath.Join(dir, SegmentFileName("KEEP")))
	mustExist(t, filepath.Join(dir, SegmentFileName("DROP")))

	if err := db.DropRelation("DROP"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExist(t, filepath.Join(dir, SegmentFileName("KEEP")))
	mustNotExist(t, filepath.Join(dir, SegmentFileName("DROP")))

	man, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := ManifestSegments(man)
	if err != nil {
		t.Fatalf("manifest unreadable: %v", err)
	}
	if len(segs) != 1 || segs[0] != SegmentFileName("KEEP") {
		t.Fatalf("manifest names %v, want just KEEP's segment", segs)
	}
}

// TestSegmentFileNameSanitization pins the relation-name encoding: every
// name maps inside the database directory, the mapping is stable and
// injective for names differing in escaped bytes, and plain identifiers
// stay readable.
func TestSegmentFileNameSanitization(t *testing.T) {
	if got := SegmentFileName("Scores"); got != "mdm.seg.Scores" {
		t.Fatalf("plain name mangled: %q", got)
	}
	hostile := []string{"a/b", "a\\b", "..", "a b", "a%2Fb", "a\x00b", "über"}
	seen := map[string]string{}
	for _, name := range hostile {
		f := SegmentFileName(name)
		// The fixed prefix keeps the result a plain file name: never "."
		// or "..", never a path.
		if filepath.Base(f) != f || strings.ContainsAny(f, "/\\\x00") || !strings.HasPrefix(f, "mdm.seg.") {
			t.Fatalf("SegmentFileName(%q) = %q escapes the directory", name, f)
		}
		if prev, dup := seen[f]; dup {
			t.Fatalf("SegmentFileName collision: %q and %q both map to %q", prev, name, f)
		}
		seen[f] = name
		if again := SegmentFileName(name); again != f {
			t.Fatalf("SegmentFileName(%q) unstable: %q vs %q", name, f, again)
		}
	}
}

// TestBackgroundCheckpointNeverBlocksCommits is the regression test for
// the tentpole: a checkpoint stalled mid-segment-write (a slow disk,
// injected via a blocking failpoint) must not stall commits.  The log
// crosses CheckpointBytes, the background checkpointer starts and hangs
// on the armed write, and the workload keeps committing; releasing the
// block lets the checkpoint finish with the store healthy.
func TestBackgroundCheckpointNeverBlocksCommits(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	db, err := Open(Options{
		Dir:             dir,
		SyncCommits:     true,
		CheckpointBytes: 16 << 10,
		FS:              fault.NewInjector(fault.Disk{}, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("R", value.NewSchema(value.Field{Name: "v", Kind: value.KindString})); err != nil {
		t.Fatal(err)
	}

	blk := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(blk)
		}
	}
	defer release()
	point := fault.Point(fault.OpWrite, SegmentFileName("R")+".tmp")
	reg.Arm(point, 1, fault.Outcome{Block: blk})

	insert := func() error {
		return db.Run(func(tx *Tx) error {
			_, err := tx.Insert("R", value.Tuple{value.Str(strings.Repeat("x", 4096))})
			return err
		})
	}

	// Commit until the log trigger fires the background checkpoint and it
	// parks on the blocked segment write.
	rows := 0
	for reg.Fired(point) == 0 {
		if rows > 200 {
			t.Fatalf("background checkpoint never reached the segment write (auto=%d)",
				ckptCounter(t, db, "storage.ckpt.auto"))
		}
		if err := insert(); err != nil {
			t.Fatal(err)
		}
		rows++
	}

	// The checkpoint is now wedged in its fuzzy copy phase.  Commits must
	// flow: this is the whole point of the fuzzy design.
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := insert(); err != nil {
			t.Fatalf("commit %d stalled behind a blocked checkpoint: %v", i, err)
		}
		rows++
	}
	elapsed := time.Since(start)
	if !db.ckptBusy.Load() {
		t.Fatal("checkpoint finished while its segment write is blocked")
	}
	if got := ckptCounter(t, db, "storage.ckpt.segments.written"); got != 0 {
		t.Fatalf("blocked checkpoint reports %d segments written", got)
	}
	t.Logf("20 commits in %v while the checkpoint was blocked", elapsed)

	release()
	db.ckptWG.Wait()
	if cause := db.ReadOnlyCause(); cause != nil {
		t.Fatalf("store degraded after released checkpoint: %v", cause)
	}
	if got := ckptCounter(t, db, "storage.ckpt.auto"); got == 0 {
		t.Fatal("storage.ckpt.auto never incremented")
	}
	if err := insert(); err != nil {
		t.Fatal(err)
	}
	rows++
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rel := db2.Relation("R"); rel == nil || rel.Len() != rows {
		t.Fatalf("reopen sees %d rows, want %d", db2.Relation("R").Len(), rows)
	}
}

// TestBackgroundCheckpointFailureDegrades pins the failure policy for
// automatic checkpoints: with no caller to hand the error to, a failed
// background checkpoint degrades the store to read-only rather than
// silently retrying against a sick disk.
func TestBackgroundCheckpointFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	db, err := Open(Options{
		Dir:             dir,
		SyncCommits:     true,
		CheckpointBytes: 16 << 10,
		FS:              fault.NewInjector(fault.Disk{}, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("R", value.NewSchema(value.Field{Name: "v", Kind: value.KindString})); err != nil {
		t.Fatal(err)
	}
	point := fault.Point(fault.OpWrite, SegmentFileName("R")+".tmp")
	reg.Arm(point, 1, fault.Outcome{})

	for i := 0; i < 200 && !db.ReadOnly(); i++ {
		err := db.Run(func(tx *Tx) error {
			_, err := tx.Insert("R", value.Tuple{value.Str(strings.Repeat("x", 4096))})
			return err
		})
		db.ckptWG.Wait() // let any background attempt finish
		if err != nil && !db.ReadOnly() {
			t.Fatal(err)
		}
	}
	cause := db.ReadOnlyCause()
	if cause == nil {
		t.Fatal("store not degraded after background checkpoint failure")
	}
	if !strings.Contains(cause.Error(), "automatic checkpoint") {
		t.Fatalf("degrade cause does not name the automatic checkpoint: %v", cause)
	}
	if got := ckptCounter(t, db, "storage.ckpt.auto"); got == 0 {
		t.Fatal("storage.ckpt.auto never incremented")
	}
	db.Close() // reports the degradation; nothing more to assert
}
