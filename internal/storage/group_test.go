package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/value"
)

// holdFlush arms the commit pipeline's group.pre-fsync failpoint to
// hold the next flush round, after its append and before its fsync,
// until release is called.  The round's leader keeps the baton while
// held, so every commit made meanwhile queues behind it.  held waits
// until the leader is there.
func holdFlush(reg *fault.Registry) (held, release func()) {
	point := fault.Point(fault.OpLogic, "group.pre-fsync")
	base := reg.Hits(point)
	ch := make(chan struct{})
	reg.Arm(point, 1, fault.Outcome{Block: ch})
	held = func() {
		for reg.Hits(point) == base {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return held, func() { close(ch) }
}

func mustCreate(t *testing.T, db *DB, name string) {
	t.Helper()
	schema := value.NewSchema(
		value.Field{Name: "seq", Kind: value.KindInt},
		value.Field{Name: "part", Kind: value.KindInt},
	)
	if _, err := db.CreateRelation(name, schema); err != nil {
		t.Fatal(err)
	}
}

func insertSeq(db *DB, rel string, seq, part int64) error {
	return db.Run(func(tx *Tx) error {
		_, err := tx.Insert(rel, value.Tuple{value.Int(seq), value.Int(part)})
		return err
	})
}

func seqSet(t *testing.T, db *DB, rel string) map[int64]int {
	t.Helper()
	out := map[int64]int{}
	if err := db.Run(func(tx *Tx) error {
		return tx.Scan(rel, nil, func(_ RowID, rowRow value.Row) bool {
			row := rowRow.Tuple()
			out[row[0].AsInt()]++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConcurrentCommitsShareFlushes drives concurrent writers on
// disjoint relations through the group-commit pipeline and checks that
// every commit survives a reopen and that flush rounds actually batch.
func TestConcurrentCommitsShareFlushes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, txns = 8, 6
	for w := 0; w < writers; w++ {
		mustCreate(t, db, fmt.Sprintf("R%d", w))
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rel := fmt.Sprintf("R%d", w)
			for i := 1; i <= txns; i++ {
				if err := insertSeq(db, rel, int64(i), 0); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	var batches, groupTxns uint64
	for _, m := range db.Obs().Snapshot() {
		switch m.Name {
		case "wal.group.batches":
			batches = m.Value
		case "wal.group.txns":
			groupTxns = m.Value
		}
	}
	if groupTxns < writers*txns {
		t.Fatalf("wal.group.txns = %d, want >= %d", groupTxns, writers*txns)
	}
	if batches == 0 || batches > groupTxns {
		t.Fatalf("wal.group.batches = %d (txns %d)", batches, groupTxns)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		got := seqSet(t, db2, fmt.Sprintf("R%d", w))
		if len(got) != txns {
			t.Fatalf("writer %d: %d rows survived, want %d", w, len(got), txns)
		}
	}
}

// TestSyncDrainsCommitQueue pins the satellite fix: db.Sync must drain
// the commit queue before it fsyncs, so every commit acknowledged
// before Sync returns is durable — proven by a simulated crash
// immediately after Sync.  The commit's flush is held before its fsync,
// so Sync queues behind it and may not return until it lands.
func TestSyncDrainsCommitQueue(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	inj := fault.NewInjector(fault.Disk{}, reg)
	opts := Options{
		Dir:         dir,
		FS:          inj,
		GroupCommit: true,
		// No SyncCommits: commits complete as soon as they are in the
		// log buffer, so ONLY Sync's drain makes them durable.
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, db, "R")

	held, release := holdFlush(reg)
	committed := make(chan error, 1)
	go func() { committed <- insertSeq(db, "R", 1, 0) }()
	held()
	synced := make(chan error, 1)
	go func() { synced <- db.Sync() }()
	select {
	case err := <-synced:
		t.Fatalf("Sync returned (%v) while a commit ahead of it was still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}

	// Crash: dirty pages die, fsynced bytes survive.
	inj.Crash()
	if err := inj.Recover(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := seqSet(t, db2, "R"); got[1] != 1 {
		t.Fatalf("commit drained by Sync did not survive the crash: %v", got)
	}
}

// TestCheckpointDrainsCommitQueue pins the checkpoint half of the
// satellite fix: a checkpoint taken while commits are in flight must
// wait them out (quiesce) and drain the queue, so the snapshot plus
// reset log covers every acknowledged commit — again proven by an
// immediate crash.  Commits are buffered (no SyncCommits), so one a
// writer sees acknowledged only after Checkpoint returned may be lost;
// each acknowledgement is timestamped and only the earlier ones are
// checked.  A writer stamps its acknowledgement after the committer
// gave it, so a commit the checkpoint's own post-install flush
// acknowledged may go unchecked here; wal's
// TestExclusiveSyncsWhatItAcknowledges pins that flush's fsync.
func TestCheckpointDrainsCommitQueue(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	inj := fault.NewInjector(fault.Disk{}, reg)
	db, err := Open(Options{Dir: dir, FS: inj, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, db, "R")

	// The first writer's flush is held before its fsync, so the
	// checkpoint starts with commits still in the pipeline.
	held, release := holdFlush(reg)
	const writers = 3
	var wg sync.WaitGroup
	errs := make([]error, writers)
	acks := make([]time.Time, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = insertSeq(db, "R", int64(w+1), 0)
			acks[w] = time.Now()
		}(w)
		if w == 0 {
			held()
		}
	}
	var returned time.Time
	ckpt := make(chan error, 1)
	go func() {
		err := db.Checkpoint()
		returned = time.Now()
		ckpt <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the other writers and the checkpoint reach their waits
	release()
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	// Any commit acknowledged before the checkpoint returned is in the
	// snapshot or the post-reset log; the crash must lose none of them.
	acked := seqSet(t, db, "R")
	for w, at := range acks {
		if !at.Before(returned) {
			delete(acked, int64(w+1))
		}
	}

	inj.Crash()
	if err := inj.Recover(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := seqSet(t, db2, "R")
	for seq := range acked {
		if got[seq] != acked[seq] {
			t.Fatalf("row %d lost across checkpoint+crash: before=%v after=%v", seq, acked, got)
		}
	}
	if rel := db2.Relation("R"); rel != nil {
		if err := rel.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointExcludesUncommitted: a checkpoint racing an open write
// transaction must not capture its uncommitted rows.  The fuzzy
// checkpoint does not quiesce writers — it completes concurrently with
// the open transaction, scanning through the MVCC snapshot, which must
// exclude the uncommitted insert.
func TestCheckpointExcludesUncommitted(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, db, "R")
	if err := insertSeq(db, "R", 1, 0); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.Insert("R", value.Tuple{value.Int(99), value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint must complete while the writer still holds its
	// exclusive lock — writers never stall it, and it never stalls them.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint under an open write transaction: %v", err)
	}
	tx.Abort()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := seqSet(t, db2, "R")
	if got[99] != 0 {
		t.Fatal("uncommitted row leaked into the checkpoint image")
	}
	if got[1] != 1 {
		t.Fatal("committed row missing from the checkpoint image")
	}
}
