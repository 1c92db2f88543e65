package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/fault/torture"
	"repro/internal/value"
)

// groupTortureWriters is the concurrency of the group-commit torture
// workload: enough writers that flush rounds regularly carry several
// batches, so crashes land mid-batch, between wakeups, and with work
// still queued behind the leader.
const groupTortureWriters = 4

// TestGroupCommitTortureCrashRecovery sweeps crashes across the
// group-commit failure seams — inside the flush between the batched
// write and the fsync, mid-batch during waiter wakeup, and on the WAL's
// physical write and fsync — while concurrent writers commit through a
// shared flush leader.  After every crash the database is reopened and
// the invariants checked:
//
//  1. every transaction whose Commit returned success is present
//     (SyncCommits: acknowledged ⇒ durable, even when the fsync was
//     shared with other batches in the round);
//  2. transactions are atomic: each writes two rows, and recovery never
//     surfaces one without the other;
//  3. aborted transactions never resurface (aborts log nothing);
//  4. the only unacknowledged transaction that may surface is the one
//     in flight at the crash — the recovered state is a prefix of each
//     writer's commit order;
//  5. secondary indexes agree with the heap.
func TestGroupCommitTortureCrashRecovery(t *testing.T) {
	maxNth := 8
	if testing.Short() {
		maxNth = 3
	}
	type seam struct {
		op     string
		detail string
	}
	seams := []seam{
		{fault.OpLogic, "group.pre-fsync"},
		{fault.OpLogic, "group.wakeup"},
		{fault.OpWrite, "mdm.wal"},
		{fault.OpSync, "mdm.wal"},
	}

	crashes := 0
	crashedSeams := map[string]bool{}
	cycle := 0
	for _, s := range seams {
		for nth := 1; nth <= maxNth; nth++ {
			cycle++
			dir := t.TempDir()
			r := torture.New(t)
			point := fault.Point(s.op, s.detail)

			// Set up the schema in an unarmed lifetime so the armed one
			// crashes inside the concurrent commit traffic, not the DDL.
			setupGroupTorture(t, dir, r.FS)

			acked := make([][]int64, groupTortureWriters)
			attempted := make([]int64, groupTortureWriters)
			crashed, err := r.CrashCycle(point, nth, func() error {
				return groupTortureLifetime(dir, r.FS, point, nth, acked, attempted)
			})
			if err != nil {
				t.Fatalf("seam %s nth %d: workload failed: %v", point, nth, err)
			}
			groupTortureVerify(t, dir, r.FS, acked, attempted, point, nth)
			if !crashed {
				break // the workload no longer reaches this hit count
			}
			crashes++
			crashedSeams[point] = true
		}
	}

	t.Logf("group torture: %d crashes across %d cycles", crashes, cycle)
	minCrashes := 12
	if testing.Short() {
		minCrashes = 6
	}
	if crashes < minCrashes {
		t.Fatalf("only %d crash cycles, want >= %d", crashes, minCrashes)
	}
	for _, s := range seams {
		if s.op == fault.OpLogic && !crashedSeams[fault.Point(s.op, s.detail)] {
			t.Fatalf("logic seam %s never crashed — failpoint not wired?", s.detail)
		}
	}
}

func setupGroupTorture(t *testing.T, dir string, fs *fault.Injector) {
	t.Helper()
	db, err := Open(Options{Dir: dir, FS: fs, SyncCommits: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < groupTortureWriters; w++ {
		mustCreate(t, db, fmt.Sprintf("R%d", w))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// groupTortureLifetime is one armed process lifetime: reopen, run
// concurrent writers on disjoint relations, close.  The first flush
// round is held until every writer has reached its first commit, so
// the rounds after it carry several batches.  Each writer records its
// acknowledged commits; the crash panic surfaces in whichever writer
// was flush leader and is re-raised for the torture runner after all
// writers have stopped.
func groupTortureLifetime(dir string, fs *fault.Injector, point string, nth int, acked [][]int64, attempted []int64) error {
	db, err := Open(Options{Dir: dir, FS: fs, SyncCommits: true, GroupCommit: true})
	if err != nil {
		return err
	}
	release := holdFirstRound(fs.Registry(), point, nth)
	defer release()
	var ready sync.WaitGroup // writers that reached their first commit
	ready.Add(groupTortureWriters)
	go func() { ready.Wait(); release() }()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		crashVal any
		firstErr error
	)
	for w := 0; w < groupTortureWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var reached sync.Once
			defer reached.Do(ready.Done)
			defer func() {
				if v := recover(); v != nil {
					if _, ok := fault.AsCrash(v); !ok {
						panic(v)
					}
					mu.Lock()
					crashVal = v
					mu.Unlock()
				}
			}()
			rel := fmt.Sprintf("R%d", w)
			for seq := int64(1); seq <= 12; seq++ {
				tx := db.Begin()
				for part := int64(0); part < 2; part++ {
					if _, err := tx.Insert(rel, value.Tuple{value.Int(seq), value.Int(part)}); err != nil {
						tx.Abort()
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("writer %d insert %d: %w", w, seq, err)
						}
						mu.Unlock()
						return
					}
				}
				if seq%5 == 0 {
					tx.Abort() // aborted work must never resurface
					continue
				}
				attempted[w] = seq
				reached.Do(ready.Done)
				if err := tx.Commit(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("writer %d commit %d: %w", w, seq, err)
					}
					mu.Unlock()
					return
				}
				acked[w] = append(acked[w], seq)
			}
		}(w)
	}
	wg.Wait()

	if crashVal != nil {
		panic(crashVal) // hand the crash to the torture runner
	}
	if fs.Crashed() {
		// The crash fired outside the writers (e.g. a background
		// checkpoint path); surface it the same way.
		panic(fault.CrashError{Point: "torture:outside-writers"})
	}
	if firstErr != nil {
		return firstErr
	}
	return db.Close()
}

// holdFirstRound holds the next flush round at group.pre-fsync until
// release is called, so commits made meanwhile queue behind its
// leader.  When the cycle's crash is armed on that point at hit nth,
// the hold takes the first hit and hands the crash on to the hits
// after it.  release also disarms a hold that never fired.
func holdFirstRound(reg *fault.Registry, point string, nth int) (release func()) {
	pre := fault.Point(fault.OpLogic, "group.pre-fsync")
	ch := make(chan struct{})
	reg.Arm(pre, 1, fault.Outcome{Block: ch, Crash: point == pre && nth == 1})
	var once sync.Once
	return func() {
		once.Do(func() {
			switch {
			case point != pre:
				reg.Disarm(pre)
			case nth > 1:
				reg.Arm(pre, nth-1, fault.Outcome{Crash: true})
			}
			close(ch)
		})
	}
}

// groupTortureVerify reopens after recovery and checks the invariants
// documented on the test.
func groupTortureVerify(t *testing.T, dir string, fs *fault.Injector, acked [][]int64, attempted []int64, point string, nth int) {
	t.Helper()
	db, err := Open(Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatalf("seam %s nth %d: reopen after recovery: %v", point, nth, err)
	}
	defer db.Close()
	for w := 0; w < groupTortureWriters; w++ {
		rel := fmt.Sprintf("R%d", w)
		got := seqSet(t, db, rel)
		for seq, n := range got {
			if n != 2 {
				t.Fatalf("seam %s nth %d: writer %d txn %d recovered %d/2 rows (torn transaction)", point, nth, w, seq, n)
			}
			if seq%5 == 0 {
				t.Fatalf("seam %s nth %d: writer %d aborted txn %d resurfaced", point, nth, w, seq)
			}
		}
		ackedSet := map[int64]bool{}
		for _, seq := range acked[w] {
			ackedSet[seq] = true
			if got[seq] != 2 {
				t.Fatalf("seam %s nth %d: writer %d acknowledged txn %d lost (have %v)", point, nth, w, seq, got)
			}
		}
		for seq := range got {
			if !ackedSet[seq] && seq != attempted[w] {
				t.Fatalf("seam %s nth %d: writer %d txn %d surfaced but was neither acknowledged nor in flight", point, nth, w, seq)
			}
		}
		if rel := db.Relation(rel); rel != nil {
			if err := rel.CheckIndexes(); err != nil {
				t.Fatalf("seam %s nth %d: writer %d: %v", point, nth, w, err)
			}
		}
	}
}
