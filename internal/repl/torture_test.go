package repl

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fault/torture"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The replication torture workload: tortureWriters concurrent writers on
// disjoint relations, each committing two-row transactions (atomicity is
// checked as "both rows or neither") and aborting every fifth (aborted
// work must never surface anywhere in the cluster).
const (
	tortureWriters = 3
	tortureTxns    = 10
)

func tortureShipOpts() Options {
	return Options{SyncShip: true, MaxRetries: 2, RetryBackoff: 50 * time.Microsecond}
}

func tortureRel(w int) string { return fmt.Sprintf("R%d", w) }

func tortureSetupSchema(t *testing.T, db *storage.DB) {
	t.Helper()
	for w := 0; w < tortureWriters; w++ {
		schema := value.NewSchema(
			value.Field{Name: "seq", Kind: value.KindInt},
			value.Field{Name: "part", Kind: value.KindInt},
		)
		if _, err := db.CreateRelation(tortureRel(w), schema); err != nil {
			t.Fatal(err)
		}
	}
}

// tortureWriterLifetime runs the concurrent writers, recording per
// writer which commits were acknowledged and which transaction was in
// flight last.  A simulated crash unwinding through a writer (the
// leader's flush goroutine is always one of them) is caught, held until
// every writer has stopped, and re-raised for the harness.  When
// closeDB is true a clean run ends by closing the database.
func tortureWriterLifetime(db *storage.DB, acked [][]int64, attempted []int64, closeDB bool) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		crashVal any
		firstErr error
	)
	for w := 0; w < tortureWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
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
			rel := tortureRel(w)
			for seq := int64(1); seq <= tortureTxns; seq++ {
				tx := db.Begin()
				failed := false
				for part := int64(0); part < 2; part++ {
					if _, err := tx.Insert(rel, value.Tuple{value.Int(seq), value.Int(part)}); err != nil {
						tx.Abort()
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("writer %d insert %d: %w", w, seq, err)
						}
						mu.Unlock()
						failed = true
						break
					}
				}
				if failed {
					return
				}
				if seq%5 == 0 {
					tx.Abort()
					continue
				}
				attempted[w] = seq
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
		panic(crashVal)
	}
	if firstErr != nil {
		return firstErr
	}
	if closeDB {
		return db.Close()
	}
	return nil
}

// startAtomicityReader watches a replica under load: every snapshot it
// takes must see whole transactions (both rows of a pair) and never an
// aborted one.  This is the "reads never observe an unapplied or torn
// CSN" invariant, checked while batches are being applied concurrently.
func startAtomicityReader(rep *Replica) (stop chan struct{}, result chan error) {
	stop, result = make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(result)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := rep.BeginSnapshot(context.Background())
			if err != nil {
				continue // a lagging or stopping replica refuses; not a violation
			}
			for w := 0; w < tortureWriters; w++ {
				counts := map[int64]int{}
				if err := snap.Scan(tortureRel(w), nil, func(_ storage.RowID, rowRow value.Row) bool {
					row := rowRow.Tuple()
					counts[row[0].AsInt()]++
					return true
				}); err != nil {
					continue // relation may predate the snapshot's catalog
				}
				for seq, n := range counts {
					if n != 2 {
						result <- fmt.Errorf("replica snapshot saw torn txn: writer %d seq %d has %d/2 rows", w, seq, n)
						snap.Close()
						return
					}
					if seq%5 == 0 {
						result <- fmt.Errorf("replica snapshot saw aborted txn: writer %d seq %d", w, seq)
						snap.Close()
						return
					}
				}
			}
			snap.Close()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return stop, result
}

// verifyPromoted checks the post-promotion invariants on a new leader:
// every acknowledged commit present, transactions atomic, aborts
// absent, nothing present that was neither acknowledged nor in flight,
// and indexes consistent with the heap.
func verifyPromoted(t *testing.T, db *storage.DB, acked [][]int64, attempted []int64, label string) {
	t.Helper()
	for w := 0; w < tortureWriters; w++ {
		rel := tortureRel(w)
		got := map[int64]int{}
		if err := db.Run(func(tx *storage.Tx) error {
			return tx.Scan(rel, nil, func(_ storage.RowID, rowRow value.Row) bool {
				row := rowRow.Tuple()
				got[row[0].AsInt()]++
				return true
			})
		}); err != nil {
			t.Fatalf("%s: writer %d scan: %v", label, w, err)
		}
		for seq, n := range got {
			if n != 2 {
				t.Fatalf("%s: writer %d txn %d recovered %d/2 rows (torn)", label, w, seq, n)
			}
			if seq%5 == 0 {
				t.Fatalf("%s: writer %d aborted txn %d resurfaced", label, w, seq)
			}
		}
		ackedSet := map[int64]bool{}
		for _, seq := range acked[w] {
			ackedSet[seq] = true
			if got[seq] != 2 {
				t.Fatalf("%s: writer %d acknowledged txn %d lost", label, w, seq)
			}
		}
		for seq := range got {
			if !ackedSet[seq] && seq != attempted[w] {
				t.Fatalf("%s: writer %d txn %d surfaced but was neither acknowledged nor in flight", label, w, seq)
			}
		}
		if r := db.Relation(rel); r != nil {
			if err := r.CheckIndexes(); err != nil {
				t.Fatalf("%s: writer %d: %v", label, w, err)
			}
		}
	}
}

// leaderCrashCycle crashes the LEADER at one of its commit-pipeline
// seams while it replicates to two healthy replicas, then checks that
// the surviving replicas converged to identical content and that
// promoting one yields a leader holding every acknowledged commit.
func leaderCrashCycle(t *testing.T, point string, nth int) (crashed bool) {
	t.Helper()
	r := torture.New(t)
	reg := obs.NewRegistry()
	base := t.TempDir()
	db, err := storage.Open(storage.Options{
		Dir: filepath.Join(base, "leader"), FS: r.FS,
		SyncCommits: true, GroupCommit: true, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tortureSetupSchema(t, db)
	s, err := NewShipper(db, tortureShipOpts())
	if err != nil {
		t.Fatal(err)
	}
	r1 := attachTorture(t, s, reg, filepath.Join(base, "r1"), nil)
	r2 := attachTorture(t, s, reg, filepath.Join(base, "r2"), nil)

	acked := make([][]int64, tortureWriters)
	attempted := make([]int64, tortureWriters)
	readerStop, readerErr := startAtomicityReader(r2)
	crashed, err = r.CrashCycle(point, nth, func() error {
		return tortureWriterLifetime(db, acked, attempted, true)
	})
	close(readerStop)
	if err != nil {
		t.Fatalf("seam %s nth %d: workload failed: %v", point, nth, err)
	}
	s.Close()
	r1.Stop()
	r2.Stop()
	if rerr, ok := <-readerErr; ok && rerr != nil {
		t.Fatalf("seam %s nth %d: %v", point, nth, rerr)
	}

	// The replicas only ever receive identical durable prefixes, so
	// after draining they must be byte-identical in content.
	if h1, h2 := r1.DB().ContentHash(), r2.DB().ContentHash(); h1 != h2 {
		t.Fatalf("seam %s nth %d: replicas diverged: %s vs %s", point, nth, h1, h2)
	}

	label := fmt.Sprintf("leader crash %s nth %d", point, nth)
	promoted, err := r1.Promote(storage.Options{SyncCommits: true, GroupCommit: true})
	if err != nil {
		t.Fatalf("%s: promote: %v", label, err)
	}
	verifyPromoted(t, promoted, acked, attempted, label)
	if err := promoted.Run(func(tx *storage.Tx) error {
		_, err := tx.Insert(tortureRel(0), value.Tuple{value.Int(1000), value.Int(0)})
		if err != nil {
			return err
		}
		_, err = tx.Insert(tortureRel(0), value.Tuple{value.Int(1000), value.Int(1)})
		return err
	}); err != nil {
		t.Fatalf("%s: promoted leader refused a write: %v", label, err)
	}
	promoted.Close()
	r2.DB().Close()
	return crashed
}

func attachTorture(t *testing.T, s *Shipper, reg *obs.Registry, dir string, fs fault.FS) *Replica {
	t.Helper()
	rep, err := AttachReplica(s, filepath.Base(dir), storage.Options{Dir: dir, FS: fs, Obs: reg}, tortureShipOpts())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// replicaCrashCycle crashes ONE replica mid-apply (at the durable-receipt
// write, its fsync, or the receipt/apply seam) under load.  The leader
// must poison the dead link and keep committing with the survivor; the
// caught-up survivor promotes with every acknowledged commit; the
// crashed replica's own directory must recover to a clean transaction
// prefix and then rejoin by re-bootstrapping from the promoted leader.
func replicaCrashCycle(t *testing.T, point string, nth int) (crashed bool) {
	t.Helper()
	reg := obs.NewRegistry()
	base := t.TempDir()
	db, err := storage.Open(storage.Options{
		Dir:         filepath.Join(base, "leader"),
		SyncCommits: true, GroupCommit: true, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tortureSetupSchema(t, db)
	s, err := NewShipper(db, tortureShipOpts())
	if err != nil {
		t.Fatal(err)
	}
	r1reg := fault.NewRegistry()
	r1fs := fault.NewInjector(fault.Disk{}, r1reg)
	r1dir := filepath.Join(base, "r1")
	r1 := attachTorture(t, s, reg, r1dir, r1fs)
	r2 := attachTorture(t, s, reg, filepath.Join(base, "r2"), nil)

	r1reg.Arm(point, nth, fault.Outcome{Crash: true, Partial: float64(nth%4) * 0.25})
	acked := make([][]int64, tortureWriters)
	attempted := make([]int64, tortureWriters)
	readerStop, readerErr := startAtomicityReader(r2)
	// The leader must stay fully available through the replica's death:
	// every commit in this lifetime is expected to succeed.
	if err := tortureWriterLifetime(db, acked, attempted, false); err != nil {
		t.Fatalf("seam %s nth %d: leader lost availability: %v", point, nth, err)
	}
	close(readerStop)
	crashed = r1reg.Fired(point) > 0

	if crashed {
		// The dead link must be poisoned (degrade to a smaller cluster).
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := s.ReplicaErr(filepath.Base(r1dir)); errors.Is(err, ErrPoisoned) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seam %s nth %d: crashed replica never poisoned", point, nth)
			}
			time.Sleep(time.Millisecond)
		}
		if _, ok := r1.Crashed(); !ok {
			t.Fatalf("seam %s nth %d: apply-loop crash not recorded", point, nth)
		}
		if err := r1fs.Recover(); err != nil {
			t.Fatalf("seam %s nth %d: fs recovery: %v", point, nth, err)
		}
	}

	leaderHash := db.ContentHash()
	if err := db.Close(); err != nil { // old leader retires cleanly
		t.Fatal(err)
	}
	s.Close()
	r1.Stop()
	r2.Stop()
	if rerr, ok := <-readerErr; ok && rerr != nil {
		t.Fatalf("seam %s nth %d: %v", point, nth, rerr)
	}

	label := fmt.Sprintf("replica crash %s nth %d", point, nth)
	if got := r2.DB().ContentHash(); got != leaderHash {
		t.Fatalf("%s: surviving replica diverged from leader", label)
	}

	if crashed {
		// The crashed replica is NOT a legal promotion target (it was
		// dropped and may miss acknowledged commits), but its directory
		// must still recover to a clean prefix: reopening replays its
		// durable receipt log, truncating any write the crash tore.
		r1promoted, err := r1.Promote(storage.Options{FS: r1fs})
		if err != nil {
			t.Fatalf("%s: crashed replica's directory failed recovery: %v", label, err)
		}
		verifyPrefix(t, r1promoted, acked, label)
		if err := r1promoted.Close(); err != nil {
			t.Fatalf("%s: close recovered replica dir: %v", label, err)
		}
	} else {
		if err := r1.DB().Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Promote the caught-up survivor: every acknowledged commit present.
	promoted, err := r2.Promote(storage.Options{SyncCommits: true, GroupCommit: true})
	if err != nil {
		t.Fatalf("%s: promote survivor: %v", label, err)
	}
	verifyPromoted(t, promoted, acked, attempted, label)

	// The crashed replica rejoins by re-bootstrapping its directory from
	// the promoted leader, then must converge with it exactly.
	if crashed {
		s2, err := NewShipper(promoted, tortureShipOpts())
		if err != nil {
			t.Fatal(err)
		}
		r1b := attachTorture(t, s2, obs.NewRegistry(), r1dir, r1fs)
		if err := promoted.Run(func(tx *storage.Tx) error {
			_, err := tx.Insert(tortureRel(0), value.Tuple{value.Int(2000), value.Int(0)})
			if err != nil {
				return err
			}
			_, err = tx.Insert(tortureRel(0), value.Tuple{value.Int(2000), value.Int(1)})
			return err
		}); err != nil {
			t.Fatalf("%s: post-promotion write: %v", label, err)
		}
		if lh, rh := promoted.ContentHash(), r1b.DB().ContentHash(); lh != rh {
			t.Fatalf("%s: re-bootstrapped replica diverged: %s vs %s", label, lh, rh)
		}
		s2.Close()
		r1b.Stop()
		r1b.DB().Close()
	}
	promoted.Close()
	return crashed
}

// verifyPrefix checks the weaker invariant on a recovered-but-dropped
// replica directory: atomic transactions, no aborts, and a state that
// is a prefix of what the leader shipped — i.e. nothing beyond the
// acknowledged set plus at most the transactions in flight when it
// died.  (Acked commits MAY be missing here: the replica was dropped.)
func verifyPrefix(t *testing.T, db *storage.DB, acked [][]int64, label string) {
	t.Helper()
	for w := 0; w < tortureWriters; w++ {
		rel := tortureRel(w)
		got := map[int64]int{}
		if err := db.Run(func(tx *storage.Tx) error {
			return tx.Scan(rel, nil, func(_ storage.RowID, rowRow value.Row) bool {
				row := rowRow.Tuple()
				got[row[0].AsInt()]++
				return true
			})
		}); err != nil {
			t.Fatalf("%s: prefix scan writer %d: %v", label, w, err)
		}
		maxAcked := int64(0)
		for _, seq := range acked[w] {
			if seq > maxAcked {
				maxAcked = seq
			}
		}
		for seq, n := range got {
			if n != 2 {
				t.Fatalf("%s: recovered replica dir has torn txn (writer %d seq %d, %d/2 rows)", label, w, seq, n)
			}
			if seq%5 == 0 {
				t.Fatalf("%s: recovered replica dir surfaced aborted txn (writer %d seq %d)", label, w, seq)
			}
			if seq > maxAcked+1 {
				t.Fatalf("%s: recovered replica dir has txn beyond the shipped prefix (writer %d seq %d, max acked %d)", label, w, seq, maxAcked)
			}
		}
		if r := db.Relation(rel); r != nil {
			if err := r.CheckIndexes(); err != nil {
				t.Fatalf("%s: writer %d: %v", label, w, err)
			}
		}
	}
}

// shipRetryCycle arms the leader-side "repl.ship" failpoint with a
// transient error: the send must be retried (repl.ship.retries grows),
// succeed, and leave every replica converged with no poisoning.
func shipRetryCycle(t *testing.T, nth int) {
	t.Helper()
	reg := obs.NewRegistry()
	freg := fault.NewRegistry()
	fs := fault.NewInjector(fault.Disk{}, freg)
	base := t.TempDir()
	db, err := storage.Open(storage.Options{
		Dir: filepath.Join(base, "leader"), FS: fs,
		SyncCommits: true, GroupCommit: true, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tortureSetupSchema(t, db)
	s, err := NewShipper(db, Options{SyncShip: true, MaxRetries: 3, RetryBackoff: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	r1 := attachTorture(t, s, reg, filepath.Join(base, "r1"), nil)

	freg.Arm(fault.Point(fault.OpLogic, "repl.ship"), nth, fault.Outcome{Err: errors.New("transient link hiccup")})
	acked := make([][]int64, tortureWriters)
	attempted := make([]int64, tortureWriters)
	if err := tortureWriterLifetime(db, acked, attempted, false); err != nil {
		t.Fatalf("ship-retry nth %d: %v", nth, err)
	}
	if freg.Fired(fault.Point(fault.OpLogic, "repl.ship")) == 0 {
		t.Fatalf("ship-retry nth %d: failpoint never fired", nth)
	}
	if err := s.ReplicaErr("r1"); err != nil {
		t.Fatalf("ship-retry nth %d: transient failure must not poison: %v", nth, err)
	}
	leaderHash := db.ContentHash()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r1.Stop()
	if got := r1.DB().ContentHash(); got != leaderHash {
		t.Fatalf("ship-retry nth %d: replica diverged after retried send", nth)
	}
	if m, _ := reg.Get("repl.ship.retries"); m.Value == 0 {
		t.Fatalf("ship-retry nth %d: no retry recorded", nth)
	}
	if m, _ := reg.Get("repl.ship.poisoned"); m.Value != 0 {
		t.Fatalf("ship-retry nth %d: poisoned = %d, want 0", nth, m.Value)
	}
	r1.DB().Close()
}

// TestReplicationTorture sweeps crashes across the replication failure
// seams — the leader's commit pipeline (mid-batch, mid-wakeup, on the
// physical write and fsync), the replica's durable-receipt path (its
// own log write, fsync, and the receipt/apply seam), and the shipping
// link itself — and after every cycle checks the cluster invariants:
// no acknowledged commit lost on the promoted node, surviving replicas
// byte-identical, transactions atomic everywhere, reads never observing
// a torn or unapplied batch, and poisoned links only on terminal
// failures.
func TestReplicationTorture(t *testing.T) {
	leaderNth, replicaNth, retryCycles, minCycles := 6, 4, 4, 32
	if testing.Short() {
		leaderNth, replicaNth, retryCycles, minCycles = 2, 1, 1, 8
	}

	cycles, crashes := 0, 0
	crashedSeams := map[string]bool{}

	leaderSeams := []string{
		fault.Point(fault.OpLogic, "group.pre-fsync"),
		fault.Point(fault.OpLogic, "group.wakeup"),
		fault.Point(fault.OpWrite, "mdm.wal"),
		fault.Point(fault.OpSync, "mdm.wal"),
	}
	for _, point := range leaderSeams {
		for nth := 1; nth <= leaderNth; nth++ {
			cycles++
			if leaderCrashCycle(t, point, nth) {
				crashes++
				crashedSeams["leader:"+point] = true
			} else {
				break
			}
		}
	}

	replicaSeams := []string{
		fault.Point(fault.OpLogic, "repl.apply"),
		fault.Point(fault.OpWrite, storage.WALFileName),
		fault.Point(fault.OpSync, storage.WALFileName),
	}
	for _, point := range replicaSeams {
		for nth := 1; nth <= replicaNth; nth++ {
			cycles++
			if replicaCrashCycle(t, point, nth) {
				crashes++
				crashedSeams["replica:"+point] = true
			} else {
				break
			}
		}
	}

	for i := 0; i < retryCycles; i++ {
		cycles++
		shipRetryCycle(t, 1+i*2)
	}

	// Guarantee the cycle floor even if some seams exhaust early.
	for cycles < minCycles {
		cycles++
		if leaderCrashCycle(t, leaderSeams[cycles%len(leaderSeams)], 1+cycles%3) {
			crashes++
		}
	}

	t.Logf("replication torture: %d crashes across %d cycles", crashes, cycles)
	if cycles < minCycles {
		t.Fatalf("only %d cycles, want >= %d", cycles, minCycles)
	}
	for _, want := range []string{
		"leader:" + fault.Point(fault.OpLogic, "group.pre-fsync"),
		"leader:" + fault.Point(fault.OpLogic, "group.wakeup"),
		"replica:" + fault.Point(fault.OpLogic, "repl.apply"),
	} {
		if !crashedSeams[want] {
			t.Fatalf("seam %s never crashed — failpoint not wired?", want)
		}
	}
}
