package repl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

func testBatch(seq uint64) *Batch {
	return &Batch{
		Seq:       seq,
		LeaderCSN: seq * 3,
		ShippedAt: int64(seq) * 1000,
		Records: []*wal.Record{
			{Type: wal.RecInsert, TxID: seq, Relation: "scores", RowID: 7, New: value.Tuple{value.Int(int64(seq))}},
			{Type: wal.RecCommit, TxID: seq},
		},
	}
}

func sameBatch(a, b *Batch) bool {
	if a.Seq != b.Seq || a.LeaderCSN != b.LeaderCSN || a.ShippedAt != b.ShippedAt || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		x, y := a.Records[i], b.Records[i]
		if x.Type != y.Type || x.TxID != y.TxID || x.Relation != y.Relation || x.RowID != y.RowID || len(x.New) != len(y.New) {
			return false
		}
	}
	return true
}

func TestPipeRoundTrip(t *testing.T) {
	p := NewPipe(1)
	done := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= 3; i++ {
			b, err := p.Recv()
			if err != nil {
				done <- err
				return
			}
			if !sameBatch(b, testBatch(i)) {
				done <- fmt.Errorf("batch %d mangled in transit", i)
				return
			}
			if err := p.Ack(b.Seq); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := uint64(1); i <= 3; i++ {
		if err := p.Send(testBatch(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Send(testBatch(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed pipe: %v", err)
	}
	if _, err := p.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed pipe: %v", err)
	}
}

func openLeader(t *testing.T, reg *obs.Registry) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{
		Dir:         filepath.Join(t.TempDir(), "leader"),
		SyncCommits: true,
		GroupCommit: true,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustCreate(t *testing.T, db *storage.DB, name string) {
	t.Helper()
	schema := value.NewSchema(
		value.Field{Name: "seq", Kind: value.KindInt},
		value.Field{Name: "title", Kind: value.KindString},
	)
	if _, err := db.CreateRelation(name, schema); err != nil {
		t.Fatal(err)
	}
}

func insertSeq(db *storage.DB, rel string, seq int64) error {
	return db.Run(func(tx *storage.Tx) error {
		_, err := tx.Insert(rel, value.Tuple{value.Int(seq), value.Str(fmt.Sprintf("work-%d", seq))})
		return err
	})
}

func snapCount(t *testing.T, rep *Replica, rel string) int {
	t.Helper()
	snap, err := rep.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	n := 0
	if err := snap.Scan(rel, nil, func(_ storage.RowID, _ value.Row) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func attach(t *testing.T, s *Shipper, reg *obs.Registry, name string, ropts Options) *Replica {
	t.Helper()
	rep, err := AttachReplica(s, name, storage.Options{
		Dir: filepath.Join(t.TempDir(), name),
		Obs: reg,
	}, ropts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSyncShipEndToEnd wires a leader to two replicas in SyncShip mode:
// when a commit returns, every live replica has durably received and
// applied it, so the replicas are checked without any waiting.  DDL
// both before the attach (arrives via the bootstrap snapshot) and after
// (arrives via the stream) must land.
func TestSyncShipEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	db := openLeader(t, reg)
	defer db.Close()
	mustCreate(t, db, "scores")
	for i := int64(1); i <= 5; i++ {
		if err := insertSeq(db, "scores", i); err != nil {
			t.Fatal(err)
		}
	}

	s, err := NewShipper(db, Options{SyncShip: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r1 := attach(t, s, reg, "r1", Options{SyncShip: true})
	defer r1.Stop()
	r2 := attach(t, s, reg, "r2", Options{SyncShip: true})
	defer r2.Stop()

	// Pre-attach state arrived via the bootstrap snapshot.
	if n := snapCount(t, r1, "scores"); n != 5 {
		t.Fatalf("r1 bootstrap rows = %d, want 5", n)
	}

	// Streamed writes: data into the old relation, plus mid-stream DDL.
	for i := int64(6); i <= 20; i++ {
		if err := insertSeq(db, "scores", i); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(t, db, "themes")
	if err := insertSeq(db, "themes", 1); err != nil {
		t.Fatal(err)
	}

	for _, rep := range []*Replica{r1, r2} {
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if got := rep.AppliedCSN(); got != db.LastCSN() {
			t.Fatalf("applied CSN %d, leader CSN %d", got, db.LastCSN())
		}
		if n := snapCount(t, rep, "scores"); n != 20 {
			t.Fatalf("replica scores rows = %d, want 20", n)
		}
		if n := snapCount(t, rep, "themes"); n != 1 {
			t.Fatalf("replica themes rows = %d, want 1", n)
		}
		if lh, rh := db.ContentHash(), rep.DB().ContentHash(); lh != rh {
			t.Fatalf("content hash diverged: leader %s replica %s", lh, rh)
		}
	}

	var shipped, applied, refused uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "repl.batches.shipped":
			shipped = m.Value
		case "repl.batches.applied":
			applied = m.Value
		case "repl.reads.refused":
			refused = m.Value
		}
	}
	if applied == 0 || applied > shipped {
		t.Fatalf("repl.batches.applied = %d, shipped = %d", applied, shipped)
	}
	if refused != 0 {
		t.Fatalf("repl.reads.refused = %d, want 0", refused)
	}
}

// TestAsyncShipConverges uses the background-sender mode and waits for
// the replica to drain to the leader's CSN.
func TestAsyncShipConverges(t *testing.T) {
	reg := obs.NewRegistry()
	db := openLeader(t, reg)
	defer db.Close()
	mustCreate(t, db, "scores")

	s, err := NewShipper(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := attach(t, s, reg, "r1", Options{})
	defer rep.Stop()

	for i := int64(1); i <= 30; i++ {
		if err := insertSeq(db, "scores", i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedCSN() != db.LastCSN() {
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at CSN %d, leader %d", rep.AppliedCSN(), db.LastCSN())
		}
		time.Sleep(time.Millisecond)
	}
	if lh, rh := db.ContentHash(), rep.DB().ContentHash(); lh != rh {
		t.Fatalf("content hash diverged: leader %s replica %s", lh, rh)
	}
}

// TestLagAdmission pins the BeginSnapshot refusal contract directly:
// a replica trailing its received stream beyond MaxLagCSN refuses with
// ErrLagging and counts the refusal.
func TestLagAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	r := &Replica{opts: Options{MaxLagCSN: 2}.withDefaults(), m: newMetrics(reg)}
	r.recvCSN.Store(10)
	r.applyCSN.Store(3)
	if r.WithinLag() {
		t.Fatal("lag 7 > max 2 should not admit")
	}
	if _, err := r.BeginSnapshot(context.Background()); !errors.Is(err, ErrLagging) {
		t.Fatalf("BeginSnapshot = %v, want ErrLagging", err)
	}
	if m, _ := reg.Get("repl.reads.refused"); m.Value != 1 {
		t.Fatalf("repl.reads.refused = %d, want 1", m.Value)
	}
	r.applyCSN.Store(8) // lag 2 == max: admits
	if !r.WithinLag() {
		t.Fatal("lag at the bound should admit")
	}
	unbounded := &Replica{opts: Options{}.withDefaults(), m: newMetrics(obs.NewRegistry())}
	unbounded.recvCSN.Store(1 << 40)
	if !unbounded.WithinLag() {
		t.Fatal("MaxLagCSN=0 must admit at any lag")
	}
}

// failConn refuses every send, simulating a dead replica link.
type failConn struct{}

func (failConn) Send(*Batch) error     { return errors.New("link down") }
func (failConn) Recv() (*Batch, error) { return nil, ErrClosed }
func (failConn) Ack(uint64) error      { return nil }
func (failConn) Close() error          { return nil }

// TestShipFailurePoisonsLink attaches a link that always fails: the
// shipper must retry, poison it, and keep committing — degrade to a
// smaller cluster, never block the leader on a dead peer.
func TestShipFailurePoisonsLink(t *testing.T) {
	reg := obs.NewRegistry()
	db := openLeader(t, reg)
	defer db.Close()
	mustCreate(t, db, "scores")

	s, err := NewShipper(db, Options{SyncShip: true, MaxRetries: 2, RetryBackoff: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddReplica("bad", failConn{}, nil); err != nil {
		t.Fatal(err)
	}

	if err := insertSeq(db, "scores", 1); err != nil {
		t.Fatalf("leader commit must survive a dead replica link: %v", err)
	}
	if err := s.ReplicaErr("bad"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ReplicaErr = %v, want ErrPoisoned", err)
	}
	for i := int64(2); i <= 5; i++ {
		if err := insertSeq(db, "scores", i); err != nil {
			t.Fatal(err)
		}
	}
	var retries, poisoned uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "repl.ship.retries":
			retries = m.Value
		case "repl.ship.poisoned":
			poisoned = m.Value
		}
	}
	if retries == 0 {
		t.Fatal("expected at least one recorded retry")
	}
	if poisoned != 1 {
		t.Fatalf("repl.ship.poisoned = %d, want 1", poisoned)
	}
}

// TestPromote turns a caught-up replica into a leader and checks it
// holds exactly the old leader's state and accepts writes.
func TestPromote(t *testing.T) {
	reg := obs.NewRegistry()
	db := openLeader(t, reg)
	mustCreate(t, db, "scores")

	s, err := NewShipper(db, Options{SyncShip: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := attach(t, s, reg, "r1", Options{SyncShip: true})

	for i := int64(1); i <= 10; i++ {
		if err := insertSeq(db, "scores", i); err != nil {
			t.Fatal(err)
		}
	}
	wantHash := db.ContentHash()
	s.Close()
	if err := db.Close(); err != nil { // old leader dies
		t.Fatal(err)
	}

	promoted, err := rep.Promote(storage.Options{SyncCommits: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.IsReplica() {
		t.Fatal("promoted database still in replica mode")
	}
	if got := promoted.ContentHash(); got != wantHash {
		t.Fatalf("promoted hash %s, want %s", got, wantHash)
	}
	if err := promoted.Run(func(tx *storage.Tx) error {
		_, err := tx.Insert("scores", value.Tuple{value.Int(11), value.Str("post-promotion")})
		return err
	}); err != nil {
		t.Fatalf("promoted leader must accept writes: %v", err)
	}
	if rel := promoted.Relation("scores"); rel != nil {
		if err := rel.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootstrapRejectsNonManifest: a checkpoint file that is not a
// manifest — here the header of the retired monolithic image — fails
// the bootstrap before the replica directory is touched.
func TestBootstrapRejectsNonManifest(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), filepath.Join(t.TempDir(), "replica")
	legacy := filepath.Join(leaderDir, "mdm.snapshot")
	if err := os.WriteFile(legacy, []byte("MDMSNAP1\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := BootstrapDir(fault.Disk{}, legacy, fault.Disk{}, replicaDir)
	if err == nil || !strings.Contains(err.Error(), "not a checkpoint manifest") {
		t.Fatalf("bootstrap from a non-manifest file: err = %v", err)
	}
	if _, statErr := os.Stat(replicaDir); !errors.Is(statErr, os.ErrNotExist) {
		t.Fatalf("rejected bootstrap touched the replica directory (stat err %v)", statErr)
	}
}
