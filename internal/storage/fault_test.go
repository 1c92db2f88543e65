package storage

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/value"
)

// openFaulty opens a DB over a fault injector in dir.
func openFaulty(t *testing.T, dir string, opts Options) (*DB, *fault.Registry) {
	t.Helper()
	reg := fault.NewRegistry()
	opts.Dir = dir
	opts.FS = fault.NewInjector(fault.Disk{}, reg)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, reg
}

// TestFsyncFailureDegradesToReadOnly pins the fsyncgate contract: a
// failed commit fsync poisons the WAL, the database refuses all further
// writes with ErrReadOnly, and reads keep working.
func TestFsyncFailureDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	db, reg := openFaulty(t, dir, Options{SyncCommits: true})
	if _, err := db.CreateRelation("R", value.NewSchema(value.Field{Name: "v", Kind: value.KindInt})); err != nil {
		t.Fatal(err)
	}
	insert := func(v int64) error {
		return db.Run(func(tx *Tx) error {
			_, err := tx.Insert("R", value.Tuple{value.Int(v)})
			return err
		})
	}
	if err := insert(1); err != nil {
		t.Fatal(err)
	}

	reg.Arm(fault.Point(fault.OpSync, db.logPath()), 1, fault.Outcome{})
	if err := insert(2); err == nil {
		t.Fatal("commit over failing fsync must error")
	}
	if !db.ReadOnly() {
		t.Fatal("database not degraded after fsync failure")
	}

	// Writes are refused with ErrReadOnly even though the fault has
	// disarmed: the WAL page state is unknowable, not retryable.
	if err := insert(3); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on degraded db: want ErrReadOnly, got %v", err)
	}
	if _, err := db.CreateRelation("S", value.NewSchema(value.Field{Name: "v", Kind: value.KindInt})); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("DDL on degraded db: want ErrReadOnly, got %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("checkpoint on degraded db: want ErrReadOnly, got %v", err)
	}

	// Reads still work.
	count := 0
	if err := db.Run(func(tx *Tx) error {
		return tx.Scan("R", nil, func(RowID, value.Tuple) bool { count++; return true })
	}); err != nil {
		t.Fatalf("read on degraded db: %v", err)
	}
	if count == 0 {
		t.Fatal("read returned nothing")
	}

	// Close reports the degradation rather than pretending health.
	if err := db.Close(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("close of degraded db: want ErrReadOnly, got %v", err)
	}

	// Reopening recovers from the durable prefix: row 1 must be there
	// (its commit fsync succeeded); row 2's fate is decided by the disk.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.ReadOnly() {
		t.Fatal("fresh open should be healthy")
	}
	rel := db2.Relation("R")
	if rel == nil || rel.Len() < 1 {
		t.Fatal("durably committed row lost")
	}
}

// TestAppendFailureRollsBackInMemory pins the compensation path: the
// transaction's records are buffered in the Tx and appended as one
// batch at commit, so when the batched append fails the WHOLE
// transaction is rolled back from memory — memory never runs ahead of
// what could be logged — and the database degrades.
func TestAppendFailureRollsBackInMemory(t *testing.T) {
	dir := t.TempDir()
	db, reg := openFaulty(t, dir, Options{})
	if _, err := db.CreateRelation("R", value.NewSchema(value.Field{Name: "v", Kind: value.KindString})); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(func(tx *Tx) error {
		_, err := tx.Insert("R", value.Tuple{value.Str("seed")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Relation("R").Len()

	reg.Arm(fault.Point(fault.OpWrite, db.logPath()), 1, fault.Outcome{})
	tx := db.Begin()
	// Enough fat rows to overflow the log's buffered writer during the
	// commit flush, so the armed write fault fires mid-batch.
	fat := value.Str(strings.Repeat("x", 4096))
	for i := 0; i < 200; i++ {
		if _, err := tx.Insert("R", value.Tuple{fat}); err != nil {
			t.Fatalf("inserts buffer without I/O; insert %d failed: %v", i, err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("expected commit to fail once the wal write faulted")
	}
	if !db.ReadOnly() {
		t.Fatal("database should degrade after wal append failure")
	}
	if got := db.Relation("R").Len(); got != before {
		t.Fatalf("in-memory rows after failed txn: %d want %d", got, before)
	}
	db.Close()
}
