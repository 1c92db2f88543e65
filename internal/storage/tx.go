package storage

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Tx is an in-flight transaction.  All data access goes through a Tx;
// strict two-phase locking at relation granularity provides isolation,
// write-ahead logging provides durability, and an in-memory undo list
// provides atomicity of aborts.
//
// The transaction's redo records are buffered in the Tx (records) and
// submitted to the WAL as one batch at commit, through the group-commit
// pipeline (wal.GroupCommitter): writes never touch the log at
// operation time, aborted transactions never touch it at all, and
// concurrent commits share flushes and fsyncs.
//
// A Tx is not safe for concurrent use by multiple goroutines; each client
// session runs its transactions sequentially (the concurrency is between
// transactions, per §2's multi-client MDM).
type Tx struct {
	db      *DB
	id      uint64
	ctx     context.Context // cancels lock waits; never nil
	done    bool
	undo    []undoRec
	records []*wal.Record // buffered redo records; nil on an unlogged or read-only tx
	vops    []verOp       // buffered version-chain mutations, published at commit (mvcc.go)
}

type undoOp uint8

const (
	undoInsert undoOp = iota // compensate by delete
	undoDelete               // compensate by insert
	undoUpdate               // compensate by restoring old image
)

type undoRec struct {
	op  undoOp
	rel string
	id  RowID
	old value.Row
}

// ErrTxDone is returned by operations on a committed or aborted Tx.
var ErrTxDone = errors.New("storage: transaction already finished")

// ErrDuplicateKey is wrapped by inserts and updates that would give a
// unique index two rows under one key.
var ErrDuplicateKey = errors.New("storage: unique index violation")

// Begin starts a new transaction.  On a degraded database the
// transaction can still read; any write fails with ErrReadOnly.
func (db *DB) Begin() *Tx { return db.BeginCtx(context.Background()) }

// BeginCtx starts a transaction whose lock waits are bounded by ctx:
// cancellation (or deadline expiry) while blocked on a lock returns
// txn.ErrCanceled from the blocked operation.  The context does not
// otherwise interrupt in-flight work; statement layers check it between
// rows.
func (db *DB) BeginCtx(ctx context.Context) *Tx {
	if ctx == nil {
		ctx = context.Background()
	}
	tx := &Tx{db: db, id: db.ids.Next(), ctx: ctx}
	db.m.begins.Inc()
	return tx
}

// Context returns the context the transaction was begun with.
func (tx *Tx) Context() context.Context { return tx.ctx }

// appendLog routes a schema record (relation/index DDL) through the
// commit pipeline as a single-record batch, so its position in the log
// is ordered with the data batches of transactions that depend on it: a
// relation's create record is enqueued — and therefore appended —
// before any commit batch touching the relation can be.  A failure
// degrades the database; the caller must undo the in-memory schema
// change the record was describing.
func (db *DB) appendLog(r *wal.Record) error {
	if db.committer == nil {
		return nil
	}
	if err := db.writable(); err != nil {
		return err
	}
	b := &wal.Batch{
		Records: []*wal.Record{r},
		OnComplete: func(st wal.BatchState, err error) {
			switch st {
			case wal.BatchAppendFailed, wal.BatchSyncFailed, wal.BatchLost:
				db.degrade(err)
			}
		},
	}
	if err := db.committer.Commit(context.Background(), b); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	return nil
}

// logRecord buffers a redo record in the transaction (prefixed by its
// BEGIN on first use).  No I/O happens until commit.
func (tx *Tx) logRecord(r *wal.Record) {
	if tx.db.committer == nil {
		return
	}
	if len(tx.records) == 0 {
		tx.records = append(tx.records, &wal.Record{Type: wal.RecBegin, TxID: tx.id})
	}
	tx.records = append(tx.records, r)
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.id }

func (tx *Tx) check() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// lock acquires a lock for this transaction, translating deadlock victims
// into an automatic abort.  The wait is bounded by the transaction's
// context (BeginCtx) as well as the manager's wait timeout.
func (tx *Tx) lock(resource string, mode txn.Mode) error {
	if err := tx.db.locks.AcquireCtx(tx.ctx, tx.id, resource, mode); err != nil {
		if errors.Is(err, txn.ErrDeadlock) {
			tx.Abort()
		}
		return err
	}
	return nil
}

// LockExclusive declares write intent on a relation up front: it takes
// the exclusive relation lock before any read.  Read-modify-write
// transactions that Get then Update otherwise upgrade shared to
// exclusive, and two concurrent upgraders on the same relation deadlock
// every time; locking for write first makes such transactions
// wait-only.
func (tx *Tx) LockExclusive(relName string) error {
	if err := tx.check(); err != nil {
		return err
	}
	if _, err := tx.rel(relName); err != nil {
		return err
	}
	return tx.lock(relName, txn.Exclusive)
}

// LockShared takes the shared relation lock ahead of a read, so a
// transaction can take its locks in a fixed order before it reads.
func (tx *Tx) LockShared(relName string) error {
	if err := tx.check(); err != nil {
		return err
	}
	if _, err := tx.rel(relName); err != nil {
		return err
	}
	return tx.lock(relName, txn.Shared)
}

// rel resolves a relation by name.
func (tx *Tx) rel(name string) (*Relation, error) {
	r := tx.db.Relation(name)
	if r == nil {
		return nil, fmt.Errorf("storage: no relation %q", name)
	}
	return r, nil
}

// Insert validates t against the relation schema and inserts it,
// returning the new row id.
func (tx *Tx) Insert(relName string, t value.Tuple) (RowID, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return 0, err
	}
	row, err := t.ValidRow(r.schema)
	if err != nil {
		return 0, fmt.Errorf("storage: insert into %s: %w", relName, err)
	}
	if err := tx.db.writable(); err != nil {
		return 0, err
	}
	if err := tx.lock(relName, txn.Exclusive); err != nil {
		return 0, err
	}
	id, err := r.insertRow(0, row)
	if err != nil {
		return 0, err
	}
	tx.logRecord(&wal.Record{Type: wal.RecInsert, TxID: tx.id, Relation: relName, RowID: id, NewRow: row})
	tx.undo = append(tx.undo, undoRec{op: undoInsert, rel: relName, id: id})
	tx.vops = append(tx.vops, verOp{op: verAdd, rel: relName, id: id, t: row})
	tx.db.m.rowsWritten.Inc()
	return id, nil
}

// Delete removes row id from the relation.
func (tx *Tx) Delete(relName string, id RowID) error {
	if err := tx.check(); err != nil {
		return err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return err
	}
	if err := tx.db.writable(); err != nil {
		return err
	}
	if err := tx.lock(relName, txn.Exclusive); err != nil {
		return err
	}
	old, err := r.deleteRow(id)
	if err != nil {
		return err
	}
	tx.logRecord(&wal.Record{Type: wal.RecDelete, TxID: tx.id, Relation: relName, RowID: id, OldRow: old})
	tx.undo = append(tx.undo, undoRec{op: undoDelete, rel: relName, id: id, old: old})
	tx.vops = append(tx.vops, verOp{op: verDel, rel: relName, id: id})
	tx.db.m.rowsWritten.Inc()
	return nil
}

// Update replaces row id with t.
func (tx *Tx) Update(relName string, id RowID, t value.Tuple) error {
	if err := tx.check(); err != nil {
		return err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return err
	}
	row, err := t.ValidRow(r.schema)
	if err != nil {
		return fmt.Errorf("storage: update %s: %w", relName, err)
	}
	if err := tx.db.writable(); err != nil {
		return err
	}
	if err := tx.lock(relName, txn.Exclusive); err != nil {
		return err
	}
	old, err := r.updateRow(id, row)
	if err != nil {
		return err
	}
	tx.logRecord(&wal.Record{Type: wal.RecUpdate, TxID: tx.id, Relation: relName, RowID: id, OldRow: old, NewRow: row})
	tx.undo = append(tx.undo, undoRec{op: undoUpdate, rel: relName, id: id, old: old})
	tx.vops = append(tx.vops, verOp{op: verSet, rel: relName, id: id, t: row})
	tx.db.m.rowsWritten.Inc()
	return nil
}

// UpdateField replaces one attribute of row id.
func (tx *Tx) UpdateField(relName string, id RowID, field string, v value.Value) error {
	r, err := tx.rel(relName)
	if err != nil {
		return err
	}
	pos, ok := r.schema.Index(field)
	if !ok {
		return fmt.Errorf("storage: %s has no attribute %q", relName, field)
	}
	t, err := tx.Get(relName, id)
	if err != nil {
		return err
	}
	nt := t.Tuple()
	nt[pos] = v
	return tx.Update(relName, id, nt)
}

// Get returns the row stored under id.
func (tx *Tx) Get(relName string, id RowID) (value.Row, error) {
	if err := tx.check(); err != nil {
		return value.Row{}, err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return value.Row{}, err
	}
	if err := tx.lock(relName, txn.Shared); err != nil {
		return value.Row{}, err
	}
	t, ok := r.get(id)
	if !ok {
		return value.Row{}, fmt.Errorf("storage: %s: no row %d", relName, id)
	}
	tx.db.m.rowsRead.Inc()
	return t, nil
}

// Scan iterates the rows of the relation in row-id order, skipping the
// pages b prunes (none when b is nil).
func (tx *Tx) Scan(relName string, b *Bounds, fn func(id RowID, t value.Row) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return err
	}
	if err := tx.lock(relName, txn.Shared); err != nil {
		return err
	}
	tx.db.m.rowsRead.Add(r.scan(b, fn))
	return nil
}

// IndexRange iterates rows of the named index in key order over the
// range [lo, hi) of encoded keys; nil bounds mean unbounded.  This is
// the "ordering as a performance optimization" path of §5.2.  With
// reverse set the range is visited in descending key order (a backward
// B-tree walk, used by the query planner to satisfy `sort by ... desc`
// from index order).
func (tx *Tx) IndexRange(relName, indexName string, lo, hi []byte, reverse bool, fn func(id RowID, t value.Row) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return err
	}
	if err := tx.lock(relName, txn.Shared); err != nil {
		return err
	}
	var n uint64
	err = r.ScanRange(indexName, lo, hi, reverse, func(id RowID, t value.Row) bool {
		n++
		return fn(id, t)
	})
	tx.db.m.rowsRead.Add(n)
	return err
}

// IndexGet returns the row whose key in the named unique index is key
// (the encoded columns), ok false if there is none: a point read under
// the shared relation lock, the locking twin of Snap.IndexGet.
func (tx *Tx) IndexGet(relName, indexName string, key []byte) (RowID, value.Row, bool, error) {
	if err := tx.check(); err != nil {
		return 0, value.Row{}, false, err
	}
	r, err := tx.rel(relName)
	if err != nil {
		return 0, value.Row{}, false, err
	}
	if err := tx.lock(relName, txn.Shared); err != nil {
		return 0, value.Row{}, false, err
	}
	r.mu.RLock()
	ix := r.findIndex(indexName)
	if ix == nil || r.deferred {
		r.mu.RUnlock()
		return 0, value.Row{}, false, fmt.Errorf("storage: no usable index %q on %s", indexName, relName)
	}
	id, ok := ix.tree.Get(key)
	var t value.Row
	if ok {
		t = r.liveLocked(id)
	}
	r.mu.RUnlock()
	if t.IsZero() {
		return 0, value.Row{}, false, nil
	}
	tx.db.m.rowsRead.Inc()
	return id, t, true, nil
}

// Commit makes the transaction's effects permanent and releases its locks.
//
// The buffered records (BEGIN, the data changes, COMMIT) go to the WAL
// as one batch through the group-commit pipeline.  The transaction's
// locks are released as soon as the batch is appended in log order —
// before the fsync — because any dependent transaction necessarily
// commits later in the same log, and a poisoned flush fails them all.
//
// If the batch cannot be appended, the transaction never reached the
// log: its in-memory effects are rolled back and the error returned.
// If it is appended but the flush fails (SyncCommits), the outcome is
// ambiguous — the records may or may not be on stable storage — so the
// in-memory state keeps the commit, the database degrades to read-only,
// and the error tells the client durability is unknown; a restart
// resolves it from whatever the disk actually holds.
//
// If the transaction's context is canceled while waiting for the flush,
// Commit stops waiting and returns an error wrapping txn.ErrCanceled;
// the batch still flushes in order and its failure handling still runs,
// but this caller no longer learns the outcome.
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.done = true
	tx.db.m.commits.Inc()
	if len(tx.records) == 0 {
		// Read-only transaction — or any transaction on an unlogged
		// database: nothing to flush, so no batch and no fsync, and no
		// reason to fail on a degraded (read-only) database.  Unlogged
		// writes still publish their versions (under the held locks) so
		// snapshot readers see them.
		tx.db.publish(tx.vops)
		tx.db.locks.ReleaseAll(tx.id)
		tx.undo, tx.vops = nil, nil
		return nil
	}
	db, id := tx.db, tx.id
	if err := db.writable(); err != nil {
		tx.rollbackMemory()
		db.locks.ReleaseAll(id)
		tx.undo, tx.records, tx.vops = nil, nil, nil
		return err
	}
	records := append(tx.records, &wal.Record{Type: wal.RecCommit, TxID: id})
	undo, vops := tx.undo, tx.vops
	tx.undo, tx.records, tx.vops = nil, nil, nil
	b := &wal.Batch{
		Records: records,
		Sync:    db.opts.SyncCommits,
		// OnAppend runs on the flush goroutine in log-append order, so
		// publishing here (before the lock release) makes CSN order equal
		// WAL order, and no reader can see the versions before the batch
		// is in the log.
		OnAppend: func() {
			db.publish(vops)
			db.locks.ReleaseAll(id)
		},
		OnComplete: func(st wal.BatchState, err error) {
			// Runs on the flush goroutine whether or not the committer
			// is still waiting, so failure handling cannot be skipped
			// by an abandoned wait.
			switch st {
			case wal.BatchAppendFailed:
				// Certainly not in the log: undo memory, then release.
				// OnAppend never ran, so no versions were published.
				rollbackUndo(db, undo)
				db.degrade(err)
			case wal.BatchSyncFailed, wal.BatchLost:
				// Ambiguous: keep the in-memory commit, stop the world.
				db.degrade(err)
			}
			db.locks.ReleaseAll(id) // no-op after OnAppend already ran
		},
	}
	if err := db.committer.Commit(tx.ctx, b); err != nil {
		if errors.Is(err, wal.ErrAbandoned) {
			return fmt.Errorf("storage: commit %d abandoned, durability unknown: %w (%v)", id, txn.ErrCanceled, err)
		}
		if b.State() == wal.BatchAppendFailed {
			return fmt.Errorf("storage: wal append: %w", err)
		}
		return fmt.Errorf("storage: commit %d durability unknown: %w", id, err)
	}
	db.maybeCheckpoint()
	return nil
}

// rollbackMemory undoes the transaction's in-memory effects in reverse
// order.
func (tx *Tx) rollbackMemory() { rollbackUndo(tx.db, tx.undo) }

// rollbackUndo applies an undo list in reverse.  It is standalone
// (rather than a Tx method) because the commit pipeline must be able to
// roll back a failed batch from the flush goroutine after the Tx's own
// fields have been cleared.
func rollbackUndo(db *DB, undo []undoRec) {
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		r := db.Relation(u.rel)
		if r == nil {
			continue
		}
		switch u.op {
		case undoInsert:
			r.deleteRow(u.id) //nolint:errcheck // compensations cannot fail
		case undoDelete:
			r.insertRow(u.id, u.old) //nolint:errcheck
		case undoUpdate:
			r.updateRow(u.id, u.old) //nolint:errcheck
		}
	}
}

// Abort rolls back the transaction's in-memory effects (in reverse
// order) and releases its locks.  Nothing is logged: the redo records
// were only ever buffered in the Tx, so an aborted transaction leaves
// no trace in the WAL.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.m.aborts.Inc()
	tx.rollbackMemory()
	tx.db.locks.ReleaseAll(tx.id)
	tx.undo, tx.records, tx.vops = nil, nil, nil
}

// Run executes fn inside a transaction, committing on nil error and
// aborting otherwise.  Deadlock victims and lock-wait timeouts are
// retried up to three times; client layers (mdm.Session) add further
// retry with backoff on top.
func (db *DB) Run(fn func(tx *Tx) error) error {
	return db.RunCtx(context.Background(), fn)
}

// RunCtx is Run under a context: transactions are begun with BeginCtx
// so blocked lock waits abort with txn.ErrCanceled when ctx is
// canceled, and no retry is attempted once the context is done.
func (db *DB) RunCtx(ctx context.Context, fn func(tx *Tx) error) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("%w: %w", txn.ErrCanceled, ctx.Err())
		}
		tx := db.BeginCtx(ctx)
		err := fn(tx)
		if err == nil {
			return tx.Commit()
		}
		tx.Abort()
		if !errors.Is(err, txn.ErrDeadlock) && !errors.Is(err, txn.ErrTimeout) {
			return err
		}
		lastErr = err
	}
	return lastErr
}
