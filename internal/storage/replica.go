package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/wal"
)

// Replica-mode storage: the engine half of WAL-shipping replication
// (internal/repl owns the transport and lifecycle).  A replica-mode DB
// never runs user transactions; its state advances only through
// ApplyShipped, which gives shipped records durable receipt in the
// replica's own log before applying them through the same idempotent
// path crash recovery uses.  Snapshot reads (BeginSnapshot) work
// normally and observe exactly the applied prefix: each committed
// transaction publishes one CSN, inside the apply lock, in leader log
// order.

// ErrReplica is returned by mutating operations on a replica-mode
// database.  Writes belong on the leader; the replica's state advances
// only through shipped WAL records.
var ErrReplica = errors.New("storage: replica is apply-only (writes arrive via WAL shipping)")

// The fixed file names of a database directory.  Replication bootstrap
// builds a replica directory by copying the leader's checkpoint image —
// the manifest plus the segment files it names (segment.go) — and
// removing any stale WALFileName.
const (
	WALFileName      = "mdm.wal"
	ManifestFileName = "mdm.manifest"
)

// retiredSnapshotFileName is the monolithic image of the retired
// checkpoint format; recover refuses a directory that holds one and no
// manifest.
const retiredSnapshotFileName = "mdm.snapshot"

// IsReplica reports whether the database is in apply-only replica mode.
func (db *DB) IsReplica() bool { return db.opts.Replica }

// Dir returns the database directory ("" for in-memory databases).
func (db *DB) Dir() string { return db.opts.Dir }

// FS returns the filesystem the database performs durable I/O through.
func (db *DB) FS() fault.FS { return db.fs }

// LastCSN returns the highest published commit sequence number — on a
// replica, the CSN its snapshot reads serve.
func (db *DB) LastCSN() uint64 { return db.snaps.Last() }

// SetOnSync installs fn as the WAL post-fsync ship hook (see
// wal.GroupCommitter.SetOnSync).  The pipeline must be quiesced: call
// it from inside a CheckpointWith attach hook, or before concurrent
// use.  Only a logged, non-replica database can ship.
func (db *DB) SetOnSync(fn func(recs []*wal.Record)) error {
	if db.committer == nil {
		return errors.New("storage: only a durable, logged leader can ship its WAL")
	}
	db.committer.SetOnSync(fn)
	return nil
}

// CheckpointWith checkpoints and runs attach inside the exclusive
// section, after the checkpoint image is durable and the log is reset,
// with no append in flight.  Replication uses it to bootstrap a replica
// without loss or duplication: attach copies the image (it receives the
// manifest path) and registers the replica's stream in the same
// quiesced instant, so the image plus every record shipped afterwards
// is exactly the database.
func (db *DB) CheckpointWith(attach func(checkpointPath string) error) error {
	if db.committer == nil {
		return errors.New("storage: only a durable, logged leader can ship its WAL")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointWith(attach)
}

// ApplyShipped ingests one shipped batch: every record is appended to
// the replica's own log and fsynced (durable receipt — the caller may
// ack the leader once ApplyShipped returns), then applied to memory via
// the idempotent replay path, publishing one CSN per committed
// transaction so concurrent snapshot reads move atomically from one
// applied prefix to the next.  Batches must arrive in ship order; the
// apply lock serializes callers.
func (db *DB) ApplyShipped(recs []*wal.Record) error {
	if !db.opts.Replica {
		return errors.New("storage: ApplyShipped requires replica mode")
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	if cause := db.ReadOnlyCause(); cause != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, cause)
	}
	for _, r := range recs {
		if _, err := db.log.Append(r); err != nil {
			db.degrade(err)
			return err
		}
	}
	if err := db.log.Sync(); err != nil {
		db.degrade(err)
		return err
	}
	if db.logic != nil {
		// Failpoint seam between durable receipt and memory apply: a
		// crash here must recover the batch from the replica's own log.
		if err := db.logic("repl.apply"); err != nil {
			db.degrade(err)
			return err
		}
	}
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.Type == wal.RecCommit {
			committed[r.TxID] = true
		}
	}
	pending := make(map[uint64][]verOp)
	for _, r := range recs {
		switch r.Type {
		case wal.RecBegin, wal.RecAbort, wal.RecCheckpoint:
		case wal.RecCommit:
			if vops := pending[r.TxID]; len(vops) > 0 {
				db.publish(vops)
				delete(pending, r.TxID)
			}
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			// The shipper hands whole fsync rounds to the transport and
			// rounds consume whole commit batches, so a data record
			// without its commit means a torn shipment, not a slow one.
			if !committed[r.TxID] {
				err := fmt.Errorf("storage: shipped batch tears transaction %d (data without commit)", r.TxID)
				db.degrade(err)
				return err
			}
			vop, err := db.applyRecord(r)
			if err != nil {
				db.degrade(err)
				return err
			}
			if vop != nil {
				pending[r.TxID] = append(pending[r.TxID], *vop)
			}
		default: // schema records: apply unconditionally, no version
			if _, err := db.applyRecord(r); err != nil {
				db.degrade(err)
				return err
			}
		}
	}
	if db.opts.CheckpointBytes > 0 && db.log.Size() >= db.opts.CheckpointBytes {
		return db.replicaCheckpointLocked(nil)
	}
	return nil
}

// replicaCheckpointLocked checkpoints a replica and truncates its log.
// Caller holds db.applyMu, so no apply is in flight; there is no commit
// pipeline to drain, so the segmented install needs no fuzzy phase —
// every relation the shipped stream dirtied (ApplyShipped force-stamps
// via applyRecord) is rewritten, every other segment is reused.
// Failure semantics mirror the leader checkpoint: a failed segment or
// manifest write leaves the old image + log intact, a failed reset or
// directory sync degrades.
func (db *DB) replicaCheckpointLocked(attach func(string) error) error {
	if cause := db.ReadOnlyCause(); cause != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, cause)
	}
	start := time.Now()
	defer func() { db.m.checkpoint.ObserveSince(start) }()
	p := db.newCkptPlan(attach)
	stallStart := time.Now()
	defer func() { db.m.ckptStall.Observe(int64(time.Since(stallStart))) }()
	return db.installCheckpoint(p)
}

// ContentHash returns a deterministic digest of the database's logical
// content: every relation's name, schema, index definitions (sorted by
// name), and rows (sorted by id).  Node-local bookkeeping — sequence
// counters and row-id high-water marks — is deliberately excluded,
// because it is not WAL-replicated and legitimately diverges between a
// leader and its replicas.  Replication tests use equal hashes as the
// definition of converged.
func (db *DB) ContentHash() string {
	h := sha256.New()
	names := db.Relations()
	sort.Strings(names)
	var buf []byte
	for _, name := range names {
		r := db.Relation(name)
		if r == nil {
			continue
		}
		r.mu.RLock()
		buf = appendString(buf[:0], r.name)
		buf = binary.AppendUvarint(buf, uint64(r.schema.Len()))
		for i := 0; i < r.schema.Len(); i++ {
			f := r.schema.Field(i)
			buf = appendString(buf, f.Name)
			buf = append(buf, byte(f.Kind))
			buf = appendString(buf, f.RefType)
		}
		specs := make([]IndexSpec, 0, len(r.indexes))
		for _, ix := range r.indexes {
			specs = append(specs, ix.spec)
		}
		sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
		buf = binary.AppendUvarint(buf, uint64(len(specs)))
		for _, spec := range specs {
			buf = appendString(buf, spec.Name)
			if spec.Unique {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.AppendUvarint(buf, uint64(len(spec.Columns)))
			for _, c := range spec.Columns {
				buf = appendString(buf, c)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(r.live))
		h.Write(buf)
		r.eachLocked(func(id RowID, s *slot) {
			if !s.t.IsZero() {
				buf = binary.AppendUvarint(buf[:0], id)
				buf = s.t.AppendTo(buf)
				h.Write(buf)
			}
		})
		r.mu.RUnlock()
	}
	return hex.EncodeToString(h.Sum(nil))
}
