package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Options configure a DB.
type Options struct {
	// Dir is the database directory.  Empty means fully in-memory (no
	// durability), which is what most tests and benchmarks use.
	Dir string
	// SyncCommits fsyncs the log on every commit.  When false, commits
	// are buffered and made durable by the next Sync/Checkpoint/Close.
	// Defaults to false.
	SyncCommits bool
	// GroupCommit batches concurrent commits through a shared flush
	// leader (one buffered write + one fsync per batch; see wal.
	// GroupCommitter).  When false every commit flushes alone — the
	// per-txn-fsync baseline.  Defaults to false.
	GroupCommit bool
	// GroupCommitWindow is how long the flush leader waits for more
	// committers before draining the queue.  Zero (the default) flushes
	// immediately, which on fast storage batches well through natural
	// pipelining alone; ~1-2ms suits spinning disks.
	GroupCommitWindow time.Duration
	// CheckpointBytes triggers an automatic checkpoint when the log
	// exceeds this size.  Zero disables automatic checkpoints.  The
	// checkpoint runs on a background goroutine (singleflight), never
	// inline on the committing transaction that crossed the threshold.
	CheckpointBytes int64
	// NoWAL disables logging entirely (used by the ablation benchmarks
	// that measure WAL overhead).  Implies no durability.
	NoWAL bool
	// Replica opens the database in apply-only mode for WAL-shipping
	// replication: user writes are refused with ErrReplica, there is no
	// commit pipeline, and state advances only through ApplyShipped,
	// which appends shipped records to the replica's own log (its
	// durable receipt) and applies them through the idempotent replay
	// path, publishing one CSN per committed transaction so snapshot
	// reads serve the applied prefix.  Requires Dir; incompatible with
	// NoWAL.
	Replica bool
	// FS is the filesystem the engine performs durable I/O through.
	// Nil means the real filesystem; tests substitute a fault.Injector
	// to exercise crash recovery.
	FS fault.FS
	// LockWaitTimeout bounds how long a transaction waits for a lock
	// before receiving txn.ErrTimeout (retried like a deadlock victim).
	// Zero waits indefinitely, relying on deadlock detection alone.
	LockWaitTimeout time.Duration
	// Obs is the observability registry the engine reports metrics
	// into (row counts, transaction outcomes, WAL and lock latencies,
	// checkpoint durations).  Nil allocates a fresh registry, so a DB
	// always has one; share a registry across components to aggregate.
	Obs *obs.Registry
}

// DB is the storage engine: a set of relations plus the transaction
// machinery (locks, log, snapshots).
type DB struct {
	opts Options
	fs   fault.FS
	obs  *obs.Registry
	m    dbMetrics

	mu        sync.RWMutex
	relations map[string]*Relation

	log       *wal.Log            // nil when in-memory or NoWAL
	committer *wal.GroupCommitter // owns all physical log access; nil iff log is nil
	locks     *txn.LockManager
	ids       *txn.IDSource

	ckptMu  sync.Mutex              // serializes checkpoints
	applyMu sync.Mutex              // replica mode: serializes ApplyShipped / checkpoint
	logic   func(name string) error // logic failpoints (fault.Injector); nil in production

	// Fuzzy-checkpoint state (ckpt.go, segment.go): the CSN-stamped dirty
	// set, the installed manifest's entries, and the background
	// auto-checkpoint singleflight.
	dirtyMu       sync.Mutex
	dirty         map[string]uint64        // relation -> max commit CSN since its last segment
	manifest      map[string]manifestEntry // installed segment set; nil before first manifest
	manifestEpoch uint64
	ckptBusy      atomic.Bool // an automatic checkpoint is in flight
	ckptWG        sync.WaitGroup

	// Snapshot-read machinery (mvcc.go): the CSN clock and live-snapshot
	// registry, plus the vacuum's cadence bookkeeping.
	snaps     *txn.SnapshotRegistry
	pubCount  atomic.Uint64 // commits published since open
	lastVacAt atomic.Uint64 // pubCount at the last vacuum
	vacMu     sync.Mutex    // at most one vacuum at a time

	seqMu sync.Mutex
	seqs  map[string]uint64

	stateMu sync.Mutex
	roCause error // non-nil: degraded read-only, with the poisoning cause
}

// dbMetrics holds the engine's resolved obs handles.
type dbMetrics struct {
	begins      *obs.Counter   // storage.txn.begin
	commits     *obs.Counter   // storage.txn.commit
	aborts      *obs.Counter   // storage.txn.abort
	rowsRead    *obs.Counter   // storage.rows.read
	rowsWritten *obs.Counter   // storage.rows.written
	checkpoint  *obs.Histogram // storage.checkpoint.ns
	trace       *obs.Trace

	snapReads       *obs.Counter   // snap.reads: rows served from snapshots
	snapCSNLag      *obs.Histogram // snap.csn.lag: commits a snapshot aged past before Close
	snapGCReclaimed *obs.Counter   // snap.gc.reclaimed: versions + history entries vacuumed

	statsRebuilds *obs.Counter // quel.stats.rebuilds: index-statistics recomputations

	// Fuzzy-checkpoint accounting (ckpt.go).  Per checkpoint,
	// relations == written + skipped.
	ckptRelations   *obs.Counter   // storage.ckpt.relations: relations considered
	ckptSegsWritten *obs.Counter   // storage.ckpt.segments.written
	ckptSegsSkipped *obs.Counter   // storage.ckpt.segments.skipped: clean, segment reused
	ckptBytes       *obs.Counter   // storage.ckpt.bytes: segment + manifest bytes written
	ckptAuto        *obs.Counter   // storage.ckpt.auto: background auto-checkpoints
	ckptStall       *obs.Histogram // storage.ckpt.stall.ns: writer-visible exclusive window
	ckptFuzzy       *obs.Histogram // storage.ckpt.fuzzy.ns: concurrent copy phase
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("storage: database is closed")

// ErrReadOnly is returned by mutating operations after the database has
// degraded to read-only mode.  Degradation happens when the WAL is
// poisoned (a failed append or fsync): the durable prefix of the log is
// then ambiguous, and accepting further writes could acknowledge
// transactions that can never be made durable.  Reads keep working;
// reopening the database recovers from the durable state on disk.
var ErrReadOnly = errors.New("storage: database is read-only (degraded after I/O failure)")

// Open opens or creates a database with the given options.  If a snapshot
// and log exist in opts.Dir, the database state is recovered from them.
func Open(opts Options) (*DB, error) {
	if opts.FS == nil {
		opts.FS = fault.Disk{}
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	db := &DB{
		opts:      opts,
		fs:        opts.FS,
		obs:       opts.Obs,
		relations: make(map[string]*Relation),
		locks:     txn.NewLockManager(),
		ids:       txn.NewIDSource(0),
		snaps:     txn.NewSnapshotRegistry(),
		seqs:      make(map[string]uint64),
		dirty:     make(map[string]uint64),
	}
	db.m = dbMetrics{
		begins:      db.obs.Counter("storage.txn.begin"),
		commits:     db.obs.Counter("storage.txn.commit"),
		aborts:      db.obs.Counter("storage.txn.abort"),
		rowsRead:    db.obs.Counter("storage.rows.read"),
		rowsWritten: db.obs.Counter("storage.rows.written"),
		checkpoint:  db.obs.Histogram("storage.checkpoint.ns"),
		trace:       db.obs.Trace(),

		snapReads:       db.obs.Counter("snap.reads"),
		snapCSNLag:      db.obs.Histogram("snap.csn.lag"),
		snapGCReclaimed: db.obs.Counter("snap.gc.reclaimed"),

		statsRebuilds: db.obs.Counter("quel.stats.rebuilds"),

		ckptRelations:   db.obs.Counter("storage.ckpt.relations"),
		ckptSegsWritten: db.obs.Counter("storage.ckpt.segments.written"),
		ckptSegsSkipped: db.obs.Counter("storage.ckpt.segments.skipped"),
		ckptBytes:       db.obs.Counter("storage.ckpt.bytes"),
		ckptAuto:        db.obs.Counter("storage.ckpt.auto"),
		ckptStall:       db.obs.Histogram("storage.ckpt.stall.ns"),
		ckptFuzzy:       db.obs.Histogram("storage.ckpt.fuzzy.ns"),
	}
	db.locks.SetWaitTimeout(opts.LockWaitTimeout)
	db.locks.SetObserver(db.obs)
	if lf, ok := db.fs.(interface{ Logic(string) error }); ok {
		db.logic = lf.Logic
	}
	if opts.Replica && (opts.Dir == "" || opts.NoWAL) {
		return nil, errors.New("storage: replica mode requires a durable, logged database")
	}
	if opts.Dir != "" {
		if err := db.fs.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: mkdir: %w", err)
		}
	}
	if opts.Dir == "" || opts.NoWAL {
		if opts.Dir != "" {
			if err := db.recover(); err != nil {
				return nil, err
			}
			db.seedVersions()
		}
		return db, nil
	}
	if err := db.recover(); err != nil {
		return nil, err
	}
	db.seedVersions()
	log, err := wal.OpenFS(db.fs, db.logPath())
	if err != nil {
		return nil, err
	}
	log.SetObserver(db.obs)
	db.log = log
	if opts.Replica {
		// Apply-only mode: no commit pipeline.  The log receives shipped
		// records through ApplyShipped, which owns all physical access.
		return db, nil
	}
	db.committer = wal.NewGroupCommitter(log, wal.GroupOptions{
		Group:  opts.GroupCommit,
		Window: opts.GroupCommitWindow,
	})
	db.committer.SetObserver(db.obs)
	if db.logic != nil {
		db.committer.SetFailpoints(db.logic)
	}
	return db, nil
}

// Obs returns the database's observability registry (never nil).
func (db *DB) Obs() *obs.Registry { return db.obs }

// degrade puts the database into read-only mode with the given cause.
// Only the first cause is kept.
func (db *DB) degrade(cause error) {
	db.stateMu.Lock()
	if db.roCause == nil {
		db.roCause = cause
	}
	db.stateMu.Unlock()
}

// ReadOnly reports whether the database has degraded to read-only mode.
func (db *DB) ReadOnly() bool { return db.ReadOnlyCause() != nil }

// ReadOnlyCause returns the error that degraded the database, or nil.
func (db *DB) ReadOnlyCause() error {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	return db.roCause
}

// writable returns an ErrReadOnly-wrapped error when degraded, or
// ErrReplica in apply-only mode.
func (db *DB) writable() error {
	if db.opts.Replica {
		return ErrReplica
	}
	if cause := db.ReadOnlyCause(); cause != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, cause)
	}
	return nil
}

func (db *DB) logPath() string { return filepath.Join(db.opts.Dir, WALFileName) }

// recover loads the checkpoint image (if any) and replays the committed
// suffix of the log on top of it.  A directory holding a monolithic
// mdm.snapshot (the retired image format) and no manifest is refused:
// opening it empty would start logging over a store this engine cannot
// read.
//
// Replay is idempotent: a crash between the checkpoint's manifest rename
// and its log truncation leaves a log whose records are already in the
// segments, so re-applying an insert over an existing row (or a delete
// of an absent one) must converge on the logged state, not fail.  The
// same holds for a segment newer than the manifest that names it (a
// crash mid-checkpoint): the full log replays over it and converges.
func (db *DB) recover() error {
	if db.opts.Dir == "" {
		return nil
	}
	haveManifest, err := db.loadManifest(db.manifestPath())
	if err != nil {
		return err
	}
	if !haveManifest {
		legacy := filepath.Join(db.opts.Dir, retiredSnapshotFileName)
		f, err := db.fs.Open(legacy)
		if err == nil {
			f.Close()
			return fmt.Errorf("storage: %s is a monolithic snapshot (retired format) with no %s beside it; refusing to open the directory empty — migrate it with a build that still reads that format (its first checkpoint writes segments)", legacy, ManifestFileName)
		}
		if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("storage: recover: %w", err)
		}
	}
	return wal.ReplayFS(db.fs, db.logPath(), func(r *wal.Record) error {
		_, err := db.applyRecord(r)
		return err
	})
}

// applyRecord applies one logged record to the in-memory state,
// idempotently (see recover).  It is shared by crash recovery and by
// replica live apply (ApplyShipped); for data records it returns the
// version-chain mutation the change implies, which recovery discards
// (seedVersions rebuilds the base state) and live apply publishes under
// the next CSN.  Schema operations take db.mu; row operations rely on
// the relation's own lock.
func (db *DB) applyRecord(r *wal.Record) (*verOp, error) {
	// Replayed mutations carry no usable commit CSN here (recovery reseeds
	// the version store at 0; replica apply stamps its own), so force-mark
	// the relation: the next checkpoint rewrites its segment regardless of
	// the pinned CSN.  Clean manifest segments stay reusable across a
	// reopen precisely because only replayed relations get stamped.
	db.markDirty(r.Relation, dirtyDDL)
	switch r.Type {
	case wal.RecCreateRelation:
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.relations[r.Relation] != nil {
			return nil, nil // already present (snapshot, or duplicate shipment)
		}
		schema, err := decodeSchema(r.New)
		if err != nil {
			return nil, err
		}
		rel := newRelation(r.Relation, schema)
		rel.statsRebuilds = db.m.statsRebuilds
		db.relations[r.Relation] = rel
		return nil, nil
	case wal.RecDropRelation:
		db.mu.Lock()
		defer db.mu.Unlock()
		delete(db.relations, r.Relation)
		return nil, nil
	case wal.RecCreateIndex:
		rel := db.Relation(r.Relation)
		if rel == nil {
			return nil, fmt.Errorf("storage: replay: index on unknown relation %q", r.Relation)
		}
		spec, err := decodeIndexSpec(r.New)
		if err != nil {
			return nil, err
		}
		if rel.findIndex(spec.Name) != nil {
			return nil, nil // already present
		}
		return nil, rel.addIndex(spec)
	case wal.RecDropIndex:
		rel := db.Relation(r.Relation)
		if rel == nil {
			return nil, fmt.Errorf("storage: replay: drop index on unknown relation %q", r.Relation)
		}
		if len(r.New) < 1 {
			return nil, fmt.Errorf("storage: malformed drop-index record")
		}
		rel.dropIndex(r.New[0].AsString()) // no-op if already absent
		return nil, nil
	}
	rel := db.Relation(r.Relation)
	if rel == nil {
		return nil, fmt.Errorf("storage: replay: data for unknown relation %q", r.Relation)
	}
	// A shipped record may still hold the image as the leader's row;
	// one read from the log holds the decoded tuple.
	row := r.NewRow
	if row.IsZero() && r.New != nil {
		row = value.RowOf(r.New)
	}
	switch r.Type {
	case wal.RecInsert:
		if _, ok := rel.get(r.RowID); ok {
			if _, err := rel.updateRow(r.RowID, row); err != nil {
				return nil, err
			}
			return &verOp{op: verSet, rel: r.Relation, id: r.RowID, t: row}, nil
		}
		if _, err := rel.insertRow(r.RowID, row); err != nil {
			return nil, err
		}
		return &verOp{op: verAdd, rel: r.Relation, id: r.RowID, t: row}, nil
	case wal.RecDelete:
		if _, ok := rel.get(r.RowID); !ok {
			return nil, nil
		}
		if _, err := rel.deleteRow(r.RowID); err != nil {
			return nil, err
		}
		return &verOp{op: verDel, rel: r.Relation, id: r.RowID}, nil
	case wal.RecUpdate:
		if _, ok := rel.get(r.RowID); !ok {
			if _, err := rel.insertRow(r.RowID, row); err != nil {
				return nil, err
			}
			return &verOp{op: verAdd, rel: r.Relation, id: r.RowID, t: row}, nil
		}
		if _, err := rel.updateRow(r.RowID, row); err != nil {
			return nil, err
		}
		return &verOp{op: verSet, rel: r.Relation, id: r.RowID, t: row}, nil
	}
	return nil, nil
}

// CreateRelation defines a new relation.  Relation creation is a schema
// operation performed outside transactions; the model layer serializes
// DDL.  The definition is logged (RecCreateRelation) so relations
// created after the last checkpoint survive a crash.
func (db *DB) CreateRelation(name string, schema *value.Schema) (*Relation, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	if _, exists := db.relations[name]; exists {
		db.mu.Unlock()
		return nil, fmt.Errorf("storage: relation %q already exists", name)
	}
	rel := newRelation(name, schema)
	rel.statsRebuilds = db.m.statsRebuilds
	db.relations[name] = rel
	db.mu.Unlock()
	if err := db.appendLog(&wal.Record{Type: wal.RecCreateRelation, Relation: name, New: encodeSchema(schema)}); err != nil {
		db.mu.Lock()
		delete(db.relations, name)
		db.mu.Unlock()
		return nil, err
	}
	// Schema changes happen outside the CSN clock: force-mark so the next
	// checkpoint writes the relation's first segment unconditionally.
	db.markDirty(name, dirtyDDL)
	return rel, nil
}

// encodeSchema flattens a schema as a tuple of (name, kind, refType)
// triples for the WAL schema records.
func encodeSchema(s *value.Schema) value.Tuple {
	t := make(value.Tuple, 0, 3*s.Len())
	for i := 0; i < s.Len(); i++ {
		f := s.Field(i)
		t = append(t, value.Str(f.Name), value.Int(int64(f.Kind)), value.Str(f.RefType))
	}
	return t
}

func decodeSchema(t value.Tuple) (*value.Schema, error) {
	if len(t)%3 != 0 {
		return nil, fmt.Errorf("storage: malformed schema record (%d values)", len(t))
	}
	fields := make([]value.Field, 0, len(t)/3)
	for i := 0; i < len(t); i += 3 {
		fields = append(fields, value.Field{
			Name:    t[i].AsString(),
			Kind:    value.Kind(t[i+1].AsInt()),
			RefType: t[i+2].AsString(),
		})
	}
	return value.NewSchema(fields...), nil
}

// encodeIndexSpec flattens an index spec for RecCreateIndex.
func encodeIndexSpec(spec IndexSpec) value.Tuple {
	t := value.Tuple{value.Str(spec.Name), value.Bool(spec.Unique)}
	for _, c := range spec.Columns {
		t = append(t, value.Str(c))
	}
	return t
}

func decodeIndexSpec(t value.Tuple) (IndexSpec, error) {
	if len(t) < 3 {
		return IndexSpec{}, fmt.Errorf("storage: malformed index record (%d values)", len(t))
	}
	spec := IndexSpec{Name: t[0].AsString(), Unique: t[1].AsBool()}
	for _, v := range t[2:] {
		spec.Columns = append(spec.Columns, v.AsString())
	}
	return spec, nil
}

// DropRelation removes a relation and its data.  Like creation, the
// drop is logged for crash recovery.
func (db *DB) DropRelation(name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	rel, exists := db.relations[name]
	if !exists {
		db.mu.Unlock()
		return fmt.Errorf("storage: no relation %q", name)
	}
	delete(db.relations, name)
	db.mu.Unlock()
	if err := db.appendLog(&wal.Record{Type: wal.RecDropRelation, Relation: name}); err != nil {
		db.mu.Lock()
		db.relations[name] = rel
		db.mu.Unlock()
		return err
	}
	// The next checkpoint drops the relation's manifest entry (and then
	// its segment file); if the name is reused, the stamp already marks
	// the newcomer dirty.
	db.markDirty(name, dirtyDDL)
	return nil
}

// Relation returns the named relation, or nil.
func (db *DB) Relation(name string) *Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.relations[name]
}

// Relations returns the names of all relations, unordered.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.relations))
	for n := range db.relations {
		names = append(names, n)
	}
	return names
}

// CreateIndex adds a secondary index to a relation and backfills it.
// The definition is logged so indexes created after the last checkpoint
// survive a crash.
func (db *DB) CreateIndex(relName string, spec IndexSpec) error {
	if err := db.writable(); err != nil {
		return err
	}
	rel := db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	if err := rel.addIndex(spec); err != nil {
		return err
	}
	// The new index's trees only cover rows as of now: snapshots pinned
	// before this CSN must not trust them (mvcc.go falls back to a
	// version-store scan for them).
	rel.setIndexFloor(spec.Name, db.snaps.Last()+1)
	if err := db.appendLog(&wal.Record{Type: wal.RecCreateIndex, Relation: relName, New: encodeIndexSpec(spec)}); err != nil {
		rel.dropIndex(spec.Name)
		return err
	}
	db.markDirty(relName, dirtyDDL)
	return nil
}

// DeferIndexes suspends secondary-index maintenance on the named
// relation for the duration of a bulk load: inserts touch only the
// heap, and index reads behave as if the relation had no indexes.  The
// deferral is in-memory state, not logged — if the process crashes
// mid-load, recovery replays the inserts through the ordinary mutators
// with live index maintenance, so the reopened store is consistent.
func (db *DB) DeferIndexes(relName string) error {
	if err := db.writable(); err != nil {
		return err
	}
	rel := db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	rel.deferIndexes()
	return nil
}

// BuildIndexes bulk-builds every secondary index of the named relation
// bottom-up from sorted runs over the heap and resumes inline
// maintenance.  Unique violations accumulated during the deferred load
// surface here, before any tree is replaced.  Snapshots pinned before
// the build fall back to version-store scans (the rebuilt trees carry
// no key history).
func (db *DB) BuildIndexes(relName string) error {
	if err := db.writable(); err != nil {
		return err
	}
	rel := db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	if err := rel.buildIndexes(); err != nil {
		return err
	}
	floor := db.snaps.Last() + 1
	rel.mu.Lock()
	for _, ix := range rel.indexes {
		ix.createdAt = floor
	}
	rel.mu.Unlock()
	return nil
}

// DropIndex removes a secondary index from a relation.  The drop is
// logged (RecDropIndex) so indexes dropped after the last checkpoint
// stay dropped across a crash.  Callers (the model layer) serialize DDL
// and bump the schema epoch so cached plans stop referencing the index.
func (db *DB) DropIndex(relName, indexName string) error {
	if err := db.writable(); err != nil {
		return err
	}
	rel := db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("storage: no relation %q", relName)
	}
	ix := rel.removeIndex(indexName)
	if ix == nil {
		return fmt.Errorf("storage: no index %q on %s", indexName, relName)
	}
	if err := db.appendLog(&wal.Record{Type: wal.RecDropIndex, Relation: relName,
		New: value.Tuple{value.Str(indexName)}}); err != nil {
		// The failed append poisoned the log, so no mutation can have
		// raced in between: reattaching restores the exact prior state.
		rel.restoreIndex(ix)
		return err
	}
	db.markDirty(relName, dirtyDDL)
	return nil
}

// NextSeq returns the next value of the named persistent sequence
// (starting at 1).  Sequences are made durable via snapshots; after a
// crash the sequence resumes past any value observed in replayed data
// because the model layer re-derives its counters from surrogate maxima.
func (db *DB) NextSeq(name string) uint64 {
	db.seqMu.Lock()
	defer db.seqMu.Unlock()
	db.seqs[name]++
	return db.seqs[name]
}

// BumpSeq raises the named sequence to at least floor.
func (db *DB) BumpSeq(name string, floor uint64) {
	db.seqMu.Lock()
	defer db.seqMu.Unlock()
	if db.seqs[name] < floor {
		db.seqs[name] = floor
	}
}

// Checkpoint makes all committed work durable in the checkpoint image
// and truncates the log (ckpt.go): dirty relations are copied into fresh
// segments through an MVCC snapshot while writers keep committing, then
// a short exclusive section drains the commit pipeline, catches up,
// swaps the manifest and resets the log.
//
// Failure handling: a failed segment or manifest write leaves the
// previous image + full log intact (the checkpoint simply did not
// happen); a failed log flush, truncation, or directory sync poisons
// the WAL and degrades the database, because the log's durable state is
// then unknown.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpoint()
}

func (db *DB) checkpoint() error { return db.checkpointWith(nil) }

// checkpointWith is checkpoint with an optional attach hook: when
// non-nil, attach runs inside the exclusive install section, after the
// checkpoint image is durable and the log reset, with no append in
// flight.  Replication bootstrap lives on this hook — the image it
// copies plus the record stream shipped from that instant is exactly
// the database, nothing lost and nothing duplicated.  attach receives
// the manifest path.
func (db *DB) checkpointWith(attach func(checkpointPath string) error) error {
	if db.opts.Dir == "" {
		return nil
	}
	if db.opts.Replica {
		// Replica checkpoints serialize against ApplyShipped instead of
		// quiescing writers (there are none).
		db.applyMu.Lock()
		defer db.applyMu.Unlock()
		return db.replicaCheckpointLocked(attach)
	}
	if err := db.writable(); err != nil {
		return err
	}
	start := time.Now()
	defer func() {
		db.m.checkpoint.ObserveSince(start)
		if db.m.trace.Enabled() {
			db.m.trace.Emit("storage.checkpoint", db.opts.Dir, start, time.Since(start))
		}
	}()
	return db.fuzzyCheckpointWith(attach)
}

// quiesce takes a shared lock on every relation under a fresh
// transaction id, waiting out in-flight writers.  It returns the
// release function.  If the barrier transaction loses a deadlock (a
// writer holding one relation and waiting on another can cycle through
// the barrier's shared locks) it retries from scratch.
func (db *DB) quiesce() (func(), error) {
	names := db.Relations()
	sort.Strings(names)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		id := db.ids.Next()
		ok := true
		for _, name := range names {
			if err := db.locks.AcquireCtx(context.Background(), id, name, txn.Shared); err != nil {
				db.locks.ReleaseAll(id)
				if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrTimeout) {
					lastErr = err
					ok = false
					break
				}
				return nil, fmt.Errorf("storage: checkpoint quiesce: %w", err)
			}
		}
		if ok {
			return func() { db.locks.ReleaseAll(id) }, nil
		}
	}
	return nil, fmt.Errorf("storage: checkpoint quiesce: %w", lastErr)
}

// Sync makes all committed transactions durable without checkpointing.
// It drains the commit queue first: a batch still queued behind the
// flush leader belongs to a commit that predates this call, so it must
// be on disk when Sync returns.
func (db *DB) Sync() error {
	if db.committer == nil {
		return nil
	}
	if err := db.committer.Drain(); err != nil {
		db.degrade(err)
		return err
	}
	return nil
}

// Close checkpoints (if durable and healthy) and closes the database.  A
// degraded database skips the checkpoint — its WAL is poisoned and the
// in-memory state must not be trusted onto disk — and reports the cause.
func (db *DB) Close() error {
	// Let any in-flight background checkpoint finish before tearing the
	// log down under it.
	db.ckptWG.Wait()
	if db.log == nil {
		return nil
	}
	if cause := db.ReadOnlyCause(); cause != nil {
		db.log.Close()
		db.log, db.committer = nil, nil
		return fmt.Errorf("%w: %v", ErrReadOnly, cause)
	}
	if err := db.Checkpoint(); err != nil {
		db.log.Close()
		db.log, db.committer = nil, nil
		return err
	}
	err := db.log.Close()
	db.log, db.committer = nil, nil
	return err
}

// maybeCheckpoint fires a background checkpoint if the log has outgrown
// the configured threshold.  The committing transaction that crossed
// the threshold does not wait: a CAS elects one background goroutine
// (singleflight) and every other committer proceeds immediately.
// Failures degrade the database — the trigger has no caller to return
// an error to — and are counted under storage.ckpt.auto alongside
// successes.
func (db *DB) maybeCheckpoint() {
	if db.log == nil || db.opts.CheckpointBytes <= 0 || db.ReadOnly() {
		return
	}
	if db.log.Size() < db.opts.CheckpointBytes {
		return
	}
	if !db.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	db.ckptWG.Add(1)
	go func() {
		defer db.ckptWG.Done()
		defer db.ckptBusy.Store(false)
		db.ckptMu.Lock()
		defer db.ckptMu.Unlock()
		// Re-check under the checkpoint lock: a manual checkpoint may
		// have reset the log while this goroutine was scheduled.
		if db.log == nil || db.ReadOnly() || db.log.Size() < db.opts.CheckpointBytes {
			return
		}
		db.m.ckptAuto.Inc()
		if err := db.checkpoint(); err != nil {
			db.degrade(fmt.Errorf("storage: automatic checkpoint: %w", err))
		}
	}()
}
