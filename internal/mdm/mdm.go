// Package mdm assembles the music data manager of §2 (figure 1): one
// database back end serving many music clients — editors, typesetters,
// compositional tools, score libraries, and analysis systems.
//
// An MDM owns the storage engine (transactions, locking, write-ahead
// logging), the entity-relationship model with hierarchical ordering,
// the self-describing catalog (§6), the CMN schema (§7), and the
// bibliographic layer (§4.2).  Clients connect through sessions and
// speak the DDL of §5.4 and the extended QUEL of §5.6, or use the typed
// Go APIs of the underlying layers directly.
package mdm

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/biblio"
	"repro/internal/cmn"
	"repro/internal/ddl"
	"repro/internal/meta"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quel"
	"repro/internal/storage"
)

// Options configure an MDM.
type Options struct {
	// Dir is the database directory; empty runs fully in memory.
	Dir string
	// SyncCommits makes every commit durable before returning.
	SyncCommits bool
	// GroupCommit batches concurrent commits through a shared flush
	// leader: one buffered write and one fsync per batch instead of per
	// transaction (see storage.Options.GroupCommit).  Sessions that
	// commit concurrently then amortize the fsync across the batch.
	GroupCommit bool
	// SkipCMN leaves the CMN and bibliographic schemas undefined (for
	// clients that define their own domain from scratch).
	SkipCMN bool
	// ParallelWorkers sets the worker fan-out for snapshot retrieves:
	// full scans, index range scans, hash-join builds, and ordering
	// probes partition across this many workers on a shared morsel
	// pool.  Zero or one keeps every statement on the serial executor.
	ParallelWorkers int
	// CheckpointBytes triggers a background checkpoint when the log
	// outgrows this size.  Zero means 64 MiB; negative disables
	// automatic checkpoints.
	CheckpointBytes int64
}

// MDM is the music data manager.
type MDM struct {
	Store   *storage.DB
	Model   *model.Database
	Catalog *meta.Catalog
	Music   *cmn.Music
	Biblio  *biblio.Index

	parWorkers int
	stmts      *stmtCache
	plans      *quel.PlanCache
}

// Open builds (or reopens) a music data manager.
func Open(opts Options) (*MDM, error) {
	ckptBytes := opts.CheckpointBytes
	switch {
	case ckptBytes == 0:
		ckptBytes = 64 << 20
	case ckptBytes < 0:
		ckptBytes = 0
	}
	store, err := storage.Open(storage.Options{
		Dir:             opts.Dir,
		SyncCommits:     opts.SyncCommits,
		GroupCommit:     opts.GroupCommit,
		CheckpointBytes: ckptBytes,
	})
	if err != nil {
		return nil, err
	}
	m, err := model.Open(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	mgr := &MDM{
		Store:      store,
		Model:      m,
		parWorkers: opts.ParallelWorkers,
		stmts:      newStmtCache(stmtCacheMax),
		plans:      quel.NewPlanCache(store.Obs()),
	}
	if !opts.SkipCMN {
		if mgr.Music, err = cmn.Open(m); err != nil {
			store.Close()
			return nil, err
		}
		if mgr.Biblio, err = biblio.Open(m); err != nil {
			store.Close()
			return nil, err
		}
	}
	if mgr.Catalog, err = meta.Bootstrap(m); err != nil {
		store.Close()
		return nil, err
	}
	return mgr, nil
}

// Close checkpoints and closes the manager.
func (m *MDM) Close() error { return m.Store.Close() }

// Checkpoint forces a checkpoint (see storage.DB.Checkpoint).
func (m *MDM) Checkpoint() error { return m.Store.Checkpoint() }

// Obs returns the manager's metrics registry (see internal/obs): every
// layer — storage, WAL, locking, query execution, sessions — publishes
// counters, latency histograms, and trace events there.
func (m *MDM) Obs() *obs.Registry { return m.Store.Obs() }

// Session is one client connection: a QUEL workspace plus DDL access.
// Sessions self-heal: statements that lose a deadlock or time out on a
// lock wait are retried transparently with backoff (see retry.go), so
// clients see serializable results instead of raw txn errors.
type Session struct {
	mdm    *MDM
	quel   *quel.Session
	policy RetryPolicy
	obs    sessionObs

	statements uint64
	retries    uint64
	exhausted  uint64
	canceled   uint64
}

// stmtCacheMax bounds the manager-wide statement cache (FIFO eviction;
// a served workload's hot statement set is far smaller than this).
const stmtCacheMax = 256

// sessionObs mirrors the per-session counters into the manager-wide
// registry (all handles nil-safe).
type sessionObs struct {
	statements      *obs.Counter // mdm.statements
	retries         *obs.Counter // mdm.retries
	exhausted       *obs.Counter // mdm.exhausted
	canceled        *obs.Counter // mdm.canceled
	stmtCacheHits   *obs.Counter // mdm.stmt.cache.hits
	stmtCacheMisses *obs.Counter // mdm.stmt.cache.misses
}

// NewSession opens a client session with the default retry policy.
func (m *MDM) NewSession() *Session {
	s := &Session{mdm: m, quel: quel.NewSession(m.Model), policy: DefaultRetryPolicy}
	s.quel.SetPlanCache(m.plans)
	if m.parWorkers > 1 {
		s.quel.SetParallel(m.parWorkers)
	}
	if reg := m.Obs(); reg != nil {
		s.obs = sessionObs{
			statements:      reg.Counter("mdm.statements"),
			retries:         reg.Counter("mdm.retries"),
			exhausted:       reg.Counter("mdm.exhausted"),
			canceled:        reg.Counter("mdm.canceled"),
			stmtCacheHits:   reg.Counter("mdm.stmt.cache.hits"),
			stmtCacheMisses: reg.Counter("mdm.stmt.cache.misses"),
		}
	}
	return s
}

// ddlKeywords begin DDL statements.
var ddlKeywords = []string{"define", "drop"}

// ExecResult is the outcome of one ExecContext call.
type ExecResult struct {
	// Output is the printable form: a table for retrieves, affected
	// counts for updates, schema messages for DDL.
	Output string
	// Result holds the structured rows when the source was QUEL (nil
	// after DDL).
	Result *quel.Result
	// DDL reports that the statement was schema definition.
	DDL bool
}

// SetParallelWorkers overrides the manager-wide Options.ParallelWorkers
// for this session.  Benchmarks use it to sweep worker counts over one
// corpus; n <= 1 restores the serial executor.
func (s *Session) SetParallelWorkers(n int) { s.quel.SetParallel(n) }

// SetParallelMinRows tunes the driver-row threshold below which a
// retrieve stays serial.  The default favors OLTP point queries;
// score-grained analytics whose driver list is one row per score — but
// whose per-row probe work is heavy — lower it to fan out anyway.
func (s *Session) SetParallelMinRows(n int) { s.quel.SetParallelMinRows(n) }

// ExecContext executes DDL or QUEL source, dispatching on the first
// keyword.  After DDL, the meta-catalog is refreshed so the new schema
// is immediately queryable (§6).  Canceling ctx aborts the statement —
// including any lock wait it is blocked in — with an error matching
// errors.Is(err, ErrCanceled); errors are classified per errors.go.
func (s *Session) ExecContext(ctx context.Context, src string) (ExecResult, error) {
	trimmed := strings.TrimSpace(src)
	if trimmed == "" {
		return ExecResult{}, nil
	}
	var out ExecResult
	err := s.withRetry(ctx, func() error {
		var err error
		out, err = s.execOnce(ctx, trimmed)
		return err
	})
	return out, err
}

// Exec executes DDL or QUEL source and returns the printable result.
//
// Deprecated: use ExecContext, which supports cancellation and returns
// the structured result alongside the text.
func (s *Session) Exec(src string) (string, error) {
	res, err := s.ExecContext(context.Background(), src)
	return res.Output, err
}

func (s *Session) execOnce(ctx context.Context, trimmed string) (ExecResult, error) {
	first := strings.ToLower(firstWord(trimmed))
	for _, kw := range ddlKeywords {
		if first == kw {
			msgs, err := ddl.Exec(s.mdm.Model, trimmed)
			if err != nil {
				return ExecResult{Output: strings.Join(msgs, "\n"), DDL: true}, err
			}
			if err := s.mdm.Catalog.Refresh(); err != nil {
				return ExecResult{DDL: true}, fmt.Errorf("mdm: refreshing catalog: %w", err)
			}
			return ExecResult{Output: strings.Join(msgs, "\n"), DDL: true}, nil
		}
	}
	res, err := s.quel.ExecCtx(ctx, trimmed)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Output: res.String(), Result: res}, nil
}

// QueryContext executes QUEL and returns the structured result (for
// clients that process rows programmatically rather than as text).
// Like ExecContext, transient transaction failures are retried per the
// session policy and ctx cancellation aborts lock waits.
func (s *Session) QueryContext(ctx context.Context, src string) (*quel.Result, error) {
	var res *quel.Result
	err := s.withRetry(ctx, func() error {
		var err error
		res, err = s.quel.ExecCtx(ctx, src)
		return err
	})
	return res, err
}

// Query executes QUEL and returns the structured result.
//
// Deprecated: use QueryContext, which supports cancellation.
func (s *Session) Query(src string) (*quel.Result, error) {
	return s.QueryContext(context.Background(), src)
}

func firstWord(s string) string {
	for i, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			return s[:i]
		}
	}
	return s
}
