// Package mdm assembles the music data manager of §2 (figure 1): one
// database back end serving many music clients — editors, typesetters,
// compositional tools, score libraries, and analysis systems.
//
// An MDM owns the storage engine (transactions, locking, write-ahead
// logging), the entity-relationship model with hierarchical ordering,
// the self-describing catalog (§6), the CMN schema (§7), and the
// bibliographic layer (§4.2).  Clients connect through sessions and
// speak one language, the DDL of §5.4 and the extended QUEL of §5.6
// (both parsed by internal/quel), or use the typed Go APIs of the
// underlying layers directly.
package mdm

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/biblio"
	"repro/internal/cmn"
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
	mgr := &MDM{Store: store, Model: m}
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

// Health describes the manager's availability for new work.
type Health struct {
	ReadOnly bool  // degraded: mutations refused, reads still served
	Cause    error // the I/O failure that degraded the store, if any
}

// Health reports whether the underlying store has degraded to read-only
// mode (fsyncgate: a failed WAL fsync poisons the log and the store stops
// accepting writes rather than acknowledging unrecoverable commits).
func (m *MDM) Health() Health {
	cause := m.Store.ReadOnlyCause()
	return Health{ReadOnly: cause != nil, Cause: cause}
}

// Session is one client connection: a QUEL workspace plus DDL access.
// A statement that loses a deadlock or times out on a lock wait is
// retried with backoff inside its storage transaction (storage.DB.Run,
// the engine's one retry loop), so clients see serializable results
// instead of raw txn errors.  The registry counts the statements a
// session runs (mdm.statements) and those canceled (mdm.canceled).
type Session struct {
	mdm        *MDM
	quel       *quel.Session
	statements *obs.Counter // mdm.statements
	canceled   *obs.Counter // mdm.canceled
}

// NewSession opens a client session.
func (m *MDM) NewSession() *Session {
	reg := m.Obs()
	return &Session{
		mdm:        m,
		quel:       quel.NewSession(m.Model),
		statements: reg.Counter("mdm.statements"),
		canceled:   reg.Counter("mdm.canceled"),
	}
}

// ExecResult is the outcome of one ExecContext call.
type ExecResult struct {
	// Output holds the confirmations of the source's definitions, one
	// line each; it is empty for QUEL, whose printable form Text renders
	// on demand.
	Output string
	// Result holds the result of the source's last QUEL statement (nil
	// when the source holds only definitions).
	Result *quel.Result
	// DDL reports that every statement was a definition.
	DDL bool
}

// Text is the printable form: a table for retrieves, affected counts
// for updates, schema messages for DDL.
func (r ExecResult) Text() string {
	if r.Result != nil {
		return r.Result.String()
	}
	return r.Output
}

// ExecContext parses src once and executes its statements in order,
// definitions and QUEL alike (see run).  Canceling ctx aborts the
// statement — including any lock wait it is blocked in — with an error
// matching errors.Is(err, ErrCanceled); errors are classified per
// errors.go.
func (s *Session) ExecContext(ctx context.Context, src string) (ExecResult, error) {
	stmts, err := quel.Parse(src)
	if err != nil {
		return ExecResult{}, classify(err)
	}
	return s.run(ctx, stmts)
}

// QueryContext executes src like ExecContext and returns the structured
// result of its last QUEL statement (for clients that process rows
// programmatically rather than as text).
func (s *Session) QueryContext(ctx context.Context, src string) (*quel.Result, error) {
	return query(s.ExecContext(ctx, src))
}

// query returns the QUEL result of a run, empty when the source had
// none, or nil and the run's error.
func query(out ExecResult, err error) (*quel.Result, error) {
	switch {
	case err != nil:
		return nil, err
	case out.Result == nil:
		return &quel.Result{}, nil
	}
	return out.Result, nil
}

// run executes parsed statements in order: the one statement loop of
// ad-hoc sources, prepared statements and the cluster's routed reads.
// Each statement is its own transaction, so a lost lock re-runs that
// statement alone, never one before it.  After a definition the
// meta-catalog is refreshed (§6) before the next QUEL statement runs
// and before run returns, so the new schema is queryable at once.  The
// result is the last QUEL statement's, or the definitions'
// confirmations when there is no QUEL statement.
func (s *Session) run(ctx context.Context, stmts []quel.Stmt) (out ExecResult, err error) {
	var msgs []string
	stale := false // a definition ran since the last refresh
	defer func() {
		if stale {
			if rerr := s.refreshCatalog(); err == nil {
				err = rerr
			}
		}
	}()
	for _, st := range stmts {
		ddl := quel.IsDDL(st)
		if stale && !ddl {
			if stale, err = false, s.refreshCatalog(); err != nil {
				return ExecResult{}, err
			}
		}
		s.statements.Inc()
		r, err := s.quel.ExecStmt(ctx, st)
		if err != nil {
			return ExecResult{}, s.finish(err)
		}
		if ddl {
			msgs, stale = append(msgs, r.Message), true
		} else if r != nil {
			out.Result = r
		}
	}
	switch {
	case len(msgs) == len(stmts):
		out.DDL = len(msgs) > 0
	case out.Result == nil:
		out.Result = &quel.Result{}
	}
	out.Output = strings.Join(msgs, "\n")
	return out, nil
}

// finish classifies a statement's error and counts cancellations.
func (s *Session) finish(err error) error {
	err = classify(err)
	if errors.Is(err, ErrCanceled) {
		s.canceled.Inc()
	}
	return err
}

func (s *Session) refreshCatalog() error {
	if err := s.mdm.Catalog.Refresh(); err != nil {
		return fmt.Errorf("mdm: refreshing catalog: %w", err)
	}
	return nil
}
