package mdm

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/quel"
	"repro/internal/value"
)

// Stmt is a prepared, parameterized statement: parsed once, executed
// many times with bound arguments.  Placeholders are written $1, $2,
// ... and are replaced at execution time by literal values, so a bound
// argument drives index selection exactly as an inline literal would —
// there is no string splicing anywhere on the path.  A Stmt is bound to
// the session that prepared it and owns its parse; each execution plans
// afresh on its bound literals.
type Stmt struct {
	sess *Session
	prep *quel.Prepared

	mu     sync.Mutex
	closed bool
}

// PrepareContext parses src into a reusable parameterized statement.
// Only QUEL can be prepared: a definition has no placeholders and goes
// through ExecContext.  Parse errors, and a source that holds a
// definition, classify as ErrParse.
func (s *Session) PrepareContext(ctx context.Context, src string) (*Stmt, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, classify(err)
		}
	}
	p, err := quel.Prepare(src)
	if err != nil {
		return nil, classify(err)
	}
	return &Stmt{sess: s, prep: p}, nil
}

// NumParams returns the number of arguments ExecContext requires.
func (st *Stmt) NumParams() int { return st.prep.NumParams() }

// Src returns the source text the statement was prepared from.
func (st *Stmt) Src() string { return st.prep.Src() }

// Close releases the statement handle; using it after Close fails with
// ErrBadStmt.  Close is idempotent.
func (st *Stmt) Close() error {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	return nil
}

func (st *Stmt) checkOpen() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("%w: statement is closed", ErrBadStmt)
	}
	return nil
}

// bindArgs converts Go arguments to typed values, classifying
// conversion failures as ErrBadParam.
func bindArgs(args []any) ([]value.Value, error) {
	out := make([]value.Value, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("%w: argument %d: %w", ErrBadParam, i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// ExecContext binds args and executes the statement, with the same
// retry, cancellation, and error-classification behavior as
// Session.ExecContext.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (ExecResult, error) {
	res, err := st.QueryContext(ctx, args...)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Result: res}, nil
}

// QueryContext binds args and executes the statement, returning the
// structured result for clients that process rows programmatically.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*quel.Result, error) {
	if err := st.checkOpen(); err != nil {
		return nil, err
	}
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	stmts, err := st.prep.Bind(vals...)
	if err != nil {
		return nil, classify(err)
	}
	return query(st.sess.run(ctx, stmts))
}
