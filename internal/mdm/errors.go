// Typed error classification for the session API.  Every error a
// Session returns is wrapped (via %w) with one of the sentinels below
// when it falls into a recognizable class, so clients dispatch with
// errors.Is/errors.As instead of matching message text:
//
//	res, err := sess.ExecContext(ctx, src)
//	switch {
//	case errors.Is(err, mdm.ErrParse):          // bad syntax, fix the statement
//	case errors.Is(err, mdm.ErrUnknownEntity):  // schema mismatch
//	case errors.Is(err, mdm.ErrCanceled):       // ctx canceled or deadline hit
//	case errors.Is(err, mdm.ErrReadOnly):       // store degraded, retry later
//	}
//
// The underlying layer errors (quel.ErrParse, model.ErrNoEntityType,
// txn.ErrCanceled, ...) remain in the chain for callers that want them.
package mdm

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/txn"
)

var (
	// ErrParse classifies DDL and QUEL syntax errors.
	ErrParse = errors.New("mdm: parse error")
	// ErrUnknownEntity classifies references to undefined entity,
	// relationship, or ordering types and missing instances.
	ErrUnknownEntity = errors.New("mdm: unknown entity")
	// ErrCanceled classifies statements aborted by context
	// cancellation or deadline expiry, including lock waits cut short.
	ErrCanceled = errors.New("mdm: statement canceled")
	// ErrReadOnly re-exports the store's degraded-mode sentinel so
	// clients can match it without importing the storage layer.
	ErrReadOnly = storage.ErrReadOnly
	// ErrBadParam classifies parameter-binding failures on prepared
	// statements: wrong argument count, an out-of-range placeholder, or
	// an argument of an unbindable Go type.
	ErrBadParam = errors.New("mdm: parameter binding error")
	// ErrBadStmt classifies references to prepared statements that do
	// not exist (a closed or never-prepared statement id on the wire).
	ErrBadStmt = errors.New("mdm: unknown prepared statement")
	// ErrOverloaded is returned by the network server's admission
	// control when every execution slot is busy and the wait queue is
	// full or the queue deadline expired: the request was shed, not
	// executed, and the client should back off and retry.
	ErrOverloaded = errors.New("mdm: server overloaded")
	// ErrShutdown is returned for requests that arrive while the server
	// is draining: no new statements are admitted, in-flight ones run to
	// completion.
	ErrShutdown = errors.New("mdm: server shutting down")
	// ErrAuth is returned when a connection's credentials are rejected.
	ErrAuth = errors.New("mdm: authentication failed")
)

// classify wraps err with the matching session-level sentinel.  Already
// classified errors pass through unchanged.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrParse), errors.Is(err, ErrUnknownEntity), errors.Is(err, ErrCanceled),
		errors.Is(err, ErrBadParam), errors.Is(err, ErrBadStmt),
		errors.Is(err, ErrOverloaded), errors.Is(err, ErrShutdown), errors.Is(err, ErrAuth):
		return err
	case errors.Is(err, quel.ErrParam):
		return fmt.Errorf("%w: %w", ErrBadParam, err)
	case errors.Is(err, txn.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, quel.ErrParse):
		return fmt.Errorf("%w: %w", ErrParse, err)
	case errors.Is(err, model.ErrNoEntityType),
		errors.Is(err, model.ErrNoRelationship),
		errors.Is(err, model.ErrNoOrdering),
		errors.Is(err, model.ErrNoEntity):
		return fmt.Errorf("%w: %w", ErrUnknownEntity, err)
	}
	return err
}
