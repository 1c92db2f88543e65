package quel

import (
	"context"
	"errors"
	"testing"

	"repro/internal/value"
)

func setupWorks(t testing.TB, s *Session) {
	t.Helper()
	if _, err := NewSession(s.db).Exec(`
define entity WORK (title = string, opus = integer)
`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `range of w is WORK`)
	mustExec(t, s, `append to WORK (title = "Sonata", opus = 1)`)
	mustExec(t, s, `append to WORK (title = "Partita", opus = 2)`)
	mustExec(t, s, `append to WORK (title = "Toccata", opus = 3)`)
}

// TestParsePlaceholders checks $n placeholders parse into Param nodes
// and the count of distinct positions is tracked.
func TestParsePlaceholders(t *testing.T) {
	stmts, n, err := ParseParams(`retrieve (w.title) where w.opus = $1 or w.opus = $2`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("nParams = %d, want 2", n)
	}
	if len(stmts) != 1 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	// Reusing a placeholder does not raise the count.
	_, n, err = ParseParams(`retrieve (w.title) where w.opus = $1 and w.opus < $1 + 5`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("nParams with reuse = %d, want 1", n)
	}
	// $0 is invalid.
	if _, _, err := ParseParams(`retrieve (w.title) where w.opus = $0`); err == nil {
		t.Fatal("$0 accepted")
	}
	// A bare $ with no index is invalid.
	if _, _, err := ParseParams(`retrieve (w.title) where w.opus = $`); err == nil {
		t.Fatal("bare $ accepted")
	}
}

// TestPreparedBindExec prepares once and executes with several
// bindings, including in update position.
func TestPreparedBindExec(t *testing.T) {
	db, s := newSession(t)
	_ = db
	setupWorks(t, s)

	p, err := Prepare(`retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	for opus, want := range map[int64]string{1: "Sonata", 2: "Partita", 3: "Toccata"} {
		res, err := execPrepared(context.Background(), s, p, value.Int(opus))
		if err != nil {
			t.Fatalf("opus %d: %v", opus, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsString() != want {
			t.Fatalf("opus %d: rows %v, want [%q]", opus, res.Rows, want)
		}
	}

	// Placeholder in an update's assignment and qualification.
	up, err := Prepare(`replace w (opus = $1) where w.title = $2`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execPrepared(context.Background(), s, up, value.Int(30), value.Str("Toccata"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	check, err := s.Exec(`retrieve (w.opus) where w.title = "Toccata"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != 1 || check.Rows[0][0].AsInt() != 30 {
		t.Fatalf("after replace: %v", check.Rows)
	}
}

// TestPreparedArity rejects wrong argument counts with ErrParam.
func TestPreparedArity(t *testing.T) {
	_, s := newSession(t)
	setupWorks(t, s)
	p, err := Prepare(`retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execPrepared(context.Background(), s, p); !errors.Is(err, ErrParam) {
		t.Fatalf("no args: %v", err)
	}
	if _, err := execPrepared(context.Background(), s, p, value.Int(1), value.Int(2)); !errors.Is(err, ErrParam) {
		t.Fatalf("extra args: %v", err)
	}
}

// TestPreparedSharedAcrossSessions binds the same Prepared concurrently
// from two sessions with different arguments: binding must copy, never
// mutate, the shared tree.
func TestPreparedSharedAcrossSessions(t *testing.T) {
	db, s1 := newSession(t)
	setupWorks(t, s1)
	s2 := NewSession(db)
	mustExec(t, s2, `range of w is WORK`)

	p, err := Prepare(`retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	run := func(s *Session, opus int64, want string) {
		for i := 0; i < 200; i++ {
			res, err := execPrepared(context.Background(), s, p, value.Int(opus))
			if err != nil {
				done <- err
				return
			}
			if len(res.Rows) != 1 || res.Rows[0][0].AsString() != want {
				done <- errors.New("cross-binding contamination: " + res.String())
				return
			}
		}
		done <- nil
	}
	go run(s1, 1, "Sonata")
	go run(s2, 2, "Partita")
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnboundPlaceholderFails: executing a placeholder through the
// plain path (no binding) reports ErrParam, not garbage.
func TestUnboundPlaceholderFails(t *testing.T) {
	_, s := newSession(t)
	setupWorks(t, s)
	_, err := s.Exec(`retrieve (w.title) where w.opus = $1`)
	if !errors.Is(err, ErrParam) {
		t.Fatalf("unbound placeholder: %v", err)
	}
}

// TestPreparedUsesIndex: a bound placeholder reaches sarg extraction
// like an inline literal, so an indexed attribute is served by the
// index path.
func TestPreparedUsesIndex(t *testing.T) {
	db, s := newSession(t)
	_ = db
	setupWorks(t, s)
	if _, err := NewSession(db).Exec(`define index on WORK (opus)`); err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(`retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execPrepared(context.Background(), s, p, value.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Partita" {
		t.Fatalf("rows: %v", res.Rows)
	}
}

// execPrepared binds args into p and runs the bound statements as Exec
// runs a source.
func execPrepared(ctx context.Context, s *Session, p *Prepared, args ...value.Value) (*Result, error) {
	stmts, err := p.Bind(args...)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, stmts)
}
