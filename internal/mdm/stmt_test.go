package mdm

import (
	"context"
	"errors"
	"testing"
)

func stmtTestMDM(t *testing.T) (*MDM, *Session) {
	t.Helper()
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	s := m.NewSession()
	ctx := context.Background()
	if _, err := s.ExecContext(ctx, `define entity WORK (title = string, opus = integer)`); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`range of w is WORK`,
		`append to WORK (title = "Sonata", opus = 1)`,
		`append to WORK (title = "Partita", opus = 2)`,
	} {
		if _, err := s.ExecContext(ctx, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	return m, s
}

func TestStmtPrepareExec(t *testing.T) {
	_, s := stmtTestMDM(t)
	ctx := context.Background()
	st, err := s.PrepareContext(ctx, `retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	res, err := st.QueryContext(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Partita" {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Go-native arg types convert via value.FromGo.
	if _, err := st.QueryContext(ctx, int32(1)); err != nil {
		t.Fatalf("int32 arg: %v", err)
	}
	// ExecContext returns the same rows wrapped as an ExecResult.
	er, err := st.ExecContext(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if er.Result == nil || len(er.Result.Rows) != 1 || er.Result.Rows[0][0].AsString() != "Sonata" {
		t.Fatalf("exec result: %+v", er)
	}
}

func TestStmtBadParam(t *testing.T) {
	_, s := stmtTestMDM(t)
	ctx := context.Background()
	st, err := s.PrepareContext(ctx, `retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.QueryContext(ctx); !errors.Is(err, ErrBadParam) {
		t.Fatalf("arity error: %v", err)
	}
	if _, err := st.QueryContext(ctx, struct{}{}); !errors.Is(err, ErrBadParam) {
		t.Fatalf("unconvertible arg: %v", err)
	}
}

func TestStmtCloseThenUse(t *testing.T) {
	_, s := stmtTestMDM(t)
	ctx := context.Background()
	st, err := s.PrepareContext(ctx, `retrieve (w.title) where w.opus = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := st.QueryContext(ctx, 1); !errors.Is(err, ErrBadStmt) {
		t.Fatalf("use after close: %v", err)
	}
}

func TestStmtRejectsDDL(t *testing.T) {
	_, s := stmtTestMDM(t)
	_, err := s.PrepareContext(context.Background(), `define entity X (a = integer)`)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("prepare DDL: %v", err)
	}
}

func TestStmtParseErrorIsErrParse(t *testing.T) {
	_, s := stmtTestMDM(t)
	_, err := s.PrepareContext(context.Background(), `retrieve (w.`)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("parse error: %v", err)
	}
}

// TestStmtCacheShared: the same source prepared in two sessions gives
// two statements, each owning its parse and executing with its own
// bindings.
func TestStmtCacheShared(t *testing.T) {
	m, s1 := stmtTestMDM(t)
	ctx := context.Background()
	const src = `retrieve (w.title) where w.opus = $1`
	st1, err := s1.PrepareContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	s2 := m.NewSession()
	if _, err := s2.ExecContext(ctx, `range of w is WORK`); err != nil {
		t.Fatal(err)
	}
	st2, err := s2.PrepareContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r1, err := st1.QueryContext(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st2.QueryContext(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].AsString() != "Sonata" || r2.Rows[0][0].AsString() != "Partita" {
		t.Fatalf("rows: %v / %v", r1.Rows, r2.Rows)
	}
}
