package quel

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/value"
)

// fuzzLits draws a template's literals from the fuzzer's bytes, cycling
// through them; no bytes draw zeros.
type fuzzLits struct {
	b []byte
	i int
}

func (l *fuzzLits) next() int64 {
	if len(l.b) == 0 {
		return 0
	}
	v := l.b[l.i%len(l.b)]
	l.i++
	return int64(v)
}

func (l *fuzzLits) Int63n(n int64) int64 { return l.next() % n }
func (l *fuzzLits) Intn(n int) int       { return int(l.next() % int64(n)) }

// fuzzStmtTimeout bounds one execution: a source can ask for a cross
// product of every variable, and a statement either executor abandons
// proves nothing.
const fuzzStmtTimeout = 250 * time.Millisecond

// FuzzPlannerDifferential runs one statement through the planner and
// the naive oracle on twin diffFixture databases.  An even first byte
// picks a diffTemplates statement (second byte) and its literals (the
// rest); the two executions must agree exactly.  An odd first byte makes
// the rest a QUEL source for ParseParams; when it only declares ranges
// and retrieves, it runs with arguments 1, 2, ... for its placeholders.
// Both executors evaluate the whole qualification on every combination
// they produce, and the planner's combinations are a subset of the
// oracle's, so the planner may fail only where the oracle fails too;
// when both succeed, the results must match.
func FuzzPlannerDifferential(f *testing.F) {
	for i := range diffTemplates(&fuzzLits{}) {
		f.Add([]byte{0, byte(i), 3, 7, 1, 40, 2, 9})
	}
	for _, src := range []string{
		`retrieve (w.name, r.role, n.pitch) where w.num = 3 and r.writer = w.num and n.name = r.work`,
		`retrieve (a.x, b.z) where a.x = b.x and b.z = $1`,
		`retrieve (n1.name) where n1 is n2 and n2.pitch > $2 and n1.name < $1`,
		`range of x is NOTE retrieve unique (x.chord) where x under c in note_in_chord and c.name = $1 sort by chord`,
	} {
		f.Add(append([]byte{1}, src...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		var stmt *Prepared
		q := ""
		if data[0]&1 == 1 {
			q = string(data[1:])
			p, err := Prepare(q)
			if err != nil || p.NumParams() > 4 || !readOnly(p) {
				return
			}
			stmt = p
		}
		plannedDB, naiveDB := diffFixture(t), diffFixture(t)
		planned, naive := NewSession(plannedDB), NewSession(naiveDB)
		naive.naive = true
		mustExec(t, planned, diffDecls)
		mustExec(t, naive, diffDecls)
		if stmt == nil {
			templates := diffTemplates(&fuzzLits{b: data[2:]})
			diffExec(t, templates[int(data[1])%len(templates)](), planned, naive)
			return
		}
		args := make([]value.Value, stmt.NumParams())
		for i := range args {
			args[i] = value.Int(int64(i + 1))
		}
		run := func(s *Session) (*Result, error) {
			ctx, cancel := context.WithTimeout(context.Background(), fuzzStmtTimeout)
			defer cancel()
			return execPrepared(ctx, s, stmt, args...)
		}
		pres, perr := run(planned)
		nres, nerr := run(naive)
		switch {
		case errors.Is(perr, context.DeadlineExceeded) || errors.Is(nerr, context.DeadlineExceeded):
		case perr != nil && nerr == nil:
			t.Fatalf("source %q: planner failed where the oracle did not: %v", q, perr)
		case perr == nil && nerr == nil:
			diffResults(t, q, planned, naive, pres, nres)
		}
	})
}

// readOnly reports whether a source only declares ranges and retrieves.
// A write whose assigned values depend on which qualifying combination
// is visited first, or that trips a unique key only in some visiting
// order, is executor-dependent by design; the templates' writes are
// not.
func readOnly(p *Prepared) bool {
	for _, st := range p.stmts {
		switch st.(type) {
		case RangeStmt, Retrieve:
		default:
			return false
		}
	}
	return true
}
