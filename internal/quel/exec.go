package quel

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// Result is the output of a retrieve: labelled columns and result rows.
type Result struct {
	Columns []string
	Rows    []value.Tuple
	// Affected counts modified entities for append/replace/delete.
	Affected int
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("(%d affected)", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		b.WriteByte('|')
		for i, s := range row {
			fmt.Fprintf(&b, " %-*s |", widths[i], s)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	b.WriteByte('|')
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteByte('|')
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Session holds range-variable declarations across statements, mirroring
// the QUEL workspace model.
type Session struct {
	db     *model.Database
	ranges map[string]string // var → entity type
	m      sessMetrics
	pm     planMetrics
	ps     *planStats // live stats for the statement being executed
	naive  bool       // test oracle: run bindAllNaive instead of the planner; set only by in-package tests
	// sortHint, cache, rd, snap, and emit live for one statement;
	// retrieveStats, execOne, readStmt and inTx install and clear them.
	sortHint *sortHint
	cache    *stmtCache
	rd       model.View  // the statement's reader: its snapshot or its transaction
	snap     *model.Snap // pinned snapshot of a read statement; nil otherwise
	emit     *emitter    // live row collector; non-nil only inside a retrieve
	// Parallel execution (parallel.go) and the shared plan cache
	// (plancache.go) are opt-in per session.
	parWorkers int // worker pool size; <= 1 = serial
	parMin     int // minimum driver rows before the pool engages
	plans      *PlanCache
	// Decode buffers, kept across statements: free holds those no scan
	// is using, steps one per join step (stepRun.bind).
	free  []*value.Tuple
	steps []value.Tuple
}

// tuple takes a decode buffer for one scan; the scan gives it back
// with untuple when it is done.
func (s *Session) tuple() *value.Tuple {
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		return t
	}
	return new(value.Tuple)
}

func (s *Session) untuple(t *value.Tuple) { s.free = append(s.free, t) }

// stepTuples returns the decode buffers of an n-step join.
func (s *Session) stepTuples(n int) []value.Tuple {
	if len(s.steps) < n {
		s.steps = append(s.steps, make([]value.Tuple, n-len(s.steps))...)
	}
	return s.steps[:n]
}

// SetParallel sets the worker-pool size for read statements.  With n > 1
// and a pinned snapshot, index-scan materialization, hash-table builds,
// and the join pipeline itself fan out across n workers (parallel.go);
// n <= 1 restores the serial executor.  Write statements never
// parallelize: they run under two-phase locking, not a snapshot.
func (s *Session) SetParallel(n int) { s.parWorkers = n }

// SetParallelMinRows overrides the driver-row threshold below which
// parallel execution is skipped (the fork/merge overhead would dominate).
// Tests use small values to force the parallel path on tiny fixtures.
func (s *Session) SetParallelMinRows(n int) {
	if n > 0 {
		s.parMin = n
	}
}

// SetPlanCache attaches a shared plan cache: join orders and access-path
// choices are reused across statements (and sessions) with the same
// normalized shape, until a schema change invalidates them.
func (s *Session) SetPlanCache(c *PlanCache) { s.plans = c }

// readStmt runs a read-only statement against a pinned snapshot, with
// no lock acquisition.  A snapshot fails to pin only under a canceled
// context, which cancels the statement.
func (s *Session) readStmt(ctx context.Context, fn func() (*Result, error)) (*Result, error) {
	snap, err := s.db.BeginSnapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", txn.ErrCanceled, err)
	}
	s.snap, s.rd = snap, snap.View
	defer func() {
		s.snap, s.rd = nil, model.View{}
		snap.Close()
	}()
	return fn()
}

// inTx runs fn as one storage transaction with the statement reading
// through it, so the statement's reads and writes commit once.  A
// deadlock victim re-runs fn whole, so fn rebuilds all it collects; the
// statement cache is reset with it.
func (s *Session) inTx(ctx context.Context, fn func(t model.Tx) error) error {
	defer func() { s.rd = model.View{} }()
	return s.db.Store().RunCtx(ctx, func(tx *storage.Tx) error {
		t := s.db.In(tx)
		s.rd, s.cache = t.View, newStmtCache()
		return fn(t)
	})
}

// sessMetrics holds the query layer's observability handles, resolved
// once per session from the storage registry (all nil-safe).
type sessMetrics struct {
	stmt      *obs.Histogram // quel.stmt.ns
	scanRows  *obs.Counter   // quel.scan.rows
	combos    *obs.Counter   // quel.join.combos
	opBefore  *obs.Counter   // quel.op.before
	opAfter   *obs.Counter   // quel.op.after
	opUnder   *obs.Counter   // quel.op.under
	opIncipit *obs.Counter   // quel.op.incipit
	trace     *obs.Trace
}

// NewSession returns a session over the model database.
func NewSession(db *model.Database) *Session {
	s := &Session{db: db, ranges: make(map[string]string), parMin: defaultParMinRows}
	if reg := db.Store().Obs(); reg != nil {
		s.m = sessMetrics{
			stmt:      reg.Histogram("quel.stmt.ns"),
			scanRows:  reg.Counter("quel.scan.rows"),
			combos:    reg.Counter("quel.join.combos"),
			opBefore:  reg.Counter("quel.op.before"),
			opAfter:   reg.Counter("quel.op.after"),
			opUnder:   reg.Counter("quel.op.under"),
			opIncipit: reg.Counter("quel.op.incipit"),
			trace:     reg.Trace(),
		}
		s.pm = planMetrics{
			scanFull:    reg.Counter("quel.plan.scan.full"),
			scanIndex:   reg.Counter("quel.plan.scan.index"),
			scanIncipit: reg.Counter("quel.plan.scan.incipit"),
			joinHash:    reg.Counter("quel.plan.join.hash"),
			joinLoop:    reg.Counter("quel.plan.join.loop"),
			joinProbe:   reg.Counter("quel.plan.join.probe"),
			joinIndex:   reg.Counter("quel.plan.join.index"),
			hashProbes:  reg.Counter("quel.plan.hash.probes"),
			hashHits:    reg.Counter("quel.plan.hash.hits"),
			parQueries:  reg.Counter("quel.par.queries"),
			parMorsels:  reg.Counter("quel.par.morsels"),
		}
	}
	return s
}

// Exec parses and executes QUEL statements.  It returns the result of the
// last retrieve (or a Result with Affected set for updates); range
// statements persist in the session.
func (s *Session) Exec(src string) (*Result, error) {
	return s.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec under a context: cancellation aborts lock waits and
// long joins between statements with an error satisfying
// errors.Is(err, txn.ErrCanceled).
func (s *Session) ExecCtx(ctx context.Context, src string) (*Result, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		start := time.Now()
		r, err := s.execOne(ctx, st)
		s.m.stmt.ObserveSince(start)
		s.m.trace.Emit("quel.stmt", stmtKind(st), start, time.Since(start))
		if err != nil {
			return nil, err
		}
		if r != nil {
			last = r
		}
	}
	if last == nil {
		last = &Result{}
	}
	return last, nil
}

// stmtKind names a statement for trace events.
func stmtKind(st Stmt) string {
	switch st.(type) {
	case RangeStmt:
		return "range"
	case Retrieve:
		return "retrieve"
	case Append:
		return "append"
	case Replace:
		return "replace"
	case Delete:
		return "delete"
	case Explain:
		return "explain"
	}
	return "?"
}

func (s *Session) execOne(ctx context.Context, st Stmt) (*Result, error) {
	s.cache = newStmtCache()
	defer func() { s.cache = nil }()
	switch q := st.(type) {
	case RangeStmt:
		if _, ok := s.db.EntityType(q.EntityType); !ok {
			return nil, fmt.Errorf("quel: range: %w: %s", model.ErrNoEntityType, q.EntityType)
		}
		for _, v := range q.Vars {
			s.ranges[v] = q.EntityType
		}
		return nil, nil
	case Retrieve:
		// Read-only statements run against a pinned snapshot with zero
		// lock acquisition; writers run in one 2PL transaction each.
		return s.readStmt(ctx, func() (*Result, error) { return s.retrieve(ctx, q) })
	case Append:
		return s.appendStmt(ctx, q)
	case Replace:
		return s.replace(ctx, q)
	case Delete:
		return s.delete(ctx, q)
	case Explain:
		return s.readStmt(ctx, func() (*Result, error) { return s.explain(ctx, q) })
	}
	return nil, fmt.Errorf("quel: unknown statement %T", st)
}

// binding associates a range variable with a concrete instance: an
// entity (ref != 0) or a relationship tuple (ref == 0, no identity).
// attrs is the instance's decoded attributes, valid while the binding
// is bound: it aliases a buffer its reader decodes the next row into.
// A binding kept past its read (a join input, a fetched partner) keeps
// only its stored row, which is immutable, and is decoded again into
// the binding step's own buffer when it is bound.
type binding struct {
	ref   value.Ref
	row   value.Row
	attrs value.Tuple
	info  *varInfo
}

// kept returns b as a join input keeps it: its row, without the attrs
// its reader will overwrite.
func (b binding) kept() binding {
	b.attrs = nil
	return b
}

// decode sets b.attrs from b's row decoded into buf, and returns buf
// for reuse.
func (b *binding) decode(buf value.Tuple) value.Tuple {
	buf = b.row.Decode(buf)
	if b.attrs = buf; !b.info.isRel {
		b.attrs = model.AttrsOf(buf)
	}
	return buf
}

type env map[string]binding

// varInfo describes what a range variable ranges over.
type varInfo struct {
	typ    string
	isRel  bool // relationship rather than entity
	fields []value.Field
}

// varInfo resolves a range variable, applying the implicit-declaration
// rule (a variable named like an entity or relationship type ranges over
// that type, footnote 6 of the paper).
func (s *Session) varInfo(v string) (varInfo, error) {
	name := v
	if t, ok := s.ranges[v]; ok {
		name = t
	}
	if et, ok := s.db.EntityType(name); ok {
		return varInfo{typ: name, fields: et.Attrs}, nil
	}
	if rt, ok := s.db.RelationshipType(name); ok {
		return varInfo{typ: name, isRel: true, fields: rt.Fields()}, nil
	}
	return varInfo{}, fmt.Errorf("quel: undeclared range variable %q (and no entity or relationship type of that name)", v)
}

// scanVar iterates the instances the variable ranges over, through the
// statement's reader, skipping the pages pb prunes (none when nil).
// Each binding is decoded into one buffer the scan reuses.
func (s *Session) scanVar(info *varInfo, pb *storage.Bounds, fn func(b binding) bool) error {
	buf := s.tuple()
	defer s.untuple(buf)
	if info.isRel {
		return s.rd.RelationshipTuples(info.typ, pb, func(row value.Row) bool {
			b := binding{row: row, info: info}
			*buf = b.decode(*buf)
			return fn(b)
		})
	}
	return s.rd.Instances(info.typ, pb, func(ref value.Ref, row value.Row) bool {
		b := binding{ref: ref, row: row, info: info}
		*buf = b.decode(*buf)
		return fn(b)
	})
}

// estimate returns the planner's cardinality estimate for a variable:
// the relation's current row count, read without scanning.
func (s *Session) estimate(info varInfo) int {
	if info.isRel {
		return s.db.RelationshipCount(info.typ)
	}
	return s.db.Count(info.typ)
}

// fieldIndex finds a field by name, case-insensitively.
func fieldIndex(fields []value.Field, name string) (int, bool) {
	for i, f := range fields {
		if strings.EqualFold(f.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// collectVars gathers the range variables mentioned by an expression.
func collectVars(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case AttrRef:
		out[x.Var] = true
	case VarRef:
		out[x.Var] = true
	case Binary:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case Unary:
		collectVars(x.X, out)
	case IsOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case OrderOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case IncipitOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case Agg:
		// Aggregates range independently; their variable is not a join
		// variable of the outer query.
	}
	_ = e
}

// sarg is a pushed-down single-variable predicate var.attr op literal
// used to filter a range variable's rows as they are read, before they
// reach the join.  compileSargs resolves it once per statement: col is
// the attribute's position in the variable's tuples (-1 when there is
// none; full evaluation reports it), and accept has bit c+1 set for each
// value.Compare result c that satisfies op.  A derived sarg was inferred
// across an equi-join (plan.go); it only prunes.
type sarg struct {
	attr    string
	op      string
	v       value.Value
	col     int
	accept  uint8
	derived bool
}

// compileSargs resolves each sarg against the variable's fields.
func compileSargs(ss []sarg, fields []value.Field) {
	for i := range ss {
		sg := &ss[i]
		sg.col = -1
		if c, ok := fieldIndex(fields, sg.attr); ok {
			sg.col = c
		}
		sg.accept = 0b111
		if a, ok := sargAccept[sg.op]; ok {
			sg.accept = a
		}
	}
}

// sargAccept maps each comparison operator to its accept bits.
var sargAccept = map[string]uint8{"=": 0b010, "!=": 0b101, "<": 0b001, "<=": 0b011, ">": 0b100, ">=": 0b110}

// pruneBounds hands the compiled sargs with an integer constant to a
// full scan, which skips the pages where one of them can accept no
// value (storage.Bounds).  sargsMatch still filters every row read.
func pruneBounds(ss []sarg) *storage.Bounds {
	pb := &storage.Bounds{}
	for _, sg := range ss {
		if sg.col >= 0 && sg.v.Kind() == value.KindInt {
			pb.Ints = append(pb.Ints, storage.Bound{Col: sg.col, V: sg.v.AsInt(), Accept: sg.accept})
		}
	}
	return pb
}

// sargsMatch reports whether attrs satisfies every compiled sarg.
func sargsMatch(ss []sarg, attrs value.Tuple) bool {
	for i := range ss {
		if sg := &ss[i]; sg.col >= 0 && sg.accept>>(value.Compare(attrs[sg.col], sg.v)+1)&1 == 0 {
			return false
		}
	}
	return true
}

// extractSargs pulls var.attr OP literal conjuncts out of the
// qualification, keyed by variable.
func extractSargs(e Expr, out map[string][]sarg) {
	switch x := e.(type) {
	case Binary:
		if x.Op == "and" {
			extractSargs(x.L, out)
			extractSargs(x.R, out)
			return
		}
		if relOps[x.Op] {
			if ar, ok := x.L.(AttrRef); ok {
				if lit, ok := x.R.(Lit); ok {
					out[ar.Var] = append(out[ar.Var], sarg{attr: ar.Attr, op: x.Op, v: lit.V})
				}
			}
			if ar, ok := x.R.(AttrRef); ok {
				if lit, ok := x.L.(Lit); ok {
					out[ar.Var] = append(out[ar.Var], sarg{attr: ar.Attr, op: flip(x.Op), v: lit.V})
				}
			}
		}
	}
}

// extractIncipits pulls `var incipit "pattern"` conjuncts out of the
// qualification, keyed by variable.  Like extractSargs, only top-level
// `and` arms qualify; prepared statements substitute $n placeholders
// with literals before planning, so bound patterns are covered too.
// The predicate always stays in the residual qualification — the gram
// probe yields a candidate superset that the Match callback re-checks.
func extractIncipits(e Expr, out map[string]string) {
	switch x := e.(type) {
	case Binary:
		if x.Op == "and" {
			extractIncipits(x.L, out)
			extractIncipits(x.R, out)
		}
	case IncipitOp:
		vr, ok := x.L.(VarRef)
		if !ok {
			return
		}
		lit, ok := x.R.(Lit)
		if !ok || lit.V.Kind() != value.KindString {
			return
		}
		if _, dup := out[vr.Var]; !dup {
			out[vr.Var] = lit.V.AsString()
		}
	}
}

func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

// bindAll binds the instances of each variable and invokes fn for
// every surviving combination.  It plans access and join order
// (plan.go); in-package tests flip s.naive to run the nested-loop
// oracle bindAllNaive instead.  Both record per-variable scan
// statistics and combination counts when the session's planStats is
// live, check the context periodically so a canceled statement stops
// promptly, and stop scanning as soon as any variable has no bindings
// (zero combinations regardless of the qualification's shape).
func (s *Session) bindAll(ctx context.Context, vars []string, where Expr, fn func(env) error) error {
	infos := make(map[string]varInfo, len(vars))
	for _, v := range vars {
		info, err := s.varInfo(v)
		if err != nil {
			return err
		}
		infos[v] = info
	}
	sargs := map[string][]sarg{}
	if where != nil {
		extractSargs(where, sargs)
	}
	for v, ss := range sargs {
		compileSargs(ss, infos[v].fields)
	}
	if s.naive {
		return s.bindAllNaive(ctx, vars, infos, sargs, fn)
	}
	return s.bindAllPlanned(ctx, vars, infos, sargs, where, fn)
}

// bindAllNaive is the pre-planner executor: heap scans in alphabetical
// variable order, sarg filtering, nested-loop cross product.  The lists
// keep rows, decoded per variable as the loop binds them.
func (s *Session) bindAllNaive(ctx context.Context, vars []string, infos map[string]varInfo, sargs map[string][]sarg, fn func(env) error) error {
	lists := make([][]binding, len(vars))
	empty := false
	for i, v := range vars {
		info := infos[v]
		st := scanStats{Var: v, Rel: info.typ, Est: s.estimate(info)}
		for _, sg := range sargs[v] {
			st.Sargs = append(st.Sargs, fmt.Sprintf("%s.%s %s %s", v, sg.attr, sg.op, sg.v))
		}
		if empty {
			st.Skipped = true
			if s.ps != nil {
				s.ps.Scans = append(s.ps.Scans, st)
			}
			continue
		}
		start := time.Now()
		var list []binding
		err := s.scanVar(&info, nil, func(b binding) bool {
			st.Scanned++
			if !sargsMatch(sargs[v], b.attrs) {
				return true
			}
			st.Kept++
			list = append(list, b.kept())
			return true
		})
		st.Dur = time.Since(start)
		s.m.scanRows.Add(uint64(st.Scanned))
		if s.ps != nil {
			s.ps.Scans = append(s.ps.Scans, st)
		}
		if err != nil {
			return err
		}
		lists[i] = list
		if len(list) == 0 {
			empty = true
		}
	}
	if empty {
		if s.ps != nil {
			s.ps.Combos = 0
		}
		return nil
	}
	e := make(env, len(vars))
	bufs := make([]value.Tuple, len(vars))
	combos := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			combos++
			if combos&1023 == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w: %w", txn.ErrCanceled, err)
				}
			}
			return fn(e)
		}
		for _, b := range lists[i] {
			bufs[i] = b.decode(bufs[i])
			e[vars[i]] = b
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0)
	s.m.combos.Add(uint64(combos))
	if s.ps != nil {
		s.ps.Combos = combos
	}
	return err
}

// emitter evaluates the qualification and target list for one join
// combination and collects the resulting row.  It is the unit the
// parallel executor clones per worker: each worker gets its own emitter
// over its own session clone, so the only shared state on the emit path
// is the snapshot (safe for concurrent reads) and the atomic counters.
// Unique dedup deliberately does NOT happen here — retrieveStats applies
// it after the (merge-ordered) rows are assembled.
type emitter struct {
	s    *Session
	q    Retrieve
	ps   *planStats
	rows []value.Tuple
}

func (em *emitter) emit(e env) error {
	if em.q.Where != nil {
		em.ps.FilterIn++
		ok, err := em.s.evalBool(em.q.Where, e)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		em.ps.FilterOut++
	}
	var row value.Tuple
	for _, t := range em.q.Targets {
		if t.All {
			row = append(row, e[t.Var].attrs...)
			continue
		}
		v, err := em.s.eval(t.Expr, e)
		if err != nil {
			return err
		}
		row = append(row, v)
	}
	em.rows = append(em.rows, row)
	return nil
}

func (s *Session) retrieve(ctx context.Context, q Retrieve) (*Result, error) {
	res, _, err := s.retrieveStats(ctx, q)
	return res, err
}

// retrieveStats executes a retrieve and returns the plan statistics
// gathered along the way (used by explain).
func (s *Session) retrieveStats(ctx context.Context, q Retrieve) (*Result, *planStats, error) {
	ps := &planStats{}
	s.ps = ps
	defer func() { s.ps = nil }()
	start := time.Now()

	varSet := map[string]bool{}
	for _, t := range q.Targets {
		if t.All {
			varSet[t.Var] = true
		} else {
			collectVars(t.Expr, varSet)
		}
	}
	if q.Where != nil {
		collectVars(q.Where, varSet)
	}
	vars := sortedKeys(varSet)
	s.sortHint = sortHintFor(q, vars)
	defer func() { s.sortHint = nil }()

	// Resolve columns.
	res := &Result{}
	for _, t := range q.Targets {
		if t.All {
			info, err := s.varInfo(t.Var)
			if err != nil {
				return nil, nil, err
			}
			for _, a := range info.fields {
				label := a.Name
				if t.Label != "" {
					label = t.Label + "_" + a.Name
				}
				res.Columns = append(res.Columns, label)
			}
			continue
		}
		res.Columns = append(res.Columns, t.Label)
	}

	em := &emitter{s: s, q: q, ps: ps}
	s.emit = em
	err := s.bindAll(ctx, vars, q.Where, em.emit)
	s.emit = nil
	if err != nil {
		return nil, nil, err
	}
	rows := em.rows
	if q.Unique {
		// Dedup runs after the join (and after any parallel merge, which
		// reproduces the serial emit order), so first-occurrence-wins is
		// identical in every execution mode.
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		for _, row := range rows {
			key := string(value.AppendKeyTuple(nil, row))
			if seen[key] {
				ps.UniqueDropped++
				continue
			}
			seen[key] = true
			kept = append(kept, row)
		}
		rows = kept
	}
	res.Rows = rows
	if len(q.SortBy) > 0 && !ps.SortElided {
		sortStart := time.Now()
		if err := sortRows(res, q.SortBy); err != nil {
			return nil, nil, err
		}
		ps.SortDur = time.Since(sortStart)
	}
	ps.Emitted = len(res.Rows)
	ps.Total = time.Since(start)
	return res, ps, nil
}

// sortHintFor detects a retrieve whose sort could be satisfied by index
// order: one range variable, one sort key, and the sorted column is a
// plain attribute of that variable.  Rows then leave the index already
// in output order (ties fall in row-id order, which the stable sort
// would preserve anyway), so sortRows can be skipped.  The first target
// matching the label decides, mirroring sortRows' column resolution.
func sortHintFor(q Retrieve, vars []string) *sortHint {
	if len(q.SortBy) != 1 || len(vars) != 1 {
		return nil
	}
	for _, t := range q.Targets {
		if t.All {
			return nil
		}
	}
	k := q.SortBy[0]
	for _, t := range q.Targets {
		if !strings.EqualFold(t.Label, k.Label) {
			continue
		}
		ar, ok := t.Expr.(AttrRef)
		if !ok || ar.Var != vars[0] {
			return nil
		}
		return &sortHint{v: ar.Var, attr: ar.Attr, desc: k.Desc}
	}
	return nil
}

// sortRows orders the result by the named columns (the sort by clause).
func sortRows(res *Result, keys []SortKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		found := -1
		for ci, col := range res.Columns {
			if strings.EqualFold(col, k.Label) {
				found = ci
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("quel: sort by: no result column %q", k.Label)
		}
		idx[i] = found
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, ci := range idx {
			c := value.Compare(res.Rows[a][ci], res.Rows[b][ci])
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

func (s *Session) appendStmt(ctx context.Context, q Append) (*Result, error) {
	if _, ok := s.db.EntityType(q.EntityType); !ok {
		return nil, fmt.Errorf("quel: append: %w: %s", model.ErrNoEntityType, q.EntityType)
	}
	err := s.inTx(ctx, func(t model.Tx) error {
		if err := t.LockType(q.EntityType); err != nil {
			return err
		}
		attrs := model.Attrs{}
		for _, a := range q.Assigns {
			v, err := s.eval(a.Expr, nil)
			if err != nil {
				return err
			}
			attrs[a.Attr] = v
		}
		_, err := t.NewEntity(q.EntityType, attrs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

// write is one row's change, prepared while binding and applied after.
type write func(t model.Tx, typ string) error

// writeRows runs a replace or delete as one transaction that takes
// every X lock its writes need (lock: model.Tx.LockType for a replace,
// LockDelete for a delete, which also takes the S locks its reads need
// in the mutation lock order) before reading anything.  prepare runs once
// per distinct qualifying target instance while the join binds, so every
// read precedes every write; the prepared writes then apply in order.
// It returns the number of instances changed.
func (s *Session) writeRows(ctx context.Context, target string, vars []string, where Expr, lock func(t model.Tx, typ string) error, prepare func(ref value.Ref, e env) (write, error)) (int, error) {
	info, err := s.varInfo(target)
	if err != nil {
		return 0, err
	}
	var writes []write
	err = s.inTx(ctx, func(t model.Tx) error {
		if !info.isRel {
			if err := lock(t, info.typ); err != nil {
				return err
			}
		}
		writes = writes[:0]
		seen := map[value.Ref]bool{}
		err := s.bindAll(ctx, vars, where, func(e env) error {
			if where != nil {
				if ok, err := s.evalBool(where, e); err != nil || !ok {
					return err
				}
			}
			ref := e[target].ref
			if seen[ref] {
				return nil
			}
			seen[ref] = true
			w, err := prepare(ref, e)
			writes = append(writes, w)
			return err
		})
		for _, w := range writes {
			if err != nil {
				break
			}
			err = w(t, info.typ)
		}
		return err
	})
	return len(writes), err
}

func (s *Session) replace(ctx context.Context, q Replace) (*Result, error) {
	varSet := map[string]bool{q.Var: true}
	if q.Where != nil {
		collectVars(q.Where, varSet)
	}
	for _, a := range q.Assigns {
		collectVars(a.Expr, varSet)
	}
	n, err := s.writeRows(ctx, q.Var, sortedKeys(varSet), q.Where, model.Tx.LockType, func(ref value.Ref, e env) (write, error) {
		attrs := model.Attrs{}
		for _, a := range q.Assigns {
			v, err := s.eval(a.Expr, e)
			if err != nil {
				return nil, err
			}
			attrs[a.Attr] = v
		}
		return func(t model.Tx, typ string) error { return t.Update(typ, ref, attrs) }, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// readSet names the schema objects a write statement's qualification
// reads besides its target: the types of the other range variables and
// of aggregate variables, and the orderings of its order operators.  A
// name that does not resolve is left out; binding reports it.
func (s *Session) readSet(target string, vars []string, where Expr) []string {
	var names []string
	typeOf := func(v string) string {
		if info, err := s.varInfo(v); err == nil {
			return info.typ
		}
		return ""
	}
	for _, v := range vars {
		if v != target {
			names = append(names, typeOf(v))
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Binary:
			walk(x.L)
			walk(x.R)
		case Unary:
			walk(x.X)
		case OrderOp:
			l, lok := x.L.(VarRef)
			r, rok := x.R.(VarRef)
			if lok && rok {
				if o, err := s.resolveOrdering(x, typeOf(l.Var), typeOf(r.Var)); err == nil {
					names = append(names, o.Name)
				}
			}
		case Agg:
			inner := map[string]bool{x.Var: true}
			if x.Where != nil {
				collectVars(x.Where, inner)
				walk(x.Where)
			}
			for v := range inner {
				names = append(names, typeOf(v))
			}
		}
	}
	if where != nil {
		walk(where)
	}
	return names
}

func (s *Session) delete(ctx context.Context, q Delete) (*Result, error) {
	varSet := map[string]bool{q.Var: true}
	if q.Where != nil {
		collectVars(q.Where, varSet)
	}
	vars := sortedKeys(varSet)
	reads := s.readSet(q.Var, vars, q.Where)
	lock := func(t model.Tx, typ string) error { return t.LockDelete(typ, reads...) }
	n, err := s.writeRows(ctx, q.Var, vars, q.Where, lock, func(ref value.Ref, _ env) (write, error) {
		return func(t model.Tx, typ string) error { return t.Delete(typ, ref) }, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
