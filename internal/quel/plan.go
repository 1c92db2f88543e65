package quel

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// This file is the cost-based planning layer over bindAll (§5.2: stored
// order and access paths are the relational performance lever).  Three
// optimizations, each visible in explain and in the quel.plan.* metrics:
//
//   - index range scans: a sarg on an indexed attribute becomes a
//     B-tree key range (model.InstancesRange) instead of a full scan;
//   - hash equi-joins: v1.a = v2.b (and `is`) conjuncts build a hash
//     table on the new variable's bindings and probe it, instead of
//     looping the cross product;
//   - join ordering: variables join smallest post-sarg binding list
//     first, preferring variables connected to the already-joined set
//     by an equi- or ordering conjunct.
//
// The qualification is still evaluated in full for every emitted
// combination, so the join conjuncts only prune; they never decide truth
// on their own.  The pre-planner executor is retained as bindAllNaive,
// the oracle the in-package differential tests compare against; no
// non-test code can select it.

// planMetrics are the planner's observability handles (all nil-safe).
type planMetrics struct {
	scanFull    *obs.Counter // quel.plan.scan.full
	scanIndex   *obs.Counter // quel.plan.scan.index
	scanIncipit *obs.Counter // quel.plan.scan.incipit
	joinHash    *obs.Counter // quel.plan.join.hash
	joinLoop    *obs.Counter // quel.plan.join.loop
	joinProbe   *obs.Counter // quel.plan.join.probe
	hashProbes  *obs.Counter // quel.plan.hash.probes
	hashHits    *obs.Counter // quel.plan.hash.hits
	parQueries  *obs.Counter // quel.par.queries
	parMorsels  *obs.Counter // quel.par.morsels
}

// accessPath describes how one variable's bindings are produced: a heap
// scan, or a range of a secondary index.
type accessPath struct {
	index         string // secondary index name; empty = heap scan
	attr          string // attribute the index covers (plan-cache replay)
	lo, hi        []byte // encoded key bounds, nil = open
	rng           string // bound description for explain
	est           int    // row estimate (order-statistics count for ranges)
	reverse       bool   // descending index order (sort by ... desc)
	satisfiesSort bool   // index order doubles as the output sort order
	// incipit marks a gram-index candidate scan (IncipitScan): the
	// bounds range the companion gram type's index on `gram`, and the
	// bindings are the distinct entries posted there.  The incipit
	// predicate itself stays in the residual qualification.
	incipit bool
	gram    string // probe gram chosen from the pattern
}

// sortHint asks the planner to produce one variable's bindings in the
// order of an attribute, so a trailing sort can be skipped.
type sortHint struct {
	v    string
	attr string
	desc bool
}

// varPlan is one range variable's slice of the plan.
type varPlan struct {
	name   string
	info   varInfo
	sargs  []sarg
	access accessPath
	list   []binding
	byRef  map[value.Ref]int // entity ref → list position (order probes)
}

// joinKey selects the join-key value of one side of an equi-conjunct: an
// attribute of the variable or, with idx < 0, the entity itself.
type joinKey struct {
	v    string
	attr string
	idx  int
	kind value.Kind
}

func (k joinKey) value(b binding) value.Value {
	if k.idx < 0 {
		return value.RefVal(b.ref)
	}
	return b.attrs[k.idx]
}

func (k joinKey) String() string {
	if k.idx < 0 {
		return k.v
	}
	return k.v + "." + k.attr
}

// equiCond is a v1.a = v2.b (or `is`) conjunct usable as a hash-join key.
type equiCond struct {
	l, r joinKey
	desc string
}

// orderCond is a before/after/under conjunct between two distinct
// variables, with its ordering resolved at plan time.
type orderCond struct {
	op       string
	l, r     string
	ordering string
	desc     string
}

// extractJoinConds pulls hash-joinable and probe-able conjuncts out of
// the qualification.  Only top-level `and` arms qualify, mirroring
// extractSargs: anything under or/not must see the full evaluator.
func (s *Session) extractJoinConds(e Expr, infos map[string]varInfo, equis *[]equiCond, orders *[]orderCond) {
	switch x := e.(type) {
	case Binary:
		if x.Op == "and" {
			s.extractJoinConds(x.L, infos, equis, orders)
			s.extractJoinConds(x.R, infos, equis, orders)
			return
		}
		if x.Op != "=" {
			return
		}
		l, lok := joinKeyOf(x.L, infos)
		r, rok := joinKeyOf(x.R, infos)
		// Hashing requires the declared kinds to match exactly: the
		// order-preserving key encoding is bijective within one kind, so
		// key equality coincides with Compare == 0; across kinds (int
		// vs. float) it does not.
		if lok && rok && l.v != r.v && l.kind == r.kind {
			*equis = append(*equis, equiCond{l: l, r: r, desc: l.String() + " = " + r.String()})
		}
	case IsOp:
		l, lok := joinKeyOf(x.L, infos)
		r, rok := joinKeyOf(x.R, infos)
		if lok && rok && l.v != r.v && l.kind == value.KindRef && r.kind == value.KindRef {
			*equis = append(*equis, equiCond{l: l, r: r, desc: l.String() + " is " + r.String()})
		}
	case OrderOp:
		lv, lok := x.L.(VarRef)
		rv, rok := x.R.(VarRef)
		if !lok || !rok || lv.Var == rv.Var {
			return
		}
		li, lok := infos[lv.Var]
		ri, rok := infos[rv.Var]
		if !lok || !rok {
			return
		}
		var childType, parentType string
		switch x.Op {
		case "under":
			childType, parentType = li.typ, ri.typ
		default:
			childType = li.typ
		}
		o, err := s.db.FindOrdering(x.Order, childType, parentType)
		if err != nil {
			return // unresolvable here; full evaluation reports it
		}
		*orders = append(*orders, orderCond{op: x.Op, l: lv.Var, r: rv.Var, ordering: o.Name,
			desc: fmt.Sprintf("%s %s %s in %s", lv.Var, x.Op, rv.Var, o.Name)})
	}
}

// joinKeyOf resolves one side of an equi-conjunct to a key extractor.
func joinKeyOf(e Expr, infos map[string]varInfo) (joinKey, bool) {
	switch x := e.(type) {
	case AttrRef:
		info, ok := infos[x.Var]
		if !ok {
			return joinKey{}, false
		}
		i, ok := fieldIndex(info.fields, x.Attr)
		if !ok {
			return joinKey{}, false
		}
		f := info.fields[i]
		return joinKey{v: x.Var, attr: f.Name, idx: i, kind: f.Kind}, true
	case VarRef:
		info, ok := infos[x.Var]
		if !ok || info.isRel {
			return joinKey{}, false
		}
		return joinKey{v: x.Var, idx: -1, kind: value.KindRef}, true
	}
	return joinKey{}, false
}

// maxKeySuffix exceeds the 8-byte row-id suffix appended to non-unique
// index keys: enc(v)+maxKeySuffix is greater than every key whose value
// part is enc(v) and, because one encoded value is never a prefix of
// another, smaller than every key encoding a larger value.
var maxKeySuffix = bytes.Repeat([]byte{0xFF}, 9)

func withMaxSuffix(enc []byte) []byte {
	return append(append([]byte(nil), enc...), maxKeySuffix...)
}

// indexRange matches attr against a secondary index and converts the
// variable's sargs on it into encoded key bounds.  Only literals whose
// kind equals the declared attribute kind contribute bounds (mixed-kind
// comparisons like int vs. float don't share key space); every sarg
// stays a residual filter regardless, so bounds only need to be sound
// supersets.
func (s *Session) indexRange(rel *storage.Relation, info varInfo, attr string, sargs []sarg) (accessPath, bool) {
	i, ok := fieldIndex(info.fields, attr)
	if !ok {
		return accessPath{}, false
	}
	f := info.fields[i]
	spec, ok := rel.IndexByColumn(f.Name)
	if !ok {
		return accessPath{}, false
	}
	var lo, hi []byte
	var parts []string
	for _, sg := range sargs {
		if !strings.EqualFold(sg.attr, f.Name) || sg.v.Kind() != f.Kind {
			continue
		}
		enc := value.AppendKey(nil, sg.v)
		var cl, ch []byte
		switch sg.op {
		case "=":
			cl, ch = enc, withMaxSuffix(enc)
		case ">=":
			cl = enc
		case ">":
			cl = withMaxSuffix(enc)
		case "<":
			ch = enc
		case "<=":
			ch = withMaxSuffix(enc)
		default:
			continue
		}
		if cl != nil && (lo == nil || bytes.Compare(cl, lo) > 0) {
			lo = cl
		}
		if ch != nil && (hi == nil || bytes.Compare(ch, hi) < 0) {
			hi = ch
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", f.Name, sg.op, sg.v))
	}
	est := s.db.InstancesRangeCount(info.typ, spec.Name, lo, hi)
	if est < 0 {
		return accessPath{}, false
	}
	return accessPath{index: spec.Name, attr: f.Name, lo: lo, hi: hi, rng: strings.Join(parts, " and "), est: est}, true
}

// incipitRange plans a gram-index candidate scan for an incipit
// conjunct on a variable: the registered index maps the pattern to its
// most selective gram, and order statistics on the gram index price the
// resulting posting range.  ok is false whenever the index cannot serve
// the pattern (none registered, pattern too short or malformed, gram
// index missing or deferred); the caller then falls back to other
// access paths and the residual predicate still decides truth.
func (s *Session) incipitRange(info varInfo, pattern string) (accessPath, bool) {
	spec, ok := s.db.IncipitIndexFor(info.typ)
	if !ok {
		return accessPath{}, false
	}
	gram, ok := spec.Gram(pattern)
	if !ok {
		return accessPath{}, false
	}
	ixName, ok := s.db.AttrIndexName(spec.GramType, spec.GramAttr)
	if !ok {
		return accessPath{}, false
	}
	lo := value.AppendKey(nil, value.Str(gram))
	hi := withMaxSuffix(lo)
	est := s.db.InstancesRangeCount(spec.GramType, ixName, lo, hi)
	if est < 0 {
		return accessPath{}, false
	}
	return accessPath{incipit: true, index: ixName, gram: gram, lo: lo, hi: hi,
		rng: fmt.Sprintf("gram = %q", gram), est: est}, true
}

// chooseAccess picks the access path for one variable: the most
// selective sarg-bounded index range (by order-statistics count), a
// gram-index incipit probe, the sort attribute's index when that lets
// the sort be skipped, or a heap scan.
func (s *Session) chooseAccess(varName string, info varInfo, sargs []sarg, incipits map[string]string) accessPath {
	full := accessPath{est: s.estimate(info)}
	if info.isRel {
		return full
	}
	rel := s.db.Store().Relation(s.db.InstanceRelation(info.typ))
	if rel == nil {
		return full
	}
	if h := s.sortHint; h != nil && h.v == varName {
		if ap, ok := s.indexRange(rel, info, h.attr, sargs); ok {
			ap.satisfiesSort = true
			ap.reverse = h.desc
			return ap
		}
	}
	best, found := full, false
	if pat, ok := incipits[varName]; ok {
		if ap, ok := s.incipitRange(info, pat); ok {
			best, found = ap, true
		}
	}
	for _, f := range info.fields {
		ap, ok := s.indexRange(rel, info, f.Name, sargs)
		if !ok || (ap.lo == nil && ap.hi == nil) {
			continue // unbounded: no cheaper than the heap scan
		}
		if !found || ap.est < best.est {
			best, found = ap, true
		}
	}
	return best
}

// scanPlan materializes one variable's binding list through its chosen
// access path, applying the residual sargs.  Tuples are not cloned: the
// storage layer never mutates stored tuples in place, so bindings may
// alias them for the statement's lifetime.
func (s *Session) scanPlan(ctx context.Context, vp *varPlan) error {
	st := scanStats{Var: vp.name, Rel: vp.info.typ, Est: vp.access.est,
		Index: vp.access.index, Range: vp.access.rng, Incipit: vp.access.incipit}
	for _, sg := range vp.sargs {
		st.Sargs = append(st.Sargs, fmt.Sprintf("%s.%s %s %s", vp.name, sg.attr, sg.op, sg.v))
	}
	start := time.Now()
	collect := func(b binding) bool {
		st.Scanned++
		if !sargMatches(vp.sargs, b.fields, b.attrs) {
			return true
		}
		st.Kept++
		vp.list = append(vp.list, b)
		return true
	}
	var err error
	if vp.access.incipit {
		s.pm.scanIncipit.Inc()
		err = s.incipitScan(ctx, vp, collect)
	} else if vp.access.index != "" {
		s.pm.scanIndex.Inc()
		emit := func(ref value.Ref, attrs value.Tuple) bool {
			return collect(binding{ref: ref, attrs: attrs, fields: vp.info.fields, typ: vp.info.typ})
		}
		if did, perr := s.scanIndexParallel(ctx, vp, &st); did {
			err = perr
		} else if snap := s.snap; snap != nil {
			err = snap.InstancesRange(vp.info.typ, vp.access.index, vp.access.lo, vp.access.hi, vp.access.reverse, emit)
		} else {
			err = s.db.InstancesRangeCtx(ctx, vp.info.typ, vp.access.index, vp.access.lo, vp.access.hi, vp.access.reverse, emit)
		}
	} else {
		s.pm.scanFull.Inc()
		err = s.scanVarCtx(ctx, vp.info, collect)
	}
	st.Dur = time.Since(start)
	s.m.scanRows.Add(uint64(st.Scanned))
	if s.ps != nil {
		s.ps.Scans = append(s.ps.Scans, st)
	}
	return err
}

// incipitScan materializes a variable's bindings from its gram-index
// access path: range the companion gram type's index for the probe
// gram, dedup the posted entry refs (an incipit can contain one gram
// several times), then fetch each candidate entity through its type's
// unique surrogate index.  The emitted set is a superset of the true
// answer; the incipit predicate remains in the qualification and the
// Match callback rejects gram collisions per combination.
func (s *Session) incipitScan(ctx context.Context, vp *varPlan, collect func(binding) bool) error {
	spec, ok := s.db.IncipitIndexFor(vp.info.typ)
	if !ok {
		return fmt.Errorf("quel: no incipit index registered for %s", vp.info.typ)
	}
	gt, ok := s.db.EntityType(spec.GramType)
	if !ok {
		return fmt.Errorf("quel: incipit gram type %s not defined", spec.GramType)
	}
	ei, ok := gt.AttrIndex(spec.EntryAttr)
	if !ok {
		return fmt.Errorf("quel: incipit gram type %s has no attribute %q", spec.GramType, spec.EntryAttr)
	}
	seen := make(map[value.Ref]bool)
	var cands []value.Ref
	emitGram := func(_ value.Ref, attrs value.Tuple) bool {
		r := attrs[ei].AsRef()
		if !seen[r] {
			seen[r] = true
			cands = append(cands, r)
		}
		return true
	}
	var err error
	if snap := s.snap; snap != nil {
		err = snap.InstancesRange(spec.GramType, vp.access.index, vp.access.lo, vp.access.hi, false, emitGram)
	} else {
		err = s.db.InstancesRangeCtx(ctx, spec.GramType, vp.access.index, vp.access.lo, vp.access.hi, false, emitGram)
	}
	if err != nil {
		return err
	}
	refIx, ok := s.db.AttrIndexName(vp.info.typ, "_ref")
	if !ok {
		return fmt.Errorf("quel: %s has no surrogate index", vp.info.typ)
	}
	emit := func(ref value.Ref, attrs value.Tuple) bool {
		return collect(binding{ref: ref, attrs: attrs, fields: vp.info.fields, typ: vp.info.typ})
	}
	for _, ref := range cands {
		klo := value.AppendKey(nil, value.RefVal(ref))
		khi := withMaxSuffix(klo)
		if snap := s.snap; snap != nil {
			err = snap.InstancesRange(vp.info.typ, refIx, klo, khi, false, emit)
		} else {
			err = s.db.InstancesRangeCtx(ctx, vp.info.typ, refIx, klo, khi, false, emit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

type joinMethod uint8

const (
	joinScan joinMethod = iota // first variable: plain iteration
	joinLoop
	joinHash
	joinProbe
)

func (m joinMethod) String() string {
	switch m {
	case joinHash:
		return "hash"
	case joinProbe:
		return "probe"
	case joinScan:
		return "scan"
	}
	return "loop"
}

// joinStep adds one variable to the left-deep join.
type joinStep struct {
	vp     *varPlan
	method joinMethod
	cond   string
	// hash join
	build []joinKey
	probe []joinKey
	table map[string][]int
	// order probe
	oc        orderCond
	newIsLeft bool
	otherVar  string

	est int // estimated combinations after this step joins
}

// stepCount accumulates one driver's probe/hit counts for a step.  The
// counts live outside joinStep so parallel workers driving disjoint
// morsels over the same (read-only) steps never write shared memory.
type stepCount struct{ probes, hits int }

// appendHashKey encodes v for hash-join key equality.  Within one
// declared kind the order-preserving encoding is bijective, except that
// -0.0 and +0.0 compare equal with distinct encodings; fold them.
func appendHashKey(dst []byte, v value.Value) []byte {
	if v.Kind() == value.KindFloat && v.AsFloat() == 0 {
		v = value.Float(0)
	}
	return value.AppendKey(dst, v)
}

func buildHashTable(vp *varPlan, build []joinKey) map[string][]int {
	h := make(map[string][]int, len(vp.list))
	var buf []byte
	for li := range vp.list {
		buf = buf[:0]
		for _, k := range build {
			buf = appendHashKey(buf, k.value(vp.list[li]))
		}
		h[string(buf)] = append(h[string(buf)], li)
	}
	return h
}

// distinctOf estimates how many distinct join-key values a variable's
// binding list carries.  Entity refs are unique by construction; indexed
// attributes use the per-index distinct count maintained by the storage
// layer (rebuilt on checkpoint, refreshed lazily on churn); anything
// else falls back to a tenth of the list — the classic guess for an
// unindexed equi-key.
func (s *Session) distinctOf(vp *varPlan, k joinKey) int {
	n := len(vp.list)
	if n == 0 {
		return 1
	}
	if k.idx < 0 {
		return n
	}
	if !vp.info.isRel {
		if ixName, ok := s.db.AttrIndexName(vp.info.typ, k.attr); ok {
			if st, ok := s.db.InstanceIndexStats(vp.info.typ, ixName); ok && st.Distinct > 0 {
				if st.Distinct < n {
					return st.Distinct
				}
				return n
			}
		}
	}
	if d := n / 10; d > 1 {
		return d
	}
	return 1
}

// orderFanout estimates an ordering probe's partner count per bound row:
// one parent when the new variable is the parent side of `under`; the
// average family size (children over parents) when it is the child side;
// half the average sibling count for before/after.
func (s *Session) orderFanout(vp *varPlan, oc orderCond, newIsLeft bool) float64 {
	if oc.op == "under" && !newIsLeft {
		return 1
	}
	parents := 1
	if o, ok := s.db.OrderingByName(oc.ordering); ok {
		if n := s.db.Count(o.Parent); n > 0 {
			parents = n
		}
	}
	fan := float64(len(vp.list)) / float64(parents)
	if oc.op != "under" {
		fan /= 2
	}
	if fan < 1 {
		fan = 1
	}
	return fan
}

// estFanout estimates how many combinations each already-joined row
// yields when vp joins next.  Equi-conjuncts into the joined set divide
// the list by the larger side's distinct count (containment assumption);
// failing those, a connecting ordering conjunct bounds the fan-out by
// its expected partner count; an unconnected variable contributes its
// whole list (cross product).  Mirrors makeStep's method choice: hash
// when equi-connected, probe when order-connected, loop otherwise.
func (s *Session) estFanout(vp *varPlan, byName map[string]*varPlan, chosen map[string]bool, equis []equiCond, orders []orderCond) float64 {
	fan := float64(len(vp.list))
	conn := false
	for _, ec := range equis {
		var mine, theirs joinKey
		switch {
		case ec.l.v == vp.name && chosen[ec.r.v]:
			mine, theirs = ec.l, ec.r
		case ec.r.v == vp.name && chosen[ec.l.v]:
			mine, theirs = ec.r, ec.l
		default:
			continue
		}
		conn = true
		d := s.distinctOf(vp, mine)
		if op := byName[theirs.v]; op != nil {
			if od := s.distinctOf(op, theirs); od > d {
				d = od
			}
		}
		if d > 1 {
			fan /= float64(d)
		}
	}
	if conn {
		return fan
	}
	for _, oc := range orders {
		newIsLeft := oc.l == vp.name
		other := oc.r
		if !newIsLeft {
			if oc.r != vp.name {
				continue
			}
			other = oc.l
		}
		if !chosen[other] {
			continue
		}
		if f := s.orderFanout(vp, oc, newIsLeft); f < fan {
			fan = f
		}
	}
	return fan
}

// orderJoins picks the join order from planner statistics: each round
// adds the unchosen variable with the smallest estimated fan-out
// (estFanout; for the first variable that is simply its list size, so
// the smallest binding list still drives the pipeline).  Ties break on
// list size then variable name — plans stay deterministic for golden
// tests.  A non-nil forced order (plan-cache replay) skips the ranking
// but still computes each step's estimate for explain.
func (s *Session) orderJoins(plans []*varPlan, equis []equiCond, orders []orderCond, forced []string) []*joinStep {
	byName := make(map[string]*varPlan, len(plans))
	for _, vp := range plans {
		byName[vp.name] = vp
	}
	if len(forced) == len(plans) {
		for _, name := range forced {
			if byName[name] == nil {
				forced = nil
				break
			}
		}
	} else {
		forced = nil
	}
	chosen := make(map[string]bool, len(plans))
	steps := make([]*joinStep, 0, len(plans))
	estRows := 1.0
	for len(steps) < len(plans) {
		var best *varPlan
		var bestFan float64
		if forced != nil {
			best = byName[forced[len(steps)]]
			bestFan = s.estFanout(best, byName, chosen, equis, orders)
		} else {
			for _, vp := range plans { // plans arrive in sorted-name order
				if chosen[vp.name] {
					continue
				}
				fan := s.estFanout(vp, byName, chosen, equis, orders)
				if best == nil || fan < bestFan ||
					(fan == bestFan && len(vp.list) < len(best.list)) {
					best, bestFan = vp, fan
				}
			}
		}
		st := s.makeStep(best, chosen, equis, orders, len(steps) == 0)
		if estRows *= bestFan; estRows > 1e15 {
			estRows = 1e15 // saturate: float-to-int overflow is undefined
		}
		st.est = int(estRows)
		steps = append(steps, st)
		chosen[best.name] = true
	}
	return steps
}

// makeStep decides how variable vp joins the already-chosen set: a hash
// join keyed on every connecting equi-conjunct, an ordering probe, or a
// nested loop.
func (s *Session) makeStep(vp *varPlan, chosen map[string]bool, equis []equiCond, orders []orderCond, first bool) *joinStep {
	st := &joinStep{vp: vp, method: joinScan}
	if first {
		return st
	}
	var parts []string
	for _, ec := range equis {
		var b, p joinKey
		switch {
		case ec.l.v == vp.name && chosen[ec.r.v]:
			b, p = ec.l, ec.r
		case ec.r.v == vp.name && chosen[ec.l.v]:
			b, p = ec.r, ec.l
		default:
			continue
		}
		st.build = append(st.build, b)
		st.probe = append(st.probe, p)
		parts = append(parts, ec.desc)
	}
	if len(st.build) > 0 {
		st.method = joinHash
		st.cond = strings.Join(parts, " and ")
		if s.parWorkers > 1 && len(vp.list) >= s.parMin {
			st.table = s.buildHashTableParallel(vp, st.build)
		} else {
			st.table = buildHashTable(vp, st.build)
		}
		s.pm.joinHash.Inc()
		return st
	}
	if !vp.info.isRel {
		for _, oc := range orders {
			if oc.l == vp.name && chosen[oc.r] {
				st.method, st.oc, st.newIsLeft, st.otherVar, st.cond = joinProbe, oc, true, oc.r, oc.desc
				break
			}
			if oc.r == vp.name && chosen[oc.l] {
				st.method, st.oc, st.newIsLeft, st.otherVar, st.cond = joinProbe, oc, false, oc.l, oc.desc
				break
			}
		}
	}
	if st.method == joinProbe {
		vp.byRef = make(map[value.Ref]int, len(vp.list))
		for li := range vp.list {
			vp.byRef[vp.list[li].ref] = li
		}
		s.pm.joinProbe.Inc()
		return st
	}
	st.method = joinLoop
	s.pm.joinLoop.Inc()
	return st
}

// children, childPosition, siblingsBefore, and siblingsAfter route an
// ordering read through the statement snapshot when one is pinned, and
// through the live (locking) runtime otherwise.
func (s *Session) children(ordering string, parent value.Ref) ([]value.Ref, error) {
	if snap := s.snap; snap != nil {
		return snap.Children(ordering, parent)
	}
	return s.db.Children(ordering, parent)
}

func (s *Session) childPosition(ordering string, child value.Ref) (value.Ref, int64, bool, error) {
	if snap := s.snap; snap != nil {
		return snap.ChildPosition(ordering, child)
	}
	return s.db.ChildPosition(ordering, child)
}

func (s *Session) siblingsBefore(ordering string, child value.Ref) ([]value.Ref, error) {
	if snap := s.snap; snap != nil {
		return snap.SiblingsBefore(ordering, child)
	}
	return s.db.SiblingsBefore(ordering, child)
}

func (s *Session) siblingsAfter(ordering string, child value.Ref) ([]value.Ref, error) {
	if snap := s.snap; snap != nil {
		return snap.SiblingsAfter(ordering, child)
	}
	return s.db.SiblingsAfter(ordering, child)
}

// probeRefs returns the candidate refs for an ordering probe, given the
// bound binding of the step's other variable.  The sets are exactly the
// conjunct's satisfying partners (rank-key range scans over the sibling
// tree, or the P-edge for under), so the residual evaluation only
// re-confirms them.
func (s *Session) probeRefs(st *joinStep, other binding) ([]value.Ref, error) {
	switch st.oc.op {
	case "under":
		if st.newIsLeft { // new is the child: the other's children
			return s.children(st.oc.ordering, other.ref)
		}
		parent, _, ok, err := s.childPosition(st.oc.ordering, other.ref)
		if err != nil || !ok {
			return nil, err
		}
		return []value.Ref{parent}, nil
	case "before":
		if st.newIsLeft {
			return s.siblingsBefore(st.oc.ordering, other.ref)
		}
		return s.siblingsAfter(st.oc.ordering, other.ref)
	case "after":
		if st.newIsLeft {
			return s.siblingsAfter(st.oc.ordering, other.ref)
		}
		return s.siblingsBefore(st.oc.ordering, other.ref)
	}
	return nil, nil
}

// stepRun drives the materialized left-deep join: rec(k) binds steps[k]
// against the current environment and recurses.  All mutable state —
// environment, probe/hit counts, combination counter — lives on the run,
// so parallel workers can drive disjoint driver morsels over the same
// (read-only after planning) steps with a stepRun each, race-free.
type stepRun struct {
	s      *Session
	ctx    context.Context
	steps  []*joinStep
	counts []stepCount
	e      env
	fn     func(env) error
	combos int
	work   int
}

func (r *stepRun) rec(k int) error {
	if k == len(r.steps) {
		r.combos++
		return r.fn(r.e)
	}
	r.work++
	if r.work&1023 == 0 && r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", txn.ErrCanceled, err)
		}
	}
	s := r.s
	st := r.steps[k]
	vp := st.vp
	r.counts[k].probes++
	switch st.method {
	case joinHash:
		var buf []byte
		for _, p := range st.probe {
			buf = appendHashKey(buf, p.value(r.e[p.v]))
		}
		s.pm.hashProbes.Inc()
		for _, li := range st.table[string(buf)] {
			r.counts[k].hits++
			s.pm.hashHits.Inc()
			r.e[vp.name] = vp.list[li]
			if err := r.rec(k + 1); err != nil {
				return err
			}
		}
	case joinProbe:
		refs, err := s.probeRefs(st, r.e[st.otherVar])
		if err != nil {
			return err
		}
		for _, ref := range refs {
			li, ok := vp.byRef[ref]
			if !ok {
				continue
			}
			r.counts[k].hits++
			r.e[vp.name] = vp.list[li]
			if err := r.rec(k + 1); err != nil {
				return err
			}
		}
	default:
		for li := range vp.list {
			r.counts[k].hits++
			r.e[vp.name] = vp.list[li]
			if err := r.rec(k + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// bindAllPlanned is the cost-based executor behind bindAll.
func (s *Session) bindAllPlanned(ctx context.Context, vars []string, infos map[string]varInfo, sargs map[string][]sarg, where Expr, fn func(env) error) error {
	var equis []equiCond
	var orders []orderCond
	incipits := map[string]string{}
	if where != nil {
		s.extractJoinConds(where, infos, &equis, &orders)
		extractIncipits(where, incipits)
	}
	cached, key := s.lookupPlan(vars, infos, where)
	plans := make([]*varPlan, len(vars))
	for i, v := range vars {
		vp := &varPlan{name: v, info: infos[v], sargs: sargs[v]}
		if cached != nil {
			vp.access = s.cachedAccessPath(cached, vp, incipits)
		} else {
			vp.access = s.chooseAccess(v, vp.info, vp.sargs, incipits)
		}
		plans[i] = vp
	}
	// Materialize binding lists; any empty list means zero combinations
	// whatever the qualification, so remaining scans are skipped.
	empty := false
	for _, vp := range plans {
		if empty {
			if s.ps != nil {
				st := scanStats{Var: vp.name, Rel: vp.info.typ, Est: vp.access.est,
					Index: vp.access.index, Range: vp.access.rng, Skipped: true}
				for _, sg := range vp.sargs {
					st.Sargs = append(st.Sargs, fmt.Sprintf("%s.%s %s %s", vp.name, sg.attr, sg.op, sg.v))
				}
				s.ps.Scans = append(s.ps.Scans, st)
			}
			continue
		}
		if err := s.scanPlan(ctx, vp); err != nil {
			return err
		}
		if len(vp.list) == 0 {
			empty = true
		}
	}
	if s.ps != nil && len(plans) == 1 && plans[0].access.satisfiesSort {
		s.ps.SortElided = true
		s.ps.SortIndex = plans[0].access.index
	}
	if empty {
		return nil
	}
	var forced []string
	if cached != nil {
		forced = cached.order
	}
	steps := s.orderJoins(plans, equis, orders, forced)
	if cached == nil && key != "" {
		s.storePlan(key, plans, steps)
	}
	if s.parallelOK(steps) {
		return s.runParallelJoin(ctx, steps)
	}
	run := &stepRun{s: s, ctx: ctx, steps: steps,
		counts: make([]stepCount, len(steps)), e: make(env, len(plans)), fn: fn}
	err := run.rec(0)
	s.m.combos.Add(uint64(run.combos))
	if s.ps != nil {
		s.ps.Combos = run.combos
		s.recordSteps(steps, run.counts)
	}
	return err
}

// recordSteps copies the planned steps and their counts into the live
// planStats for explain.
func (s *Session) recordSteps(steps []*joinStep, counts []stepCount) {
	for k, st := range steps {
		s.ps.Steps = append(s.ps.Steps, joinStat{Var: st.vp.name, Method: st.method.String(),
			Cond: st.cond, Est: st.est, Build: len(st.vp.list),
			Probes: counts[k].probes, Hits: counts[k].hits})
	}
}

// stmtCache memoizes ordering resolution and child positions for the
// duration of one statement, so before/after/under evaluations inside a
// join don't re-walk internal/model's structures per binding pair.
// Orderings are not mutated inside a QUEL statement, so the cache cannot
// go stale before execOne clears it.
type stmtCache struct {
	orderings map[string]*model.Ordering
	pos       map[string]map[value.Ref]posEntry
}

type posEntry struct {
	parent value.Ref
	rank   int64
	ok     bool
}

func newStmtCache() *stmtCache {
	return &stmtCache{
		orderings: make(map[string]*model.Ordering),
		pos:       make(map[string]map[value.Ref]posEntry),
	}
}

// resolveOrdering resolves the ordering an OrderOp refers to, cached per
// (name, operand types).
func (s *Session) resolveOrdering(x OrderOp, ltyp, rtyp string) (*model.Ordering, error) {
	var childType, parentType string
	switch x.Op {
	case "under":
		childType, parentType = ltyp, rtyp
	default:
		childType = ltyp
	}
	c := s.cache
	if c == nil {
		return s.db.FindOrdering(x.Order, childType, parentType)
	}
	key := x.Order + "|" + childType + "|" + parentType
	if o, ok := c.orderings[key]; ok {
		return o, nil
	}
	o, err := s.db.FindOrdering(x.Order, childType, parentType)
	if err != nil {
		return nil, err
	}
	c.orderings[key] = o
	return o, nil
}

// childPos returns ref's cached position (parent and rank) in ordering.
func (s *Session) childPos(ordering string, ref value.Ref) (posEntry, error) {
	c := s.cache
	if c == nil {
		parent, rank, ok, err := s.childPosition(ordering, ref)
		return posEntry{parent: parent, rank: rank, ok: ok}, err
	}
	m := c.pos[ordering]
	if m == nil {
		m = make(map[value.Ref]posEntry)
		c.pos[ordering] = m
	}
	if pe, ok := m[ref]; ok {
		return pe, nil
	}
	parent, rank, ok, err := s.childPosition(ordering, ref)
	if err != nil {
		return posEntry{}, err
	}
	pe := posEntry{parent: parent, rank: rank, ok: ok}
	m[ref] = pe
	return pe, nil
}
