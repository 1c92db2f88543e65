package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/biblio"
	"repro/internal/client"
	"repro/internal/ingest"
	"repro/internal/mdm"
	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// Statement classes of the two catalogue workloads.  The first six
// read; the last four write and appear only in catalogue-mixed.
const (
	cLookup = iota
	cRange
	cMovements
	cDerived
	cByWriter
	cIncipit
	cAppend
	cReplace
	cDelete
	cTrickle
	nCatClasses
)

// catStmts are the statements in their prepared form.  catalogue-read
// sends them as ad-hoc text with the arguments spliced in, so every
// statement is parsed and the plan cache is hit by shape;
// catalogue-mixed prepares them once per connection.  Each source
// declares its own range variables because a pooled connection is a
// session of its own.
var catStmts = [nCatClasses]string{
	cLookup: `range of e is CATALOG_ENTRY retrieve (e.number, e.title, e.measures, e.copies) where e.number = $1`,
	cRange:  `range of e is CATALOG_ENTRY retrieve (num = e.number, e.title) where e.number >= $1 and e.number < $2 sort by num`,
	cMovements: `range of e is CATALOG_ENTRY range of p is PART_OF ` +
		`retrieve (p.seq, e.number, e.title) where p.parent = $1 and e.number = p.movement`,
	cDerived: `range of e is CATALOG_ENTRY range of d is DERIVED_FROM ` +
		`retrieve (e.number, e.title) where d.source = $1 and e.number = d.work`,
	cByWriter: `range of e is CATALOG_ENTRY range of w is WROTE range of a is WRITER ` +
		`retrieve (a.name, w.role, e.number) where a.number = $1 and w.writer = a.number and e.number = w.work`,
	cIncipit: `range of e is CATALOG_ENTRY retrieve (e.number) where e incipit $1`,
	cAppend:  `append to CATALOG_ENTRY (number = $1, title = $2, measures = $3, copies = $4)`,
	cReplace: `range of e is CATALOG_ENTRY replace e (copies = $2) where e.number = $1`,
	cDelete:  `range of e is CATALOG_ENTRY delete e where e.number = $1`,
}

// catalogueDDL adds the PrOCAV / Writer–Work shapes of SNIPPETS.md to
// the bibliographic schema: works derived from works, works that are
// parts (movements) of works, and a many-to-many wrote(writer, work)
// with a role attribute.  They are entities keyed by catalogue number
// so that QUEL joins them through secondary indexes.
var catalogueDDL = []string{
	`define entity WRITER (number = integer, name = string)`,
	`define entity WROTE (writer = integer, work = integer, role = string)`,
	`define entity DERIVED_FROM (source = integer, work = integer)`,
	`define entity PART_OF (parent = integer, movement = integer, seq = integer)`,
	`define index on CATALOG_ENTRY (number)`,
	`define index on WRITER (number)`,
	`define index on WROTE (writer)`,
	`define index on DERIVED_FROM (source)`,
	`define index on PART_OF (parent)`,
}

const (
	loadBatch    = 512       // works per transaction of the set-up load
	rangeWidth   = 50        // rows an indexed range statement returns
	trickleBatch = 32        // works per bulk-ingest trickle operation
	appendBase   = 1_000_000 // catalogue numbers the harness appends through QUEL
	trickleBase  = 2_000_000 // catalogue numbers the trickle loads
	incipitNotes = 7         // notes of a work's incipit used as a search pattern
	// mixedCheckpointBytes makes the background checkpointer fire many
	// times inside one catalogue-mixed run (the engine default of
	// 64 MiB would never be reached).
	mixedCheckpointBytes = 1 << 20
)

var writerRoles = []string{"composer", "lyricist", "arranger"}

// catBlock is the op mix as counts per block of 100 operations (see
// schedule).
type catBlock [nCatClasses]int

var (
	// 70 % lookup, 14 % range, 14 % relationship joins, 2 % incipit.
	catReadBlock = catBlock{cLookup: 70, cRange: 14, cMovements: 5, cDerived: 4, cByWriter: 5, cIncipit: 2}
	// catalogue-mixed: 70 % reads; 15 % append, 8 % replace, 4 % delete,
	// 3 % trickle over both connections.  The trickle is issued by
	// connection 0 only, which therefore appends less.  Lookups are 56 %
	// of all operations, not 0.7 x 70 = 49 %: with 49 the median
	// operation is the slowest lookup or the fastest range scan from
	// one run to the next, and p50_ms jumps between the two.
	catMixedBlocks = [2]catBlock{
		{cLookup: 56, cRange: 7, cMovements: 2, cDerived: 2, cByWriter: 2, cIncipit: 1, cAppend: 12, cReplace: 8, cDelete: 4, cTrickle: 6},
		{cLookup: 56, cRange: 7, cMovements: 2, cDerived: 2, cByWriter: 2, cIncipit: 1, cAppend: 18, cReplace: 8, cDelete: 4},
	}
)

// wroteRow is one wrote(writer, work, role) instance.
type wroteRow struct {
	work int
	role string
}

// catImage is a catalogue store set up for one run, with the harness's
// shadow of what was loaded into it.
type catImage struct {
	dir   string
	seed  int64
	works int
	mixed bool

	m   *mdm.MDM
	srv *server.Server
	cl  *client.Client
	cat value.Ref

	// Shadow of the loaded image, immutable once set up.  Index i
	// holds catalogue number i+1.
	titles    []string
	measures  []int
	intervals [][]int
	movements map[int][]int
	derived   map[int][]int
	byWriter  map[int][]wroteRow
	parents   []int
	sources   []int
	writers   int

	loadedBytes    int64         // user attribute bytes loaded at set-up
	ingest, reopen time.Duration // set-up: the bulk load, opening the checkpointed image
	workers        []*catWorker
}

func entryUserBytes(e *biblio.Entry) int64 {
	return int64(len(e.Title)+len(e.Setting)+len(e.ComposedWhen)) + 16 + 24*int64(len(e.Incipit))
}

func entryIntervals(e *biblio.Entry) []int {
	iv := make([]int, 0, len(e.Incipit))
	for i := 1; i < len(e.Incipit); i++ {
		iv = append(iv, e.Incipit[i].MIDIPitch-e.Incipit[i-1].MIDIPitch)
	}
	return iv
}

// setupCatalogue builds the catalogue image in a fresh directory: load
// the synthetic works through the bulk loader, add the relationship
// shapes, checkpoint, close, reopen from the image, serve it on
// loopback and connect.
func setupCatalogue(base string, seed int64, works int, mixed bool, clients int) (*catImage, error) {
	dir, err := workDir(base, "catalogue")
	if err != nil {
		return nil, err
	}
	im := &catImage{dir: dir, seed: seed, works: works, mixed: mixed}
	ckpt := int64(0)
	if mixed {
		ckpt = mixedCheckpointBytes
	}
	m, err := openServed(dir, ckpt)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess := m.NewSession()
	for _, src := range catalogueDDL {
		if _, err := sess.ExecContext(ctx, src); err != nil {
			m.Close()
			return nil, fmt.Errorf("ddl %q: %w", src, err)
		}
	}
	cat, err := m.Biblio.NewCatalog("Synthetic Werke Verzeichnis", "SWV", "bench")
	if err != nil {
		m.Close()
		return nil, err
	}
	start := time.Now()
	loader := ingest.NewLoader(m.Biblio, ingest.Options{BatchSize: loadBatch, DeferIndexes: true})
	if _, err := loader.LoadSynthetic(cat, seed, 1, works); err != nil {
		m.Close()
		return nil, fmt.Errorf("load synthetic catalogue: %w", err)
	}
	im.ingest = time.Since(start)
	im.shadowLoaded()
	if err := im.loadRelationships(m.Model); err != nil {
		m.Close()
		return nil, err
	}
	if err := m.Checkpoint(); err != nil {
		m.Close()
		return nil, err
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	start = time.Now()
	if im.m, err = openServed(dir, ckpt); err != nil {
		return nil, fmt.Errorf("reopen image: %w", err)
	}
	im.reopen = time.Since(start)
	if im.srv, im.cl, err = serve(im.m, clients); err != nil {
		im.m.Close()
		return nil, err
	}
	cats, err := im.m.Model.FindByAttr("CATALOG", "abbreviation", value.Str("SWV"))
	if err != nil || len(cats) != 1 {
		im.close()
		return nil, fmt.Errorf("catalogue SWV after reopen: %d found, err %v", len(cats), err)
	}
	im.cat = cats[0]
	return im, nil
}

// shadowLoaded regenerates the loaded works on the harness side (the
// generator is a pure function of seed and number) and keeps what the
// oracle compares against.
func (im *catImage) shadowLoaded() {
	im.titles = make([]string, im.works)
	im.measures = make([]int, im.works)
	im.intervals = make([][]int, im.works)
	for i := 0; i < im.works; i++ {
		e := biblio.SyntheticEntry(im.seed, i+1)
		im.titles[i], im.measures[i], im.intervals[i] = e.Title, e.Measures, entryIntervals(&e)
		im.loadedBytes += entryUserBytes(&e)
	}
}

// loadRelationships generates and bulk-inserts the writers, wrote,
// derived_from and part_of instances.
func (im *catImage) loadRelationships(db *model.Database) error {
	rng := rand.New(rand.NewSource(im.seed ^ 0x5ca1ab1e))
	im.writers = im.works / 10
	im.movements, im.derived, im.byWriter = map[int][]int{}, map[int][]int{}, map[int][]wroteRow{}
	var ents []model.BulkEntity
	flush := func(force bool) error {
		if len(ents) == 0 || (!force && len(ents) < 2048) {
			return nil
		}
		_, err := db.BulkInsert(ents, nil)
		ents = ents[:0]
		return err
	}
	add := func(typ string, attrs model.Attrs, bytes int) error {
		ents = append(ents, model.BulkEntity{Type: typ, Attrs: attrs})
		im.loadedBytes += int64(bytes)
		return flush(false)
	}
	for w := 1; w <= im.writers; w++ {
		name := fmt.Sprintf("Writer %d", w)
		if err := add("WRITER", model.Attrs{"number": value.Int(int64(w)), "name": value.Str(name)}, 8+len(name)); err != nil {
			return err
		}
	}
	for n := 1; n <= im.works; n++ {
		first := 0
		for k := 1 + rng.Intn(2); k > 0; k-- {
			w := 1 + rng.Intn(im.writers)
			if w == first {
				continue
			}
			first = w
			role := writerRoles[rng.Intn(len(writerRoles))]
			im.byWriter[w] = append(im.byWriter[w], wroteRow{n, role})
			if err := add("WROTE", model.Attrs{"writer": value.Int(int64(w)), "work": value.Int(int64(n)), "role": value.Str(role)}, 16+len(role)); err != nil {
				return err
			}
		}
		if n%5 == 1 && n+3 <= im.works {
			im.parents = append(im.parents, n)
			for seq := 1; seq <= 3; seq++ {
				im.movements[n] = append(im.movements[n], n+seq)
				if err := add("PART_OF", model.Attrs{"parent": value.Int(int64(n)), "movement": value.Int(int64(n + seq)), "seq": value.Int(int64(seq))}, 24); err != nil {
					return err
				}
			}
		}
		if n > 10 && rng.Intn(10) == 0 {
			src := 1 + rng.Intn(n-1)
			if len(im.derived[src]) == 0 {
				im.sources = append(im.sources, src)
			}
			im.derived[src] = append(im.derived[src], n)
			if err := add("DERIVED_FROM", model.Attrs{"source": value.Int(int64(src)), "work": value.Int(int64(n))}, 16); err != nil {
				return err
			}
		}
	}
	return flush(true)
}

func (im *catImage) mdm() *mdm.MDM { return im.m }

func (im *catImage) reopenTime() time.Duration { return im.reopen }

// userBytes is the user attribute data loaded at set-up plus what the
// workers wrote since.
func (im *catImage) userBytes() int64 {
	n := im.loadedBytes
	for _, w := range im.workers {
		n += w.writtenBytes
		for k := 0; k < w.trickles; k++ {
			for i := 0; i < trickleBatch; i++ {
				e := biblio.SyntheticEntry(im.seed, w.trickleStart(k)+i)
				n += entryUserBytes(&e)
			}
		}
	}
	return n
}

// close stops the server and the engine and removes the store.
func (im *catImage) close() {
	if im.cl != nil {
		im.cl.Close()
	}
	if im.srv != nil {
		_ = im.srv.Shutdown(context.Background())
	}
	if im.m != nil {
		im.m.Close()
	}
	os.RemoveAll(im.dir)
}

// textQuerier runs ad-hoc source text; stmtQuerier runs a prepared
// statement.  The wire client and the embedded session both satisfy
// them, which is what lets the traced pass replay a served op stream
// embedded.
type textQuerier interface {
	QueryContext(ctx context.Context, src string) (*quel.Result, error)
}

type stmtQuerier interface {
	QueryContext(ctx context.Context, args ...any) (*quel.Result, error)
}

// catWorker is one connection's deterministic op stream, its shadow of
// the rows it owns, and the oracle for its results.  A worker owns the
// catalogue numbers congruent to its index modulo the worker count, so
// what it wrote last is what it must read back whatever the other
// connection does.
type catWorker struct {
	im       *catImage
	g, of    int
	embedded bool
	rng      *rand.Rand
	sched    schedule

	text  textQuerier
	stmts [nCatClasses]stmtQuerier
	sess  *mdm.Session
	load  *ingest.Loader

	live         []int64          // own appended numbers still present
	copies       map[int64]string // last copies value written, for own rows
	deleted      []int64          // own appended numbers deleted since
	appended     int
	trickles     int
	version      int
	writtenBytes int64
	digest       digest

	// traced replay only: the wire payload bytes of the ops' requests
	// and replies
	wireBytes float64
}

// worker returns connection g's op source.  embedded replaces the wire
// client by a session of the engine itself, issuing the same calls.
func (im *catImage) worker(g, of int, embedded bool) (worker, error) {
	w := &catWorker{
		im: im, g: g, of: of, embedded: embedded,
		rng:    rand.New(rand.NewSource(im.seed*1_000_003 + int64(g))),
		copies: map[int64]string{},
	}
	blk := catReadBlock
	if im.mixed {
		blk = catMixedBlocks[g%2]
		w.load = ingest.NewLoader(im.m.Biblio, ingest.Options{BatchSize: trickleBatch})
	}
	w.sched = newSchedule(blk[:])
	if embedded {
		w.sess = im.m.NewSession()
	}
	switch {
	case !im.mixed && embedded:
		w.text = w.sess
	case !im.mixed:
		w.text = im.cl
	default:
		for class, src := range catStmts {
			if src == "" {
				continue
			}
			if embedded {
				st, err := w.sess.PrepareContext(context.Background(), src)
				if err != nil {
					return nil, fmt.Errorf("prepare %q: %w", src, err)
				}
				w.stmts[class] = st
			} else {
				w.stmts[class] = im.cl.Prepare(src)
			}
		}
	}
	im.workers = append(im.workers, w)
	return w, nil
}

func (w *catWorker) streamDigest() uint64 { return uint64(w.digest) }

func (w *catWorker) trickleStart(k int) int {
	return trickleBase + (k*w.of+w.g)*trickleBatch
}

// catOp is one generated operation and, once executed, its result.
type catOp struct {
	class int
	args  []any
	// expectation
	rows    int    // expected row (or affected) count; -1: checked by content only
	hash    uint64 // expected rowsHash; 0: not compared
	pattern []int  // incipit: query intervals
	// lookup of a loaded work the other connection may be replacing
	// copies of: every column but copies is compared
	foreignCopies bool
	res           *quel.Result
}

// loadedRow is the lookup result of a loaded work.
func (im *catImage) loadedRow(n int64, copies string) value.Tuple {
	return value.Tuple{value.Int(n), value.Str(im.titles[n-1]), value.Int(int64(im.measures[n-1])), value.Str(copies)}
}

// incipitPattern is the search pattern taken from loaded work i: the
// opening intervals of its incipit and the same as a pitch literal
// (any transposition would do; matching is on intervals).
func (im *catImage) incipitPattern(i int) (intervals []int, pitches string) {
	iv := im.intervals[i]
	if len(iv) > incipitNotes-1 {
		iv = iv[:incipitNotes-1]
	}
	text := make([]string, len(iv)+1)
	p := 60
	text[0] = strconv.Itoa(p)
	for k, d := range iv {
		p += d
		text[k+1] = strconv.Itoa(p)
	}
	return iv, strings.Join(text, " ")
}

func appendedTitle(n int64) string { return "Appendix " + strconv.FormatInt(n, 10) }

func appendedRow(n int64, copies string) value.Tuple {
	return value.Tuple{value.Int(n), value.Str(appendedTitle(n)), value.Int(n % 300), value.Str(copies)}
}

// owns reports whether this worker is the only writer of number n.
func (w *catWorker) owns(n int64) bool { return int(n%int64(w.of)) == w.g }

// next generates the worker's next operation.
func (w *catWorker) next() catOp {
	im := w.im
	class := w.sched.next(w.rng)
	if class == cDelete && len(w.live) == 0 {
		class = cAppend // nothing of our own to delete yet
	}
	op := catOp{class: class}
	switch class {
	case cLookup:
		r := w.rng.Intn(100)
		switch {
		case r < 15 && len(w.live) > 0: // read our own write
			n := w.live[w.rng.Intn(len(w.live))]
			op.args, op.rows, op.hash = []any{n}, 1, rowsHash([]value.Tuple{appendedRow(n, w.copies[n])})
		case r < 20 && len(w.deleted) > 0: // our own delete stays deleted
			op.args, op.rows = []any{w.deleted[w.rng.Intn(len(w.deleted))]}, 0
		default:
			n := int64(1 + w.rng.Intn(im.works))
			op.args, op.rows = []any{n}, 1
			if !im.mixed || w.owns(n) {
				op.hash = rowsHash([]value.Tuple{im.loadedRow(n, w.copies[n])})
			} else {
				op.foreignCopies = true
			}
		}
	case cRange:
		lo := int64(1 + w.rng.Intn(im.works-rangeWidth))
		op.args, op.rows = []any{lo, lo + rangeWidth}, rangeWidth
		rows := make([]value.Tuple, rangeWidth)
		for i := range rows {
			n := lo + int64(i)
			rows[i] = value.Tuple{value.Int(n), value.Str(im.titles[n-1])}
		}
		op.hash = rowsHash(rows)
	case cMovements:
		p := im.parents[w.rng.Intn(len(im.parents))]
		var rows []value.Tuple
		for i, mv := range im.movements[p] {
			rows = append(rows, value.Tuple{value.Int(int64(i + 1)), value.Int(int64(mv)), value.Str(im.titles[mv-1])})
		}
		op.args, op.rows, op.hash = []any{int64(p)}, len(rows), rowsHash(rows)
	case cDerived:
		s := im.sources[w.rng.Intn(len(im.sources))]
		var rows []value.Tuple
		for _, d := range im.derived[s] {
			rows = append(rows, value.Tuple{value.Int(int64(d)), value.Str(im.titles[d-1])})
		}
		op.args, op.rows, op.hash = []any{int64(s)}, len(rows), rowsHash(rows)
	case cByWriter:
		a := 1 + w.rng.Intn(im.writers)
		var rows []value.Tuple
		for _, wr := range im.byWriter[a] {
			rows = append(rows, value.Tuple{value.Str(fmt.Sprintf("Writer %d", a)), value.Str(wr.role), value.Int(int64(wr.work))})
		}
		op.args, op.rows, op.hash = []any{int64(a)}, len(rows), rowsHash(rows)
	case cIncipit:
		iv, pitches := im.incipitPattern(w.rng.Intn(im.works))
		op.args, op.rows, op.pattern = []any{pitches}, -1, iv
	case cAppend:
		n := int64(appendBase + w.appended*w.of + w.g)
		w.appended++
		copies := "copy 0"
		op.args, op.rows = []any{n, appendedTitle(n), n % 300, copies}, 1
		w.live = append(w.live, n)
		w.copies[n] = copies
		w.writtenBytes += int64(16 + len(appendedTitle(n)) + len(copies))
	case cReplace:
		var n int64
		if len(w.live) > 0 && w.rng.Intn(2) == 0 {
			n = w.live[w.rng.Intn(len(w.live))]
		} else {
			// a loaded work this worker owns
			if n = int64(w.rng.Intn(im.works/w.of)*w.of + w.g); n == 0 {
				n = int64(w.of)
			}
		}
		w.version++
		copies := "copy " + strconv.Itoa(w.version)
		op.args, op.rows = []any{n, copies}, 1
		w.copies[n] = copies
		w.writtenBytes += int64(len(copies))
	case cDelete:
		i := w.rng.Intn(len(w.live))
		n := w.live[i]
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		delete(w.copies, n)
		w.deleted = append(w.deleted, n)
		op.args, op.rows = []any{n}, 1
	case cTrickle:
		op.args, op.rows = []any{int64(w.trickleStart(w.trickles))}, trickleBatch
		w.trickles++
	}
	w.digest.add(uint64(class + 1))
	for _, a := range op.args {
		switch v := a.(type) {
		case int64:
			w.digest.add(uint64(v))
		case string:
			for i := 0; i < len(v); i++ {
				w.digest.add(uint64(v[i]))
			}
		}
	}
	return op
}

// adhoc splices an operation's arguments into its statement text.
func adhoc(op *catOp) string {
	src := catStmts[op.class]
	for i := len(op.args); i >= 1; i-- {
		var lit string
		switch v := op.args[i-1].(type) {
		case int64:
			lit = strconv.FormatInt(v, 10)
		case string:
			lit = strconv.Quote(v)
		}
		src = strings.ReplaceAll(src, "$"+strconv.Itoa(i), lit)
	}
	return src
}

// exec runs one operation against the engine; only this is timed as
// engine time.
func (w *catWorker) exec(ctx context.Context, op *catOp, src string) error {
	if op.class == cTrickle {
		st, err := w.load.LoadSynthetic(w.im.cat, w.im.seed, int(op.args[0].(int64)), trickleBatch)
		op.res = &quel.Result{Affected: st.Works}
		return err
	}
	var err error
	if w.text != nil {
		op.res, err = w.text.QueryContext(ctx, src)
	} else {
		op.res, err = w.stmts[op.class].QueryContext(ctx, op.args...)
	}
	return err
}

// check compares an executed operation with the shadow state.
func (w *catWorker) check(op *catOp) bool {
	res := op.res
	if res == nil {
		return false
	}
	switch {
	case op.class >= cAppend:
		return res.Affected == op.rows
	case op.class == cIncipit:
		return w.checkIncipit(op)
	}
	if len(res.Rows) != op.rows {
		return false
	}
	if op.foreignCopies {
		row := res.Rows[0]
		n := op.args[0].(int64)
		return len(row) == 4 && rowsHash([]value.Tuple{row}) == rowsHash([]value.Tuple{w.im.loadedRow(n, row[3].AsString())})
	}
	return op.hash == 0 || rowsHash(res.Rows) == op.hash
}

// checkIncipit verifies an incipit search both ways: every loaded work
// containing the pattern is returned, and every returned work (loaded
// or trickled in since) contains it.
func (w *catWorker) checkIncipit(op *catOp) bool {
	got := make(map[int64]bool, len(op.res.Rows))
	for _, r := range op.res.Rows {
		if len(r) != 1 {
			return false
		}
		n := r[0].AsInt()
		got[n] = true
		var iv []int
		if n >= 1 && int(n) <= w.im.works {
			iv = w.im.intervals[n-1]
		} else {
			e := biblio.SyntheticEntry(w.im.seed, int(n))
			iv = entryIntervals(&e)
		}
		if !containsRun(iv, op.pattern) {
			return false
		}
	}
	for i, iv := range w.im.intervals {
		if containsRun(iv, op.pattern) && !got[int64(i+1)] {
			return false
		}
	}
	return len(got) > 0
}

func containsRun(hay, needle []int) bool {
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j, v := range needle {
			if hay[i+j] != v {
				continue outer
			}
		}
		return true
	}
	return false
}

// step generates, executes and verifies one operation.
func (w *catWorker) step(ctx context.Context, tr *tracer, opID int64) stepResult {
	root := tr.begin(opID, -1, "op")
	op := w.next()
	var src string
	if w.text != nil {
		src = adhoc(&op)
	}
	name := "client.call"
	if w.embedded || op.class == cTrickle {
		name = "mdm.exec"
	}
	call := tr.begin(opID, root, name)
	start := time.Now()
	err := w.exec(ctx, &op, src)
	engine := time.Since(start)
	tr.end(call)
	if tr != nil && w.embedded {
		w.traceCodec(tr, opID, root, &op, src)
	}
	ok := err == nil && w.check(&op)
	rows := 0
	if op.res != nil {
		rows = len(op.res.Rows)
	}
	tr.end(root)
	return stepResult{engine: engine, rows: rows, ok: ok}
}

// traceCodec times, on this operation's real request and reply, the
// pure functions the served path runs around the statement: the wire
// codec in both directions and, for ad-hoc text, the parser.
func (w *catWorker) traceCodec(tr *tracer, opID int64, root int, op *catOp, src string) {
	if op.class == cTrickle || op.res == nil {
		return
	}
	var req wire.Msg
	if src != "" {
		start := time.Now()
		_, _, err := quel.ParseParams(src)
		tr.add(opID, root, "quel.parse", start, time.Since(start))
		if err != nil {
			return
		}
		req = wire.Exec{Src: src}
	} else {
		args := make(value.Tuple, len(op.args))
		for i, a := range op.args {
			args[i], _ = value.FromGo(a)
		}
		req = wire.ExecStmt{StmtID: uint64(op.class + 1), Args: args}
	}
	reply := wire.Result{Affected: int64(op.res.Affected), Columns: op.res.Columns, Rows: op.res.Rows}
	for _, m := range []wire.Msg{req, reply} {
		start := time.Now()
		payload, err := wire.AppendMessage(nil, uint64(opID), m)
		mid := time.Now()
		if err != nil {
			return
		}
		_, _, _ = wire.DecodeMessage(payload)
		tr.add(opID, root, "wire.encode", start, mid.Sub(start))
		tr.add(opID, root, "wire.decode", mid, time.Since(mid))
		w.wireBytes += float64(len(payload))
	}
}

// verifyReopen closes the served engine, reopens the directory and
// checks that every acknowledged write is there and every deleted row
// is not.  It is a clean-reopen check of the durable image, not a
// power-loss test: the crash-torture suites own that.
func (im *catImage) verifyReopen() (checked, missed int, err error) {
	im.cl.Close()
	if err := im.srv.Shutdown(context.Background()); err != nil {
		return 0, 0, err
	}
	im.cl, im.srv = nil, nil
	if err := im.m.Close(); err != nil {
		return 0, 0, err
	}
	if im.m, err = openServed(im.dir, -1); err != nil {
		return 0, 0, fmt.Errorf("reopen after run: %w", err)
	}
	ctx := context.Background()
	st, err := im.m.NewSession().PrepareContext(ctx, catStmts[cLookup])
	if err != nil {
		return 0, 0, err
	}
	expect := func(n int64, want value.Tuple) {
		checked++
		res, err := st.QueryContext(ctx, n)
		switch {
		case err != nil:
			missed++
		case want == nil && len(res.Rows) != 0:
			missed++
		case want != nil && (len(res.Rows) != 1 || rowsHash(res.Rows) != rowsHash([]value.Tuple{want})):
			missed++
		}
	}
	for _, w := range im.workers {
		for n, copies := range w.copies {
			if n >= appendBase {
				expect(n, appendedRow(n, copies))
			} else {
				expect(n, im.loadedRow(n, copies))
			}
		}
		for _, n := range w.deleted {
			expect(n, nil)
		}
		for k := 0; k < w.trickles; k++ {
			for i := 0; i < trickleBatch; i++ {
				e := biblio.SyntheticEntry(im.seed, w.trickleStart(k)+i)
				expect(int64(e.Number), value.Tuple{value.Int(int64(e.Number)), value.Str(e.Title), value.Int(int64(e.Measures)), value.Str("")})
			}
		}
	}
	return checked, missed, nil
}
