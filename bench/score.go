package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/mdm"
	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/value"
)

// scoreDDL is the paper's §5.4 schema at corpus scale: notes ordered
// under their score (what the §5.6 operators query) and, in a second
// ordering, under their measure (what an editor session edits).
var scoreDDL = []string{
	`define entity SCORE (name = integer)`,
	`define entity MEASURE (name = integer, score = integer)`,
	`define entity NOTE (name = integer, pitch = integer, score = integer)`,
	`define ordering note_in_score (NOTE) under SCORE`,
	`define ordering note_in_measure (NOTE) under MEASURE`,
	`define index on NOTE (pitch)`,
	`define index on NOTE (name)`,
	`define index on SCORE (name)`,
}

const (
	notesPerMeasure = 10
	hotMeasures     = 20 // measures that take 80 % of the edits
	hotShare        = 80
	// hotCap is the size at which the editor is done with a measure and
	// another takes its place among the hot ones.  It keeps the cost of
	// an edit stationary over a run of any length, so that per-operation
	// counts do not depend on how fast the machine got through them.
	hotCap = 256
)

// Statement classes of score-query and operation classes of score-edit.
const (
	qBefore = iota
	qAfter
	qUnder
	qJoin
	qRange
	qPoint
	eInsert
	eRemove
	eMove
	eRead
	nScoreClasses
)

var (
	// Equal weights for the five multi-row statements, 10 % point lookups.
	scoreQueryBlock = [nScoreClasses]int{qBefore: 9, qAfter: 9, qUnder: 9, qJoin: 9, qRange: 9, qPoint: 5}
	// 60 % middle insert, 15 % remove+delete, 10 % move, 15 % ordered reads.
	scoreEditBlock = [nScoreClasses]int{eInsert: 12, eRemove: 3, eMove: 2, eRead: 3}
)

const scoreRanges = "range of n, n1, n2 is NOTE range of s is SCORE "

// scoreImage is the score corpus set up for one run.
type scoreImage struct {
	dir           string
	seed          int64
	notes, scores int
	per           int // notes per score
	edit          bool

	m        *mdm.MDM
	scoreRef []value.Ref
	measRef  []value.Ref
	noteRef  []value.Ref // by note name
	pitch    []int       // by note name
	byPitch  [128][]int  // note names at each pitch, ascending

	loadedBytes int64
	reopen      time.Duration // set-up: opening the checkpointed image
	workers     []*scoreWorker
}

// setupScore builds the corpus in a fresh directory with one bulk
// transaction per 20 scores, checkpoints, closes and reopens it.  With
// durable false the corpus lives in memory only, with no log: the
// store the traced score-edit run replays its edits on.
func setupScore(base string, seed int64, notes, scores int, edit, durable bool) (*scoreImage, error) {
	dir := ""
	if durable {
		var err error
		if dir, err = workDir(base, "score"); err != nil {
			return nil, err
		}
	}
	im := &scoreImage{dir: dir, seed: seed, notes: notes, scores: scores, per: notes / scores, edit: edit}
	m, err := openEmbedded(dir)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess := m.NewSession()
	for _, src := range scoreDDL {
		if _, err := sess.ExecContext(ctx, src); err != nil {
			m.Close()
			return nil, fmt.Errorf("ddl %q: %w", src, err)
		}
	}
	if err := im.load(m.Model); err != nil {
		m.Close()
		return nil, err
	}
	if !durable {
		im.m = m
		return im, nil
	}
	if err := m.Checkpoint(); err != nil {
		m.Close()
		return nil, err
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	if im.m, err = openEmbedded(dir); err != nil {
		return nil, fmt.Errorf("reopen image: %w", err)
	}
	im.reopen = time.Since(start)
	return im, nil
}

func (im *scoreImage) load(db *model.Database) error {
	rng := rand.New(rand.NewSource(im.seed ^ 0x0c0ffee))
	measPerScore := im.per / notesPerMeasure
	var parents []model.BulkEntity
	for s := 0; s < im.scores; s++ {
		parents = append(parents, model.BulkEntity{Type: "SCORE", Attrs: model.Attrs{"name": value.Int(int64(s))}})
	}
	for i := 0; i < im.scores*measPerScore; i++ {
		parents = append(parents, model.BulkEntity{Type: "MEASURE", Attrs: model.Attrs{
			"name": value.Int(int64(i)), "score": value.Int(int64(i / measPerScore))}})
	}
	refs, err := db.BulkInsert(parents, nil)
	if err != nil {
		return err
	}
	im.scoreRef, im.measRef = refs[:im.scores], refs[im.scores:]
	im.loadedBytes = int64(8*im.scores + 16*len(im.measRef) + 24*im.notes)
	im.pitch = make([]int, im.notes)
	for s0 := 0; s0 < im.scores; s0 += 20 {
		var ents []model.BulkEntity
		var edges []model.BulkEdge
		for s := s0; s < s0+20 && s < im.scores; s++ {
			for k := 0; k < im.per; k++ {
				name := s*im.per + k
				p := rng.Intn(128)
				im.pitch[name] = p
				im.byPitch[p] = append(im.byPitch[p], name)
				ents = append(ents, model.BulkEntity{Type: "NOTE", Attrs: model.Attrs{
					"name": value.Int(int64(name)), "pitch": value.Int(int64(p)), "score": value.Int(int64(s))}})
				c := len(ents) - 1
				edges = append(edges,
					model.BulkEdge{Ordering: "note_in_score", Parent: -1, ExternalParent: im.scoreRef[s], Child: c},
					model.BulkEdge{Ordering: "note_in_measure", Parent: -1, ExternalParent: im.measRef[name/notesPerMeasure], Child: c})
			}
		}
		refs, err := db.BulkInsert(ents, edges)
		if err != nil {
			return err
		}
		im.noteRef = append(im.noteRef, refs...)
	}
	return nil
}

func (im *scoreImage) mdm() *mdm.MDM { return im.m }

func (im *scoreImage) reopenTime() time.Duration { return im.reopen }

func (im *scoreImage) userBytes() int64 {
	n := im.loadedBytes
	for _, w := range im.workers {
		n += 24 * int64(w.inserted)
	}
	return n
}

func (im *scoreImage) close() {
	if im.m != nil {
		im.m.Close()
	}
	if im.dir != "" {
		os.RemoveAll(im.dir)
	}
}

// scoreWorker is the single session of a score workload: an analyst's
// query session (score-query) or an editor's typed-API session
// (score-edit) with the shadow order of every measure it edits.
type scoreWorker struct {
	im    *scoreImage
	rng   *rand.Rand
	sched schedule
	sess  *mdm.Session

	// score-edit shadow state
	order    [][]value.Ref // children of each measure, in order
	hot      []int
	touched  map[int]bool
	removed  []value.Ref
	inserted int
	reads    int
	digest   digest
}

func (im *scoreImage) worker(g, of int, _ bool) (worker, error) {
	w := &scoreWorker{im: im, rng: rand.New(rand.NewSource(im.seed*1_000_003 + int64(g))), touched: map[int]bool{}}
	blk := scoreQueryBlock
	if im.edit {
		blk = scoreEditBlock
		w.order = make([][]value.Ref, len(im.measRef))
		for i := range w.order {
			w.order[i] = append([]value.Ref(nil), im.noteRef[i*notesPerMeasure:(i+1)*notesPerMeasure]...)
		}
		w.hot = w.rng.Perm(len(im.measRef))[:hotMeasures]
	} else {
		w.sess = im.m.NewSession()
	}
	w.sched = newSchedule(blk[:])
	im.workers = append(im.workers, w)
	return w, nil
}

func (w *scoreWorker) streamDigest() uint64 { return uint64(w.digest) }

func (w *scoreWorker) mix(class int, args ...int) {
	w.digest.add(uint64(class + 1))
	for _, a := range args {
		w.digest.add(uint64(a))
	}
}

func (w *scoreWorker) step(ctx context.Context, tr *tracer, opID int64) stepResult {
	root := tr.begin(opID, -1, "op")
	var r stepResult
	if w.im.edit {
		r = w.editStep(tr, opID, root)
	} else {
		r = w.queryStep(ctx, tr, opID, root)
	}
	tr.end(root)
	return r
}

// queryStep issues one of the paper's operators as ad-hoc QUEL and
// checks the rows against the corpus the harness generated.
func (w *scoreWorker) queryStep(ctx context.Context, tr *tracer, opID int64, root int) stepResult {
	im := w.im
	class := w.sched.next(w.rng)
	var src string
	var want []value.Tuple
	names := func(lo, hi int) {
		for n := lo; n < hi; n++ {
			want = append(want, value.Tuple{value.Int(int64(n))})
		}
	}
	switch class {
	case qBefore:
		x := w.rng.Intn(im.notes)
		w.mix(class, x)
		src = fmt.Sprintf(`retrieve (n1.name) where n1 before n2 in note_in_score and n2.name = %d`, x)
		names(x-x%im.per, x)
	case qAfter:
		x := w.rng.Intn(im.notes)
		w.mix(class, x)
		src = fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_score and n2.name = %d`, x)
		names(x+1, x-x%im.per+im.per)
	case qUnder:
		y := w.rng.Intn(im.scores)
		w.mix(class, y)
		src = fmt.Sprintf(`retrieve (n.name) where n under s in note_in_score and s.name = %d`, y)
		names(y*im.per, (y+1)*im.per)
	case qJoin:
		a := w.rng.Intn(im.scores - 1)
		w.mix(class, a)
		src = fmt.Sprintf(`retrieve (n.name, s.name) where n.score = s.name and s.name >= %d and s.name < %d`, a, a+2)
		for n := a * im.per; n < (a+2)*im.per; n++ {
			want = append(want, value.Tuple{value.Int(int64(n)), value.Int(int64(n / im.per))})
		}
	case qRange:
		p := w.rng.Intn(128)
		w.mix(class, p)
		src = fmt.Sprintf(`retrieve (p = n.pitch, n.name) where n.pitch >= %d and n.pitch < %d sort by p`, p, p+1)
		for _, n := range im.byPitch[p] {
			want = append(want, value.Tuple{value.Int(int64(p)), value.Int(int64(n))})
		}
	case qPoint:
		x := w.rng.Intn(im.notes)
		w.mix(class, x)
		src = fmt.Sprintf(`retrieve (n.pitch) where n.name = %d`, x)
		want = append(want, value.Tuple{value.Int(int64(im.pitch[x]))})
	}
	src = scoreRanges + src
	call := tr.begin(opID, root, "mdm.exec")
	start := time.Now()
	res, err := w.sess.QueryContext(ctx, src)
	engine := time.Since(start)
	tr.end(call)
	if tr != nil {
		start = time.Now()
		_, _, _ = quel.ParseParams(src)
		tr.add(opID, root, "quel.parse", start, time.Since(start))
	}
	ok := err == nil && len(res.Rows) == len(want) && rowsHash(res.Rows) == rowsHash(want)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	return stepResult{engine: engine, rows: rows, ok: ok}
}

// pickMeasure draws the measure an edit lands in: 80 % of the time one
// of the hot measures, so that their rank gaps exhaust.
func (w *scoreWorker) pickMeasure() int {
	if w.rng.Intn(100) < hotShare {
		return w.hot[w.rng.Intn(len(w.hot))]
	}
	return w.rng.Intn(len(w.order))
}

// retire replaces measure mi among the hot ones once it has grown to
// hotCap children, by the smallest of a few measures drawn at random
// (a fresh one, until a long run has worked through the whole corpus).
func (w *scoreWorker) retire(mi, size int) {
	if size < hotCap {
		return
	}
	for h, hot := range w.hot {
		if hot != mi {
			continue
		}
		next := w.rng.Intn(len(w.order))
		for try := 0; try < 8 && len(w.order[next]) >= hotCap/2; try++ {
			if c := w.rng.Intn(len(w.order)); len(w.order[c]) < len(w.order[next]) {
				next = c
			}
		}
		w.hot[h] = next
		return
	}
}

// editStep performs one edit or ordered read through the typed model
// API and keeps the shadow order in step.  Each model call is one
// logged transaction.
func (w *scoreWorker) editStep(tr *tracer, opID int64, root int) stepResult {
	const ord = "note_in_measure"
	db := w.im.m.Model
	class := w.sched.next(w.rng)
	mi := w.pickMeasure()
	kids := w.order[mi]
	if (class == eRemove || class == eMove) && len(kids) < 3 {
		class = eInsert // keep every measure populated
	}
	var engine time.Duration
	var err error
	ok := true
	// call times one model call as a child span of the operation.
	call := func(name string, fn func() error) {
		if err != nil {
			return
		}
		id := tr.begin(opID, root, name)
		start := time.Now()
		err = fn()
		engine += time.Since(start)
		tr.end(id)
	}
	switch class {
	case eInsert:
		j := w.rng.Intn(len(kids))
		w.mix(class, mi, j)
		name := w.im.notes + w.inserted
		var ref value.Ref
		call("model.new_entity", func() (e error) {
			ref, e = db.NewEntity("NOTE", model.Attrs{"name": value.Int(int64(name)),
				"pitch": value.Int(int64(name % 128)), "score": value.Int(int64(mi / (w.im.per / notesPerMeasure)))})
			return e
		})
		call("model.insert_child", func() error {
			return db.InsertChild(ord, w.im.measRef[mi], ref, model.After(kids[j]))
		})
		if err == nil {
			w.inserted++
			kids = append(kids, 0)
			copy(kids[j+2:], kids[j+1:])
			kids[j+1] = ref
			w.retire(mi, len(kids))
		}
	case eRemove:
		j := w.rng.Intn(len(kids))
		w.mix(class, mi, j)
		child := kids[j]
		call("model.remove_child", func() error { return db.RemoveChild(ord, child) })
		call("model.delete_entity", func() error { return db.DeleteEntity(child) })
		if err == nil {
			kids = append(kids[:j], kids[j+1:]...)
			w.removed = append(w.removed, child)
		}
	case eMove:
		i := w.rng.Intn(len(kids))
		j := w.rng.Intn(len(kids) - 1)
		if j >= i {
			j++
		}
		w.mix(class, mi, i, j)
		child, sib := kids[i], kids[j]
		call("model.move_child", func() error { return db.MoveChild(ord, child, model.After(sib)) })
		if err == nil {
			kids = append(kids[:i], kids[i+1:]...)
			if j > i {
				j--
			}
			kids = append(kids, 0)
			copy(kids[j+2:], kids[j+1:])
			kids[j+1] = child
		}
	case eRead:
		w.reads++
		i, j := w.rng.Intn(len(kids)), w.rng.Intn(len(kids))
		w.mix(class, mi, i, j)
		switch w.reads % 3 {
		case 0:
			var got []value.Ref
			call("model.children", func() (e error) { got, e = db.Children(ord, w.im.measRef[mi]); return e })
			ok = len(got) == len(kids)
			for k := 0; ok && k < len(kids); k++ {
				ok = got[k] == kids[k]
			}
		case 1:
			var got int
			call("model.index_of", func() (e error) { got, e = db.IndexOf(ord, kids[i]); return e })
			ok = got == i
		case 2:
			var got bool
			call("model.before_in", func() (e error) { got, e = db.BeforeIn(ord, kids[i], kids[j]); return e })
			ok = got == (i < j)
		}
	}
	w.order[mi] = kids
	w.touched[mi] = true
	return stepResult{engine: engine, rows: 1, ok: ok && err == nil}
}

// verifyReopen closes the engine, reopens the directory, and checks
// every edited measure's child order against the shadow and that every
// deleted note is gone.  A clean-reopen check, not a power-loss test.
func (im *scoreImage) verifyReopen() (checked, missed int, err error) {
	if err := im.m.Close(); err != nil {
		return 0, 0, err
	}
	if im.m, err = openEmbedded(im.dir); err != nil {
		return 0, 0, fmt.Errorf("reopen after run: %w", err)
	}
	db := im.m.Model
	for _, w := range im.workers {
		for mi := range w.touched {
			checked++
			got, err := db.Children("note_in_measure", im.measRef[mi])
			same := err == nil && len(got) == len(w.order[mi])
			for k := 0; same && k < len(got); k++ {
				same = got[k] == w.order[mi][k]
			}
			if !same {
				missed++
			}
		}
		for _, ref := range w.removed {
			checked++
			if db.Exists(ref) {
				missed++
			}
		}
	}
	return checked, missed, nil
}
