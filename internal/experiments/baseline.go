package experiments

import (
	"context"

	"repro/internal/mdm"
	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/value"
)

// chordSchema puts both sides of the §5.2 comparison on one model
// database: the paper's ordering (note_in_chord), and the relational
// baseline it argues against, where a note's position is a seqno
// attribute kept in a sorted index.  The baseline is reached only
// through QUEL.
const chordSchema = `
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer)
define ordering note_in_chord (NOTE) under CHORD
define entity BASE_NOTE (seqno = integer, name = integer, pitch = integer)
define index on BASE_NOTE (seqno)`

// The baseline's operations, and the before operator on the ordering,
// as prepared statements.  a, b and n range over BASE_NOTE; x and y
// over NOTE.
const (
	srcRanges = `range of n is BASE_NOTE
range of a is BASE_NOTE
range of b is BASE_NOTE
range of x is NOTE
range of y is NOTE`
	srcShift    = `replace n (seqno = n.seqno + 1) where n.seqno >= $1`
	srcAppend   = `append to BASE_NOTE (seqno = $1, name = $2, pitch = 60)`
	srcDelete   = `delete n where n.seqno = $1`
	srcUnshift  = `replace n (seqno = n.seqno - 1) where n.seqno > $1`
	srcBefore   = `retrieve (a.name) where a.name = $1 and b.name = $2 and a.seqno < b.seqno`
	srcAt       = `retrieve (n.name) where n.seqno = $1`
	srcHOBefore = `retrieve (x.name) where x before y in note_in_chord and x.name = $1 and y.name = $2`
)

// chord is n notes named 0..n-1, in order: the children of one CHORD in
// note_in_chord, and, when built by newChord, BASE_NOTE rows whose seqno
// is their position.  spare is a NOTE (name n) outside the chord.
type chord struct {
	db     *model.Database
	sess   *mdm.Session
	parent value.Ref
	notes  []value.Ref
	spare  value.Ref

	stmts map[string]*mdm.Stmt // prepared, by source (newChord only)
}

// newOrdering builds the chord's ordering side; BASE_NOTE stays empty.
func newOrdering(n int) *chord {
	m := openMDM(true)
	c := &chord{db: m.Model, sess: m.NewSession()}
	_, err := c.sess.ExecContext(context.Background(), chordSchema)
	check(err)
	_, err = c.sess.ExecContext(context.Background(), srcRanges)
	check(err)
	c.parent, err = c.db.NewEntity("CHORD", nil)
	check(err)
	notes, err := c.db.NewEntities("NOTE", n+1, func(i int) model.Attrs {
		return model.Attrs{"name": value.Int(int64(i)), "pitch": value.Int(60)}
	})
	check(err)
	c.notes, c.spare = notes[:n], notes[n]
	for _, r := range c.notes {
		check(c.db.InsertChild("note_in_chord", c.parent, r, model.Last()))
	}
	return c
}

// newChord builds both sides of the chord and prepares the statements.
func newChord(n int) *chord {
	c := newOrdering(n)
	_, err := c.db.NewEntities("BASE_NOTE", n, func(i int) model.Attrs {
		return model.Attrs{"seqno": value.Int(int64(i)), "name": value.Int(int64(i)), "pitch": value.Int(60)}
	})
	check(err)
	c.stmts = map[string]*mdm.Stmt{}
	for _, src := range []string{srcShift, srcAppend, srcDelete, srcUnshift, srcBefore, srcAt, srcHOBefore} {
		c.stmts[src], err = c.sess.PrepareContext(context.Background(), src)
		check(err)
	}
	return c
}

// query runs the statement prepared from src.
func (c *chord) query(src string, args ...any) (*quel.Result, error) {
	return c.stmts[src].QueryContext(context.Background(), args...)
}

// insertAt puts a BASE_NOTE named name at position pos: every seqno
// from pos on moves up by one first — the O(n) cost of ordering as an
// attribute.
func (c *chord) insertAt(pos, name int) error {
	if _, err := c.query(srcShift, pos); err != nil {
		return err
	}
	_, err := c.query(srcAppend, pos, name)
	return err
}

// removeAt deletes the BASE_NOTE at position pos and closes the gap.
func (c *chord) removeAt(pos int) error {
	if _, err := c.query(srcDelete, pos); err != nil {
		return err
	}
	_, err := c.query(srcUnshift, pos)
	return err
}

// seqnoBefore answers "note a precedes note b" on the baseline.
func (c *chord) seqnoBefore(a, b int) (bool, error) {
	res, err := c.query(srcBefore, a, b)
	return err == nil && len(res.Rows) > 0, err
}

// quelBefore answers the same question with the paper's before operator.
func (c *chord) quelBefore(a, b int) (bool, error) {
	res, err := c.query(srcHOBefore, a, b)
	return err == nil && len(res.Rows) > 0, err
}

// seqnoAt returns the name of the BASE_NOTE at position pos, or -1.
func (c *chord) seqnoAt(pos int) (int64, error) {
	res, err := c.query(srcAt, pos)
	if err != nil || len(res.Rows) == 0 {
		return -1, err
	}
	return res.Rows[0][0].AsInt(), nil
}
