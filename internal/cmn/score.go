package cmn

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/value"
)

// Music is a handle on a model database carrying the CMN schema.  All
// builder types below are thin typed wrappers over entity surrogates;
// every piece of state lives in the database.
type Music struct {
	DB *model.Database
}

// Open ensures the CMN schema is defined and returns a Music handle.
func Open(db *model.Database) (*Music, error) {
	if err := DefineSchema(db); err != nil {
		return nil, err
	}
	return &Music{DB: db}, nil
}

// Score, Movement, Measure, Sync, Voice, Chord, Rest, Note, Group,
// Orchestra, Section, Instrument, Part, and Staff wrap entity surrogates.
type (
	Score      struct{ node }
	Movement   struct{ node }
	Measure    struct{ node }
	Sync       struct{ node }
	Voice      struct{ node }
	Chord      struct{ node }
	Rest       struct{ node }
	Note       struct{ node }
	Group      struct{ node }
	Event      struct{ node }
	Orchestra  struct{ node }
	Section    struct{ node }
	Instrument struct{ node }
	Part       struct{ node }
	Staff      struct{ node }
)

// node is the common wrapper.
type node struct {
	m   *Music
	Ref value.Ref
}

func (n node) valid() bool { return n.m != nil && n.Ref != 0 }

// attrs reads attribute helpers.
func (n node) intAttr(name string) int64 {
	v, err := n.m.DB.Attr(n.Ref, name)
	if err != nil {
		return 0
	}
	return v.AsInt()
}

func (n node) strAttr(name string) string {
	v, err := n.m.DB.Attr(n.Ref, name)
	if err != nil {
		return ""
	}
	return v.AsString()
}

func (n node) rtimeAttr(name string) RTime {
	return DecodeRTime(n.intAttr(name))
}

// NewScore creates a score entity.
func (m *Music) NewScore(title, catalogID string) (*Score, error) {
	ref, err := m.DB.NewEntity("SCORE", model.Attrs{
		"title": value.Str(title), "catalog_id": value.Str(catalogID),
	})
	if err != nil {
		return nil, err
	}
	return &Score{node{m, ref}}, nil
}

// Title returns the score title.
func (s *Score) Title() string { return s.strAttr("title") }

// CatalogID returns the bibliographic identifier (e.g. "BWV 578").
func (s *Score) CatalogID() string { return s.strAttr("catalog_id") }

// AddMovement appends a movement to the score.
func (s *Score) AddMovement(name string) (*Movement, error) {
	kids, err := s.m.DB.Children("movement_in_score", s.Ref)
	if err != nil {
		return nil, err
	}
	ref, err := s.m.DB.NewEntity("MOVEMENT", model.Attrs{
		"name": value.Str(name), "number": value.Int(int64(len(kids) + 1)),
	})
	if err != nil {
		return nil, err
	}
	if err := s.m.DB.InsertChild("movement_in_score", s.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Movement{node{s.m, ref}}, nil
}

// Movements returns the score's movements in order.
func (s *Score) Movements() ([]*Movement, error) {
	kids, err := s.m.DB.Children("movement_in_score", s.Ref)
	if err != nil {
		return nil, err
	}
	out := make([]*Movement, len(kids))
	for i, k := range kids {
		out[i] = &Movement{node{s.m, k}}
	}
	return out, nil
}

// AddMeasure appends a measure with the given meter to the movement.
func (mv *Movement) AddMeasure(meterNum, meterDen int) (*Measure, error) {
	if meterNum <= 0 || meterDen <= 0 {
		return nil, fmt.Errorf("cmn: invalid meter %d/%d", meterNum, meterDen)
	}
	kids, err := mv.m.DB.Children("measure_in_movement", mv.Ref)
	if err != nil {
		return nil, err
	}
	ref, err := mv.m.DB.NewEntity("MEASURE", model.Attrs{
		"number":    value.Int(int64(len(kids) + 1)),
		"meter_num": value.Int(int64(meterNum)),
		"meter_den": value.Int(int64(meterDen)),
	})
	if err != nil {
		return nil, err
	}
	if err := mv.m.DB.InsertChild("measure_in_movement", mv.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Measure{node{mv.m, ref}}, nil
}

// Measures returns the movement's measures in order.
func (mv *Movement) Measures() ([]*Measure, error) {
	kids, err := mv.m.DB.Children("measure_in_movement", mv.Ref)
	if err != nil {
		return nil, err
	}
	out := make([]*Measure, len(kids))
	for i, k := range kids {
		out[i] = &Measure{node{mv.m, k}}
	}
	return out, nil
}

// Number returns the 1-based measure number.
func (me *Measure) Number() int { return int(me.intAttr("number")) }

// Duration returns the measure's duration in beats: meter_num quarter
// beats scaled by the denominator (4/4 → 4 beats, 6/8 → 3 beats).
func (me *Measure) Duration() RTime {
	num, den := me.intAttr("meter_num"), me.intAttr("meter_den")
	if den == 0 {
		return Zero
	}
	return Beats(4*num, den)
}

// Start returns the measure's start beat within its movement.
func (me *Measure) Start() (RTime, error) {
	parent, ok := me.m.DB.ParentOf("measure_in_movement", me.Ref)
	if !ok {
		return Zero, fmt.Errorf("cmn: measure @%d not in a movement", me.Ref)
	}
	sibs, err := me.m.DB.Children("measure_in_movement", parent)
	if err != nil {
		return Zero, err
	}
	start := Zero
	for _, s := range sibs {
		if s == me.Ref {
			return start, nil
		}
		start = start.Add((&Measure{node{me.m, s}}).Duration())
	}
	return Zero, fmt.Errorf("cmn: measure @%d not among its siblings", me.Ref)
}

// Duration of a movement is the sum of the durations of its constituent
// measures (§7.2).
func (mv *Movement) Duration() (RTime, error) {
	measures, err := mv.Measures()
	if err != nil {
		return Zero, err
	}
	total := Zero
	for _, me := range measures {
		total = total.Add(me.Duration())
	}
	return total, nil
}

// Duration of a score is the sum of the durations of its movements
// (§7.2).
func (s *Score) Duration() (RTime, error) {
	movements, err := s.Movements()
	if err != nil {
		return Zero, err
	}
	total := Zero
	for _, mv := range movements {
		d, err := mv.Duration()
		if err != nil {
			return Zero, err
		}
		total = total.Add(d)
	}
	return total, nil
}

// AddSync creates a sync at the given beat offset from the start of the
// measure, keeping syncs ordered by offset.  An existing sync at the
// offset is returned instead of creating a duplicate.
func (me *Measure) AddSync(offset RTime) (*Sync, error) {
	syncs, err := me.Syncs()
	if err != nil {
		return nil, err
	}
	pos := model.Last()
	for i, sy := range syncs {
		c := sy.Offset().Cmp(offset)
		if c == 0 {
			return sy, nil
		}
		if c > 0 {
			pos = model.At(i)
			break
		}
	}
	ref, err := me.m.DB.NewEntity("SYNC", model.Attrs{"offset": value.Int(offset.Encode())})
	if err != nil {
		return nil, err
	}
	if err := me.m.DB.InsertChild("sync_in_measure", me.Ref, ref, pos); err != nil {
		return nil, err
	}
	return &Sync{node{me.m, ref}}, nil
}

// Syncs returns the measure's syncs in offset order.
func (me *Measure) Syncs() ([]*Sync, error) {
	kids, err := me.m.DB.Children("sync_in_measure", me.Ref)
	if err != nil {
		return nil, err
	}
	out := make([]*Sync, len(kids))
	for i, k := range kids {
		out[i] = &Sync{node{me.m, k}}
	}
	return out, nil
}

// Offset returns the sync's beat offset from its measure start (§7.2,
// figure 14).
func (sy *Sync) Offset() RTime { return sy.rtimeAttr("offset") }

// Measure returns the sync's parent measure.
func (sy *Sync) Measure() (*Measure, bool) {
	p, ok := sy.m.DB.ParentOf("sync_in_measure", sy.Ref)
	if !ok {
		return nil, false
	}
	return &Measure{node{sy.m, p}}, true
}

// Chords returns the chords aligned at this sync.
func (sy *Sync) Chords() ([]*Chord, error) {
	kids, err := sy.m.DB.Children("chord_in_sync", sy.Ref)
	if err != nil {
		return nil, err
	}
	out := make([]*Chord, len(kids))
	for i, k := range kids {
		out[i] = &Chord{node{sy.m, k}}
	}
	return out, nil
}

// NewOrchestra creates an orchestra.
func (m *Music) NewOrchestra(name string) (*Orchestra, error) {
	ref, err := m.DB.NewEntity("ORCHESTRA", model.Attrs{"name": value.Str(name)})
	if err != nil {
		return nil, err
	}
	return &Orchestra{node{m, ref}}, nil
}

// Performs records that the orchestra performs the score.
func (o *Orchestra) Performs(s *Score) error {
	return o.m.DB.Relate("PERFORMS", map[string]value.Ref{
		"orchestra": o.Ref, "score": s.Ref,
	}, nil)
}

// AddSection appends an instrument family to the orchestra.
func (o *Orchestra) AddSection(name string) (*Section, error) {
	ref, err := o.m.DB.NewEntity("SECTION", model.Attrs{"name": value.Str(name)})
	if err != nil {
		return nil, err
	}
	if err := o.m.DB.InsertChild("section_in_orchestra", o.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Section{node{o.m, ref}}, nil
}

// AddInstrument appends an instrument to the section.
func (sec *Section) AddInstrument(name string, midiProgram int) (*Instrument, error) {
	ref, err := sec.m.DB.NewEntity("INSTRUMENT", model.Attrs{
		"name": value.Str(name), "midi_program": value.Int(int64(midiProgram)),
		"transposition": value.Int(0),
	})
	if err != nil {
		return nil, err
	}
	if err := sec.m.DB.InsertChild("instrument_in_section", sec.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Instrument{node{sec.m, ref}}, nil
}

// Name returns the instrument name.
func (in *Instrument) Name() string { return in.strAttr("name") }

// MIDIProgram returns the instrument's MIDI program number.
func (in *Instrument) MIDIProgram() int { return int(in.intAttr("midi_program")) }

// SetTransposition records the instrument's transposition in semitones
// (written + transposition = sounding; a B-flat clarinet is -2).
func (in *Instrument) SetTransposition(semitones int) error {
	return in.m.DB.SetAttr(in.Ref, "transposition", value.Int(int64(semitones)))
}

// Transposition returns the instrument's transposition in semitones.
func (in *Instrument) Transposition() int { return int(in.intAttr("transposition")) }

// AddPart appends a part (music for one performer) to the instrument.
func (in *Instrument) AddPart(name string) (*Part, error) {
	ref, err := in.m.DB.NewEntity("PART", model.Attrs{"name": value.Str(name)})
	if err != nil {
		return nil, err
	}
	if err := in.m.DB.InsertChild("part_in_instrument", in.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Part{node{in.m, ref}}, nil
}

// AddStaff appends a staff to the instrument with a clef and key
// signature.
func (in *Instrument) AddStaff(number int, clef Clef, key KeySignature) (*Staff, error) {
	ref, err := in.m.DB.NewEntity("STAFF", model.Attrs{
		"number": value.Int(int64(number)),
		"clef":   value.Int(int64(clef)), "key_signature": value.Int(int64(key)),
	})
	if err != nil {
		return nil, err
	}
	if err := in.m.DB.InsertChild("staff_in_instrument", in.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Staff{node{in.m, ref}}, nil
}

// Clef returns the staff's clef.
func (st *Staff) Clef() Clef { return Clef(st.intAttr("clef")) }

// Key returns the staff's key signature.
func (st *Staff) Key() KeySignature { return KeySignature(st.intAttr("key_signature")) }

// AddVoice appends a voice to the part.
func (p *Part) AddVoice(number int) (*Voice, error) {
	ref, err := p.m.DB.NewEntity("VOICE", model.Attrs{"number": value.Int(int64(number))})
	if err != nil {
		return nil, err
	}
	if err := p.m.DB.InsertChild("voice_in_part", p.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Voice{node{p.m, ref}}, nil
}

// Instrument returns the voice's instrument (via its part).
func (v *Voice) Instrument() (*Instrument, bool) {
	part, ok := v.m.DB.ParentOf("voice_in_part", v.Ref)
	if !ok {
		return nil, false
	}
	inst, ok := v.m.DB.ParentOf("part_in_instrument", part)
	if !ok {
		return nil, false
	}
	return &Instrument{node{v.m, inst}}, true
}

// AppendChord appends a chord of the given duration to the voice's
// content (the inhomogeneous CHORD/REST ordering of §5.5).
func (v *Voice) AppendChord(dur RTime, stemDirection int) (*Chord, error) {
	if dur.Cmp(Zero) <= 0 {
		return nil, fmt.Errorf("cmn: chord duration must be positive, got %s", dur)
	}
	ref, err := v.m.DB.NewEntity("CHORD", model.Attrs{
		"duration":       value.Int(dur.Encode()),
		"stem_direction": value.Int(int64(stemDirection)),
	})
	if err != nil {
		return nil, err
	}
	if err := v.m.DB.InsertChild("voice_content", v.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Chord{node{v.m, ref}}, nil
}

// AppendRest appends a rest to the voice's content.
func (v *Voice) AppendRest(dur RTime) (*Rest, error) {
	if dur.Cmp(Zero) <= 0 {
		return nil, fmt.Errorf("cmn: rest duration must be positive, got %s", dur)
	}
	ref, err := v.m.DB.NewEntity("REST", model.Attrs{"duration": value.Int(dur.Encode())})
	if err != nil {
		return nil, err
	}
	if err := v.m.DB.InsertChild("voice_content", v.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Rest{node{v.m, ref}}, nil
}

// Content returns the voice's chords and rests, in order, as generic
// refs with their durations.
func (v *Voice) Content() ([]VoiceItem, error) {
	kids, err := v.m.DB.Children("voice_content", v.Ref)
	if err != nil {
		return nil, err
	}
	out := make([]VoiceItem, len(kids))
	for i, k := range kids {
		item := VoiceItem{Ref: k, IsRest: v.m.DB.Is(k, "REST")}
		item.Duration = (&node{v.m, k}).rtimeAttr("duration")
		out[i] = item
	}
	return out, nil
}

// VoiceItem is one element of a voice's content: a chord or a rest.
type VoiceItem struct {
	Ref      value.Ref
	IsRest   bool
	Duration RTime
}

// Duration returns the chord's notated duration.
func (c *Chord) Duration() RTime { return c.rtimeAttr("duration") }

// StemDirection returns +1 (up) or -1 (down).
func (c *Chord) StemDirection() int { return int(c.intAttr("stem_direction")) }

// Voice returns the chord's voice.
func (c *Chord) Voice() (*Voice, bool) {
	p, ok := c.m.DB.ParentOf("voice_content", c.Ref)
	if !ok {
		return nil, false
	}
	return &Voice{node{c.m, p}}, true
}

// Sync returns the chord's sync, if aligned.
func (c *Chord) Sync() (*Sync, bool) {
	p, ok := c.m.DB.ParentOf("chord_in_sync", c.Ref)
	if !ok {
		return nil, false
	}
	return &Sync{node{c.m, p}}, true
}

// Duration returns the rest's notated duration.
func (r *Rest) Duration() RTime { return r.rtimeAttr("duration") }

// AddNote appends a note to the chord, ordered high-to-low or in
// insertion order as the caller prefers (§5.5 orders notes within chords
// by pitch in its example; insertion order is preserved here and callers
// sort as desired).
func (c *Chord) AddNote(degree int, acc Accidental) (*Note, error) {
	ref, err := c.m.DB.NewEntity("NOTE", model.Attrs{
		"degree":     value.Int(int64(degree)),
		"accidental": value.Int(int64(acc)),
		"midi_pitch": value.Int(0),
	})
	if err != nil {
		return nil, err
	}
	if err := c.m.DB.InsertChild("note_in_chord", c.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	return &Note{node{c.m, ref}}, nil
}

// Notes returns the chord's notes in order.
func (c *Chord) Notes() ([]*Note, error) {
	kids, err := c.m.DB.Children("note_in_chord", c.Ref)
	if err != nil {
		return nil, err
	}
	out := make([]*Note, len(kids))
	for i, k := range kids {
		out[i] = &Note{node{c.m, k}}
	}
	return out, nil
}

// Degree returns the note's staff degree.
func (n *Note) Degree() int { return int(n.intAttr("degree")) }

// Accidental returns the note's notated accidental.
func (n *Note) Accidental() Accidental { return Accidental(n.intAttr("accidental")) }

// MIDIPitch returns the resolved performance pitch (0 until
// ResolvePitches has run).
func (n *Note) MIDIPitch() int { return int(n.intAttr("midi_pitch")) }

// Chord returns the note's parent chord.
func (n *Note) Chord() (*Chord, bool) {
	p, ok := n.m.DB.ParentOf("note_in_chord", n.Ref)
	if !ok {
		return nil, false
	}
	return &Chord{node{n.m, p}}, true
}

// OnStaff places the note on a staff (the multiple-parents example of
// §5.5: a note has a chord parent and a staff parent, independently).
func (n *Note) OnStaff(st *Staff) error {
	return n.m.DB.InsertChild("note_on_staff", st.Ref, n.Ref, model.Last())
}

// Staff returns the staff the note lies on.
func (n *Note) Staff() (*Staff, bool) {
	p, ok := n.m.DB.ParentOf("note_on_staff", n.Ref)
	if !ok {
		return nil, false
	}
	return &Staff{node{n.m, p}}, true
}
