package cmn

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/value"
)

// This file implements the derived temporal structure of §7.2: sync
// alignment (figure 14), onset computation, tie/event construction, and
// pitch resolution across measures.

// Align divides the movement's measures into syncs (figure 14): it walks
// each voice's content in order, accumulating onsets from the voice's
// durations, locates the measure containing each chord's onset, creates
// (or reuses) the SYNC at that beat offset, and attaches the chord.
// Rests advance time but produce no sync attachment (they "result in no
// performance information", §7.2).
//
// Chords already aligned (re-running Align) are re-attached only if
// detached first; Align is intended to run once after content entry, or
// after ClearAlignment.
func (mv *Movement) Align(voices []*Voice) error {
	measures, err := mv.Measures()
	if err != nil {
		return err
	}
	if len(measures) == 0 {
		return fmt.Errorf("cmn: movement @%d has no measures", mv.Ref)
	}
	starts := make([]RTime, len(measures))
	total := Zero
	for i, me := range measures {
		starts[i] = total
		total = total.Add(me.Duration())
	}
	for _, v := range voices {
		content, err := v.Content()
		if err != nil {
			return err
		}
		onset := Zero
		mi := 0
		for _, item := range content {
			if !item.IsRest {
				// Advance to the measure containing this onset.
				for mi+1 < len(measures) && starts[mi+1].Cmp(onset) <= 0 {
					mi++
				}
				// Rewind if needed (defensive; onsets are monotone).
				for mi > 0 && onset.Less(starts[mi]) {
					mi--
				}
				if onset.Cmp(total) >= 0 {
					return fmt.Errorf("cmn: voice @%d overflows movement (onset %s ≥ duration %s)",
						v.Ref, onset, total)
				}
				sy, err := measures[mi].AddSync(onset.Sub(starts[mi]))
				if err != nil {
					return err
				}
				if _, attached := (&Chord{node{mv.m, item.Ref}}).Sync(); !attached {
					if err := mv.m.DB.InsertChild("chord_in_sync", sy.Ref, item.Ref, model.Last()); err != nil {
						return err
					}
				}
			}
			onset = onset.Add(item.Duration)
		}
	}
	return nil
}

// ClearAlignment detaches every chord from its sync and removes the
// movement's syncs, so Align can rebuild them.
func (mv *Movement) ClearAlignment() error {
	measures, err := mv.Measures()
	if err != nil {
		return err
	}
	for _, me := range measures {
		syncs, err := me.Syncs()
		if err != nil {
			return err
		}
		for _, sy := range syncs {
			chords, err := sy.Chords()
			if err != nil {
				return err
			}
			for _, c := range chords {
				if err := mv.m.DB.RemoveChild("chord_in_sync", c.Ref); err != nil {
					return err
				}
			}
			if err := mv.m.DB.RemoveChild("sync_in_measure", sy.Ref); err != nil {
				return err
			}
			if err := mv.m.DB.DeleteEntity(sy.Ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// Onset returns the chord's start beat within its movement: its sync's
// measure start plus the sync offset ("The start times of notes and
// chords are inherited from their parent syncs", §7.2).
func (c *Chord) Onset() (RTime, error) {
	sy, ok := c.Sync()
	if !ok {
		return Zero, fmt.Errorf("cmn: chord @%d is not aligned to a sync", c.Ref)
	}
	me, ok := sy.Measure()
	if !ok {
		return Zero, fmt.Errorf("cmn: sync @%d has no measure", sy.Ref)
	}
	start, err := me.Start()
	if err != nil {
		return Zero, err
	}
	return start.Add(sy.Offset()), nil
}

// Tie binds consecutive notes into a single performance event (§7.2:
// "The Tie is a musical construct that binds multiple note entities
// under a single event entity").  Both notes must belong to chords of
// the same voice.  If the first note is already in an event, the second
// joins it; otherwise a new EVENT is created under the voice.
func (m *Music) Tie(a, b *Note) (*Event, error) {
	chordA, ok := a.Chord()
	if !ok {
		return nil, fmt.Errorf("cmn: note @%d has no chord", a.Ref)
	}
	chordB, ok := b.Chord()
	if !ok {
		return nil, fmt.Errorf("cmn: note @%d has no chord", b.Ref)
	}
	voiceA, okA := chordA.Voice()
	voiceB, okB := chordB.Voice()
	if !okA || !okB || voiceA.Ref != voiceB.Ref {
		return nil, fmt.Errorf("cmn: tied notes must lie in the same voice")
	}
	var ev *Event
	if p, ok := m.DB.ParentOf("note_in_event", a.Ref); ok {
		ev = &Event{node{m, p}}
	} else {
		ref, err := m.DB.NewEntity("EVENT", model.Attrs{
			"start": value.Int(0), "duration": value.Int(0),
		})
		if err != nil {
			return nil, err
		}
		if err := m.DB.InsertChild("event_in_voice", voiceA.Ref, ref, model.Last()); err != nil {
			return nil, err
		}
		ev = &Event{node{m, ref}}
		if err := m.DB.InsertChild("note_in_event", ev.Ref, a.Ref, model.Last()); err != nil {
			return nil, err
		}
	}
	if err := m.DB.InsertChild("note_in_event", ev.Ref, b.Ref, model.Last()); err != nil {
		return nil, err
	}
	return ev, nil
}

// EventOf returns the performance event the note belongs to, if tied.
func (n *Note) EventOf() (*Event, bool) {
	p, ok := n.m.DB.ParentOf("note_in_event", n.Ref)
	if !ok {
		return nil, false
	}
	return &Event{node{n.m, p}}, true
}

// PerformedNote is one atomic unit of sound derived from the score: the
// temporal view of an EVENT (§7.2).  Tied notes merge into one.
type PerformedNote struct {
	Voice    value.Ref
	Pitch    int
	Start    RTime // movement-relative beat
	Duration RTime // sounded duration (after articulation)
	Velocity int   // resolved from dynamics and articulation

	// Articulative context (§7.1.1): the inherited marking and, for
	// pizzicato/arco, the timbre selection it implies.
	Articulation string
	Timbre       string
}

// PerformedNotes derives the performance events of a voice: each
// unsuppressed note becomes an event with its chord's onset and
// duration; tie chains merge into one event whose duration spans the
// chain.  Notes must have been aligned (Align) and pitched
// (ResolvePitches).
func (v *Voice) PerformedNotes() ([]PerformedNote, error) {
	content, err := v.Content()
	if err != nil {
		return nil, err
	}
	// Transposing instruments (the INSTRUMENT.transposition attribute):
	// written pitch + transposition = sounding pitch.
	transpose := 0
	if inst, ok := v.Instrument(); ok {
		transpose = int(inst.intAttr("transposition"))
	}
	type pending struct {
		pn      PerformedNote
		eventOf value.Ref // event ref if tied, else 0
	}
	var out []pending
	byEvent := map[value.Ref]int{} // event ref → index in out
	for _, item := range content {
		if item.IsRest {
			continue
		}
		chord := &Chord{node{v.m, item.Ref}}
		onset, err := chord.Onset()
		if err != nil {
			return nil, err
		}
		notes, err := chord.Notes()
		if err != nil {
			return nil, err
		}
		vel := v.velocityAt(onset)
		for _, n := range notes {
			pitch := n.MIDIPitch()
			if pitch > 0 {
				pitch += transpose
			}
			if ev, tied := n.EventOf(); tied {
				if i, seen := byEvent[ev.Ref]; seen {
					// Continuation of a tie chain: extend duration.
					end := onset.Add(item.Duration)
					cur := out[i].pn.Start.Add(out[i].pn.Duration)
					if cur.Less(end) {
						out[i].pn.Duration = end.Sub(out[i].pn.Start)
					}
					continue
				}
				byEvent[ev.Ref] = len(out)
				out = append(out, pending{
					pn: PerformedNote{Voice: v.Ref, Pitch: pitch, Start: onset,
						Duration: item.Duration, Velocity: vel},
					eventOf: ev.Ref,
				})
				continue
			}
			out = append(out, pending{
				pn: PerformedNote{Voice: v.Ref, Pitch: pitch, Start: onset,
					Duration: item.Duration, Velocity: vel},
			})
		}
	}
	notes := make([]PerformedNote, len(out))
	for i, p := range out {
		notes[i] = p.pn
		v.applyArticulation(&notes[i])
	}
	sort.SliceStable(notes, func(i, j int) bool { return notes[i].Start.Less(notes[j].Start) })
	return notes, nil
}

// ResolvePitches assigns midi_pitch to every note of the voice, applying
// the §4.3 procedural rules with the given staff's clef and key
// signature: accidental state resets at each measure boundary.
// Alignment must have run (measure boundaries come from syncs).
func (v *Voice) ResolvePitches(st *Staff) error {
	content, err := v.Content()
	if err != nil {
		return err
	}
	ms := NewMeasureState()
	var curMeasure value.Ref
	for _, item := range content {
		if item.IsRest {
			continue
		}
		chord := &Chord{node{v.m, item.Ref}}
		sy, ok := chord.Sync()
		if !ok {
			return fmt.Errorf("cmn: chord @%d not aligned; run Align first", chord.Ref)
		}
		me, _ := sy.Measure()
		if me != nil && me.Ref != curMeasure {
			ms.Reset()
			curMeasure = me.Ref
		}
		notes, err := chord.Notes()
		if err != nil {
			return err
		}
		for _, n := range notes {
			sp := ResolvePitch(st.Clef(), st.Key(), n.Degree(), n.Accidental(), ms)
			if err := v.m.DB.SetAttr(n.Ref, "midi_pitch", value.Int(int64(sp.MIDI()))); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dynamic markings and their conventional MIDI velocities.
var dynamicLevels = map[string]int{
	"ppp": 16, "pp": 33, "p": 49, "mp": 64, "mf": 80, "f": 96, "ff": 112, "fff": 126,
}

// AddDynamic attaches a dynamic marking to the voice at a beat.  Notes
// inherit the nearest preceding marking (§7.1.1: "Such attributes are
// not typically assigned directly to a note, but rather are inherited by
// the note from the context in which it lies").
func (v *Voice) AddDynamic(beat RTime, marking string) error {
	level, ok := dynamicLevels[marking]
	if !ok {
		return fmt.Errorf("cmn: unknown dynamic marking %q", marking)
	}
	ref, err := v.m.DB.NewEntity("DYNAMIC", model.Attrs{
		"marking": value.Str(marking), "level": value.Int(int64(level)),
		"at_beat": value.Int(beat.Encode()),
	})
	if err != nil {
		return err
	}
	return v.m.DB.InsertChild("dynamic_in_voice", v.Ref, ref, model.Last())
}

// AddDynamic at score level provides the outermost inheritance context.
func (s *Score) AddDynamic(beat RTime, marking string) error {
	level, ok := dynamicLevels[marking]
	if !ok {
		return fmt.Errorf("cmn: unknown dynamic marking %q", marking)
	}
	ref, err := s.m.DB.NewEntity("DYNAMIC", model.Attrs{
		"marking": value.Str(marking), "level": value.Int(int64(level)),
		"at_beat": value.Int(beat.Encode()),
	})
	if err != nil {
		return err
	}
	return s.m.DB.InsertChild("dynamic_in_score", s.Ref, ref, model.Last())
}

// velocityAt resolves the effective dynamic for a beat: the latest
// voice-level marking at or before the beat; default mf.
func (v *Voice) velocityAt(beat RTime) int {
	best := -1
	bestBeat := Zero
	kids, err := v.m.DB.Children("dynamic_in_voice", v.Ref)
	if err == nil {
		for _, d := range kids {
			dn := node{v.m, d}
			at := dn.rtimeAttr("at_beat")
			if at.Cmp(beat) <= 0 && (best < 0 || bestBeat.Cmp(at) <= 0) {
				best = int(dn.intAttr("level"))
				bestBeat = at
			}
		}
	}
	if best >= 0 {
		return best
	}
	// Fall back to score-level dynamics: walk up voice → part →
	// instrument is timbral; the score context is reached through the
	// PERFORMS relationship in a full inheritance chain.  The builder
	// stores score-level marks under dynamic_in_score; search all
	// scores the voice's orchestra performs.
	if lvl, ok := v.scoreLevelDynamic(beat); ok {
		return lvl
	}
	return dynamicLevels["mf"]
}

// scoreLevelDynamic finds a score-level dynamic context for the voice.
func (v *Voice) scoreLevelDynamic(beat RTime) (int, bool) {
	inst, ok := v.Instrument()
	if !ok {
		return 0, false
	}
	sec, ok := v.m.DB.ParentOf("instrument_in_section", inst.Ref)
	if !ok {
		return 0, false
	}
	orch, ok := v.m.DB.ParentOf("section_in_orchestra", sec)
	if !ok {
		return 0, false
	}
	scores, err := v.m.DB.RelatedRefs("PERFORMS", "orchestra", orch, "score")
	if err != nil || len(scores) == 0 {
		return 0, false
	}
	best := -1
	bestBeat := Zero
	for _, sref := range scores {
		kids, err := v.m.DB.Children("dynamic_in_score", sref)
		if err != nil {
			continue
		}
		for _, d := range kids {
			dn := node{v.m, d}
			at := dn.rtimeAttr("at_beat")
			if at.Cmp(beat) <= 0 && (best < 0 || bestBeat.Cmp(at) <= 0) {
				best = int(dn.intAttr("level"))
				bestBeat = at
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// NewGroup creates a melodic group (figure 15: phrasing slurs, beams,
// tuplets) under the voice and attaches the given members in order.
// Kind is free-form ("slur", "beam", "tuplet"); tupletNum/tupletDen
// scale member durations for tuplets (0,0 for none).
func (v *Voice) NewGroup(kind string, tupletNum, tupletDen int, members ...value.Ref) (*Group, error) {
	ref, err := v.m.DB.NewEntity("GROUP", model.Attrs{
		"kind":       value.Str(kind),
		"tuplet_num": value.Int(int64(tupletNum)),
		"tuplet_den": value.Int(int64(tupletDen)),
	})
	if err != nil {
		return nil, err
	}
	if err := v.m.DB.InsertChild("group_in_voice", v.Ref, ref, model.Last()); err != nil {
		return nil, err
	}
	g := &Group{node{v.m, ref}}
	for _, mref := range members {
		if err := v.m.DB.InsertChild("group_content", g.Ref, mref, model.Last()); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Kind returns the group kind.
func (g *Group) Kind() string { return g.strAttr("kind") }

// Duration aggregates the group's duration from its constituent chords,
// rests and nested groups ("A group has a temporal attribute,
// 'duration', which is a function of the duration of its constituent
// chords and rests", §7.2), applying tuplet scaling.
func (g *Group) Duration() (RTime, error) {
	kids, err := g.m.DB.Children("group_content", g.Ref)
	if err != nil {
		return Zero, err
	}
	total := Zero
	for _, k := range kids {
		switch {
		case g.m.DB.Is(k, "GROUP"):
			d, err := (&Group{node{g.m, k}}).Duration()
			if err != nil {
				return Zero, err
			}
			total = total.Add(d)
		case g.m.DB.Is(k, "CHORD") || g.m.DB.Is(k, "REST"):
			total = total.Add((&node{g.m, k}).rtimeAttr("duration"))
		default:
			typ, _ := g.m.DB.TypeOf(k)
			return Zero, fmt.Errorf("cmn: unexpected %s in group", typ)
		}
	}
	tn, td := g.intAttr("tuplet_num"), g.intAttr("tuplet_den")
	if tn > 0 && td > 0 {
		total = total.Mul(Beats(tn, td))
	}
	return total, nil
}
