package cmn

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/quel"
)

// SchemaDDL is the data definition for the CMN database: the entity
// types of figure 11 and the hierarchical orderings of the temporal
// (figure 13), timbral, and graphical aspect graphs.  It is issued
// through the §5.4 DDL so that the schema is catalogued like any other
// (§6.1).
//
// Rational score times (durations, offsets) are stored in single integer
// attributes via RTime.Encode.
const SchemaDDL = `
/* ---- temporal aspect (figure 13) ---- */
define entity SCORE (title = string, catalog_id = string)
define entity MOVEMENT (name = string, number = integer)
define entity MEASURE (number = integer, meter_num = integer, meter_den = integer)
define entity SYNC (offset = integer)
define entity VOICE (number = integer)
define entity GROUP (kind = string, tuplet_num = integer, tuplet_den = integer)
define entity CHORD (duration = integer, stem_direction = integer)
define entity REST (duration = integer)
define entity EVENT (start = integer, duration = integer)
define entity NOTE (degree = integer, accidental = integer, midi_pitch = integer)
define entity MIDIEV (key = integer, velocity = integer, start_us = integer, duration_us = integer, channel = integer)
define entity MIDICTRL (controller = integer, ctrl_value = integer, at_us = integer, channel = integer)

define ordering movement_in_score (MOVEMENT) under SCORE
define ordering measure_in_movement (MEASURE) under MOVEMENT
define ordering sync_in_measure (SYNC) under MEASURE
define ordering chord_in_sync (CHORD) under SYNC
define ordering note_in_chord (NOTE) under CHORD
define ordering voice_content (CHORD, REST) under VOICE
define ordering group_in_voice (GROUP) under VOICE
define ordering group_content (GROUP, CHORD, REST) under GROUP
define ordering event_in_voice (EVENT) under VOICE
define ordering note_in_event (NOTE) under EVENT
define ordering midi_in_event (MIDIEV) under EVENT

/* ---- timbral aspect ---- */
define entity ORCHESTRA (name = string)
define entity SECTION (name = string)
define entity INSTRUMENT (name = string, midi_program = integer, transposition = integer)
define entity PART (name = string)
define entity DYNAMIC (marking = string, level = integer, at_beat = integer)

define ordering section_in_orchestra (SECTION) under ORCHESTRA
define ordering instrument_in_section (INSTRUMENT) under SECTION
define ordering part_in_instrument (PART) under INSTRUMENT
define ordering voice_in_part (VOICE) under PART
define ordering dynamic_in_voice (DYNAMIC) under VOICE
define ordering dynamic_in_score (DYNAMIC) under SCORE

define relationship PERFORMS (orchestra = ORCHESTRA, score = SCORE)

/* ---- graphical aspect ---- */
define entity PAGE (number = integer)
define entity SYSTEM (number = integer)
define entity STAFF (number = integer, clef = integer, key_signature = integer)
define entity DEGREE (number = integer)
define entity STEM (xpos = integer, ypos = integer, length = integer, direction = integer)
define entity BEAM (thickness = integer)
define entity NOTEHEAD (shape = string, xpos = integer, ypos = integer)
define entity ANNOTATION (kind = string, text = string)

define ordering page_in_score (PAGE) under SCORE
define ordering system_in_page (SYSTEM) under PAGE
define ordering staff_in_system (STAFF) under SYSTEM
define ordering staff_in_instrument (STAFF) under INSTRUMENT
define ordering note_on_staff (NOTE) under STAFF
define ordering degree_in_staff (DEGREE) under STAFF

/* ---- text subaspect ---- */
define entity TEXTLINE (name = string)
define entity SYLLABLE (text = string)
define ordering text_in_part (TEXTLINE) under PART
define ordering syllable_in_text (SYLLABLE) under TEXTLINE

define relationship SYLLABLE_OF (syllable = SYLLABLE, note = NOTE)

/* ---- articulative subaspect (§7.1.1) ---- */
define ordering articulation_in_voice (ANNOTATION) under VOICE
`

// DefineSchema issues the CMN schema DDL against the model database.  It
// is idempotent: if the SCORE entity type already exists the schema is
// assumed present.
func DefineSchema(db *model.Database) error {
	if _, ok := db.EntityType("SCORE"); ok {
		return nil
	}
	if _, err := quel.NewSession(db).Exec(SchemaDDL); err != nil {
		return fmt.Errorf("cmn: defining schema: %w", err)
	}
	return nil
}

// EntityDesc is one row of the figure-11 inventory.
type EntityDesc struct {
	Name        string
	Description string
}

// Inventory reproduces figure 11: the entities of the CMN schema with
// the paper's one-line descriptions.
func Inventory() []EntityDesc {
	return []EntityDesc{
		{"SCORE", "The unit of musical composition"},
		{"MOVEMENT", "A temporal subsection of the score"},
		{"MEASURE", "A temporal subsection of the movement"},
		{"SYNC", "Sets of simultaneous events"},
		{"GROUP", "A group of contiguous chords and rests in a voice"},
		{"CHORD", "A set of notes in one voice at one sync"},
		{"EVENT", "An atomic unit of sound, one or more notes"},
		{"NOTE", "An atomic unit of music, a pitch in a chord"},
		{"REST", "A \"chord\" containing no notes"},
		{"MIDIEV", "A MIDI note event"},
		{"MIDICTRL", "A MIDI control event at a point in time"},
		{"ORCHESTRA", "A set of instruments performing a score"},
		{"SECTION", "A family of instruments"},
		{"INSTRUMENT", "The unit of timbral definition"},
		{"PART", "Music assigned to an individual performer"},
		{"VOICE", "The unit of homophony"},
		{"TEXTLINE", "In vocal music, a line of text associated with the notes"},
		{"SYLLABLE", "The piece of text associated with a single note"},
		{"PAGE", "One graphical page of the score"},
		{"SYSTEM", "One line of the score on a page"},
		{"STAFF", "A division of the system, associated with an instrument"},
		{"DEGREE", "A division of the staff (line and space)"},
		{"DYNAMIC", "A dynamic marking (inherited by notes from context)"},
		{"STEM", "The stem of a chord (graphical)"},
		{"BEAM", "A beam joining chord stems (graphical)"},
		{"NOTEHEAD", "The head of a note (graphical)"},
		{"ANNOTATION", "Textual or graphical score annotation"},
	}
}

// Aspect classifies entity attributes per figure 12.
type Aspect string

// The aspects and subaspects of figure 12.
const (
	AspectTemporal     Aspect = "temporal"
	AspectTimbral      Aspect = "timbral"
	AspectPitch        Aspect = "timbral/pitch"
	AspectArticulation Aspect = "timbral/articulation"
	AspectDynamic      Aspect = "timbral/dynamic"
	AspectGraphical    Aspect = "graphical"
	AspectTextual      Aspect = "graphical/textual"
)

// Aspects reproduces figure 12's classification: which aspects each CMN
// entity type participates in.  Entities may appear under several
// aspects (a NOTE has temporal, pitch, articulation, dynamic, and
// graphical attributes); MIDI events have no graphical aspect.
func Aspects() map[string][]Aspect {
	return map[string][]Aspect{
		"SCORE":      {AspectTemporal, AspectGraphical},
		"MOVEMENT":   {AspectTemporal},
		"MEASURE":    {AspectTemporal, AspectGraphical},
		"SYNC":       {AspectTemporal, AspectGraphical},
		"GROUP":      {AspectTemporal, AspectArticulation, AspectGraphical},
		"CHORD":      {AspectTemporal, AspectTimbral, AspectGraphical},
		"EVENT":      {AspectTemporal, AspectTimbral},
		"NOTE":       {AspectTemporal, AspectPitch, AspectArticulation, AspectDynamic, AspectGraphical},
		"REST":       {AspectTemporal, AspectGraphical},
		"MIDIEV":     {AspectTemporal, AspectTimbral},
		"MIDICTRL":   {AspectTemporal},
		"ORCHESTRA":  {AspectTimbral},
		"SECTION":    {AspectTimbral},
		"INSTRUMENT": {AspectTimbral, AspectGraphical},
		"PART":       {AspectTimbral, AspectGraphical},
		"VOICE":      {AspectTimbral},
		"DYNAMIC":    {AspectDynamic, AspectGraphical},
		"TEXTLINE":   {AspectTextual},
		"SYLLABLE":   {AspectTextual},
		"PAGE":       {AspectGraphical},
		"SYSTEM":     {AspectGraphical},
		"STAFF":      {AspectGraphical, AspectPitch},
		"DEGREE":     {AspectGraphical},
		"STEM":       {AspectGraphical},
		"BEAM":       {AspectGraphical},
		"NOTEHEAD":   {AspectGraphical},
		"ANNOTATION": {AspectTextual, AspectGraphical},
	}
}

// TemporalOrderings lists the orderings of the figure-13 temporal HO
// graph, top-down.
func TemporalOrderings() []string {
	return []string{
		"movement_in_score",
		"measure_in_movement",
		"sync_in_measure",
		"chord_in_sync",
		"note_in_chord",
		"voice_content",
		"group_in_voice",
		"group_content",
		"event_in_voice",
		"note_in_event",
		"midi_in_event",
	}
}
