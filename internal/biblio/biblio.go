// Package biblio implements the bibliographic layer of §4.2 of the
// paper: thematic indexes.  A thematic index organizes the works of a
// composer or period; each entry carries enough musical (thematic)
// material to identify the composition — an incipit — plus bibliographic
// attributes: the setting (Besetzung), when and where it was composed,
// its length in measures (Takte), manuscript copies (Abschriften),
// printed editions (Ausgaben) and literature (Literatur).
//
// Entries live in the model database as entities (CATALOG, CATALOG_ENTRY,
// INCIPIT_NOTE) with hierarchical orderings, so the catalogue is
// queryable through QUEL like all other musical data.  Incipit search —
// the melodic lookup a musicologist performs against a thematic index —
// matches by interval sequence, making it transposition-invariant.
package biblio

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ddl"
	"repro/internal/model"
	"repro/internal/value"
)

// SchemaDDL defines the bibliographic entities.
const SchemaDDL = `
define entity CATALOG (name = string, abbreviation = string, organization = string)
define entity CATALOG_ENTRY (number = integer, title = string, setting = string,
    composed_when = string, composed_where = string, measures = integer,
    copies = string, editions = string, literature = string)
define entity INCIPIT_NOTE (midi_pitch = integer, duration_num = integer, duration_den = integer)
define ordering entry_in_catalog (CATALOG_ENTRY) under CATALOG
define ordering incipit_of_entry (INCIPIT_NOTE) under CATALOG_ENTRY
`

// Index is a handle on the bibliographic layer of a model database.
type Index struct {
	db *model.Database
}

// Open ensures the bibliographic schema exists and returns an Index.
// Databases created before the incipit gram index upgrade in place:
// the INCIPIT_GRAM entity is defined and postings are rebuilt from the
// incipits on record.
func Open(db *model.Database) (*Index, error) {
	if _, ok := db.EntityType("CATALOG"); !ok {
		if _, err := ddl.Exec(db, SchemaDDL); err != nil {
			return nil, fmt.Errorf("biblio: defining schema: %w", err)
		}
	}
	ix := &Index{db: db}
	if _, ok := db.EntityType("INCIPIT_GRAM"); !ok {
		if _, err := ddl.Exec(db, GramDDL); err != nil {
			return nil, fmt.Errorf("biblio: defining gram schema: %w", err)
		}
		if db.Count("CATALOG_ENTRY") > 0 {
			if err := ix.ReindexIncipits(); err != nil {
				return nil, fmt.Errorf("biblio: rebuilding gram index: %w", err)
			}
		}
	}
	if err := ix.registerIncipitIndex(); err != nil {
		return nil, err
	}
	return ix, nil
}

// DB exposes the underlying model database (query sessions, bulk
// loaders).
func (ix *Index) DB() *model.Database { return ix.db }

// BulkRelations lists the storage relations a catalogue bulk load
// writes whose index maintenance a loader may defer and rebuild
// afterwards, in a stable order.  entry_in_catalog is not among them:
// each batch appends under the catalogue, a parent from outside the
// batch, and model.BulkInsert reads that parent's last rank from the
// ordering's live (parent, rank) index.
func (ix *Index) BulkRelations() []string {
	return []string{
		ix.db.InstanceRelation("CATALOG_ENTRY"),
		ix.db.InstanceRelation("INCIPIT_NOTE"),
		ix.db.InstanceRelation("INCIPIT_GRAM"),
		ix.db.OrderingRelation("incipit_of_entry"),
	}
}

// Entry is one thematic-index entry (figure 2).
type Entry struct {
	Number        int // e.g. 578
	Title         string
	Setting       string // Besetzung
	ComposedWhen  string // EZ
	ComposedWhere string
	Measures      int // Takte
	Copies        string
	Editions      string
	Literature    string
	Incipit       []IncipitNote
}

// IncipitNote is one note of the thematic material.
type IncipitNote struct {
	MIDIPitch int
	DurNum    int64
	DurDen    int64
}

// NewCatalog creates a catalogue (e.g. the Bach Werke Verzeichnis).
// Entries are "ordered chronologically" (§4.2) — the insertion order of
// the entry_in_catalog ordering.
func (ix *Index) NewCatalog(name, abbreviation, organization string) (value.Ref, error) {
	return ix.db.NewEntity("CATALOG", model.Attrs{
		"name":         value.Str(name),
		"abbreviation": value.Str(abbreviation),
		"organization": value.Str(organization),
	})
}

// AddEntry appends an entry to a catalogue.
func (ix *Index) AddEntry(catalog value.Ref, e Entry) (value.Ref, error) {
	ref, err := ix.db.NewEntity("CATALOG_ENTRY", model.Attrs{
		"number":         value.Int(int64(e.Number)),
		"title":          value.Str(e.Title),
		"setting":        value.Str(e.Setting),
		"composed_when":  value.Str(e.ComposedWhen),
		"composed_where": value.Str(e.ComposedWhere),
		"measures":       value.Int(int64(e.Measures)),
		"copies":         value.Str(e.Copies),
		"editions":       value.Str(e.Editions),
		"literature":     value.Str(e.Literature),
	})
	if err != nil {
		return 0, err
	}
	if err := ix.db.InsertChild("entry_in_catalog", catalog, ref, model.Last()); err != nil {
		return 0, err
	}
	for _, n := range e.Incipit {
		nref, err := ix.db.NewEntity("INCIPIT_NOTE", model.Attrs{
			"midi_pitch":   value.Int(int64(n.MIDIPitch)),
			"duration_num": value.Int(n.DurNum),
			"duration_den": value.Int(n.DurDen),
		})
		if err != nil {
			return 0, err
		}
		if err := ix.db.InsertChild("incipit_of_entry", ref, nref, model.Last()); err != nil {
			return 0, err
		}
	}
	if err := ix.addGrams(ref, intervals(e.Incipit)); err != nil {
		return 0, err
	}
	return ref, nil
}

// entryAttrs builds the CATALOG_ENTRY attribute map for an Entry.
func entryAttrs(e *Entry) model.Attrs {
	return model.Attrs{
		"number":         value.Int(int64(e.Number)),
		"title":          value.Str(e.Title),
		"setting":        value.Str(e.Setting),
		"composed_when":  value.Str(e.ComposedWhen),
		"composed_where": value.Str(e.ComposedWhere),
		"measures":       value.Int(int64(e.Measures)),
		"copies":         value.Str(e.Copies),
		"editions":       value.Str(e.Editions),
		"literature":     value.Str(e.Literature),
	}
}

// AddEntries appends a batch of entries to a catalogue in a single
// storage transaction: entry rows, incipit notes, ordering edges and
// gram postings all commit together.  One group-commit round (one
// fsync) covers the whole batch, which is what makes streaming bulk
// ingest fast; AddEntry by contrast pays a commit per entity and per
// edge.
func (ix *Index) AddEntries(catalog value.Ref, entries []Entry) ([]value.Ref, error) {
	var ents []model.BulkEntity
	var edges []model.BulkEdge
	entryIxs := make([]int, len(entries))
	for i := range entries {
		e := &entries[i]
		ei := len(ents)
		entryIxs[i] = ei
		ents = append(ents, model.BulkEntity{Type: "CATALOG_ENTRY", Attrs: entryAttrs(e)})
		edges = append(edges, model.BulkEdge{
			Ordering: "entry_in_catalog", Parent: -1, ExternalParent: catalog, Child: ei,
		})
		for _, n := range e.Incipit {
			ni := len(ents)
			ents = append(ents, model.BulkEntity{Type: "INCIPIT_NOTE", Attrs: model.Attrs{
				"midi_pitch":   value.Int(int64(n.MIDIPitch)),
				"duration_num": value.Int(n.DurNum),
				"duration_den": value.Int(n.DurDen),
			}})
			edges = append(edges, model.BulkEdge{
				Ordering: "incipit_of_entry", Parent: ei, Child: ni,
			})
		}
		ents = append(ents, gramEntities(ei, intervals(e.Incipit))...)
	}
	refs, err := ix.db.BulkInsert(ents, edges)
	if err != nil {
		return nil, err
	}
	out := make([]value.Ref, len(entries))
	for i, ei := range entryIxs {
		out[i] = refs[ei]
	}
	return out, nil
}

// Identifier returns the accepted name of an entry: catalogue
// abbreviation plus number ("BWV 578", §4.2).
func (ix *Index) Identifier(entry value.Ref) (string, error) {
	cat, ok := ix.db.ParentOf("entry_in_catalog", entry)
	if !ok {
		return "", fmt.Errorf("biblio: entry @%d not in a catalogue", entry)
	}
	abbr, err := ix.db.Attr(cat, "abbreviation")
	if err != nil {
		return "", err
	}
	num, err := ix.db.Attr(entry, "number")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d", abbr.AsString(), num.AsInt()), nil
}

// Lookup finds an entry by catalogue abbreviation and number ("BWV",
// 578): the entries with that number (an index range when
// CATALOG_ENTRY.number is indexed), keeping the first placed under a
// catalogue of that abbreviation, all read from one snapshot.
func (ix *Index) Lookup(abbreviation string, number int) (value.Ref, error) {
	snap, err := ix.db.BeginSnapshot(context.Background())
	if err != nil {
		return 0, err
	}
	defer snap.Close()
	cats, err := snap.FindByAttr("CATALOG", "abbreviation", value.Str(abbreviation))
	if err != nil {
		return 0, err
	}
	entries, err := snap.FindByAttr("CATALOG_ENTRY", "number", value.Int(int64(number)))
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		parent, _, ok, err := snap.ChildPosition("entry_in_catalog", e)
		if err != nil {
			return 0, err
		}
		if ok && slices.Contains(cats, parent) {
			return e, nil
		}
	}
	return 0, fmt.Errorf("biblio: no entry %s %d", abbreviation, number)
}

// entryReader is what an entry is read through: the database, or the
// model.View of the statement that is matching an incipit predicate.
type entryReader interface {
	InstanceRow(typeName string, ref value.Ref) (value.Row, bool, error)
	Children(ordering string, parent value.Ref) ([]value.Ref, error)
}

// Get materializes an entry from the database.
func (ix *Index) Get(entry value.Ref) (*Entry, error) { return getEntry(ix.db, entry) }

func getEntry(r entryReader, entry value.Ref) (*Entry, error) {
	row, ok, err := r.InstanceRow("CATALOG_ENTRY", entry)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("biblio: %w: catalogue entry @%d", model.ErrNoEntity, entry)
	}
	buf := row.Decode(nil)
	t := model.AttrsOf(buf)
	e := &Entry{
		Number: int(t[0].AsInt()), Title: t[1].AsString(), Setting: t[2].AsString(),
		ComposedWhen: t[3].AsString(), ComposedWhere: t[4].AsString(),
		Measures: int(t[5].AsInt()), Copies: t[6].AsString(),
		Editions: t[7].AsString(), Literature: t[8].AsString(),
	}
	notes, err := r.Children("incipit_of_entry", entry)
	if err != nil {
		return nil, err
	}
	if len(notes) > 0 {
		e.Incipit = make([]IncipitNote, 0, len(notes))
	}
	for _, n := range notes {
		row, ok, err := r.InstanceRow("INCIPIT_NOTE", n)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("biblio: %w: incipit note @%d", model.ErrNoEntity, n)
		}
		buf = row.Decode(buf)
		nt := model.AttrsOf(buf)
		e.Incipit = append(e.Incipit, IncipitNote{
			MIDIPitch: int(nt[0].AsInt()), DurNum: nt[1].AsInt(), DurDen: nt[2].AsInt(),
		})
	}
	return e, nil
}

// intervals returns the interval sequence of an incipit (semitones
// between consecutive notes).
func intervals(notes []IncipitNote) []int {
	if len(notes) < 2 {
		return nil
	}
	out := make([]int, len(notes)-1)
	for i := 1; i < len(notes); i++ {
		out[i-1] = notes[i].MIDIPitch - notes[i-1].MIDIPitch
	}
	return out
}

// SearchIncipit finds entries whose incipit contains the query's
// interval sequence (transposition-invariant melodic search).  Queries
// of at least GramN intervals probe the gram index for candidates and
// verify each against the full pattern; shorter queries fall back to
// SearchIncipitScan.  Results are in entry creation order.
func (ix *Index) SearchIncipit(query []int) ([]value.Ref, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("biblio: empty incipit query")
	}
	gram, ok := ix.probeGram(query)
	if !ok {
		return ix.SearchIncipitScan(query)
	}
	cands, err := ix.candidates(gram)
	if err != nil {
		return nil, err
	}
	var out []value.Ref
	for _, eref := range cands {
		match, err := ix.MatchIncipit(eref, query)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, eref)
		}
	}
	return out, nil
}

// SearchIncipitScan is the unindexed search path: it materializes every
// entry's incipit across all catalogues and tests the pattern against
// each.  It remains as the fallback for sub-gram queries and as the
// oracle the tests compare the gram index's results against.
func (ix *Index) SearchIncipitScan(query []int) ([]value.Ref, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("biblio: empty incipit query")
	}
	var out []value.Ref
	cats, err := ix.allCatalogs()
	if err != nil {
		return nil, err
	}
	for _, cat := range cats {
		entries, err := ix.db.Children("entry_in_catalog", cat)
		if err != nil {
			return nil, err
		}
		for _, eref := range entries {
			e, err := ix.Get(eref)
			if err != nil {
				return nil, err
			}
			if containsRun(intervals(e.Incipit), query) {
				out = append(out, eref)
			}
		}
	}
	return out, nil
}

func (ix *Index) allCatalogs() ([]value.Ref, error) {
	var out []value.Ref
	err := ix.db.Instances("CATALOG", func(ref value.Ref, _ value.Tuple) bool {
		out = append(out, ref)
		return true
	})
	return out, err
}

func containsRun(haystack, needle []int) bool {
	if len(needle) > len(haystack) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, v := range needle {
			if haystack[i+j] != v {
				continue outer
			}
		}
		return true
	}
	return false
}

// Render formats an entry in the style of figure 2.
func (ix *Index) Render(entry value.Ref) (string, error) {
	id, err := ix.Identifier(entry)
	if err != nil {
		return "", err
	}
	e, err := ix.Get(entry)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s\n\n", id, e.Title)
	fmt.Fprintf(&b, "Besetzung: %s", e.Setting)
	if e.ComposedWhen != "" || e.ComposedWhere != "" {
		fmt.Fprintf(&b, " — EZ %s %s", e.ComposedWhere, e.ComposedWhen)
	}
	if e.Measures > 0 {
		fmt.Fprintf(&b, " — %d Takte", e.Measures)
	}
	b.WriteString("\n")
	if len(e.Incipit) > 0 {
		b.WriteString("Incipit: ")
		for i, n := range e.Incipit {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s(%d/%d)", pitchName(n.MIDIPitch), n.DurNum, n.DurDen)
		}
		b.WriteString("\n")
	}
	if e.Copies != "" {
		fmt.Fprintf(&b, "Abschriften: %s\n", e.Copies)
	}
	if e.Editions != "" {
		fmt.Fprintf(&b, "Ausgaben: %s\n", e.Editions)
	}
	if e.Literature != "" {
		fmt.Fprintf(&b, "Literatur: %s\n", e.Literature)
	}
	return b.String(), nil
}

var pitchNames = [12]string{"C", "C#", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B"}

func pitchName(midi int) string {
	return fmt.Sprintf("%s%d", pitchNames[((midi%12)+12)%12], midi/12-1)
}

// BWV578 returns figure 2's entry — the g-minor fugue — with the fugue
// subject's opening as incipit (G4 D5 Bb4 A4 G4 Bb4 A4 G4 F#4 A4 D4).
func BWV578() Entry {
	q := func(p int) IncipitNote { return IncipitNote{MIDIPitch: p, DurNum: 1, DurDen: 1} }
	e := func(p int) IncipitNote { return IncipitNote{MIDIPitch: p, DurNum: 1, DurDen: 2} }
	return Entry{
		Number:        578,
		Title:         "Fuge g-moll",
		Setting:       "Orgel",
		ComposedWhen:  "um 1709 (oder schon in Arnstadt?)",
		ComposedWhere: "Weimar",
		Measures:      68,
		Copies:        "2 Seiten im Andreas Bach Buch (S 657-677); Konvolut quer 6° aus Krebs Nachlaß, BB in Mus ms Bach P 803",
		Editions:      "C F Beckers Caecilia Bd. II S 91; Peters Orgelwerke Bd. IV S 46; Breitkopf & Härtel EB 3174 S 72; Hofmeister (Joh Schreyer)",
		Literature:    "Spitta I 399; Schweitzer 248; Frotscher II 877; Neumann 51; Keller 73; BJ 1912 131",
		Incipit: []IncipitNote{
			q(67), q(74), e(70), e(69), q(67), e(70), e(69), q(67), e(66), e(69), q(62),
		},
	}
}
