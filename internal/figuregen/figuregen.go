// Package figuregen regenerates the content of each of the paper's
// fifteen figures from the implemented system.  Each generator builds
// the data the figure depicts — live, through the music data manager —
// and renders it as text in the paper's diagram vocabulary (the render
// functions at the end of this file): Chen entity-relationship graphs,
// instance graphs with P- and S-edges, hierarchical-ordering graphs,
// and the aspect tree.  The cmd/figures tool is a thin wrapper; the
// generators are also exercised by tests and by EXPERIMENTS.md.
package figuregen

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/biblio"
	"repro/internal/cmn"
	"repro/internal/darms"
	"repro/internal/demo"
	"repro/internal/mdm"
	"repro/internal/meta"
	"repro/internal/model"
	"repro/internal/pianoroll"
	"repro/internal/pscript"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/value"
)

// Generator produces one figure's text.
type Generator func() (string, error)

// All returns the generator for each figure number 1–15.
func All() map[int]Generator {
	return map[int]Generator{
		1: Figure1, 2: Figure2, 3: Figure3, 4: Figure4, 5: Figure5,
		6: Figure6, 7: Figure7, 8: Figure8, 9: Figure9, 10: Figure10,
		11: Figure11, 12: Figure12, 13: Figure13, 14: Figure14, 15: Figure15,
	}
}

func freshModel() (*model.Database, error) {
	store, err := storage.Open(storage.Options{})
	if err != nil {
		return nil, err
	}
	return model.Open(store)
}

func freshMusic() (*cmn.Music, error) {
	db, err := freshModel()
	if err != nil {
		return nil, err
	}
	return cmn.Open(db)
}

// Figure1 reproduces the MDM architecture: several clients sharing one
// music data manager, demonstrated live.
func Figure1() (string, error) {
	m, err := mdm.Open(mdm.Options{})
	if err != nil {
		return "", err
	}
	defer m.Close()
	items, err := darms.Parse(demo.FugueSubjectDARMS)
	if err != nil {
		return "", err
	}
	if _, err := darms.ToScore(m.Music, items, "Fuge g-moll (subject)"); err != nil {
		return "", err
	}
	cat, err := m.Biblio.NewCatalog("Bach Werke Verzeichnis", "BWV", "chronological")
	if err != nil {
		return "", err
	}
	if _, err := m.Biblio.AddEntry(cat, biblio.BWV578()); err != nil {
		return "", err
	}
	s := m.NewSession()
	res, err := s.QueryContext(context.Background(), `range of n is NOTE retrieve (total = count(n.all))`)
	if err != nil {
		return "", err
	}
	noteCount := res.Rows[0][0].AsInt()

	var b strings.Builder
	b.WriteString(`
  [score editor]  [typesetter]  [composition tool]  [analysis system]
         \              \              /              /
          +------------- music data manager ---------+
                               |
                           [database]

`)
	fmt.Fprintf(&b, "live demonstration — four client roles against one MDM:\n")
	fmt.Fprintf(&b, "  editor client:   imported %q via DARMS (%d notes)\n",
		"Fuge g-moll (subject)", noteCount)
	fmt.Fprintf(&b, "  library client:  catalogued BWV 578 in the thematic index\n")
	fmt.Fprintf(&b, "  analysis client: counted notes via QUEL: %d\n", noteCount)
	fmt.Fprintf(&b, "  all clients share schema, transactions, recovery, and data\n")
	return b.String(), nil
}

// Figure2 reproduces the thematic index entry for BWV 578.
func Figure2() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	ix, err := biblio.Open(db)
	if err != nil {
		return "", err
	}
	cat, err := ix.NewCatalog("Bach Werke Verzeichnis", "BWV", "chronological")
	if err != nil {
		return "", err
	}
	entry, err := ix.AddEntry(cat, biblio.BWV578())
	if err != nil {
		return "", err
	}
	return ix.Render(entry)
}

// Figure3 reproduces the piano roll of the fugue subject, with the
// subject entrance highlighted (the grey shading of the figure).
func Figure3() (string, error) {
	m, err := freshMusic()
	if err != nil {
		return "", err
	}
	_, voice, _, err := demo.LoadFugue(m)
	if err != nil {
		return "", err
	}
	seq, err := demo.FugueSequence(m, voice, 120)
	if err != nil {
		return "", err
	}
	roll, err := pianoroll.FromSequence(seq, 125_000) // 16th-note columns at 120 BPM
	if err != nil {
		return "", err
	}
	// Highlight the first four notes: the subject's entrance.
	for i, n := range seq.Notes {
		if i < 4 {
			roll.AddNote(n, true)
		}
	}
	var b strings.Builder
	b.WriteString("piano roll of the BWV 578 subject (time →, pitch ↑, ▒ = entrance):\n")
	b.WriteString(roll.Render(true))
	return b.String(), nil
}

// Figure4 reproduces the DARMS example: the fragment's encoding, its
// canonical form, and the abbreviation key.
func Figure4() (string, error) {
	items, err := darms.Parse(darms.Figure4)
	if err != nil {
		return "", err
	}
	canon, err := darms.Canonize(items)
	if err != nil {
		return "", err
	}
	m, err := freshMusic()
	if err != nil {
		return "", err
	}
	if _, err := darms.ToScore(m, items, "Gloria in excelsis"); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("(b) DARMS encoding (from the paper):\n  ")
	b.WriteString(darms.Figure4)
	b.WriteString("\n\ncanonical DARMS (output of the canonizer):\n  ")
	b.WriteString(darms.Encode(canon))
	fmt.Fprintf(&b, "\n\nscore built from the encoding: %d notes, %d measures, %d syllables, %d beam groups\n",
		m.DB.Count("NOTE"), m.DB.Count("MEASURE"), m.DB.Count("SYLLABLE"), m.DB.Count("GROUP"))
	b.WriteString(`
(c) abbreviation key:
  I4       instrument (or voice) definition #4
  'G       G (treble) clef
  'K       key signature ('K2# two sharps)
  00       annotation above the staff
  R        rest (R2W: two whole rests)
  @text$   literal string; ¢ capitalizes the next letter
  (notes)  beam grouping
  W Q E    whole / quarter / eighth duration
  D        stems down
  /        bar line (// double bar)
`)
	return b.String(), nil
}

// Figure5 reproduces the entity-relationship graph and runs the §5.6
// Star-Spangled-Banner query against it.
func Figure5() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	if _, err := quel.NewSession(db).Exec(`
define entity DATE (day = integer, month = integer, year = integer)
define entity COMPOSITION (title = string, composition_date = DATE)
define entity PERSON (name = string)
define relationship COMPOSER (composer = PERSON, composition = COMPOSITION)
`); err != nil {
		return "", err
	}
	key, _ := db.NewEntity("PERSON", model.Attrs{"name": value.Str("Francis Scott Key")})
	smith, _ := db.NewEntity("PERSON", model.Attrs{"name": value.Str("John Stafford Smith")})
	ssb, _ := db.NewEntity("COMPOSITION", model.Attrs{"title": value.Str("The Star Spangled Banner")})
	db.Relate("COMPOSER", map[string]value.Ref{"composer": key, "composition": ssb}, nil)
	db.Relate("COMPOSER", map[string]value.Ref{"composer": smith, "composition": ssb}, nil)

	s := quel.NewSession(db)
	res, err := s.Exec(`
retrieve (PERSON.name)
  where COMPOSITION.title = "The Star Spangled Banner"
  and COMPOSER.composition is COMPOSITION
  and COMPOSER.composer is PERSON`)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(renderER(db,
		[]string{"DATE", "COMPOSITION", "PERSON"}, []string{"COMPOSER"}))
	b.WriteString("\nthe §5.6 query over this schema:\n")
	b.WriteString(res.String())
	return b.String(), nil
}

// Figure6 reproduces the simple instance graph: a four-note chord with
// P-edges and S-edges.
func Figure6() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	if _, err := quel.NewSession(db).Exec(`
define entity CHORD (name = string)
define entity NOTE (name = string)
define ordering note_in_chord (NOTE) under CHORD
`); err != nil {
		return "", err
	}
	y, _ := db.NewEntity("CHORD", model.Attrs{"name": value.Str("y")})
	for _, n := range []string{"u", "v", "w", "x"} {
		ref, _ := db.NewEntity("NOTE", model.Attrs{"name": value.Str(n)})
		if err := db.InsertChild("note_in_chord", y, ref, model.Last()); err != nil {
			return "", err
		}
	}
	g, err := db.InstanceGraph(y, "name")
	if err != nil {
		return "", err
	}
	third, err := db.ChildAt("note_in_chord", y, 2)
	if err != nil {
		return "", err
	}
	name, _ := db.Attr(third, "name")
	var b strings.Builder
	b.WriteString(renderInstance(g))
	fmt.Fprintf(&b, "the third child of y is %s (ordinal access through the ordering)\n", name)
	return b.String(), nil
}

// Figure7 reproduces a one-edge HO graph.
func Figure7() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	if _, err := quel.NewSession(db).Exec(`
define entity CHORD (name = integer)
define entity NOTE (name = integer)
define ordering note_in_chord (NOTE) under CHORD
`); err != nil {
		return "", err
	}
	return renderHO(db.HOGraph("note_in_chord")), nil
}

// Figure8 reproduces the recursive beam-group ordering: HO graph,
// instance graph, and the walk order.
func Figure8() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	if _, err := quel.NewSession(db).Exec(demo.BeamSchemaDDL); err != nil {
		return "", err
	}
	g1, err := demo.BuildBeamFigure(db)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("(a) HO graph (recursive: BEAM_GROUP is parent and child):\n")
	b.WriteString(renderHO(db.HOGraph("beam_content")))
	b.WriteString("\n(c) instance graph for the figure's six chords:\n")
	ig, err := db.InstanceGraph(g1, "name")
	if err != nil {
		return "", err
	}
	b.WriteString(renderInstance(ig))
	// Demonstrate the §5.5 restriction.
	err = db.InsertChild("beam_content", g1, g1, model.Last())
	fmt.Fprintf(&b, "\ninserting g1 under itself: %v\n", err)
	return b.String(), nil
}

// Figure9 reproduces the meta-schema HO graph: the schema stored as
// ordered entities, describing itself.
func Figure9() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	c, err := meta.Bootstrap(db)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(renderHO(db.HOGraph(meta.OrderEntityAttrs, meta.OrderRelationshipAttrs)))
	b.WriteString("\nthe fixpoint: the meta-schema catalogued in itself —\n")
	s := quel.NewSession(db)
	res, err := s.Exec(`
range of a is ATTRIBUTE
range of e is ENTITY
retrieve (e.entity_name, a.attribute_name)
  where a under e in entity_attributes and e.entity_name = "ENTITY"`)
	if err != nil {
		return "", err
	}
	b.WriteString(res.String())
	_ = c
	return b.String(), nil
}

// Figure10 reproduces the graphical-definition schema and executes the
// §6.2 four-step stem-drawing procedure through the catalog.
func Figure10() (string, error) {
	db, err := freshModel()
	if err != nil {
		return "", err
	}
	c, err := meta.Bootstrap(db)
	if err != nil {
		return "", err
	}
	if _, err := quel.NewSession(db).Exec(`
define entity STEM (xpos = integer, ypos = integer, length = integer, direction = integer)
`); err != nil {
		return "", err
	}
	if err := c.Refresh(); err != nil {
		return "", err
	}
	const fn = "newpath xpos ypos moveto 0 length direction mul rlineto stroke"
	if _, err := c.DefineGraphDef("draw_stem", "STEM", fn, []meta.ParamBinding{
		{Attribute: "xpos", Setup: "/xpos exch def"},
		{Attribute: "ypos", Setup: "/ypos exch def"},
		{Attribute: "length", Setup: "/length exch def"},
		{Attribute: "direction", Setup: "/direction exch def"},
	}); err != nil {
		return "", err
	}
	// Step 1: the stem instance.
	stem, err := db.NewEntity("STEM", model.Attrs{
		"xpos": value.Int(4), "ypos": value.Int(10),
		"length": value.Int(7), "direction": value.Int(-1),
	})
	if err != nil {
		return "", err
	}
	out, err := DrawViaCatalog(db, c, "STEM", stem)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("schema: GraphDef + GParmUse + GDefUse over ENTITY/ATTRIBUTE\n")
	fmt.Fprintf(&b, "GraphDef(draw_stem).function = %q\n\n", fn)
	b.WriteString("executing the §6.2 four-step drawing procedure for the stem\n")
	b.WriteString("instance (xpos=4, ypos=10, length=7, direction=down):\n\n")
	b.WriteString(out)
	return b.String(), nil
}

// DrawViaCatalog runs the §6.2 procedure: find the instance, resolve its
// GraphDef via GDefUse, bind parameters via GParmUse set-up fragments,
// execute the function, and return an ASCII rasterization.
func DrawViaCatalog(db *model.Database, c *meta.Catalog, entityType string, instance value.Ref) (string, error) {
	fn, params, err := c.GraphDefFor(entityType)
	if err != nil {
		return "", err
	}
	canvas := pscript.NewCanvas()
	in := pscript.New(canvas)
	for _, p := range params {
		v, err := db.Attr(instance, p.Attribute)
		if err != nil {
			return "", err
		}
		in.Push(float64(v.AsInt()))
		if err := in.Run(p.Setup); err != nil {
			return "", fmt.Errorf("figuregen: setup for %s: %w", p.Attribute, err)
		}
	}
	if err := in.Run(fn); err != nil {
		return "", fmt.Errorf("figuregen: graphdef: %w", err)
	}
	bm := canvas.Rasterize(12, 12)
	return bm.ASCII(), nil
}

// Figure11 reproduces the CMN entity inventory.
func Figure11() (string, error) {
	m, err := freshMusic()
	if err != nil {
		return "", err
	}
	// Verify the inventory against the live schema before rendering.
	for _, e := range cmn.Inventory() {
		if _, ok := m.DB.EntityType(e.Name); !ok {
			return "", fmt.Errorf("figuregen: inventory entity %s missing from schema", e.Name)
		}
	}
	return renderInventory(cmn.Inventory()), nil
}

// Figure12 reproduces the aspect tree.
func Figure12() (string, error) {
	return renderAspects(cmn.Aspects()), nil
}

// Figure13 reproduces the temporal-aspect HO graph from the live CMN
// schema.
func Figure13() (string, error) {
	m, err := freshMusic()
	if err != nil {
		return "", err
	}
	return renderHO(m.DB.HOGraph(cmn.TemporalOrderings()...)), nil
}

// Figure14 reproduces the division of measures into syncs for a
// two-voice fragment.
func Figure14() (string, error) {
	m, err := freshMusic()
	if err != nil {
		return "", err
	}
	score, err := m.NewScore("sync demo", "")
	if err != nil {
		return "", err
	}
	mv, _ := score.AddMovement("I")
	mv.AddMeasure(4, 4)
	mv.AddMeasure(4, 4)
	orch, _ := m.NewOrchestra("o")
	orch.Performs(score)
	sec, _ := orch.AddSection("s")
	inst, _ := sec.AddInstrument("i", 0)
	part, _ := inst.AddPart("p")
	v1, _ := part.AddVoice(1)
	v2, _ := part.AddVoice(2)
	for _, d := range []cmn.RTime{cmn.Quarter, cmn.Quarter, cmn.Half, cmn.Whole} {
		v1.AppendChord(d, 1)
	}
	v2.AppendChord(cmn.Half, -1)
	v2.AppendChord(cmn.Half, -1)
	v2.AppendRest(cmn.Half)
	v2.AppendChord(cmn.Half, -1)
	if err := mv.Align([]*cmn.Voice{v1, v2}); err != nil {
		return "", err
	}
	return renderSyncs(mv)
}

// Figure15 reproduces melodic groups: the beams of the fugue subject and
// their aggregated durations.
func Figure15() (string, error) {
	m, err := freshMusic()
	if err != nil {
		return "", err
	}
	_, _, _, err = demo.LoadFugue(m)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("melodic groups of the imported subject (beams from DARMS):\n")
	count := 0
	err = m.DB.Instances("GROUP", func(ref value.Ref, attrs value.Tuple) bool {
		g, err := m.GroupByRef(ref)
		if err != nil {
			return true
		}
		d, err := g.Duration()
		if err != nil {
			return true
		}
		kids, _ := m.DB.Children("group_content", ref)
		fmt.Fprintf(&b, "  group %d: kind=%s, %d members, duration %s beats\n",
			count+1, attrs[0].AsString(), len(kids), d)
		count++
		return true
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "(%d groups; duration is the §7.2 aggregate over constituent chords)\n", count)
	return b.String(), nil
}

// renderER renders the schema's entity-relationship graph in Chen's
// notation, textually: entity types in [boxes], relationships in
// <diamonds> with their role edges.
func renderER(db *model.Database, entities []string, relationships []string) string {
	var b strings.Builder
	b.WriteString("Entity types:\n")
	for _, e := range entities {
		et, ok := db.EntityType(e)
		if !ok {
			continue
		}
		attrs := make([]string, len(et.Attrs))
		for i, a := range et.Attrs {
			if a.Kind == value.KindRef && a.RefType != "" {
				attrs[i] = fmt.Sprintf("%s = %s (1:n)", a.Name, a.RefType)
			} else {
				attrs[i] = fmt.Sprintf("%s = %s", a.Name, a.Kind)
			}
		}
		fmt.Fprintf(&b, "  [%s] (%s)\n", e, strings.Join(attrs, ", "))
	}
	b.WriteString("Relationships:\n")
	for _, r := range relationships {
		rt, ok := db.RelationshipType(r)
		if !ok {
			continue
		}
		legs := make([]string, len(rt.Roles))
		for i, role := range rt.Roles {
			legs[i] = fmt.Sprintf("%s:[%s]", role.Name, role.EntityType)
		}
		fmt.Fprintf(&b, "  <%s> m:n — %s\n", r, strings.Join(legs, " — "))
	}
	return b.String()
}

// renderHO renders a hierarchical-ordering graph: one line per ordering
// (edge), parent above children, matching the solid arrows of the
// paper's HO graphs.
func renderHO(g *model.HOGraph) string {
	var b strings.Builder
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  [%s]\n", e.Parent)
		fmt.Fprintf(&b, "    │ %s\n", e.Ordering)
		fmt.Fprintf(&b, "    ▼ (%s)\n", strings.Join(e.Children, ", "))
	}
	return b.String()
}

// renderInstance renders an instance graph as an indented tree: P-edges
// as indentation, S-edges as the top-to-bottom order of siblings, each
// node labelled.  The sibling arrows of figure 6 appear as "→" chains.
func renderInstance(g *model.InstanceGraph) string {
	children := map[value.Ref][]value.Ref{}
	isChild := map[value.Ref]bool{}
	labels := map[value.Ref]string{}
	for _, n := range g.Nodes {
		labels[n.Ref] = fmt.Sprintf("%s @%d (%s)", n.Type, n.Ref, n.Label)
	}
	// P-edges preserve sibling order because InstanceGraph emits them in
	// ordering order.
	for _, e := range g.PEdges {
		children[e.To] = append(children[e.To], e.From)
		isChild[e.From] = true
	}
	var roots []value.Ref
	for _, n := range g.Nodes {
		if !isChild[n.Ref] {
			roots = append(roots, n.Ref)
		}
	}
	var b strings.Builder
	var walk func(ref value.Ref, depth int)
	walk = func(ref value.Ref, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), labels[ref])
		kids := dedupe(children[ref])
		if len(kids) > 0 {
			names := make([]string, len(kids))
			for i, k := range kids {
				names[i] = fmt.Sprintf("@%d", k)
			}
			fmt.Fprintf(&b, "%sS: %s\n", strings.Repeat("  ", depth+1), strings.Join(names, " → "))
		}
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	fmt.Fprintf(&b, "(%d nodes, %d P-edges, %d S-edges)\n",
		len(g.Nodes), len(g.PEdges), len(g.SEdges))
	return b.String()
}

func dedupe(refs []value.Ref) []value.Ref {
	seen := map[value.Ref]bool{}
	out := refs[:0:0]
	for _, r := range refs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// renderAspects renders figure 12's aspect tree: aspects and subaspects,
// with the entities participating in each.
func renderAspects(asp map[string][]cmn.Aspect) string {
	byAspect := map[cmn.Aspect][]string{}
	for entity, aspects := range asp {
		for _, a := range aspects {
			byAspect[a] = append(byAspect[a], entity)
		}
	}
	order := []cmn.Aspect{
		cmn.AspectTemporal,
		cmn.AspectTimbral, cmn.AspectPitch, cmn.AspectArticulation, cmn.AspectDynamic,
		cmn.AspectGraphical, cmn.AspectTextual,
	}
	var b strings.Builder
	b.WriteString("Aspects of musical entities (figure 12):\n")
	for _, a := range order {
		ents := byAspect[a]
		sort.Strings(ents)
		indent := "  "
		if strings.Contains(string(a), "/") {
			indent = "      "
		}
		fmt.Fprintf(&b, "%s%s: %s\n", indent, a, strings.Join(ents, ", "))
	}
	return b.String()
}

// renderInventory renders figure 11's entity table.
func renderInventory(inv []cmn.EntityDesc) string {
	width := 0
	for _, e := range inv {
		if len(e.Name) > width {
			width = len(e.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %s\n", width, "Entity type", "Description")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", width+40))
	for _, e := range inv {
		fmt.Fprintf(&b, "%-*s  %s\n", width, e.Name, e.Description)
	}
	return b.String()
}

// renderSyncs renders figure 14: a movement's measures divided into
// syncs, with the chords aligned at each.
func renderSyncs(mv *cmn.Movement) (string, error) {
	var b strings.Builder
	measures, err := mv.Measures()
	if err != nil {
		return "", err
	}
	for _, me := range measures {
		fmt.Fprintf(&b, "measure %d:\n", me.Number())
		syncs, err := me.Syncs()
		if err != nil {
			return "", err
		}
		for _, sy := range syncs {
			chords, err := sy.Chords()
			if err != nil {
				return "", err
			}
			names := make([]string, len(chords))
			for i, c := range chords {
				names[i] = fmt.Sprintf("chord@%d(%s)", c.Ref, c.Duration())
			}
			fmt.Fprintf(&b, "  sync at beat %-5s %s\n", sy.Offset().String()+":", strings.Join(names, " "))
		}
	}
	return b.String(), nil
}
