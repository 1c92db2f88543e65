package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/biblio"
	"repro/internal/cmn"
	"repro/internal/darms"
	"repro/internal/demo"
	"repro/internal/mdm"
	"repro/internal/meta"
	"repro/internal/midi"
	"repro/internal/model"
	"repro/internal/pianoroll"
	"repro/internal/storage"
	"repro/internal/value"
)

// fugue opens a music manager holding the DARMS-imported BWV 578
// subject and returns it with the subject's voice.
func fugue() (*cmn.Music, *cmn.Voice) {
	m := openMDM(false).Music
	_, voice, _, err := demo.LoadFugue(m)
	check(err)
	return m, voice
}

// f2ThematicLookup measures catalogue lookup as the index grows.
func f2ThematicLookup() []caseDef {
	var cs []caseDef
	for _, n := range []int{100, 1000} {
		ix := sync.OnceValue(func() *biblio.Index {
			ix := openMDM(false).Biblio
			cat, err := ix.NewCatalog("bench", "BN", "chronological")
			check(err)
			for i := 1; i <= n; i++ {
				_, err := ix.AddEntry(cat, biblio.Entry{Number: i, Title: fmt.Sprintf("Work %d", i)})
				check(err)
			}
			return ix
		})
		cs = append(cs, caseDef{ID: "F2", Name: "thematic index lookup by identifier",
			Config: fmt.Sprintf("entries=%d", n), Unit: "ns/lookup",
			Bench: loop(ix, func(ix *biblio.Index, i int) error {
				_, err := ix.Lookup("BN", 1+i%n)
				return err
			})})
	}
	return cs
}

// f3PianoRoll measures figure 3's event-stream → roll translation.
func f3PianoRoll() []caseDef {
	seq := sync.OnceValue(func() *midi.Sequence {
		m, voice := fugue()
		seq, err := demo.FugueSequence(m, voice, 120)
		check(err)
		return seq
	})
	return []caseDef{{ID: "F3", Name: "piano-roll translation (BWV 578 subject)", Config: "16th-note columns", Unit: "ns/roll",
		Bench: loop(seq, func(seq *midi.Sequence, _ int) error {
			_, err := pianoroll.FromSequence(seq, 125_000)
			return err
		})}}
}

// f4Darms measures DARMS parsing and canonization.
func f4Darms() []caseDef {
	items := sync.OnceValue(func() []darms.Item {
		items, err := darms.Parse(darms.Figure4)
		check(err)
		return items
	})
	return []caseDef{
		{ID: "F4", Name: "DARMS parse (figure 4 fragment)", Config: fmt.Sprintf("%d bytes", len(darms.Figure4)), Unit: "ns/parse",
			Bench: loop(func() string { return darms.Figure4 }, func(src string, _ int) error {
				_, err := darms.Parse(src)
				return err
			})},
		{ID: "F4", Name: "DARMS canonize (figure 4 fragment)", Config: "24 notes", Unit: "ns/op",
			Bench: loop(items, func(items []darms.Item, _ int) error {
				_, err := darms.Canonize(items)
				return err
			})},
	}
}

// f5QuelJoin measures the figure-5 is-operator join as the relationship
// grows.
func f5QuelJoin(sz Sizes) []caseDef {
	n := max(sz.ScanRows/100, 10)
	sess := sync.OnceValue(func() *mdm.Session {
		m := openMDM(true)
		s := m.NewSession()
		_, err := s.ExecContext(context.Background(), `
define entity PERSON (name = string)
define entity COMPOSITION (title = string)
define relationship COMPOSER (composer = PERSON, composition = COMPOSITION)`)
		check(err)
		people, err := m.Model.NewEntities("PERSON", n, func(i int) model.Attrs {
			return model.Attrs{"name": value.Str(fmt.Sprintf("composer %d", i))}
		})
		check(err)
		comps, err := m.Model.NewEntities("COMPOSITION", n, func(i int) model.Attrs {
			return model.Attrs{"title": value.Str(fmt.Sprintf("work %d", i))}
		})
		check(err)
		for i := range people {
			check(m.Model.Relate("COMPOSER", map[string]value.Ref{"composer": people[i], "composition": comps[i]}, nil))
		}
		return s
	})
	return []caseDef{{ID: "F5", Name: "is-operator join (Star Spangled Banner query)",
		Config: fmt.Sprintf("persons=%d works=%d", n, n), Unit: "ns/query",
		Bench: loop(sess, func(s *mdm.Session, _ int) error {
			_, err := s.QueryContext(context.Background(), `retrieve (PERSON.name)
  where COMPOSITION.title = "work 5"
  and COMPOSER.composition is COMPOSITION
  and COMPOSER.composer is PERSON`)
			return err
		})}}
}

// f6OrdinalFanout measures "the i'th child of p" as fan-out grows.
func f6OrdinalFanout(sz Sizes) []caseDef {
	var cs []caseDef
	for _, n := range []int{10, 1000, 100000} {
		if n > sz.OrderedNotes*20 {
			continue
		}
		fixture := sync.OnceValue(func() *chord { return newOrdering(n) })
		cs = append(cs, caseDef{ID: "F6", Name: "ordinal access (i'th child)", Config: fmt.Sprintf("fan-out=%d", n), Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, i int) error {
				_, err := c.db.ChildAt("note_in_chord", c.parent, i%n)
				return err
			})})
	}
	return cs
}

// f8RecursiveTraversal measures depth-first walks of recursive
// orderings as depth grows: a chain of nested beam groups, two chords
// per level.
func f8RecursiveTraversal() []caseDef {
	var cs []caseDef
	for _, depth := range []int{4, 16, 64} {
		nodes := 3*depth - 2
		type beams struct {
			db   *model.Database
			root value.Ref
		}
		fixture := sync.OnceValue(func() beams {
			m := openMDM(true)
			_, err := m.NewSession().ExecContext(context.Background(), demo.BeamSchemaDDL)
			check(err)
			db := m.Model
			root, err := db.NewEntity("BEAM_GROUP", model.Attrs{"name": value.Str("g0")})
			check(err)
			for d, parent := 1, root; d < depth; d++ {
				for i := 0; i < 2; i++ {
					c, err := db.NewEntity("BCHORD", nil)
					check(err)
					check(db.InsertChild("beam_content", parent, c, model.Last()))
				}
				g, err := db.NewEntity("BEAM_GROUP", model.Attrs{"name": value.Str(fmt.Sprintf("g%d", d))})
				check(err)
				check(db.InsertChild("beam_content", parent, g, model.Last()))
				parent = g
			}
			return beams{db, root}
		})
		cs = append(cs, caseDef{ID: "F8", Name: "recursive ordering walk",
			Config: fmt.Sprintf("depth=%d nodes=%d", depth, nodes), Unit: "ns/walk",
			Bench: loop(fixture, func(f beams, _ int) error {
				seen := 0
				err := f.db.Walk("beam_content", f.root, func(value.Ref, int) bool { seen++; return true })
				if err == nil && seen != nodes {
					err = fmt.Errorf("walk visited %d of %d nodes", seen, nodes)
				}
				return err
			})})
	}
	return cs
}

// f9CatalogBootstrap measures the meta-schema bootstrap (the schema
// stored as ordered entities) over the full CMN schema.
func f9CatalogBootstrap() []caseDef {
	return []caseDef{{ID: "F9", Name: "meta-catalog bootstrap over CMN schema", Config: "~40 types", Unit: "ns/bootstrap",
		Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := storage.Open(storage.Options{})
				check(err)
				db, err := model.Open(store)
				check(err)
				_, err = cmn.Open(db)
				check(err)
				b.StartTimer()
				if _, err := meta.Bootstrap(db); err != nil {
					b.Fatal(err)
				}
			}
		}}}
}

// f12DynamicInheritance measures figure 12's attribute inheritance:
// every note of a voice resolving the dynamic it inherits from its
// enclosing contexts.
func f12DynamicInheritance() []caseDef {
	voice := sync.OnceValue(func() *cmn.Voice {
		score, voices, err := demo.RandomScore(openMDM(false).Music, 16, 2, 1)
		check(err)
		check(score.AddDynamic(cmn.Zero, "f"))
		check(voices[0].AddDynamic(cmn.Beats(8, 1), "p"))
		return voices[0]
	})
	return []caseDef{{ID: "F12", Name: "inherited dynamic, every note of a voice", Config: "measures=16 voices=2", Unit: "ns/voice",
		Bench: loop(voice, func(v *cmn.Voice, _ int) error {
			_, err := v.PerformedNotes()
			return err
		})}}
}

// f13Extrapolation measures score-time → performance-time MIDI
// extrapolation through a tempo map with ramps.
func f13Extrapolation() []caseDef {
	tm := cmn.NewTempoMap(96)
	tm.AddMark(cmn.TempoMark{Beat: cmn.Beats(32, 1), BPM: 120, Ramp: true})
	tm.AddMark(cmn.TempoMark{Beat: cmn.Beats(64, 1), BPM: 60})
	notes := make([]cmn.PerformedNote, 1000)
	for i := range notes {
		notes[i] = cmn.PerformedNote{Pitch: 40 + i%40, Start: cmn.Beats(int64(i), 4),
			Duration: cmn.Quarter, Velocity: 80}
	}
	return []caseDef{{ID: "F13", Name: "temporal extrapolation (1000 notes, 3-mark map)", Config: "ramped tempo", Unit: "ns/extrapolation",
		Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				midi.FromPerformance(notes, tm, 0)
			}
		}}}
}

// f14SyncAlignment measures the figure-14 alignment as voices grow:
// each iteration clears one movement's syncs and aligns it again.
func f14SyncAlignment(sz Sizes) []caseDef {
	var cs []caseDef
	for _, voices := range []int{1, 2, 4} {
		type score struct {
			mv *cmn.Movement
			vs []*cmn.Voice
		}
		fixture := sync.OnceValue(func() score {
			s, vs, err := demo.RandomScore(openMDM(false).Music, sz.SyncMeasures, voices, 1)
			check(err)
			movements, err := s.Movements()
			check(err)
			return score{movements[0], vs}
		})
		cs = append(cs, caseDef{ID: "F14", Name: "sync alignment of a movement",
			Config: fmt.Sprintf("measures=%d voices=%d", sz.SyncMeasures, voices), Unit: "ns/align",
			Bench: func(b *testing.B) {
				s := fixture()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := s.mv.ClearAlignment(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := s.mv.Align(s.vs); err != nil {
						b.Fatal(err)
					}
				}
			}})
	}
	return cs
}

// f15GroupAggregate measures figure 15's group duration: the §7.2
// aggregate over a melodic group's constituent chords.
func f15GroupAggregate() []caseDef {
	groups := sync.OnceValue(func() []*cmn.Group {
		m, _ := fugue()
		var gs []*cmn.Group
		check(m.DB.Instances("GROUP", func(ref value.Ref, _ value.Tuple) bool {
			g, err := m.GroupByRef(ref)
			check(err)
			gs = append(gs, g)
			return true
		}))
		if len(gs) == 0 {
			panic("experiments: the fugue subject has no melodic groups")
		}
		return gs
	})
	return []caseDef{{ID: "F15", Name: "group duration aggregate (BWV 578 beams)", Config: "fugue subject", Unit: "ns/group",
		Bench: loop(groups, func(gs []*cmn.Group, i int) error {
			_, err := gs[i%len(gs)].Duration()
			return err
		})}}
}
