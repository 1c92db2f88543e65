package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cmn"
	"repro/internal/figuregen"
	"repro/internal/mdm"
	"repro/internal/meta"
	"repro/internal/midi"
	"repro/internal/model"
	"repro/internal/pscript"
	"repro/internal/sound"
	"repro/internal/storage"
	"repro/internal/value"
)

// q1SortedSelection measures §5.2's claim: key-range selection on a
// sorted (indexed) relation versus a heap scan, and the footnote's
// caveat that a mismatched sort key does not help.
func q1SortedSelection(sz Sizes) []caseDef {
	cfg := fmt.Sprintf("n=%d", sz.ScanRows)
	fixture := sync.OnceValue(func() *storage.DB {
		db, err := storage.Open(storage.Options{})
		check(err)
		_, err = db.CreateRelation("N", value.NewSchema(
			value.Field{Name: "pitch", Kind: value.KindInt},
			value.Field{Name: "dur", Kind: value.KindInt},
		))
		check(err)
		check(db.CreateIndex("N", storage.IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}))
		check(db.Run(func(tx *storage.Tx) error {
			for i := 0; i < sz.ScanRows; i++ {
				if _, err := tx.Insert("N", value.Tuple{value.Int(int64(i % 128)), value.Int(int64(i % 7))}); err != nil {
					return err
				}
			}
			return nil
		}))
		return db
	})
	lo := value.AppendKey(nil, value.Int(60))
	hi := value.AppendKey(nil, value.Int(64))
	run := func(op func(tx *storage.Tx) error) func(b *testing.B) {
		return loop(fixture, func(db *storage.DB, _ int) error { return db.Run(op) })
	}
	scan := func(keep func(value.Tuple) bool) func(b *testing.B) {
		return run(func(tx *storage.Tx) error {
			return tx.Scan("N", nil, func(_ storage.RowID, t value.Tuple) bool { keep(t); return true })
		})
	}
	idx := caseDef{ID: "Q1", Name: "range selection via matching sort key", Config: cfg, Unit: "ns/query",
		Bench: run(func(tx *storage.Tx) error {
			return tx.IndexRange("N", "by_pitch", lo, hi, false, func(storage.RowID, value.Tuple) bool { return true })
		})}
	heap := caseDef{ID: "Q1", Name: "range selection via heap scan", Config: cfg, Unit: "ns/query",
		Bench: scan(func(t value.Tuple) bool { return t[0].AsInt() >= 60 && t[0].AsInt() < 64 })}
	// Selecting on dur, which the pitch index does not sort, degenerates
	// to the heap scan (the paper's footnote 3).
	mismatch := caseDef{ID: "Q1", Name: "selection with mismatched sort key", Config: cfg, Unit: "ns/query",
		Bench: scan(func(t value.Tuple) bool { return t[1].AsInt() == 3 })}
	return []caseDef{idx, heap, mismatch, ratio("speedup from matching key", heap, idx)}
}

// q2MiddleInsert measures ordered insertion in the middle of a chord of
// N and of 4N siblings: the model's gap ranks against the relational
// baseline's seqno renumbering through QUEL.  Each iteration inserts
// one note and removes it again, so the chord stays at its size.
func q2MiddleInsert(sz Sizes) []caseDef {
	var cs []caseDef
	for _, n := range []int{sz.MiddleChord, 4 * sz.MiddleChord} {
		fixture := sync.OnceValue(func() *chord { return newChord(n) })
		cfg := fmt.Sprintf("siblings=%d", n)
		ho := caseDef{ID: "Q2", Name: "middle insert+remove, hierarchical ordering", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, _ int) error {
				if err := c.db.InsertChild("note_in_chord", c.parent, c.spare, model.Before(c.notes[n/2])); err != nil {
					return err
				}
				return c.db.RemoveChild("note_in_chord", c.spare)
			})}
		rel := caseDef{ID: "Q2", Name: "middle insert+remove, seqno renumbering (QUEL)", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, _ int) error {
				if err := c.insertAt(n/2, n); err != nil {
					return err
				}
				return c.removeAt(n / 2)
			})}
		cs = append(cs, ho, rel, ratio("hierarchical ordering advantage", rel, ho))
	}
	return cs
}

// q3OrderingOperators measures the §5.6 operators against the seqno
// formulation.  Both sides are timed through QUEL on one engine; the
// typed-API rows are the model's floor under the QUEL rows.
func q3OrderingOperators(n int, fixture func() *chord) []caseDef {
	cfg := fmt.Sprintf("siblings=%d", n)
	return []caseDef{
		{ID: "Q3", Name: "before, typed API (rank compare)", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, i int) error {
				_, err := c.db.BeforeIn("note_in_chord", c.notes[i%n], c.notes[(i*7)%n])
				return err
			})},
		{ID: "Q3", Name: "before, hierarchical ordering (QUEL)", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, i int) error {
				_, err := c.quelBefore(i%n, (i*7)%n)
				return err
			})},
		{ID: "Q3", Name: "before, seqno attribute (QUEL)", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, i int) error {
				_, err := c.seqnoBefore(i%n, (i*7)%n)
				return err
			})},
		{ID: "Q3", Name: "ordinal access, typed API (order-statistics tree)", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, i int) error {
				_, err := c.db.ChildAt("note_in_chord", c.parent, i%n)
				return err
			})},
		{ID: "Q3", Name: "ordinal access, seqno index (QUEL)", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, i int) error {
				_, err := c.seqnoAt(i % n)
				return err
			})},
	}
}

// q4Sound verifies §4.1's storage arithmetic and measures the two
// compaction families on synthesized music.
func q4Sound(sz Sizes) []caseDef {
	buf := sync.OnceValue(func() *sound.Buffer {
		_, voice := fugue()
		notes, err := voice.PerformedNotes()
		check(err)
		// Stretch the subject's 8 beats over the requested duration.
		tm := cmn.NewTempoMap(8 * 60 / sz.SoundSeconds)
		b, err := sound.Synthesize(midi.FromPerformance(notes, tm, 0), sound.Organ, 48000)
		check(err)
		return b
	})
	cfg := fmt.Sprintf("%.2gs @48kHz", sz.SoundSeconds)
	return []caseDef{
		{ID: "Q4", Name: "10 min at 48kHz/16-bit (paper: 57.6 MB)", Config: "exact", Unit: "bytes",
			Exact: func() float64 { return float64(sound.StorageBytes(600, sound.ProfessionalRate)) }},
		{ID: "Q4", Name: "redundancy codec (delta) compression", Config: cfg, Unit: "x",
			Exact: func() float64 { return sound.CompressionRatio(buf(), sound.EncodeDelta(buf())) }},
		{ID: "Q4", Name: "perceptual codec (mu-law) compression", Config: cfg, Unit: "x",
			Exact: func() float64 { return sound.CompressionRatio(buf(), sound.EncodeMuLaw(buf())) }},
		{ID: "Q4", Name: "perceptual codec SNR", Config: cfg, Unit: "dB",
			Exact: func() float64 {
				dec, err := sound.DecodeMuLaw(sound.EncodeMuLaw(buf()))
				check(err)
				snr, err := sound.SNR(buf(), dec)
				check(err)
				return snr
			}},
	}
}

// q5CatalogIndirection measures the §6.2 three-layer indirection:
// drawing a stem by resolving GraphDef/GParmUse through the catalog
// versus a hard-coded drawing call (the ablation of design choice 4).
func q5CatalogIndirection() []caseDef {
	type stem struct {
		m   *mdm.MDM
		ref value.Ref
	}
	fixture := sync.OnceValue(func() stem {
		m := openMDM(true)
		_, err := m.NewSession().ExecContext(context.Background(),
			`define entity STEM (xpos = integer, ypos = integer, length = integer, direction = integer)`)
		check(err)
		_, err = m.Catalog.DefineGraphDef("draw_stem", "STEM",
			"newpath xpos ypos moveto 0 length direction mul rlineto stroke", []meta.ParamBinding{
				{Attribute: "xpos", Setup: "/xpos exch def"},
				{Attribute: "ypos", Setup: "/ypos exch def"},
				{Attribute: "length", Setup: "/length exch def"},
				{Attribute: "direction", Setup: "/direction exch def"},
			})
		check(err)
		ref, err := m.Model.NewEntity("STEM", model.Attrs{
			"xpos": value.Int(4), "ypos": value.Int(10),
			"length": value.Int(7), "direction": value.Int(-1),
		})
		check(err)
		return stem{m, ref}
	})
	viaCatalog := caseDef{ID: "Q5", Name: "stem draw via catalog (GDefUse+GParmUse)", Config: "figure 10", Unit: "ns/draw",
		Bench: loop(fixture, func(s stem, _ int) error {
			_, err := figuregen.DrawViaCatalog(s.m.Model, s.m.Catalog, "STEM", s.ref)
			return err
		})}
	hardcoded := caseDef{ID: "Q5", Name: "stem draw hard-coded", Config: "figure 10", Unit: "ns/draw",
		Bench: loop(func() string { return "newpath 4 10 moveto 0 7 -1 mul rlineto stroke" }, func(src string, _ int) error {
			canvas := pscript.NewCanvas()
			err := pscript.New(canvas).Run(src)
			canvas.Rasterize(12, 12)
			return err
		})}
	return []caseDef{viaCatalog, hardcoded, ratio("catalog indirection overhead", viaCatalog, hardcoded)}
}

// q6SharedMDM measures figure 1's architecture: total time for N client
// workloads run against one shared MDM concurrently versus serially.
func q6SharedMDM(sz Sizes) []caseDef {
	clientWork := func(m *mdm.MDM) error {
		ctx := context.Background()
		s := m.NewSession()
		for i := 0; i < sz.ClientOps; i++ {
			var err error
			if i%2 == 0 {
				_, err = s.ExecContext(ctx, `append to ANNOTATION (kind = "note", text = "y")`)
			} else {
				_, err = s.QueryContext(ctx, `range of a is ANNOTATION retrieve (c = count(a.all))`)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	run := func(concurrent bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := openMDM(false)
				errs := make(chan error, sz.Clients+1)
				_, err := m.NewSession().ExecContext(context.Background(), `append to ANNOTATION (kind = "seed", text = "x")`)
				errs <- err
				var wg sync.WaitGroup
				b.StartTimer()
				for c := 0; c < sz.Clients; c++ {
					if !concurrent {
						errs <- clientWork(m)
						continue
					}
					wg.Add(1)
					go func() { defer wg.Done(); errs <- clientWork(m) }()
				}
				wg.Wait()
				b.StopTimer()
				m.Close()
				close(errs)
				for err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		}
	}
	cfg := fmt.Sprintf("clients=%d ops=%d", sz.Clients, sz.ClientOps)
	return []caseDef{
		{ID: "Q6", Name: fmt.Sprintf("%d clients sharing one MDM, concurrent", sz.Clients), Config: cfg, Unit: "ns/run", Bench: run(true)},
		{ID: "Q6", Name: fmt.Sprintf("%d clients sharing one MDM, serial", sz.Clients), Config: cfg, Unit: "ns/run", Bench: run(false)},
	}
}

// q7TxnOverhead measures WAL and fsync overheads per transaction (§2's
// standard duties).
func q7TxnOverhead() []caseDef {
	schema := value.NewSchema(value.Field{Name: "v", Kind: value.KindInt})
	insert := func(durable, fsync bool) func(b *testing.B) {
		return func(b *testing.B) {
			opts := storage.Options{SyncCommits: fsync}
			if durable {
				opts.Dir = b.TempDir()
			}
			db, err := storage.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.CreateRelation("T", schema); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Run(func(tx *storage.Tx) error {
					_, err := tx.Insert("T", value.Tuple{value.Int(int64(i))})
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []caseDef{
		{ID: "Q7", Name: "txn insert, no WAL (in-memory)", Config: "1 row per txn", Unit: "ns/txn", Bench: insert(false, false)},
		{ID: "Q7", Name: "txn insert, WAL (group commit)", Config: "1 row per txn", Unit: "ns/txn", Bench: insert(true, false)},
		{ID: "Q7", Name: "txn insert, WAL + fsync per commit", Config: "1 row per txn", Unit: "ns/txn", Bench: insert(true, true)},
	}
}

// a1BeforeRankVsWalk isolates DESIGN.md's design choice 1: `a before b`
// answered by the gap-rank comparison versus walking S-edges from a
// until b is found (what a rank-free, linked-list ordering would do).
func a1BeforeRankVsWalk(n int, fixture func() *chord) []caseDef {
	cfg := fmt.Sprintf("siblings=%d", n)
	return []caseDef{
		{ID: "A1", Name: "before by rank compare", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, _ int) error {
				if ok, err := c.db.BeforeIn("note_in_chord", c.notes[n/5], c.notes[n-n/5]); err != nil || !ok {
					return fmt.Errorf("rank compare: %v, %v", ok, err)
				}
				return nil
			})},
		{ID: "A1", Name: "before by S-edge walk", Config: cfg, Unit: "ns/op",
			Bench: loop(fixture, func(c *chord, _ int) error {
				cur, ok := c.notes[n/5], true
				for ok && cur != c.notes[n-n/5] {
					cur, ok = c.db.NextSibling("note_in_chord", cur)
				}
				if !ok {
					return fmt.Errorf("S-edge walk fell off the chord")
				}
				return nil
			})},
	}
}

// a2SargPushdown isolates the executor's sarg pushdown: one selective
// query over a chord's notes, written with and without a pushable
// predicate shape.
func a2SargPushdown() []caseDef {
	const n = 5000
	fixture := sync.OnceValue(func() *chord { return newOrdering(n) })
	cfg := fmt.Sprintf("n=%d", n)
	run := func(src string) func(b *testing.B) {
		return loop(fixture, func(c *chord, _ int) error {
			_, err := c.sess.QueryContext(context.Background(), src)
			return err
		})
	}
	return []caseDef{
		// x.name = 50 is a var.attr = literal conjunct: pushed down.
		{ID: "A2", Name: "selection, pushable sarg x.name = 50", Config: cfg, Unit: "ns/query",
			Bench: run(`retrieve (x.pitch) where x.name = 50`)},
		// x.name - 50 = 0 means the same but is not a sarg.
		{ID: "A2", Name: "selection, non-sarg x.name - 50 = 0", Config: cfg, Unit: "ns/query",
			Bench: run(`retrieve (x.pitch) where x.name - 50 = 0`)},
	}
}
