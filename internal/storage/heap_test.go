package storage

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/value"
)

// heapStats is what a relation's pages hold: slot arrays, block
// capacity, heads arrays and the live rows' bytes, in bytes, over the
// allocated pages; worst is the largest block capacity of a page over
// its live bytes.
type heapStats struct {
	pages, slots, blocks, heads, live int
	rounding                          int // the blocks' size-class rounding
	worst                             float64
}

func heapOf(t *testing.T, r *Relation) heapStats {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var h heapStats
	for pi := range r.pages {
		p := &r.pages[pi]
		if p.slots == nil {
			continue
		}
		h.pages++
		h.slots += int(unsafe.Sizeof(*p.slots))
		h.blocks += cap(p.block)
		h.rounding += cap(slices.Grow([]byte(nil), cap(p.block))) - cap(p.block)
		if p.heads != nil {
			h.heads += int(unsafe.Sizeof(*p.heads))
		}
		live := 0
		for i := range pageSize {
			live += p.row(i).Len()
		}
		if live != p.bytes {
			t.Fatalf("page %d counts %d live bytes, holds %d", pi, p.bytes, live)
		}
		h.live += live
		if cap(p.block) > 0 {
			h.worst = max(h.worst, float64(cap(p.block))/float64(live))
		}
	}
	return h
}

// label returns a label of n bytes, so rows vary in size.
func label(n int) value.Value { return value.Str(strings.Repeat("x", n)) }

// TestHeapFootprint: a reopened heap costs its rows' bytes, 8 bytes a
// slot (row id 0's included) and its blocks' size-class rounding, and
// nothing for version heads: reopen copies each page's rows into one
// block of their exact size, and every row it loads is settled.
func TestHeapFootprint(t *testing.T) {
	const n = 20*pageSize - 1 // row ids 1..n fill 20 pages
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	rng := rand.New(rand.NewSource(38))
	for done := 0; done < n; {
		mustTx(t, db, func(tx *Tx) {
			for k := 0; k < 500 && done < n; k++ {
				if _, err := tx.Insert("NOTE", value.Tuple{value.Int(int64(done)), value.Int(rng.Int63n(1 << 20)), label(rng.Intn(40))}); err != nil {
					t.Fatal(err)
				}
				done++
			}
		})
	}
	want := db.ContentHash()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.ContentHash() != want {
		t.Fatal("reopen changed the content hash")
	}
	r := db.Relation("NOTE")
	h := heapOf(t, r)
	if h.pages != 20 || h.heads != 0 {
		t.Fatalf("%d pages, %d B of version heads; want 20 pages and none", h.pages, h.heads)
	}
	if bound := h.live + 8*(n+1) + h.rounding; h.slots+h.blocks+h.rounding > bound {
		t.Errorf("slot pages %d B + blocks %d B (+%d B rounding) exceed rows %d B + 8 B a slot", h.slots, h.blocks, h.rounding, h.live)
	}
	t.Logf("%d rows: %d row bytes, slot pages %d B, blocks %d B (+%d B rounding)", n, h.live, h.slots, h.blocks, h.rounding)
}

// TestHeapChurnFootprint: after random inserts, updates and deletes,
// committed and aborted, under snapshots pinned and released, a vacuum
// with no snapshot open leaves every page's block within twice its live
// rows' bytes and no version heads, and the heap holds exactly the
// committed rows.
func TestHeapChurnFootprint(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := map[RowID]string{}
	var ids []RowID
	var pins []*Snap
	for round := 0; round < 420; round++ {
		tx := db.Begin()
		next := maps.Clone(model)
		nextIDs := slices.Clone(ids)
		for k := 0; k < 8; k++ {
			tu := value.Tuple{value.Int(int64(round)), value.Int(rng.Int63n(50)), label(rng.Intn(60))}
			// Inserts outweigh deletes over the first 300 rounds,
			// deletes inserts after, so pages lose many of their rows.
			ins, upd := 6, 8
			if round >= 300 {
				ins, upd = 2, 4
			}
			switch c := rng.Intn(10); {
			case len(nextIDs) == 0 || c < ins:
				id, err := tx.Insert("NOTE", tu)
				if err != nil {
					t.Fatal(err)
				}
				next[id], nextIDs = tu.String(), append(nextIDs, id)
			case c < upd:
				id := nextIDs[rng.Intn(len(nextIDs))]
				if err := tx.Update("NOTE", id, tu); err != nil {
					t.Fatal(err)
				}
				next[id] = tu.String()
			default:
				j := rng.Intn(len(nextIDs))
				if err := tx.Delete("NOTE", nextIDs[j]); err != nil {
					t.Fatal(err)
				}
				delete(next, nextIDs[j])
				nextIDs = slices.Delete(nextIDs, j, j+1)
			}
		}
		if rng.Intn(5) == 0 {
			tx.Abort()
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model, ids = next, nextIDs
		}
		switch rng.Intn(8) {
		case 0:
			s, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, s)
		case 1:
			if len(pins) > 0 {
				pins[0].Close()
				pins = pins[1:]
			}
		}
	}
	for _, s := range pins {
		s.Close()
	}
	r := db.Relation("NOTE")
	before := heapOf(t, r)
	db.Vacuum()
	h := heapOf(t, r)
	if h.heads != 0 {
		t.Errorf("after a quiesced vacuum %d B of version heads remain", h.heads)
	}
	if h.blocks > 2*h.live || h.worst > 2 {
		t.Errorf("after the vacuum blocks hold %d B for %d B of live rows (a page %.2fx)", h.blocks, h.live, h.worst)
	}
	if before.worst <= 2 {
		t.Errorf("before the vacuum no page held more than twice its live bytes (%.2fx): the churn did not test compaction", before.worst)
	}
	got := map[RowID]string{}
	mustTx(t, db, func(tx *Tx) {
		tx.Scan("NOTE", nil, func(id RowID, row value.Row) bool { got[id] = row.String(); return true }) //nolint:errcheck
	})
	if fmt.Sprint(got) != fmt.Sprint(model) {
		t.Fatalf("heap holds %d rows, want the %d committed", len(got), len(model))
	}
	if err := r.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d live rows, %d B: blocks %d B before the vacuum (worst page %.2fx), %d B after (%.2fx)",
		len(model), h.live, before.blocks, before.worst, h.blocks, h.worst)
}

// FuzzHeapRows drives a heap through inserts, updates and deletes,
// committed and aborted, snapshot pins and releases, vacuums, and
// checkpoint-and-reopen cycles, against a map of the committed rows.
// After every step the heap holds the map's rows, every pinned snapshot
// the rows of its pin, and every row handed out in an earlier step, by
// a scan, a snapshot scan or a Get, still reads what it held when it
// was handed out: rows are strings over page blocks, which are only
// appended to and replaced, never written under a row.
func FuzzHeapRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 3, 1, 1, 2, 7, 5, 0, 1, 1, 6, 4, 7, 1, 1, 2, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		p := &fuzzBytes{b: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { db.Close() }()
		db.CreateRelation("NOTE", noteSchema())
		if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
			t.Fatal(err)
		}
		type pin struct {
			s    *Snap
			rows map[RowID]string
		}
		type handed struct {
			row  value.Row
			want string
			step int
		}
		model := map[RowID]string{}
		var ids []RowID
		var pins []pin
		var kept []handed
		step := 0
		keep := func(row value.Row, want string) {
			if got := row.String(); got != want {
				t.Fatalf("step %d: handed out %s, want %s", step, got, want)
			}
			if h := (handed{row, want, step}); len(kept) < 256 {
				kept = append(kept, h)
			} else {
				kept[p.rng.Intn(len(kept))] = h
			}
		}
		unpin := func(j int) {
			pins[j].s.Close()
			pins = slices.Delete(pins, j, j+1)
		}
		// check reads the heap and every pin against their maps,
		// keeping some rows, then re-reads every row kept so far.
		check := func() {
			read := func(what string, scan func(fn func(RowID, value.Row) bool) error, want map[RowID]string) {
				n := 0
				if err := scan(func(id RowID, row value.Row) bool {
					if row.String() != want[id] {
						t.Fatalf("step %d: %s row %d reads %s, want %q", step, what, id, row, want[id])
					}
					if n++; p.rng.Intn(8) == 0 {
						keep(row, want[id])
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("step %d: %s read %d rows, want %d", step, what, n, len(want))
				}
			}
			mustTx(t, db, func(tx *Tx) {
				read("live", func(fn func(RowID, value.Row) bool) error { return tx.Scan("NOTE", nil, fn) }, model)
			})
			for j, pn := range pins {
				read(fmt.Sprintf("pin %d", j), func(fn func(RowID, value.Row) bool) error { return pn.s.Scan("NOTE", nil, fn) }, pn.rows)
			}
			for _, k := range kept {
				if got := k.row.String(); got != k.want {
					t.Fatalf("step %d: a row handed out at step %d now reads %s, held %s", step, k.step, got, k.want)
				}
			}
		}
		for ; step < 48; step++ {
			switch op := p.next(); op % 8 {
			case 0, 1, 2: // a transaction of up to four writes, aborted when op says so
				tx := db.Begin()
				next, nextIDs := maps.Clone(model), slices.Clone(ids)
				for k := 0; k <= p.next()%4; k++ {
					tu := value.Tuple{value.Int(int64(step)), value.Int(int64(p.next() % 16)), label(p.next() % 48)}
					switch c := p.next() % 3; {
					case c == 0 || len(nextIDs) == 0:
						id, err := tx.Insert("NOTE", tu)
						if err != nil {
							t.Fatal(err)
						}
						next[id], nextIDs = tu.String(), append(nextIDs, id)
					case c == 1:
						id := nextIDs[p.next()%len(nextIDs)]
						if err := tx.Update("NOTE", id, tu); err != nil {
							t.Fatal(err)
						}
						next[id] = tu.String()
						row, err := tx.Get("NOTE", id)
						if err != nil {
							t.Fatal(err)
						}
						keep(row, next[id])
					default:
						j := p.next() % len(nextIDs)
						if err := tx.Delete("NOTE", nextIDs[j]); err != nil {
							t.Fatal(err)
						}
						delete(next, nextIDs[j])
						nextIDs = slices.Delete(nextIDs, j, j+1)
					}
				}
				if op == 2 || op&0x80 != 0 {
					tx.Abort()
				} else {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					model, ids = next, nextIDs
				}
			case 3:
				if len(pins) < 4 {
					s, err := db.BeginSnapshot(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					pins = append(pins, pin{s, maps.Clone(model)})
				}
			case 4:
				if len(pins) > 0 {
					unpin(p.next() % len(pins))
				}
			case 5:
				db.Vacuum()
			case 6:
				for len(pins) > 0 {
					unpin(0)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(Options{Dir: dir}); err != nil {
					t.Fatal(err)
				}
			case 7:
				if len(ids) > 0 {
					id := ids[p.next()%len(ids)]
					mustTx(t, db, func(tx *Tx) {
						row, err := tx.Get("NOTE", id)
						if err != nil {
							t.Fatal(err)
						}
						keep(row, model[id])
					})
				}
				for _, pn := range pins {
					if len(pn.rows) == 0 {
						continue
					}
					var pinned []RowID
					for id := range pn.rows {
						pinned = append(pinned, id)
					}
					slices.Sort(pinned)
					id := pinned[p.next()%len(pinned)]
					row, ok := pn.s.Get("NOTE", id)
					if !ok {
						t.Fatalf("step %d: pinned Get of row %d finds none", step, id)
					}
					keep(row, pn.rows[id])
				}
			}
			check()
		}
		if err := db.Relation("NOTE").CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	})
}
