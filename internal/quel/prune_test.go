package quel

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// pruneFields is the schema FuzzScanPrune writes: an integer column the
// page summaries can bound (until a NULL lands on the page), a float
// column (NaN included) and a string column they never bound.
var pruneFields = []value.Field{
	{Name: "i", Kind: value.KindInt},
	{Name: "f", Kind: value.KindFloat},
	{Name: "s", Kind: value.KindString},
}

// pruneBytes hands out the fuzzer's bytes, then draws from a generator
// seeded by them, so long batches and the checks after the last byte
// stay varied.
type pruneBytes struct {
	b   []byte
	i   int
	rng *rand.Rand
}

func (p *pruneBytes) next() int {
	if p.i >= len(p.b) {
		return p.rng.Intn(256)
	}
	p.i++
	return int(p.b[p.i-1])
}

func (p *pruneBytes) more() bool { return p.i < len(p.b) }

// tuple draws one row: integers clustered around base, so pages hold
// narrow ranges, with NaNs and strings mixed in, and NULLs too when
// nulls is set.
func (p *pruneBytes) tuple(base int, nulls bool) value.Tuple {
	x := p.next()
	i := value.Int(int64(base + x%16))
	if nulls && x%23 == 0 {
		i = value.Null
	}
	f := value.Float(float64(x) / 4)
	switch x % 11 {
	case 0:
		f = value.Float(math.NaN())
	case 1:
		f = value.Null
	}
	s := value.Str(string(rune('a' + x%5)))
	if x%13 == 0 {
		s = value.Null
	}
	return value.Tuple{i, f, s}
}

// sargs draws a conjunction of one to three sargs over the schema's
// columns (or an unknown one), with integer, float and NULL constants.
func (p *pruneBytes) sargs() []sarg {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	attrs := []string{"i", "i", "i", "i", "f", "s", "zz"}
	ss := make([]sarg, 1+p.next()%3)
	for k := range ss {
		x := p.next()
		var v value.Value
		switch p.next() % 8 {
		case 0:
			v = value.Float(float64(x) + 0.5)
		case 1:
			v = value.Float(math.NaN())
		case 2:
			v = value.Null
		default:
			v = value.Int(int64(x * 4))
		}
		ss[k] = sarg{attr: attrs[p.next()%len(attrs)], op: ops[x%len(ops)], v: v}
	}
	compileSargs(ss, pruneFields)
	return ss
}

// pruneScan returns the ids of the rows scan yields that satisfy ss.
func pruneScan(t *testing.T, ss []sarg, pb *storage.Bounds, scan func(*storage.Bounds, func(storage.RowID, value.Tuple) bool) error) []storage.RowID {
	t.Helper()
	var ids []storage.RowID
	if err := scan(pb, func(id storage.RowID, tu value.Tuple) bool {
		if sargsMatch(ss, tu) {
			ids = append(ids, id)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// FuzzScanPrune checks that page pruning never drops a row a sarg
// accepts.  The fuzzer's bytes drive committed inserts, updates and
// deletes, aborted writes, vacuums and snapshots pinned between them;
// then, for random sarg conjunctions, the bounded scan plus sargsMatch
// must yield exactly the rows of the unbounded scan plus sargsMatch —
// in every pinned snapshot, in the locking scan, and in a locking scan
// whose transaction holds uncommitted writes of its own.
func FuzzScanPrune(f *testing.F) {
	for _, seed := range pruneSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) <= 256 {
			scanPrune(t, data)
		}
	})
}

// pruneSeeds are FuzzScanPrune's seed inputs: random bytes, long
// enough for several pages and pinned snapshots.
func pruneSeeds() [][]byte {
	var seeds [][]byte
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// TestScanPruneSkipsPages keeps FuzzScanPrune honest: its seeds must
// produce scans that skip pages, or the comparison proves nothing.
func TestScanPruneSkipsPages(t *testing.T) {
	pruned := 0
	for _, seed := range pruneSeeds() {
		pruned += scanPrune(t, seed)
	}
	if pruned == 0 {
		t.Fatal("no seed input pruned a page")
	}
}

// scanPrune runs one FuzzScanPrune input and returns how many bounded
// scans skipped a page.
func scanPrune(t *testing.T, data []byte) (pruned int) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("R", value.NewSchema(pruneFields...)); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	p := &pruneBytes{b: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
	var live []storage.RowID
	var snaps []*storage.Snap
	defer func() {
		for _, s := range snaps {
			s.Close()
		}
	}()
	// write applies n random writes in tx: inserts past the rows
	// so far (ids are never reused, so new rows land on later
	// pages), updates and deletes of live rows; one batch in four
	// writes NULLs.
	write := func(tx *storage.Tx, n int, inserted *[]storage.RowID, deleted map[storage.RowID]bool) error {
		nulls := p.next()%4 == 0
		for k := 0; k < n; k++ {
			switch op := p.next(); {
			case op%4 != 0 || len(live) == 0:
				id, err := tx.Insert("R", p.tuple(len(live)+len(*inserted), nulls))
				if err != nil {
					return err
				}
				*inserted = append(*inserted, id)
			default:
				id := live[p.next()*len(live)/256]
				if deleted[id] {
					continue
				}
				if op%8 == 0 {
					deleted[id] = true
					if err := tx.Delete("R", id); err != nil {
						return err
					}
				} else if err := tx.Update("R", id, p.tuple(p.next()*4, nulls)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for steps := 0; steps < 24 && p.more(); steps++ {
		switch p.next() % 6 {
		case 0, 1: // a committed batch of writes
			var ins []storage.RowID
			del := map[storage.RowID]bool{}
			n := 1 + p.next()
			if err := db.Run(func(tx *storage.Tx) error {
				ins, del = ins[:0], map[storage.RowID]bool{}
				return write(tx, n, &ins, del)
			}); err != nil {
				t.Fatal(err)
			}
			live = slices.DeleteFunc(append(live, ins...), func(id storage.RowID) bool { return del[id] })
		case 2: // an aborted batch of writes
			tx := db.Begin()
			var ins []storage.RowID
			if err := write(tx, 1+p.next(), &ins, map[storage.RowID]bool{}); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		case 3:
			db.Vacuum()
		case 4:
			s, err := db.BeginSnapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, s)
		case 5:
			if len(snaps) > 0 {
				k := p.next() % len(snaps)
				snaps[k].Close()
				snaps = slices.Delete(snaps, k, k+1)
			}
		}
	}
	check := func(what string, ss []sarg, scan func(*storage.Bounds, func(storage.RowID, value.Tuple) bool) error) {
		t.Helper()
		want := pruneScan(t, ss, nil, scan)
		pb := pruneBounds(ss)
		if got := pruneScan(t, ss, pb, scan); !slices.Equal(got, want) {
			t.Fatalf("%s, sargs %v: pruned scan (%d/%d pages) kept %v, full scan %v", what, ss, pb.Walked, pb.Pages, got, want)
		}
		if pb.Walked < pb.Pages {
			pruned++
		}
	}
	for q := 0; q < 12; q++ {
		ss := p.sargs()
		for _, s := range snaps {
			check("snapshot", ss, func(pb *storage.Bounds, fn func(storage.RowID, value.Tuple) bool) error {
				return s.Scan("R", pb, fn)
			})
		}
		if err := db.Run(func(tx *storage.Tx) error {
			check("locking scan", ss, func(pb *storage.Bounds, fn func(storage.RowID, value.Tuple) bool) error {
				return tx.Scan("R", pb, fn)
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		var ins []storage.RowID
		if err := write(tx, 1+p.next()%32, &ins, map[storage.RowID]bool{}); err != nil {
			t.Fatal(err)
		}
		check("locking scan over own writes", ss, func(pb *storage.Bounds, fn func(storage.RowID, value.Tuple) bool) error {
			return tx.Scan("R", pb, fn)
		})
		tx.Abort()
	}
	return pruned
}
