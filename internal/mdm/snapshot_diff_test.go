package mdm

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

const (
	snapDiffWriters   = 4
	snapDiffSingles   = 120 // per-writer single-entity appends (monotone seq)
	snapDiffBatches   = 15  // per-writer batch appends
	snapDiffBatchSize = 8
	snapDiffGenRows   = 12 // rows of G, which one multi-row replace advances together
	snapDiffReplaces  = 40
)

// TestConcurrentSnapshotDifferential races snapshot readers against
// randomized writers on a durable group-commit store and asserts every
// read observes a prefix-consistent committed state:
//
//   - each writer appends entities with a monotone per-writer sequence,
//     committing seq i only after i-1; any snapshot must therefore see
//     a gap-free prefix {0..k-1} of each writer's relation;
//   - each writer also bulk-appends tagged batches in single
//     transactions; any snapshot must see a batch completely or not at
//     all — and both invariants must hold across relations within ONE
//     snapshot, which a pair of unsynchronized locking reads cannot
//     guarantee;
//   - QUEL retrieve statements (which auto-pin a snapshot per
//     statement) must satisfy the same per-relation invariants;
//   - each writer also appends children K (seq i) under its own parent
//     P in the ordering k_in_p, in seq order, so QUEL `under` and
//     `before ... and k2.seq = i` — both fetching children by key at the
//     statement's snapshot — must see a gap-free prefix of them;
//   - a replace writer advances every row of G by one generation per
//     statement, so a snapshot — model-level or a QUEL retrieve's —
//     must see all of G at one generation, never part of a statement;
//   - once the writers finish, snapshot retrieves and the typed API's
//     locking scan must agree exactly.
func TestConcurrentSnapshotDifferential(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, SyncCommits: true, GroupCommit: true, SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	setup := m.NewSession()
	ctx := context.Background()
	for w := 0; w < snapDiffWriters; w++ {
		if _, err := setup.ExecContext(ctx, fmt.Sprintf("define entity W%d (seq = integer)", w)); err != nil {
			t.Fatal(err)
		}
		if _, err := setup.ExecContext(ctx, fmt.Sprintf("define entity B%d (tag = integer, k = integer)", w)); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{"define entity P (w = integer)", "define entity K (w = integer, seq = integer)",
		"define ordering k_in_p (K) under P", "define index on K (seq)", "define entity G (gen = integer)"} {
		if _, err := setup.ExecContext(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	parents, err := m.Model.NewEntities("P", snapDiffWriters, func(w int) model.Attrs {
		return model.Attrs{"w": value.Int(int64(w))}
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.Model.NewEntities("G", snapDiffGenRows, func(int) model.Attrs {
		return model.Attrs{"gen": value.Int(0)}
	}); err != nil {
		t.Fatal(err)
	}

	var (
		wg, writersWG sync.WaitGroup
		stop          atomic.Bool
		failMu        sync.Mutex
		failure       error
	)
	fail := func(err error) {
		failMu.Lock()
		if failure == nil {
			failure = err
			stop.Store(true)
		}
		failMu.Unlock()
	}

	for w := 0; w < snapDiffWriters; w++ {
		wg.Add(1)
		writersWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersWG.Done()
			singles, batches := 0, 0
			for (singles < snapDiffSingles || batches < snapDiffBatches) && !stop.Load() {
				if singles < snapDiffSingles {
					if _, err := m.Model.NewEntityCtx(ctx, fmt.Sprintf("W%d", w),
						model.Attrs{"seq": value.Int(int64(singles))}); err != nil {
						fail(fmt.Errorf("writer %d single %d: %w", w, singles, err))
						return
					}
					k, err := m.Model.NewEntityCtx(ctx, "K",
						model.Attrs{"w": value.Int(int64(w)), "seq": value.Int(int64(singles))})
					if err == nil {
						err = m.Model.InsertChild("k_in_p", parents[w], k, model.Last())
					}
					if err != nil {
						fail(fmt.Errorf("writer %d child %d: %w", w, singles, err))
						return
					}
					singles++
				}
				if batches < snapDiffBatches && singles%8 == 0 {
					tag := batches
					if _, err := m.Model.NewEntities(fmt.Sprintf("B%d", w), snapDiffBatchSize,
						func(k int) model.Attrs {
							return model.Attrs{"tag": value.Int(int64(tag)), "k": value.Int(int64(k))}
						}); err != nil {
						fail(fmt.Errorf("writer %d batch %d: %w", w, batches, err))
						return
					}
					batches++
				}
			}
		}(w)
	}

	// The multi-row replace writer.
	wg.Add(1)
	writersWG.Add(1)
	go func() {
		defer wg.Done()
		defer writersWG.Done()
		sess := m.NewSession()
		for i := 0; i < snapDiffReplaces && !stop.Load(); i++ {
			res, err := sess.ExecContext(ctx, "range of g is G replace g (gen = g.gen + 1)")
			if err == nil && res.Result.Affected != snapDiffGenRows {
				err = fmt.Errorf("affected %d rows", res.Result.Affected)
			}
			if err != nil {
				fail(fmt.Errorf("replace writer %d: %w", i, err))
				return
			}
		}
	}()

	// Model-level snapshot readers: all relations under one pin.
	writersDone := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-writersDone:
					return
				default:
				}
				s, err := m.Model.BeginSnapshot(ctx)
				if err != nil {
					fail(err)
					return
				}
				if err := checkGeneration(s); err != nil {
					fail(err)
				}
				for w := 0; w < snapDiffWriters; w++ {
					if err := checkPrefix(s, w); err != nil {
						fail(err)
						break
					}
					if err := checkBatches(s, w); err != nil {
						fail(err)
						break
					}
				}
				s.Close()
			}
		}(r)
	}

	// QUEL readers: per-statement auto-snapshots.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := m.NewSession()
			for i := 0; !stop.Load(); i++ {
				select {
				case <-writersDone:
					return
				default:
				}
				res, err := sess.QueryContext(ctx, "range of g is G retrieve (g.gen)")
				if err != nil {
					fail(fmt.Errorf("quel reader: %w", err))
					return
				}
				if err := oneGeneration(res.Rows); err != nil {
					fail(fmt.Errorf("quel reader: %w", err))
					return
				}
				w := i % snapDiffWriters
				seq := i % snapDiffSingles
				for _, q := range []string{
					fmt.Sprintf("range of x is W%d retrieve (x.seq)", w),
					fmt.Sprintf("range of k is K range of p is P retrieve (k.seq) where k under p in k_in_p and p.w = %d", w),
					fmt.Sprintf("range of k1, k2 is K retrieve (k1.seq) where k1 before k2 in k_in_p and k2.seq = %d and k2.w = %d", seq, w),
				} {
					res, err := sess.QueryContext(ctx, q)
					if err != nil {
						fail(fmt.Errorf("quel reader: %w", err))
						return
					}
					seqs := make([]int64, 0, len(res.Rows))
					for _, row := range res.Rows {
						seqs = append(seqs, row[0].AsInt())
					}
					if err := prefixGapFree(seqs); err != nil {
						fail(fmt.Errorf("quel reader %q: %w", q, err))
						return
					}
					// k2 is seq's own child: before it are all or none of
					// the seq children preceding it.
					if strings.Contains(q, "before") && len(seqs) != 0 && len(seqs) != seq {
						fail(fmt.Errorf("quel reader %q: %d siblings before child %d", q, len(seqs), seq))
						return
					}
				}
			}
		}(r)
	}

	go func() {
		writersWG.Wait()
		close(writersDone)
	}()

	wg.Wait()
	failMu.Lock()
	err = failure
	failMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	// Quiesced: a snapshot retrieve and the typed API's locking scan agree.
	sess := m.NewSession()
	for w := 0; w < snapDiffWriters; w++ {
		res, err := sess.QueryContext(ctx, fmt.Sprintf("range of x is W%d retrieve (x.seq) sort by seq", w))
		if err != nil {
			t.Fatal(err)
		}
		var typed []int64
		if err := m.Model.Instances(fmt.Sprintf("W%d", w), func(_ value.Ref, attrs value.Tuple) bool {
			typed = append(typed, attrs[0].AsInt())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(typed, func(i, j int) bool { return typed[i] < typed[j] })
		kids, err := sess.QueryContext(ctx, fmt.Sprintf("range of k is K range of p is P retrieve (k.seq) where k under p in k_in_p and p.w = %d", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(kids.Rows) != snapDiffSingles {
			t.Fatalf("P%d: %d children, want %d", w, len(kids.Rows), snapDiffSingles)
		}
		if len(res.Rows) != snapDiffSingles || len(typed) != snapDiffSingles {
			t.Fatalf("W%d: snapshot retrieve %d rows, typed scan %d, want %d", w, len(res.Rows), len(typed), snapDiffSingles)
		}
		for i, row := range res.Rows {
			if row[0].AsInt() != typed[i] {
				t.Fatalf("W%d: snapshot retrieve and typed scan disagree at %d: %d vs %d", w, i, row[0].AsInt(), typed[i])
			}
		}
	}

	// No snapshot remains pinned, so a vacuum pass must reclaim every
	// retired version and index-history entry the run produced.
	m.Store.Vacuum()
	rels := []string{"E$K", "O$k_in_p"}
	for w := 0; w < snapDiffWriters; w++ {
		rels = append(rels, fmt.Sprintf("E$W%d", w), fmt.Sprintf("E$B%d", w))
	}
	for _, name := range rels {
		rel := m.Store.Relation(name)
		if rel == nil {
			t.Fatalf("relation %s missing", name)
		}
		if _, old, hist := rel.VersionStats(); old != 0 || hist != 0 {
			t.Fatalf("%s: vacuum left old=%d hist=%d with no live snapshot", name, old, hist)
		}
	}
}

// checkPrefix asserts snapshot s sees a gap-free prefix of writer w's
// sequence relation.
func checkPrefix(s *model.Snap, w int) error {
	var seqs []int64
	if err := s.Instances(fmt.Sprintf("W%d", w), nil, func(_ value.Ref, attrs value.Tuple) bool {
		seqs = append(seqs, attrs[0].AsInt())
		return true
	}); err != nil {
		return err
	}
	if err := prefixGapFree(seqs); err != nil {
		return fmt.Errorf("snapshot CSN %d, writer %d: %w", s.CSN(), w, err)
	}
	return nil
}

// checkGeneration asserts snapshot s sees every row of G at one
// generation: no multi-row replace statement half applied.
func checkGeneration(s *model.Snap) error {
	var rows []value.Tuple
	if err := s.Instances("G", nil, func(_ value.Ref, attrs value.Tuple) bool {
		rows = append(rows, attrs)
		return true
	}); err != nil {
		return err
	}
	if err := oneGeneration(rows); err != nil {
		return fmt.Errorf("snapshot CSN %d: %w", s.CSN(), err)
	}
	return nil
}

// oneGeneration asserts all snapDiffGenRows rows carry the same first
// column.
func oneGeneration(rows []value.Tuple) error {
	if len(rows) != snapDiffGenRows {
		return fmt.Errorf("G has %d rows, want %d", len(rows), snapDiffGenRows)
	}
	for _, r := range rows {
		if r[0].AsInt() != rows[0][0].AsInt() {
			return fmt.Errorf("G torn between generations %d and %d", rows[0][0].AsInt(), r[0].AsInt())
		}
	}
	return nil
}

// checkBatches asserts snapshot s sees each of writer w's batches
// entirely or not at all.
func checkBatches(s *model.Snap, w int) error {
	counts := map[int64]int{}
	if err := s.Instances(fmt.Sprintf("B%d", w), nil, func(_ value.Ref, attrs value.Tuple) bool {
		counts[attrs[0].AsInt()]++
		return true
	}); err != nil {
		return err
	}
	for tag, n := range counts {
		if n != snapDiffBatchSize {
			return fmt.Errorf("snapshot CSN %d, writer %d: batch %d torn (%d of %d rows)",
				s.CSN(), w, tag, n, snapDiffBatchSize)
		}
	}
	return nil
}

// prefixGapFree asserts seqs is exactly {0..len-1}.
func prefixGapFree(seqs []int64) error {
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, s := range seqs {
		if s != int64(i) {
			return fmt.Errorf("sequence not a gap-free prefix at %d: %v", i, seqs)
		}
	}
	return nil
}
