package mdm

import (
	"context"
	"fmt"
	"sort"
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
				w := i % snapDiffWriters
				res, err := sess.QueryContext(ctx, fmt.Sprintf("range of x is W%d retrieve (x.seq)", w))
				if err != nil {
					fail(fmt.Errorf("quel reader: %w", err))
					return
				}
				seqs := make([]int64, 0, len(res.Rows))
				for _, row := range res.Rows {
					seqs = append(seqs, row[0].AsInt())
				}
				if err := prefixGapFree(seqs); err != nil {
					fail(fmt.Errorf("quel reader W%d: %w", w, err))
					return
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
	for w := 0; w < snapDiffWriters; w++ {
		for _, typ := range []string{"W", "B"} {
			rel := m.Store.Relation(fmt.Sprintf("E$%s%d", typ, w))
			if rel == nil {
				t.Fatalf("relation E$%s%d missing", typ, w)
			}
			if _, old, hist := rel.VersionStats(); old != 0 || hist != 0 {
				t.Fatalf("E$%s%d: vacuum left old=%d hist=%d with no live snapshot", typ, w, old, hist)
			}
		}
	}
}

// checkPrefix asserts snapshot s sees a gap-free prefix of writer w's
// sequence relation.
func checkPrefix(s *model.Snap, w int) error {
	var seqs []int64
	if err := s.Instances(fmt.Sprintf("W%d", w), func(_ value.Ref, attrs value.Tuple) bool {
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

// checkBatches asserts snapshot s sees each of writer w's batches
// entirely or not at all.
func checkBatches(s *model.Snap, w int) error {
	counts := map[int64]int{}
	if err := s.Instances(fmt.Sprintf("B%d", w), func(_ value.Ref, attrs value.Tuple) bool {
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
