package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/mdm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/value"
)

// parScale is the -par corpus size: 100k notes across 1k scores at full
// scale (the multi-score analytic workload the floor gates on), reduced
// for -quick.
type parScale struct{ Notes, Scores int }

func parBenchScale(quick bool) parScale {
	if quick {
		return parScale{Notes: 4000, Scores: 50}
	}
	return parScale{Notes: 100000, Scores: 1000}
}

// buildScoreCorpus defines the SCORE/NOTE schema with the
// note_in_score ordering and a pitch index, then loads scale.Notes
// notes spread round-robin across scale.Scores scores.  Pitches cycle
// deterministically through the MIDI range.
func buildScoreCorpus(ctx context.Context, m *mdm.MDM, sess *mdm.Session, scale parScale) error {
	for _, src := range []string{
		`define entity SCORE (name = integer)`,
		`define entity NOTE (name = integer, pitch = integer, score = integer)`,
		`define ordering note_in_score (NOTE) under SCORE`,
		`define index on NOTE (pitch)`,
		`define index on NOTE (name)`,
	} {
		if _, err := sess.ExecContext(ctx, src); err != nil {
			return fmt.Errorf("ddl %q: %w", src, err)
		}
	}
	scores := make([]value.Ref, scale.Scores)
	var err error
	for i := range scores {
		scores[i], err = m.Model.NewEntity("SCORE", model.Attrs{"name": value.Int(int64(i))})
		if err != nil {
			return err
		}
	}
	for i := 0; i < scale.Notes; i++ {
		si := i % scale.Scores
		n, err := m.Model.NewEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(int64(i % 128)),
			"score": value.Int(int64(si)),
		})
		if err != nil {
			return err
		}
		if err := m.Model.InsertChild("note_in_score", scores[si], n, model.Last()); err != nil {
			return err
		}
	}
	return nil
}

// timeQuery measures one query's per-statement latency: a warm-up run
// (whose row count is returned), then repeated runs until 300ms or 50
// iterations, whichever comes first.
func timeQuery(ctx context.Context, sess *mdm.Session, query string) (rows int, nsPerStmt int64, err error) {
	res, err := sess.QueryContext(ctx, query)
	if err != nil {
		return 0, 0, err
	}
	rows = len(res.Rows)
	var iters int
	start := time.Now()
	for iters = 0; iters < 50 && time.Since(start) < 300*time.Millisecond; iters++ {
		if _, err := sess.QueryContext(ctx, query); err != nil {
			return 0, 0, err
		}
	}
	return rows, time.Since(start).Nanoseconds() / int64(iters), nil
}

// parFloorSpeedup is the acceptance floor: >= 2x at 8 workers on the
// 1k-score workload, enforced only at full scale on machines with at
// least parFloorMinCPUs cores.
const (
	parFloorSpeedup = 2.0
	parFloorMinCPUs = 4
	parFloorWorkers = 8
)

// runPar benchmarks the morsel-driven parallel executor: the
// score/note corpus is queried with scan-, probe-, and join-heavy
// retrieves across a 1/2/4/8 worker sweep, printing each point's round
// time and its speedup over the serial executor (the serial round time
// divided by the point's).  Every sweep point must return the same row
// counts as the serial baseline; at full scale on a machine with >= 4
// CPUs — a 1-core container produces an honest ~1x sweep — the exit
// status is nonzero if the 8-worker speedup falls below 2x.
func runPar(quick bool) error {
	scale := parBenchScale(quick)

	m, err := mdm.Open(mdm.Options{SkipCMN: true})
	if err != nil {
		return err
	}
	defer m.Close()
	ctx := context.Background()
	setup := m.NewSession()
	if err := buildScoreCorpus(ctx, m, setup, scale); err != nil {
		return err
	}

	workloads := []struct{ name, query string }{
		{"index-range", `retrieve (n.name) where n.pitch >= 96`},
		{"order-probe", fmt.Sprintf(
			`retrieve (n.name, s.name) where n under s in note_in_score and s.name >= %d and n.pitch >= 64`, scale.Scores/10)},
		{"hash-join", `retrieve (n.name, s.name) where n.score = s.name and n.pitch >= 96`},
	}
	decls := `range of n is NOTE
range of s is SCORE`

	cpus := runtime.NumCPU()
	fmt.Printf("notes=%d scores=%d cpus=%d gomaxprocs=%d\n", scale.Notes, scale.Scores, cpus, runtime.GOMAXPROCS(0))
	baseRows := map[string]int{}
	var serialNs int64
	var floorSpeedup float64
	for _, workers := range []int{1, 2, 4, 8} {
		sess := m.NewSession()
		sess.SetParallelWorkers(workers)
		// The 1k-score driver lists sit below the OLTP-tuned default
		// threshold; the analytic sweep fans out from 256 driver rows.
		sess.SetParallelMinRows(256)
		if _, err := sess.ExecContext(ctx, decls); err != nil {
			return err
		}
		var totalNs int64
		for _, w := range workloads {
			rows, ns, err := timeQuery(ctx, sess, w.query)
			if err != nil {
				return fmt.Errorf("%s (workers=%d): %w", w.name, workers, err)
			}
			if base, ok := baseRows[w.name]; !ok {
				baseRows[w.name] = rows
			} else if rows != base {
				return fmt.Errorf("%s: %d rows at workers=%d, serial returned %d", w.name, rows, workers, base)
			}
			fmt.Printf("workers=%-2d %-12s rows=%-6d %s/stmt\n", workers, w.name, rows, time.Duration(ns))
			totalNs += ns
		}
		if workers == 1 {
			serialNs = totalNs
		}
		speedup := float64(serialNs) / float64(totalNs)
		if workers == parFloorWorkers {
			floorSpeedup = speedup
		}
		fmt.Printf("workers=%-2d round=%-12s par_speedup=%.2fx\n", workers, time.Duration(totalNs), speedup)
	}

	// The sweep above must actually have taken the parallel path.
	if err := obs.ValidateDoc(m.Obs().Doc()); err != nil {
		return err
	}
	for _, name := range []string{"quel.par.queries", "quel.par.morsels"} {
		if mt, _ := m.Obs().Get(name); mt.Value == 0 {
			return fmt.Errorf("expected nonzero parallel counter %s", name)
		}
	}

	if quick {
		return nil
	}
	if cpus < parFloorMinCPUs {
		fmt.Printf("note: %d CPU(s); the %.0fx parallel-speedup floor needs >= %d and was not enforced\n",
			cpus, parFloorSpeedup, parFloorMinCPUs)
		return nil
	}
	if floorSpeedup < parFloorSpeedup {
		return fmt.Errorf("par_speedup %.2fx at %d workers below the %.0fx floor",
			floorSpeedup, parFloorWorkers, parFloorSpeedup)
	}
	return nil
}
