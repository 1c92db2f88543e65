package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/client"
	"repro/internal/mdm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/value"
)

// openServed opens the engine the way cmd/mdmd ships it: durable
// commits (fsync before acknowledging) through the group-commit
// pipeline, snapshot reads on, the serial executor.  ckptBytes is zero
// for the engine default (64 MiB) except on catalogue-mixed, which
// lowers it so that background checkpoints fire inside a run.
func openServed(dir string, ckptBytes int64) (*mdm.MDM, error) {
	return mdm.Open(mdm.Options{Dir: dir, SyncCommits: true, GroupCommit: true, CheckpointBytes: ckptBytes})
}

// openEmbedded opens the engine the way cmd/mdm, the embedded shell,
// ships it: commits are logged and buffered, made durable by the next
// checkpoint or close.  The score workloads run embedded and use it.
// An editor session that fsyncs every model call spends nine tenths
// of its time in the device flush, and on the benchmark machine (a
// shared virtual disk) that flush takes 0.1 to 0.5 ms depending on the
// minute: the numbers would gate on the host's disk, not on the
// ordering layer.  The durable pipeline is measured by catalogue-mixed.
// SkipCMN because the score corpus defines SCORE, MEASURE and NOTE as
// the paper's §5.4 integer-named entity types, which would collide
// with the CMN schema's types of the same names.  An empty dir keeps
// the store in memory with no log at all.
func openEmbedded(dir string) (*mdm.MDM, error) {
	return mdm.Open(mdm.Options{Dir: dir, SkipCMN: true})
}

// engineConfig is the configuration statement printed with every report.
const engineConfig = "served workloads as cmd/mdmd: mdm.Options{Dir, SyncCommits: true, GroupCommit: true} (fsync before ack, group commit on), " +
	"server.Options{} defaults, in-process server on 127.0.0.1:0; embedded workloads as cmd/mdm: mdm.Options{Dir} (buffered commits); " +
	"SnapshotAuto, ParallelWorkers 0"

// serve starts an in-process server over m on a loopback port, wired
// as cmd/mdmd wires it, and dials a client pool of conns connections.
func serve(m *mdm.MDM, conns int) (*server.Server, *client.Client, error) {
	srv := server.New(m, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	cl, err := client.Dial(client.Options{Addr: srv.Addr().String(), PoolSize: conns})
	if err == nil {
		err = cl.Ping(context.Background())
	}
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, nil, fmt.Errorf("dial in-process server: %w", err)
	}
	return srv, cl, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// liveHeapMB forces a collection and returns the live heap in MiB.  It
// collects twice: what an earlier run of the same process left behind
// under finalizers (files, connections) is only freed by the second.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// environment is recorded with every report: a number is only
// comparable with another taken on the same CPU count.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Engine     string `json:"engine_config"`
}

func currentEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Engine: engineConfig,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// obsSnap is one reading of the engine's metrics registry; layer costs
// the harness cannot time from outside (waits inside a statement) are
// the difference of two readings.
type obsSnap map[string]obs.Metric

func readObs(r *obs.Registry) obsSnap {
	s := obsSnap{}
	for _, m := range r.Snapshot() {
		s[m.Name] = m
	}
	return s
}

// obsDelta is what happened between two readings.
type obsDelta struct{ from, to obsSnap }

// count is the increase of a counter, or of a histogram's sample count.
func (d obsDelta) count(name string) float64 {
	a, b := d.from[name], d.to[name]
	if b.Kind == "histogram" {
		return float64(b.Count) - float64(a.Count)
	}
	return float64(b.Value) - float64(a.Value)
}

// sum is the increase of a histogram's sum (nanoseconds for *.ns).
func (d obsDelta) sum(name string) float64 {
	return float64(d.to[name].Sum) - float64(d.from[name].Sum)
}

// mean is the mean of the observations a histogram took in between.
func (d obsDelta) mean(name string) float64 { return ratio(d.sum(name), d.count(name)) }

// ratio is a/b, and 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rowsHash is an order-independent content hash of result rows, so a
// join whose row order is unspecified still has one right answer.
func rowsHash(rows []value.Tuple) uint64 {
	var sum uint64
	var buf []byte
	for _, r := range rows {
		buf = value.AppendTuple(buf[:0], r)
		h := uint64(14695981039346656037) // FNV-1a
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		sum += h
	}
	return sum
}

// workDir creates a fresh directory for one store under base.
func workDir(base, prefix string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-*")
}
