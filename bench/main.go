// Command bench is the repository's one absolute benchmark: four named
// workloads, each reporting end-to-end numbers a user of the music
// data manager would see and a per-layer budget for the same
// statements, measured from outside the engine through its public
// functions.  BENCHMARK.json at the repository root fixes the names,
// units, directions and regression bounds; README.md in this directory
// explains every one of them.
//
// It is a module of its own (go.mod in this directory) and runs from
// the repository root, where BENCHMARK.json is; run.sh builds it and
// does that:
//
//	bash bench/run.sh                         every workload, both kinds of run, as a table
//	bash bench/run.sh -quick                  the same at smoke scale, checked against BENCHMARK.json
//	bash bench/run.sh -repeat 5 -out a.json   five runs each; median and quartiles per metric
//	bash bench/run.sh -compare a.json b.json  apply the bounds of BENCHMARK.json to two result files
//	bash bench/run.sh -workload score-edit -seed 7 -seconds 15 -trace 0
//	                                          one run; the last line of output is the result object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and print its result object as the last line (default: all, as a report)")
	seed := fs.Int64("seed", 0, "workload seed; 0 takes the default, 1987")
	seconds := fs.Float64("seconds", 0, "length of the measured pass; 0 takes run_seconds of BENCHMARK.json")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	ops := fs.Int("ops", 0, "measure a fixed number of operations per client instead of -seconds (exactly repeatable)")
	quick := fs.Bool("quick", false, "smoke scale: small corpora, short passes, one set-up")
	repeat := fs.Int("repeat", 1, "report mode: runs per workload; prints median and quartiles")
	out := fs.String("out", "", "report mode: write every run to this JSON file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	work := fs.String("workdir", filepath.Join(".bench_build", "data"), "directory the stores are created under")
	outDir := fs.String("tracedir", filepath.Join("bench", "out"), "directory the trace files are written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	cfg := runConfig{base: *work, outDir: *outDir, sc: fullScale, seconds: *seconds, ops: *ops, setups: 5}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if *quick {
		cfg.sc, cfg.setups = quickScale, 1
		if *seconds <= 0 {
			cfg.seconds = 0.75
		}
	}
	if *workload != "" {
		return runOne(spec, cfg, *workload, *seed, *trace == 1)
	}
	return report(spec, cfg, *seed, *repeat, *out)
}

// defaultSeed is the seed of a run that names none.
const defaultSeed = 1987

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric and workload
// names, units, directions and bounds are written down.  The program
// reads its units from here and refuses to report a metric the file
// does not list, so the two cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the
// repository root under run.sh) or its parent (under `go test` in
// this directory).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w (run from the repository root)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// resultObject is the last line a single run prints.
type resultObject struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// object shapes a run as the result object: exactly the metrics
// BENCHMARK.json lists for this kind of run, with its units.
func (s *benchSpec) object(r *runResult) (*resultObject, error) {
	obj := &resultObject{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range s.metrics(r.Traced) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", r.Workload, m.Name)
		}
		obj.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return obj, nil
}

// besideEndToEnd are reported with the end-to-end metrics of an
// untraced run but are not among them: a metric that is 0 on some
// workload cannot carry a relative bound.
var besideEndToEnd = []metricSpec{
	{Name: "wal_bytes_per_op", Unit: "B"}, {Name: "fail_ratio", Unit: "ratio"}, {Name: "harness.self_ratio", Unit: "ratio"},
}

// unlisted names what a run measured that BENCHMARK.json does not
// list for its kind of run.
func (s *benchSpec) unlisted(r *runResult) []string {
	listed := map[string]bool{}
	for _, m := range s.metrics(r.Traced) {
		listed[m.Name] = true
	}
	if !r.Traced {
		for _, m := range besideEndToEnd {
			listed[m.Name] = true
		}
	}
	var extra []string
	for name := range r.Metrics {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return extra
}

func runWorkload(cfg runConfig, def workloadDef, seed int64, traced bool) (*runResult, error) {
	if traced {
		return runTraced(cfg, def, seed)
	}
	return runUntraced(cfg, def, seed)
}

// runOne is the acceptance driver's entry: one workload, one run, the
// result object on the last line of standard output.
func runOne(spec *benchSpec, cfg runConfig, name string, seed int64, traced bool) error {
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runWorkload(cfg, def, seed, traced)
	if err != nil {
		return err
	}
	obj, err := spec.object(r)
	if err != nil {
		return err
	}
	env := currentEnvironment()
	fmt.Printf("%s seed=%d traced=%v clients=%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		name, seed, traced, r.Clients, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	if r.TraceFile != "" {
		fmt.Printf("spans written to %s\n", r.TraceFile)
	}
	line, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reportDoc is the -out file: every run of a report, with the
// environment it ran in.
type reportDoc struct {
	Env     environment  `json:"env"`
	Scale   string       `json:"scale"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// report runs every workload untraced and traced, `repeat` times, and
// prints every metric by name with its unit.
func report(spec *benchSpec, cfg runConfig, seed int64, repeat int, out string) error {
	doc := reportDoc{Env: currentEnvironment(), Seconds: cfg.seconds,
		Scale: fmt.Sprintf("%d works; %d notes in %d scores", cfg.sc.works, cfg.sc.notes, cfg.sc.scores)}
	fmt.Printf("nproc=%d gomaxprocs=%d %s commit=%s\nengine: %s\nscale: %s; measured pass %.1fs; seed %d\n",
		doc.Env.NProc, doc.Env.GOMAXPROCS, doc.Env.GoVersion, doc.Env.Commit, doc.Env.Engine, doc.Scale, cfg.seconds, seed)
	if len(spec.Workloads) != len(workloadDefs) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadDefs))
	}
	for _, w := range spec.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			var runs []*runResult
			for i := 0; i < repeat; i++ {
				r, err := runWorkload(cfg, def, seed, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if _, err := spec.object(r); err != nil {
					return err
				}
				if extra := spec.unlisted(r); len(extra) > 0 {
					return fmt.Errorf("%s measured metrics BENCHMARK.json does not list: %s", w.Name, strings.Join(extra, ", "))
				}
				runs = append(runs, r)
			}
			doc.Runs = append(doc.Runs, runs...)
			printRuns(spec, def, runs)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	for _, r := range doc.Runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed the oracle", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// printRuns prints one workload's metrics of one kind of run: the
// value, or with several runs the median and quartiles.
func printRuns(spec *benchSpec, def workloadDef, runs []*runResult) {
	r0 := runs[0]
	kind := "end-to-end (untraced pass)"
	if r0.Traced {
		kind = "per-layer (traced pass)"
	}
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	fmt.Printf("\n%s  %s  clients=%d runs=%d attempted=%d failed=%d\n", def.name, kind, r0.Clients, len(runs), attempted, failed)
	specs := spec.metrics(r0.Traced)
	if !r0.Traced {
		specs = append(append([]metricSpec(nil), specs...), besideEndToEnd...)
	}
	for _, m := range specs {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[m.Name]
		}
		if len(vals) == 1 {
			fmt.Printf("  %-38s %14.4f %s\n", m.Name, vals[0], m.Unit)
			continue
		}
		sp := spreadOf(vals)
		fmt.Printf("  %-38s %14.4f %-6s q1 %.4f q3 %.4f spread %.3f\n", m.Name, sp.Median, m.Unit, sp.Q1, sp.Q3, sp.IQROverMedian)
	}
	if r0.TraceFile != "" {
		fmt.Printf("  spans: %s\n", r0.TraceFile)
	}
}
