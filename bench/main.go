// Command bench is the benchmark of this repository: five seeded crowds
// run against the public functions of internal/shard, internal/world,
// internal/replica and internal/wire, measured end to end (tick wall
// time, allocations, set-up) and layer by layer (the phase fields the
// calls return, plus obs spans in the traced repetitions), with every
// workload's final world hash checked against a 1×1 oracle run.
//
//	bash bench/run.sh                         # all workloads, table on stdout
//	bash bench/run.sh -trace 1                # + layer table, Chrome traces in bench/out/
//	bash bench/run.sh -repeat                 # two sets back to back, must agree within bounds
//	bash bench/run.sh -json                   # one typed JSON document instead of the table
//	bash bench/run.sh -workload mingle -seed 7 -seconds 10 -trace 0   # the driver's form
//
// See README.md beside this file for the metric and workload rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// minReps is the fewest repetitions a workload runs however short
// -seconds is: the per-tick minimum and the set-up median need at
// least three samples to mean anything.
const minReps = 3

type options struct {
	seed    int64
	seconds float64 // measured-window time to accumulate per workload
	trace   bool    // alternate untraced and traced repetitions
	// traceDir receives <workload>.trace.json from traced repetitions.
	traceDir string
}

// env is the stamp every report carries: a number without the machine
// and commit it came from is not a measurement.
type env struct {
	Cores      int     `json:"cores"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WallS      float64 `json:"wall_s"`
}

func stamp(opt options) env {
	e := env{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       opt.seed,
		Seconds:    opt.seconds,
	}
	// Outside a git work tree (the driver's checkout) the commit stays
	// "unknown"; Output waits for the child to exit either way.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		e.Dirty = err != nil || len(st) > 0
	}
	return e
}

// report is the one JSON shape of a run.
type report struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

// runSet measures the selected workloads: oracles first (untimed), then
// repetitions round-robin across workloads until each has accumulated
// opt.seconds of measured window, so a busy neighbour smears over every
// workload instead of landing on one.
func runSet(ws []*workload, opt options) ([]*result, error) {
	runs := make([]*run, len(ws))
	for i, w := range ws {
		r, err := newRun(w, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runs[i] = r
	}
	for pending := true; pending; {
		pending = false
		for _, r := range runs {
			if !r.needsMore() {
				continue
			}
			pending = true
			if err := r.addRep(); err != nil {
				return nil, fmt.Errorf("%s: rep %d: %w", r.w.name, len(r.reps), err)
			}
		}
	}
	out := make([]*result, len(runs))
	for i, r := range runs {
		res, err := r.result()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name, err)
		}
		out[i] = res
	}
	return out, nil
}

func main() {
	var opt options
	var only string
	flag.Int64Var(&opt.seed, "seed", 2009, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured-window seconds to accumulate per workload (at least 3 repetitions run regardless)")
	trace := flag.Int("trace", 0, "1 = every second repetition runs with an obs.Tracer attached; prints the layer table and writes bench/out/<workload>.trace.json")
	flag.StringVar(&only, "workload", "", "run one workload; the last stdout line is then the driver's result object")
	flag.StringVar(&only, "only", "", "alias of -workload")
	repeat := flag.Bool("repeat", false, "run the set twice back to back and fail if an end-to-end metric differs by more than its bound")
	jsonOut := flag.Bool("json", false, "print one typed JSON document instead of the table")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	opt.trace = *trace != 0
	opt.traceDir = filepath.Join("bench", "out")

	var ws []*workload
	for i := range workloads {
		if only == "" || workloads[i].name == only {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", only)
		os.Exit(2)
	}

	start := time.Now()
	rep := report{Env: stamp(opt)}
	sets := 1
	if *repeat {
		sets = 2
	}
	var all [][]*result
	for i := 0; i < sets; i++ {
		res, err := runSet(ws, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		all = append(all, res)
	}
	rep.Workloads = all[len(all)-1]
	rep.Env.WallS = time.Since(start).Seconds()

	ok := true
	for _, res := range rep.Workloads {
		ok = ok && res.Correct
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	} else {
		printReport(os.Stdout, rep)
	}
	if *repeat {
		cmp := io.Writer(os.Stdout)
		if *jsonOut {
			cmp = os.Stderr // keep stdout one JSON document
		}
		ok = compareSets(cmp, all[0], all[1]) && ok
	}
	if only != "" {
		// The driver's contract: last stdout line, one object.
		line, err := json.Marshal(rep.Workloads[0].contract(opt.trace))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}
