// Command gamebench regenerates every experiment table in DESIGN.md's
// index (E1–E12), printing them in paper style. Use -quick for reduced
// sizes, -only to run a single experiment, and -json for
// machine-readable results (the BENCH_*.json perf-trajectory format).
//
//	gamebench                    # full suite
//	gamebench -quick             # CI-sized suite
//	gamebench -only E7           # one experiment
//	gamebench -json > BENCH.json # machine-readable results
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gamedb/internal/experiment"
	"gamedb/internal/metrics"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	only := flag.String("only", "", "run a single experiment by id (e.g. E7 or A1)")
	jsonOut := flag.Bool("json", false, "emit machine-readable benchmark JSON on stdout instead of tables")
	flag.Parse()

	drivers := experiment.All()
	if *only != "" {
		d, ok := experiment.ByID(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "gamebench: unknown experiment %q; have E1..E12, E17..E19, E22, A1..A3\n", *only)
			os.Exit(2)
		}
		drivers = []experiment.Driver{d}
	}

	if !*jsonOut {
		fmt.Printf("gamedb experiment suite — %d experiment(s), quick=%v\n\n", len(drivers), *quick)
	}
	start := time.Now()
	rep := metrics.BenchReport{Suite: "gamebench"}
	for _, d := range drivers {
		t0 := time.Now()
		tbl := d.Run(*quick)
		elapsed := time.Since(t0)
		if *jsonOut {
			rep.Records = append(rep.Records, metrics.BenchRecord{
				Name:    d.ID,
				NsPerOp: float64(elapsed.Nanoseconds()),
				Extra: map[string]any{
					"title": d.Title,
					// quick runs are orders of magnitude smaller;
					// perf trajectories must not mix the two.
					"quick":  *quick,
					"header": tbl.Header,
					"rows":   tbl.Rows,
				},
			})
			continue
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("  [%s in %s]\n\n", d.ID, elapsed.Round(time.Millisecond))
	}
	if *jsonOut {
		if err := metrics.WriteBenchJSON(os.Stdout, rep); err != nil {
			fmt.Fprintf(os.Stderr, "gamebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("suite completed in %s\n", time.Since(start).Round(time.Millisecond))
}
