package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// sortSpanRows orders the layer table by self time, largest first.
func sortSpanRows(rows []spanRow) {
	slices.SortFunc(rows, func(a, b spanRow) int {
		return cmp.Or(cmp.Compare(b.SelfMSPerTick, a.SelfMSPerTick), strings.Compare(a.Name, b.Name))
	})
}

// find returns the named metric of ms.
func find(ms []metric, name string) metric {
	for _, m := range ms {
		if m.Name == name {
			return m
		}
	}
	return metric{Name: name}
}

// printReport writes the fixed-width table: the stamp, then per
// workload its checks, end-to-end metrics, per-layer metrics and (when
// traced) the span self-time table.
func printReport(w io.Writer, rep report) {
	e := rep.Env
	dirty := ""
	if e.Dirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "gamedb bench  seed=%d seconds=%g cores=%d GOMAXPROCS=%d %s commit=%s%s wall=%.1fs\n",
		e.Seed, e.Seconds, e.Cores, e.GoMaxProcs, e.GoVersion, e.Commit, dirty, e.WallS)
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "\n== %-16s units=%d clients=%d lifetimes=%d ticks=%d+%d reps=%d (%d traced)\n",
			r.Name, r.Units, r.Clients, r.Lifetimes, r.Warmup, r.Ticks, r.Reps, r.TracedReps)
		check := "ok: every rep equals the 1x1 oracle"
		if !r.Correct {
			check = "FAILED"
		}
		fmt.Fprintf(w, "   hash=%s check=%s (oracle %.2fs, untimed)  failed_ops=%d/%d\n",
			r.Hash, check, r.OracleS, r.FailedOps, r.Ops)
		for _, p := range r.Problems {
			fmt.Fprintf(w, "   PROBLEM %s\n", p)
		}
		fmt.Fprintf(w, "   %-28s %14s %-6s %6s %7s\n", "end-to-end", "value", "unit", "bound", "spread")
		for _, m := range r.EndToEnd {
			note := ""
			if m.Unresolved {
				note = "  unresolved: repetition spread exceeds bound"
			}
			if m.Name == "tick_ms_p90" {
				n := r.Ticks * r.Lifetimes
				note += fmt.Sprintf("  (%d samples, %d beyond)", n, n/10)
			}
			fmt.Fprintf(w, "   %-28s %14.4f %-6s %5.0f%% %6.1f%%%s\n", m.Name, m.Value, m.Unit, m.Bound*100, m.Spread*100, note)
		}
		fmt.Fprintf(w, "   %-28s %14s %-6s %14s\n", "per-layer", "value", "unit", "share of tick")
		tick := find(r.EndToEnd, "tick_ms_p50").Value
		for _, m := range r.PerLayer {
			share := ""
			if m.Unit == "ms" && tick > 0 {
				share = fmt.Sprintf("%13.1f%%", m.Value/tick*100)
			}
			if m.Name == "obs.trace_overhead_pct" {
				share = fmt.Sprintf("(untraced spread %.1f%%)", m.Spread*100)
			}
			fmt.Fprintf(w, "   %-28s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, share)
		}
		if len(r.Spans) == 0 {
			continue
		}
		fmt.Fprintf(w, "   %-28s %14s\n", "span (traced rep)", "self ms/tick")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "   %-28s %14.4f\n", s.Name, s.SelfMSPerTick)
		}
		if u := find(r.PerLayer, "obs.unattributed_pct").Value; u > 5 {
			fmt.Fprintf(w, "   FINDING %.1f%% of the tick is inside no library span\n", u)
		}
	}
}

// compareSets is -repeat's self-test: two sets of the same code must
// agree on every end-to-end metric within the metric's own bound.
func compareSets(w io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(w, "\nrepeat: set 1 vs set 2\n   %-16s %-18s %14s %14s %7s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i := range a {
		for j, m1 := range a[i].EndToEnd {
			m2 := b[i].EndToEnd[j]
			floor := 0.0
			if m1.Name == "setup_s" {
				floor = setupFloorS
			}
			verdict := "ok"
			if worse(m1.Value, m2.Value, m1.Bound, floor) || worse(m2.Value, m1.Value, m1.Bound, floor) {
				verdict = "DISAGREE"
				ok = false
			}
			diff := 0.0
			if m1.Value != 0 {
				diff = (m2.Value - m1.Value) / m1.Value
			}
			fmt.Fprintf(w, "   %-16s %-18s %14.4f %14.4f %+6.1f%% %5.0f%%  %s (spreads %.1f%% / %.1f%%)\n",
				a[i].Name, m1.Name, m1.Value, m2.Value, diff*100, m1.Bound*100, verdict, m1.Spread*100, m2.Spread*100)
		}
	}
	return ok
}

// contractResult is the driver's result object.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract returns the driver's view: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (res *result) contract(traced bool) contractResult {
	ms := res.EndToEnd
	if traced {
		ms = res.PerLayer
	}
	out := contractResult{Correct: res.Correct, Attempted: res.Ops, Failed: res.FailedOps, Metrics: map[string]contractValue{}}
	for _, m := range ms {
		out.Metrics[m.Name] = contractValue{m.Value, m.Unit}
	}
	return out
}
