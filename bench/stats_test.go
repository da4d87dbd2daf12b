package main

import (
	"testing"

	"gamedb/internal/obs"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending: percentile must not assume order
	}
	return v
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if got, err := percentile(seq(100), 0.90); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if got, err := percentile(seq(100), 0.50); err != nil || got != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", got, err)
	}
	// 99 samples leave 9 beyond the nearest-rank p90.
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples was not refused")
	}
	if _, err := percentile(seq(100), 0.99); err == nil {
		t.Fatal("p99 of 100 samples was not refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples was not refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTickMin(t *testing.T) {
	reps := [][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}}
	got := tickMin(reps)
	want := []float64{4, 1, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tickMin = %v, want %v", got, want)
		}
	}
	if reps[0][0] != 5 {
		t.Fatal("tickMin modified its input")
	}
	if tickMin(nil) != nil {
		t.Fatal("tickMin(nil) != nil")
	}
}

func TestSpreadAndUnresolved(t *testing.T) {
	if got := spread([]float64{9, 10, 12}); got != 0.3 {
		t.Fatalf("spread = %v, want 0.3", got)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Fatal("spread of fewer than two values must be 0")
	}
	if !unresolved(0.3, 0.1) || unresolved(0.05, 0.1) {
		t.Fatal("unresolved must mark exactly the spreads beyond the bound")
	}
	if unresolved(0.3, 0) {
		t.Fatal("a metric without a bound is never unresolved")
	}
}

func TestWorse(t *testing.T) {
	if !worse(10, 11.1, 0.1, 0) || worse(10, 10.9, 0.1, 0) || worse(10, 5, 0.1, 0) {
		t.Fatal("worse must fire only beyond the bound, and only upwards")
	}
	// The absolute floor wins while it is the larger slack.
	if worse(0.02, 0.06, 0.25, 0.05) || !worse(0.02, 0.08, 0.25, 0.05) {
		t.Fatal("worse must honour the absolute floor")
	}
}

func TestDrift(t *testing.T) {
	if got := drift([]float64{1, 1, 2, 2, 3, 3, 10, 10}, 1); got != 10 {
		t.Fatalf("drift = %v, want 10", got)
	}
	// Two lifetimes drifting 2× and 4×: the median of the two.
	if got := drift([]float64{1, 5, 5, 2, 2, 5, 5, 8}, 2); got != 3 {
		t.Fatalf("drift over two lifetimes = %v, want 3", got)
	}
	if drift(make([]float64, 8), 1) != 0 || drift([]float64{1, 2}, 1) != 0 {
		t.Fatal("drift of an idle or too-short series must be 0")
	}
}

// TestSelfTimeFromNestedSpans pins the parent recovery and the
// self-time rule on one hand-built tick: a host span over step and
// pump, the coordinator's parallel phase inside step, and two shard
// ticks that overlap each other inside parallel.
func TestSelfTimeFromNestedSpans(t *testing.T) {
	sp := func(name string, track int, start, end int64) obs.Span {
		return obs.Span{Name: name, Shard: track, Tick: 1, Round: -1, Start: start, Dur: end - start}
	}
	spans := []obs.Span{
		sp(spanHost, hostTrack, 0, 100),
		sp(spanStep, hostTrack, 0, 60),
		sp(spanPump, hostTrack, 60, 90),
		sp("parallel", obs.CoordShard, 5, 45),
		sp("tick", 0, 10, 30),
		sp("query", 0, 10, 25),
		sp("tick", 1, 20, 40),
		sp("wire.recv", 1, 46, 58), // a peer's wait: no shard or coordinator span covers it
	}
	par := parents(spans)
	wantPar := []int{-1, 0, 0, 1, 3, 4, 3, 1}
	for i := range wantPar {
		if par[i] != wantPar[i] {
			t.Fatalf("parents = %v, want %v", par, wantPar)
		}
	}
	self := selfTimes(spans, par)
	// host: 100 − step 60 − pump 30; step: 60 − parallel 40 − wire.recv 12;
	// parallel: 40 − union of [10,30] and [20,40]; shard 0 tick: 20 − query 15.
	wantSelf := []int64{10, 8, 30, 10, 5, 15, 20, 12}
	for i := range wantSelf {
		if self[i] != wantSelf[i] {
			t.Fatalf("self times = %v, want %v", self, wantSelf)
		}
	}

	lt := buildLayerTable(append(spans, obs.Span{Name: spanHost, Shard: hostTrack, Tick: 0, Dur: 999}), 0)
	if lt.hostNS != 100 || lt.unattributed != 18 {
		t.Fatalf("layer table host=%d unattributed=%d, want 100 and 18 (warm-up tick 0 excluded)", lt.hostNS, lt.unattributed)
	}
	if lt.selfNS["tick"] != 25 || lt.selfNS["query"] != 15 {
		t.Fatalf("per-name self times %v: want tick=25 (summed over shards), query=15", lt.selfNS)
	}
}
