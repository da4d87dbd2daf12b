package main

import (
	"cmp"
	"slices"

	"gamedb/internal/obs"
)

// hostTrack is the span track of the benchmark's own spans, recorded
// into the same obs.Tracer the library records into (shards are
// tracks ≥ 0, the shard coordinator is obs.CoordShard).
const hostTrack = -2

// Host span names: one spanHost per measured tick, with the calls into
// the layers as its children.
const (
	spanHost  = "host"
	spanStep  = "step"
	spanPump  = "pump"
	spanFlush = "flush"
)

// contains reports whether p covers c's whole interval and is the
// larger of the two.
func contains(p, c obs.Span) bool {
	return p.Start <= c.Start && p.End() >= c.End() && p.Dur > c.Dur
}

// parents returns, for every span of ONE tick, the index of the span
// that caused it, or -1. obs spans carry no parent, so it is recovered
// from nesting: the tightest span on the same track that covers it;
// failing that (a shard world's tick inside the coordinator's parallel
// phase, a peer's wire.recv inside the host's step) the tightest
// covering span on the coordinator track, then on the host track.
func parents(spans []obs.Span) []int {
	tightest := func(c obs.Span, track int) int {
		best := -1
		for i, p := range spans {
			if p.Shard == track && contains(p, c) && (best < 0 || p.Dur < spans[best].Dur) {
				best = i
			}
		}
		return best
	}
	out := make([]int, len(spans))
	for i, c := range spans {
		out[i] = tightest(c, c.Shard)
		if out[i] < 0 && c.Shard > obs.CoordShard {
			out[i] = tightest(c, obs.CoordShard)
		}
		if out[i] < 0 && c.Shard > hostTrack {
			out[i] = tightest(c, hostTrack)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its direct children cover. Children on different
// tracks may overlap (shards tick concurrently), so the covered part is
// the union of their intervals, not the sum.
func selfTimes(spans []obs.Span, parent []int) []int64 {
	kids := make([][]obs.Span, len(spans))
	for i, p := range parent {
		if p >= 0 {
			kids[p] = append(kids[p], spans[i])
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		slices.SortFunc(ks, func(a, b obs.Span) int { return cmp.Compare(a.Start, b.Start) })
		covered, end := int64(0), s.Start
		for _, k := range ks {
			if k.End() > end {
				covered += k.End() - max(k.Start, end)
				end = k.End()
			}
		}
		self[i] = s.Dur - covered
	}
	return self
}

// layerTable folds the spans of the measured ticks (tick > warmup) into
// self time per span name, plus the host-tick total and the part of it
// no library span explains: the self time of the host span and of the
// step span, which wrap nothing but library calls.
type layerTable struct {
	selfNS       map[string]int64
	hostNS       int64
	unattributed int64
}

func buildLayerTable(spans []obs.Span, warmup int) layerTable {
	byTick := map[int64][]obs.Span{}
	for _, s := range spans {
		if s.Tick > int64(warmup) {
			byTick[s.Tick] = append(byTick[s.Tick], s)
		}
	}
	lt := layerTable{selfNS: map[string]int64{}}
	for _, ts := range byTick {
		self := selfTimes(ts, parents(ts))
		for i, s := range ts {
			lt.selfNS[s.Name] += self[i]
			if s.Shard == hostTrack {
				switch s.Name {
				case spanHost:
					lt.hostNS += s.Dur
					lt.unattributed += self[i]
				case spanStep:
					lt.unattributed += self[i]
				}
			}
		}
	}
	return lt
}
