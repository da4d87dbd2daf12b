// Command shardsim races a seed-fixed scenario across shard counts: the
// same world is run on 1, 2, 4, ... region shards and the runtime
// reports tick throughput, handoff rate, ghost-band traffic, forwarded
// cross-shard effects and the final world hash — which must be identical
// for every shard count (cross-shard handoff and ghost replication
// preserve physics-driven state bit-exactly, and writes targeting ghost
// mirrors forward to their owning shard through the tick barrier).
//
// Every race runs the one barrier — lockstep Peers exchanging frames —
// over an in-process pipe mesh by default; -wire tcp swaps the mesh for
// loopback sockets, and -net N launches N actual OS processes — one
// shard each, meshed over TCP — and asserts their world hash equals the
// in-process run's bit for bit.
//
//	shardsim                          # race 1,2,4,8 shards
//	shardsim -shards 1,4 -ticks 500   # custom race
//	shardsim -scenario border         # cross-shard-write crowd: raiders
//	                                  # and medics writing each other
//	                                  # across region boundaries
//	shardsim -scenario mingle         # apply-heavy neighborhood crowd
//	shardsim -wire tcp                # peers over loopback sockets
//	shardsim -net 2 -ticks 50         # 2 shard processes over TCP vs
//	                                  # the in-process barrier
//	shardsim -workers 4               # W query-phase workers per shard;
//	                                  # the hash must still agree
//	shardsim -json > BENCH_shard.json # machine-readable results
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gamedb/internal/mesh"
	"gamedb/internal/metrics"
	"gamedb/internal/obs"
	"gamedb/internal/obshttp"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

func parseShardList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// raceSpec is one race: the shard config it runs under plus the
// registry crowd seeded into it (whose map side and seed are the
// config's World width and Seed). The in-process race, the wire clusters
// and the -net worker processes all build theirs from the same flags
// through the scenario's Configure, which is what makes their hashes
// comparable.
type raceSpec struct {
	cfg      shard.Config
	sc       *shard.Scenario
	entities int
	ticks    int
}

// crowd is the spec's seeding, at the scenario's own speed.
func (s raceSpec) crowd() shard.Crowd {
	return shard.Crowd{Units: s.entities, Side: s.cfg.World.Width(), Seed: s.cfg.Seed}
}

type raceResult struct {
	shards         int
	ticksPerSec    float64
	entitiesPerSec float64
	handoffsPerTik float64
	ghosts         int
	ghostShips     int64
	ghostSkips     int64
	reconcileNS    int64
	forwarded      int64
	remoteMerged   int64
	remoteInval    int64
	stepP99NS      float64
	scriptCalls    int64
	wireBytesOut   int64
	wireBytesIn    int64
	wireFrames     int64
	hash           uint64
	elapsed        time.Duration
}

// raceObs is the optional observability rig one race runs under:
// tracer/profiler attachment, live-registry feeding and per-tick
// reporting. The zero value is fully inert.
type raceObs struct {
	tracer *obs.Tracer
	prof   *obs.Profiler
	rig    *obshttp.Rig // its live registry, when it serves, is fed every tick
	report int          // print per-tick stats every N ticks (0 = off)
}

// newGrid builds the race's cluster: peers on the in-process pipe mesh,
// or on loopback TCP under -wire tcp.
func newGrid(cfg shard.Config, wireMode string) (*shard.Cluster, error) {
	if wireMode == "tcp" {
		return shard.NewTCPCluster(cfg)
	}
	rt, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	return rt.Cluster, nil
}

func runRace(spec raceSpec, wireMode string, ro raceObs) (raceResult, error) {
	cfg, shards, entities, ticks := spec.cfg, spec.cfg.Shards, spec.entities, spec.ticks
	cfg.Tracer = ro.tracer
	cfg.Profile = ro.prof
	g, err := newGrid(cfg, wireMode)
	if err != nil {
		return raceResult{}, err
	}
	defer g.Close()

	if err := spec.sc.Seed(g, spec.crowd()); err != nil {
		return raceResult{}, err
	}

	printTick := func(st shard.StepStats) {
		fmt.Printf("  [%d shards] tick %4d  entities=%d ghosts=%d handoffs=%d ghost-ships=%d\n",
			shards, st.Tick, st.Entities, st.Ghosts, st.Handoffs, st.GhostShips)
	}
	lastPrinted := false
	var res raceResult
	res.shards = shards
	start := time.Now()
	for i := 0; i < ticks; i++ {
		tickStart := time.Now()
		st, err := g.Step()
		if err != nil {
			return raceResult{}, err
		}
		for _, ws := range st.Shards {
			res.scriptCalls += int64(ws.ScriptCalls)
		}
		res.handoffsPerTik += float64(st.Handoffs)
		res.ghostShips += int64(st.GhostShips)
		res.ghostSkips += int64(st.GhostFieldSkips)
		res.reconcileNS += st.ReconcileNS
		res.forwarded += int64(st.EffectsForwarded)
		res.remoteMerged += int64(st.EffectsRemoteMerged)
		res.remoteInval += int64(st.RemoteInvalidations)
		res.wireBytesOut += st.WireBytesOut
		res.wireBytesIn += st.WireBytesIn
		res.wireFrames += st.WireFrames
		res.ghosts = st.Ghosts
		if ro.rig != nil && ro.rig.Registry != nil {
			reg := ro.rig.Registry
			ro.rig.SetEntities(st.Entities)
			reg.Counter("shardsim_ticks_total").Inc()
			reg.Counter("shardsim_handoffs_total").Add(int64(st.Handoffs))
			reg.Counter("shardsim_ghost_ships_total").Add(int64(st.GhostShips))
			reg.Counter("shardsim_effects_forwarded_total").Add(int64(st.EffectsForwarded))
			reg.Counter("shardsim_effects_remote_merged_total").Add(int64(st.EffectsRemoteMerged))
			reg.Counter("shardsim_remote_invalidations_total").Add(int64(st.RemoteInvalidations))
			reg.Counter("shardsim_wire_bytes_out_total").Add(st.WireBytesOut)
			reg.Counter("shardsim_wire_bytes_in_total").Add(st.WireBytesIn)
			reg.Counter("shardsim_wire_frames_total").Add(st.WireFrames)
			reg.Histogram("shardsim_tick_ns").Record(float64(time.Since(tickStart).Nanoseconds()))
		}
		lastPrinted = false
		if ro.report > 0 && int(st.Tick)%ro.report == 0 {
			printTick(st)
			lastPrinted = true
		}
		// The race's final tick always prints under -report, whether or
		// not -report divides -ticks: the exit state is the line people
		// read.
		if ro.report > 0 && i == ticks-1 && !lastPrinted {
			printTick(st)
		}
	}
	res.elapsed = time.Since(start)
	res.handoffsPerTik /= float64(ticks)

	secs := res.elapsed.Seconds()
	res.ticksPerSec = float64(ticks) / secs
	res.entitiesPerSec = float64(ticks) * float64(entities) / secs
	res.stepP99NS = g.StepNS.Quantile(0.99)
	res.hash, err = g.Hash()
	if err != nil {
		return raceResult{}, err
	}
	return res, nil
}

// freeLoopbackAddrs reserves n distinct loopback TCP addresses by
// listening and immediately closing. The usual bind race applies; the
// mesh's dial retry plus the short window make it reliable in practice
// (this is the standard test-port pattern).
func freeLoopbackAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			break
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	var err error
	for _, ln := range lns {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil && len(addrs) != n {
		err = fmt.Errorf("reserved %d of %d loopback ports", len(addrs), n)
	}
	return addrs, err
}

// netWorkerReport is what worker 0 prints on stdout for the parent.
type netWorkerReport struct {
	Hash         string `json:"hash"`
	Entities     int    `json:"entities"`
	WireBytesOut int64  `json:"wire_bytes_out"`
	WireBytesIn  int64  `json:"wire_bytes_in"`
	WireFrames   int64  `json:"wire_frames"`
}

// runNetWorker is one shard process of a -net grid: build the TCP mesh
// endpoint, seed the shared scenario in lockstep, run the ticks, and
// (worker 0 only) print the gathered world hash as JSON.
func runNetWorker(self int, addrs []string, spec raceSpec) error {
	tr, err := mesh.NewTCPMesh(self, addrs)
	if err != nil {
		return err
	}
	p, err := shard.NewPeer(spec.cfg, tr)
	if err != nil {
		tr.Close()
		return err
	}
	defer p.Close()
	if err := spec.sc.Seed(p, spec.crowd()); err != nil {
		return err
	}
	var rep netWorkerReport
	for i := 0; i < spec.ticks; i++ {
		st, err := p.Step()
		if err != nil {
			return err
		}
		rep.WireBytesOut += st.WireBytesOut
		rep.WireBytesIn += st.WireBytesIn
		rep.WireFrames += st.WireFrames
		rep.Entities = st.Entities
	}
	h, err := p.Hash()
	if err != nil {
		return err
	}
	if self == 0 {
		rep.Hash = fmt.Sprintf("%016x", h)
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	return nil
}

// runNetRace is the -net parent: run the reference in-process race,
// then launch one OS process per shard meshed over loopback TCP, and
// compare hashes. Exits the process on mismatch.
func runNetRace(spec raceSpec, jsonOut bool) {
	netShards, scenario, ticks, conflict := spec.cfg.Shards, spec.sc.Name, spec.ticks, spec.cfg.ConflictPolicy
	ref, err := runRace(spec, "inprocess", raceObs{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: -net reference run: %v\n", err)
		os.Exit(1)
	}
	addrs, err := freeLoopbackAddrs(netShards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: -net: %v\n", err)
		os.Exit(1)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: -net: %v\n", err)
		os.Exit(1)
	}
	args := []string{
		"-net-worker",
		"-net-addrs", strings.Join(addrs, ","),
		"-scenario", scenario,
		"-entities", strconv.Itoa(spec.entities),
		"-ticks", strconv.Itoa(ticks),
		"-workers", strconv.Itoa(spec.cfg.Workers),
		"-seed", strconv.FormatInt(spec.cfg.Seed, 10),
		"-side", strconv.FormatFloat(spec.cfg.World.Width(), 'g', -1, 64),
		"-band", strconv.FormatFloat(spec.cfg.GhostBand, 'g', -1, 64),
		"-rebalance", strconv.FormatInt(spec.cfg.RebalanceEvery, 10),
		"-conflict", conflict,
	}
	start := time.Now()
	cmds := make([]*exec.Cmd, netShards)
	var out0 bytes.Buffer
	for i := 0; i < netShards; i++ {
		cmd := exec.Command(exe, append([]string{"-net-self", strconv.Itoa(i)}, args...)...)
		cmd.Stderr = os.Stderr
		if i == 0 {
			cmd.Stdout = &out0
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: -net: start worker %d: %v\n", i, err)
			os.Exit(1)
		}
		cmds[i] = cmd
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: -net: worker %d: %v\n", i, err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)
	var rep netWorkerReport
	if err := json.Unmarshal(out0.Bytes(), &rep); err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: -net: worker 0 report: %v (got %q)\n", err, out0.String())
		os.Exit(1)
	}
	refHash := fmt.Sprintf("%016x", ref.hash)
	match := rep.Hash == refHash
	if jsonOut {
		out := metrics.BenchReport{Suite: "shardsim-net", Records: []metrics.BenchRecord{{
			Name:    fmt.Sprintf("shardsim/net/%s/shards-%d", scenario, netShards),
			NsPerOp: float64(elapsed.Nanoseconds()) / float64(ticks),
			Extra: map[string]any{
				"scenario":         scenario,
				"shards":           netShards,
				"conflict_policy":  conflict,
				"hash":             rep.Hash,
				"hash_inprocess":   refHash,
				"match":            match,
				"entities":         rep.Entities,
				"wire_bytes_out":   rep.WireBytesOut,
				"wire_bytes_in":    rep.WireBytesIn,
				"wire_frames":      rep.WireFrames,
				"net_ticks_per_s":  float64(ticks) / elapsed.Seconds(),
				"proc_ticks_per_s": ref.ticksPerSec,
			},
		}}}
		if err := metrics.WriteBenchJSON(os.Stdout, out); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("shardsim -net: %d shard processes over TCP, %s scenario, %d ticks\n", netShards, scenario, ticks)
		fmt.Printf("  in-process hash: %s\n  processes hash:  %s\n", refHash, rep.Hash)
		fmt.Printf("  wire: %d frames, %d bytes out, %d bytes in (worker 0)\n", rep.WireFrames, rep.WireBytesOut, rep.WireBytesIn)
	}
	if !match {
		fmt.Fprintln(os.Stderr, "shardsim: FAIL — separate-process hash diverged from in-process run")
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Println("  separate-process grid matches the in-process barrier bit for bit ✓")
	}
}

func main() {
	shardList := flag.String("shards", "1,2,4,8", "comma-separated shard counts to race")
	scenario := flag.String("scenario", "drift", "crowd from the scenario registry: "+strings.Join(shard.ScenarioNames(), " | "))
	entities := flag.Int("entities", 4000, "entities in the scenario")
	ticks := flag.Int("ticks", 200, "ticks to simulate per race")
	seed := flag.Int64("seed", 2009, "scenario seed")
	side := flag.Float64("side", 2000, "world side length")
	band := flag.Float64("band", 24, "ghost border band width (negative disables ghosts)")
	rebalance := flag.Int64("rebalance", 50, "rebalance boundaries every N ticks (0 = static)")
	workers := flag.Int("workers", 1, "per-shard query-phase workers (hash is identical for any value)")
	conflict := flag.String("conflict", world.ConflictLastWrite, "conflict policy for conflicting assignments: lastwrite | occ (hash is identical across shard counts under either)")
	wireMode := flag.String("wire", "inprocess", "barrier transport: inprocess (peers on an in-process pipe mesh) | tcp (peers over loopback sockets); the hash is identical across both")
	netShards := flag.Int("net", 0, "launch N separate shard PROCESSES meshed over loopback TCP and assert their hash equals the in-process run (ignores -shards/-wire)")
	jsonOut := flag.Bool("json", false, "emit machine-readable benchmark JSON on stdout")
	report := flag.Int("report", 0, "print per-tick stats every N ticks during each race (0 = off; the final tick of a race always prints)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the LAST raced shard count's tick spans to this file")
	profileOn := flag.Bool("profile", false, "print the per-behavior / per-rule profile of the LAST raced shard count")
	listen := flag.String("listen", "", "serve /metrics, /trace, /profile and /debug/pprof on this address (operators only; bind a trusted interface such as 127.0.0.1:8080)")
	linger := flag.Duration("linger", 0, "keep the -listen endpoint serving this long after the races finish")
	netWorker := flag.Bool("net-worker", false, "internal: run as one shard process of a -net grid")
	netSelf := flag.Int("net-self", 0, "internal: this -net worker's shard index")
	netAddrs := flag.String("net-addrs", "", "internal: comma-separated mesh addresses of the -net grid")
	flag.Parse()
	if *conflict != world.ConflictLastWrite && *conflict != world.ConflictOCC {
		fmt.Fprintf(os.Stderr, "shardsim: unknown -conflict %q (want lastwrite or occ)\n", *conflict)
		os.Exit(2)
	}
	sc, err := shard.Lookup(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: %v\n", err)
		os.Exit(2)
	}
	if *wireMode != "inprocess" && *wireMode != "tcp" {
		fmt.Fprintf(os.Stderr, "shardsim: unknown -wire %q (want inprocess or tcp)\n", *wireMode)
		os.Exit(2)
	}

	spec := raceSpec{
		sc: sc, entities: *entities, ticks: *ticks,
		cfg: sc.Configure(shard.Config{
			Seed:           *seed,
			Workers:        *workers,
			World:          spatial.NewRect(0, 0, *side, *side),
			CellSize:       16,
			TickDT:         0.5,
			GhostBand:      *band,
			RebalanceEvery: *rebalance,
			ConflictPolicy: *conflict,
		}),
	}

	if *netWorker {
		addrs := strings.Split(*netAddrs, ",")
		spec.cfg.Shards = len(addrs)
		if err := runNetWorker(*netSelf, addrs, spec); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: net worker %d: %v\n", *netSelf, err)
			os.Exit(1)
		}
		return
	}
	if *netShards > 0 {
		spec.cfg.Shards = *netShards
		runNetRace(spec, *jsonOut)
		return
	}

	counts, err := parseShardList(*shardList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: %v\n", err)
		os.Exit(2)
	}

	// Observability rig: the tracer and profiler attach to the LAST
	// raced shard count only (one runtime's worth of spans/attribution,
	// not four interleaved); the registry and endpoint span all races.
	rig, err := obshttp.NewRig("shardsim", *tracePath, *profileOn, *listen, *linger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: %v\n", err)
		os.Exit(1)
	}
	prof := rig.Profiler

	if !*jsonOut {
		fmt.Printf("shardsim: %d entities on a %.0f×%.0f map, %d ticks, %d workers/shard, %s barrier, %d cores\n\n",
			*entities, *side, *side, *ticks, *workers, *wireMode, runtime.GOMAXPROCS(0))
	}
	tbl := metrics.NewTable(fmt.Sprintf("sharded world runtime race (%s scenario, %s barrier)", *scenario, *wireMode),
		"shards", "ticks/sec", "entities/sec", "handoffs/tick", "ghosts", "ghost-ships", "fwd", "hash")
	rep := metrics.BenchReport{Suite: "shardsim"}
	var firstHash uint64
	hashesAgree := true
	for i, n := range counts {
		ro := raceObs{rig: rig}
		if !*jsonOut {
			ro.report = *report
		}
		if i == len(counts)-1 {
			ro.tracer, ro.prof = rig.Tracer, prof
		}
		spec.cfg.Shards = n
		res, err := runRace(spec, *wireMode, ro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: %d shards: %v\n", n, err)
			os.Exit(1)
		}
		if i == 0 {
			firstHash = res.hash
		} else if res.hash != firstHash {
			hashesAgree = false
		}
		tbl.AddRowf(res.shards, res.ticksPerSec, res.entitiesPerSec,
			res.handoffsPerTik, res.ghosts, res.ghostShips, res.forwarded,
			fmt.Sprintf("%016x", res.hash))
		rep.Records = append(rep.Records, metrics.BenchRecord{
			Name:           fmt.Sprintf("shardsim/%s/shards-%d", *scenario, n),
			NsPerOp:        float64(res.elapsed.Nanoseconds()) / float64(*ticks),
			EntitiesPerSec: res.entitiesPerSec,
			Extra: map[string]any{
				"scenario":              *scenario,
				"workers":               *workers,
				"wire":                  *wireMode,
				"conflict_policy":       *conflict,
				"script_calls":          res.scriptCalls,
				"ticks_per_sec":         res.ticksPerSec,
				"handoffs_per_tick":     res.handoffsPerTik,
				"ghosts":                res.ghosts,
				"ghost_ships":           res.ghostShips,
				"ghost_field_skips":     res.ghostSkips,
				"reconcile_ns_per_tick": float64(res.reconcileNS) / float64(*ticks),
				"effects_forwarded":     res.forwarded,
				"effects_remote_merged": res.remoteMerged,
				"remote_invalidations":  res.remoteInval,
				"wire_bytes_out":        res.wireBytesOut,
				"wire_bytes_in":         res.wireBytesIn,
				"wire_frames":           res.wireFrames,
				"step_p99_ns":           res.stepP99NS,
				"hash":                  fmt.Sprintf("%016x", res.hash),
			},
		})
	}
	if *jsonOut {
		if *profileOn {
			// Attribution rode on the last race only; attach it there.
			rep.Records[len(rep.Records)-1].Extra["profile"] = prof.Rows()
		}
		if err := metrics.WriteBenchJSON(os.Stdout, rep); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		tbl.Note = "hash must be identical across shard counts: handoff, ghost replication and barrier-forwarded cross-shard effects preserve state bit-exactly"
		tbl.Fprint(os.Stdout)
		if *profileOn {
			fmt.Println()
			prof.Table().Fprint(os.Stdout)
		}
	}
	if !hashesAgree {
		fmt.Fprintln(os.Stderr, "shardsim: FAIL — world hash diverged across shard counts")
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Println("\nall shard counts produced the identical world hash ✓")
	}
	if err := rig.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "shardsim: %v\n", err)
		os.Exit(1)
	}
}
