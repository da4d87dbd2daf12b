// Command worldsim loads a content pack and runs the world server for a
// number of ticks, printing per-tick statistics — the smallest end-to-end
// demonstration of the data-driven pipeline: XML in, simulation out.
//
//	worldsim -pack game.xml -ticks 100
//	worldsim                              # runs the embedded demo pack
//	worldsim -workers 4 -json > BENCH.json # parallel tick, bench record
//	worldsim -trace out.json -profile      # tick spans + per-rule profile
//	worldsim -listen 127.0.0.1:8080        # live /metrics + pprof endpoint
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/metrics"
	"gamedb/internal/obshttp"
	"gamedb/internal/shard"
	"gamedb/internal/world"
)

const demoPack = `
<contentpack name="demo-skirmish">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="faction" kind="string" default="neutral"/>
    <column name="engaged" kind="int"/>
  </schema>
  <archetype name="wolf" table="units" script="hunt">
    <set column="hp" value="35"/>
    <set column="faction" value="wild"/>
  </archetype>
  <archetype name="sheep" table="units" script="graze">
    <set column="hp" value="20"/>
    <set column="faction" value="farm"/>
  </archetype>
  <script name="hunt" restricted="true">
fn on_tick(self) {
  let prey = nearby(self, 25.0);
  if len(prey) > 0 { emit("contact", self, len(prey)); }
}
  </script>
  <script name="graze">
fn on_tick(self) {
  let threats = nearby(self, 12.0);
  for id in threats {
    if get(id, "faction") == "wild" {
      move_toward(self, pos_x(self) + (pos_x(self) - pos_x(id)),
                  pos_y(self) + (pos_y(self) - pos_y(id)), 2.0);
      return;
    }
  }
}
  </script>
  <trigger name="mark-engaged" event="contact">
    <do>set(self, "engaged", get(self, "engaged") + 1);</do>
  </trigger>
  <spawn archetype="wolf" count="6" x="50" y="50" spread="30"/>
  <spawn archetype="sheep" count="30" x="120" y="120" spread="60"/>
</contentpack>`

func main() {
	packPath := flag.String("pack", "", "content pack XML file (empty = embedded demo)")
	scenario := flag.String("scenario", "pack", "workload: pack (run -pack or the embedded demo) | "+strings.Join(shard.ScenarioNames(), " | ")+
		" (a registry crowd of 240 units on a 400×400 map: the single-world baseline every sharded run of it must hash-match)")
	ticks := flag.Int("ticks", 50, "ticks to simulate")
	seed := flag.Int64("seed", 1, "world seed")
	every := flag.Int("report", 10, "print stats every N ticks")
	workers := flag.Int("workers", 1, "query-phase and trigger-round worker goroutines (state is identical for any value)")
	conflict := flag.String("conflict", world.ConflictLastWrite, "conflict policy for conflicting assignments: lastwrite | occ")
	jsonOut := flag.Bool("json", false, "emit a machine-readable benchmark record on stdout")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the run's tick spans to this file")
	profileOn := flag.Bool("profile", false, "collect and print the per-behavior / per-rule profile")
	listen := flag.String("listen", "", "serve /metrics, /trace, /profile and /debug/pprof on this address (operators only; bind a trusted interface such as 127.0.0.1:8080)")
	linger := flag.Duration("linger", 0, "keep the -listen endpoint serving this long after the run finishes (lets a scraper collect final values)")
	flag.Parse()
	if *conflict != world.ConflictLastWrite && *conflict != world.ConflictOCC {
		fmt.Fprintf(os.Stderr, "worldsim: unknown -conflict %q (want lastwrite or occ)\n", *conflict)
		os.Exit(2)
	}

	var sc *shard.Scenario
	if *scenario != "pack" {
		var err error
		if sc, err = shard.Lookup(*scenario); err != nil {
			fmt.Fprintf(os.Stderr, "worldsim: %v, or pack\n", err)
			os.Exit(2)
		}
	}

	var c *content.Compiled
	if sc == nil {
		var src string
		if *packPath == "" {
			src = demoPack
		} else {
			raw, err := os.ReadFile(*packPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "worldsim: %v\n", err)
				os.Exit(1)
			}
			src = string(raw)
		}
		var errs []error
		c, errs = content.LoadAndCompile(strings.NewReader(src))
		if len(errs) > 0 {
			fmt.Fprintln(os.Stderr, "worldsim: content pack rejected:")
			for _, err := range errs {
				fmt.Fprintf(os.Stderr, "  %v\n", err)
			}
			os.Exit(1)
		}
		for _, warn := range c.Warnings {
			fmt.Fprintf(os.Stderr, "worldsim: warning: %v\n", warn)
		}
	}
	rig, err := obshttp.NewRig("worldsim", *tracePath, *profileOn, *listen, *linger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worldsim: %v\n", err)
		os.Exit(1)
	}
	tracer, prof, reg := rig.Tracer, rig.Profiler, rig.Registry

	w := world.New(world.Config{
		Seed: *seed, Workers: *workers, ConflictPolicy: *conflict,
		Trace: tracer.Context(0), Profile: prof,
	})
	if sc != nil {
		// The same pack and spawn stream the registry seeds into every
		// shard count — one world, so every write is local.
		if err := sc.Seed(shard.WorldSeeder{World: w}, shard.Crowd{Units: 240, Side: 400, Seed: *seed}); err != nil {
			fmt.Fprintf(os.Stderr, "worldsim: %v\n", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("seeded %s crowd: %d entities across %v (%d workers)\n",
				sc.Name, w.Entities(), w.TableNames(), *workers)
		}
	} else {
		if err := w.LoadPack(c); err != nil {
			fmt.Fprintf(os.Stderr, "worldsim: %v\n", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("loaded pack %q: %d entities across %v (%d workers)\n",
				c.Name, w.Entities(), w.TableNames(), *workers)
		}
	}

	var effects, conflicts, retries, aborts, queryNS, applyNS, triggerNS int64
	var trigFired, trigRounds, trigEffects, trigConflicts int64
	var fwd, remoteMerged, remoteInval int64
	scriptErrors, scriptSkips := 0, 0
	entityTicks := 0
	lastPrinted := false
	printTick := func(st world.TickStats) {
		fmt.Printf("tick %4d  entities=%d scripts=%d triggers=%d rounds=%d effects=%d fuel=%d errors=%d\n",
			st.Tick, st.Entities, st.ScriptCalls, st.TriggerFired, st.TriggerRounds,
			st.Effects+st.TriggerEffects, st.FuelUsed, st.ScriptErrors)
	}
	start := time.Now()
	for i := 0; i < *ticks; i++ {
		tickStart := time.Now()
		st, err := w.Step()
		if err != nil {
			fmt.Fprintf(os.Stderr, "worldsim: tick %d: %v\n", st.Tick, err)
			os.Exit(1)
		}
		effects += int64(st.Effects)
		conflicts += int64(st.EffectConflicts)
		retries += int64(st.EffectRetries)
		aborts += int64(st.EffectAborts)
		queryNS += st.QueryNS
		applyNS += st.ApplyNS
		triggerNS += st.TriggerNS
		trigFired += int64(st.TriggerFired)
		trigRounds += int64(st.TriggerRounds)
		trigEffects += int64(st.TriggerEffects)
		trigConflicts += int64(st.TriggerConflicts)
		fwd += int64(st.EffectsForwarded)
		remoteMerged += int64(st.EffectsRemoteMerged)
		remoteInval += int64(st.RemoteInvalidations)
		scriptErrors += st.ScriptErrors
		scriptSkips += st.ScriptSkips
		entityTicks += st.Entities
		if reg != nil {
			rig.SetEntities(st.Entities)
			reg.Counter("worldsim_ticks_total").Inc()
			reg.Counter("worldsim_effects_total").Add(int64(st.Effects + st.TriggerEffects))
			reg.Counter("worldsim_conflicts_total").Add(int64(st.EffectConflicts + st.TriggerConflicts))
			reg.Counter("worldsim_script_errors_total").Add(int64(st.ScriptErrors))
			reg.Counter("worldsim_effects_forwarded_total").Add(int64(st.EffectsForwarded))
			reg.Counter("worldsim_effects_remote_merged_total").Add(int64(st.EffectsRemoteMerged))
			reg.Counter("worldsim_remote_invalidations_total").Add(int64(st.RemoteInvalidations))
			reg.Histogram("worldsim_tick_ns").Record(float64(time.Since(tickStart).Nanoseconds()))
		}
		lastPrinted = false
		if !*jsonOut && *every > 0 && int(st.Tick)%*every == 0 {
			printTick(st)
			lastPrinted = true
		}
		// The run's final tick always prints, whether or not -report
		// divides -ticks: the exit state is the line people read.
		if !*jsonOut && i == *ticks-1 && !lastPrinted {
			printTick(st)
		}
	}
	elapsed := time.Since(start)

	// Exit-time observability artifacts, shared by the text and -json
	// paths.
	finish := func() {
		if err := rig.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "worldsim: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		rep := metrics.BenchReport{Suite: "worldsim"}
		rep.Records = append(rep.Records, metrics.BenchRecord{
			Name:           fmt.Sprintf("worldsim/workers-%d", *workers),
			NsPerOp:        float64(elapsed.Nanoseconds()) / float64(*ticks),
			EntitiesPerSec: float64(entityTicks) / elapsed.Seconds(),
			Extra: map[string]any{
				"workers":               *workers,
				"ticks":                 *ticks,
				"conflict_policy":       *conflict,
				"effects_per_tick":      float64(effects) / float64(*ticks),
				"effect_conflicts":      conflicts,
				"effect_retries":        retries,
				"effect_aborts":         aborts,
				"effects_forwarded":     fwd,
				"effects_remote_merged": remoteMerged,
				"remote_invalidations":  remoteInval,
				"script_errors":         scriptErrors,
				"script_skips":          scriptSkips,
				"trigger_fired":         trigFired,
				"trigger_rounds":        trigRounds,
				"trigger_effects":       trigEffects,
				"trigger_conflicts":     trigConflicts,
				"query_ns_per_op":       float64(queryNS) / float64(*ticks),
				"apply_ns_per_op":       float64(applyNS) / float64(*ticks),
				"trigger_ns_per_op":     float64(triggerNS) / float64(*ticks),
			},
		})
		if *profileOn {
			rep.Records[0].Extra["profile"] = prof.Rows()
		}
		if err := metrics.WriteBenchJSON(os.Stdout, rep); err != nil {
			fmt.Fprintf(os.Stderr, "worldsim: %v\n", err)
			os.Exit(1)
		}
		// A bench record over a world whose behaviors are failing is
		// measuring nothing; make that loud on stderr.
		if scriptErrors > 0 {
			fmt.Fprintf(os.Stderr, "worldsim: warning: %d script errors during the run (last: %v)\n",
				scriptErrors, w.LastScriptError)
		}
		finish()
		return
	}
	if w.LastScriptError != nil {
		fmt.Printf("last script error: %v\n", w.LastScriptError)
	}
	fmt.Printf("done after %d ticks, %d entities alive (%d effects, %d conflicts, apply %.1f%% of tick)\n",
		*ticks, w.Entities(), effects, conflicts,
		100*float64(applyNS)/float64(queryNS+applyNS))
	if *profileOn {
		fmt.Println()
		prof.Table().Fprint(os.Stdout)
	}
	finish()
}
