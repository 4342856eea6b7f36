package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"prism5g/internal/mobility"
	"prism5g/internal/par"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// simShortSpecs are the short-scale (10 ms) driving sub-datasets: OpZ is
// FR1 with up to 4 CCs, OpX mmWave with up to 8.
var simShortSpecs = []sim.SubDatasetSpec{
	{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Short},
	{Operator: spectrum.OpX, Mobility: mobility.Driving, Gran: sim.Short},
}

// simShortOpts sizes each build like experiments.QuickMLConfig: 6 traces
// of 240 samples, each cut from a 45 s run around its CA transitions.
func simShortOpts(seed uint64) sim.BuildOpts {
	return sim.BuildOpts{Traces: 6, SamplesPerTrace: 240, Seed: seed, Modem: ran.ModemX70, Workers: 0}
}

// recordedSteps counts the 10 ms steps one build records, before the cut.
func recordedSteps(seed uint64) int {
	n := 0
	for _, spec := range simShortSpecs {
		for _, c := range sim.BuildConfigs(spec, simShortOpts(seed)) {
			n += int(c.DurationS / c.StepS)
		}
	}
	return n
}

// digest is the SHA-256 of the datasets' JSON encoding, in order.
func digest(dss []*trace.Dataset) (string, error) {
	h := sha256.New()
	for _, ds := range dss {
		if err := ds.WriteJSON(h); err != nil {
			return "", fmt.Errorf("digest %s: %w", ds.Name, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func buildShort(seed uint64) []*trace.Dataset {
	out := make([]*trace.Dataset, len(simShortSpecs))
	for i, spec := range simShortSpecs {
		out[i] = sim.Build(spec, simShortOpts(seed))
	}
	return out
}

// stepTimes accumulates per-step times of the runner drive across the
// workers of one build.
type stepTimes struct {
	newRunnerNS, warmNS, recordNS, cutNS, runNS atomic.Int64
	runners, warmSteps, recordSteps             atomic.Int64
}

// driveRunner is sim.Run opened up step by step through sim.Runner's
// public protocol (which Run follows op for op), timing each phase, then
// the short-scale cut that sim.Build applies.
func driveRunner(cfg sim.RunConfig, n int, st *stepTimes, tr *tracer, parent int) (cut, full trace.Trace) {
	t0 := time.Now()
	sp := tr.start("sim.Run", parent)
	r := sim.NewRunner(cfg)
	t1 := time.Now()
	st.newRunnerNS.Add(t1.Sub(t0).Nanoseconds())
	c := r.Cfg()
	warm := 0
	for t := 0.0; t < c.WarmupS; t += sim.WarmupStepS {
		r.WarmStep(sim.WarmupStepS)
		warm++
	}
	t2 := time.Now()
	st.warmNS.Add(t2.Sub(t1).Nanoseconds())
	r.BeginRecording()
	steps := r.Steps()
	for i := 0; i < steps; i++ {
		r.RecordStep()
	}
	full, _ = r.Finish()
	t3 := time.Now()
	st.recordNS.Add(t3.Sub(t2).Nanoseconds())
	tr.end(sp)
	st.runNS.Add(t3.Sub(t0).Nanoseconds())
	sp = tr.start("sim.CutAroundTransition", parent)
	cut = sim.CutAroundTransition(full, n)
	tr.end(sp)
	st.cutNS.Add(time.Since(t3).Nanoseconds())
	st.runners.Add(1)
	st.warmSteps.Add(int64(warm))
	st.recordSteps.Add(int64(steps))
	return cut, full
}

// tracedBuild replicates sim.Build's fan-out over par with the runner
// drive above. It returns the datasets, the first uncut trace of each, and
// par's utilization: summed per-trace run time over wall time x workers.
func tracedBuild(seed uint64, st *stepTimes, tr *tracer) ([]*trace.Dataset, []trace.Trace, float64, error) {
	root := tr.start("sim.build_replica", 0)
	t0 := time.Now()
	dss := make([]*trace.Dataset, len(simShortSpecs))
	firsts := make([]trace.Trace, len(simShortSpecs))
	runBefore := st.runNS.Load()
	for i, spec := range simShortSpecs {
		opts := simShortOpts(seed)
		cfgs := sim.BuildConfigs(spec, opts)
		sp := tr.start("par.Map", root)
		type pair struct{ cut, full trace.Trace }
		res, err := par.Map(context.Background(), len(cfgs), opts.Workers, func(j int) (pair, error) {
			c, f := driveRunner(cfgs[j], opts.SamplesPerTrace, st, tr, sp)
			return pair{c, f}, nil
		})
		tr.end(sp)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("traced build %s: %w", spec.Name(), err)
		}
		ds := &trace.Dataset{Name: spec.Name(), StepS: spec.Gran.StepS()}
		for _, p := range res {
			ds.Traces = append(ds.Traces, p.cut)
		}
		dss[i], firsts[i] = ds, res[0].full
	}
	wall := time.Since(t0)
	tr.end(root)
	util := float64(st.runNS.Load()-runBefore) / (float64(wall.Nanoseconds()) * float64(par.Workers(0)))
	return dss, firsts, util, nil
}

// ranTimes are the replica loop's per-step engine and scheduler times.
type ranTimes struct {
	engineNS, observeNS int64
	steps               int
}

// ranReplica drives ran.Network, ran.Engine, ran.Scheduler and
// mobility.Mover directly, in sim.Runner's order and with its rng draws,
// for one clean downlink run without locks, timing the engine step and the
// scheduler's observation (which includes phy link adaptation). It returns
// the recorded (T, AggTput, NumActiveCCs) of every sample.
func ranReplica(cfg sim.RunConfig, rt *ranTimes) []trace.Sample {
	cfg = sim.NewRunner(cfg).Cfg() // normalized defaults; the runner is discarded
	src := rng.New(cfg.Seed)
	net := ran.NewNetwork(cfg.Operator, cfg.Scenario, src)
	rcfg := ran.DefaultConfig(cfg.Tech)
	rcfg.ReestablishDelayS = cfg.ReestablishDelayS
	eng := ran.NewEngine(net, ran.NewUE(cfg.Modem), rcfg, src)
	sched := ran.NewScheduler(src)
	start := mobility.Point{X: cfg.Scenario.ExtentM() * 0.5, Y: cfg.Scenario.ExtentM() * 0.5}
	if cfg.Scenario == mobility.Beltway {
		start = mobility.Point{X: 200, Y: 0}
	}
	mv := mobility.NewMover(cfg.Scenario, cfg.Mobility, start, src)
	indoor := cfg.Scenario.IsIndoor()
	for t := 0.0; t < cfg.WarmupS; t += sim.WarmupStepS {
		moved := mv.Step(sim.WarmupStepS)
		net.StepLoads(cfg.TODMultiplier, sim.WarmupStepS)
		eng.Step(mv.Pos(), moved, sim.WarmupStepS, indoor)
	}
	t0 := eng.Now()
	n := int(cfg.DurationS / cfg.StepS)
	out := make([]trace.Sample, 0, n)
	for i := 0; i < n; i++ {
		moved := mv.Step(cfg.StepS)
		net.StepLoads(cfg.TODMultiplier, cfg.StepS)
		a := time.Now()
		events := eng.Step(mv.Pos(), moved, cfg.StepS, indoor)
		b := time.Now()
		snap := sched.Observe(eng, mv.Pos(), cfg.Mobility, indoor, events, cfg.StepS)
		rt.observeNS += time.Since(b).Nanoseconds()
		rt.engineNS += b.Sub(a).Nanoseconds()
		out = append(out, trace.Sample{T: snap.At - t0, AggTput: snap.AggregateMbps, NumActiveCCs: snap.NumActiveCCs})
	}
	rt.steps += n
	eng.Release()
	return out
}

// sameAggregates reports whether the replica's samples match the trace's
// timestamps, aggregate throughputs and active-CC counts bit for bit.
func sameAggregates(rep []trace.Sample, tr trace.Trace) bool {
	if len(rep) != len(tr.Samples) {
		return false
	}
	for i, s := range tr.Samples {
		r := rep[i]
		if math.Float64bits(r.T) != math.Float64bits(s.T) || math.Float64bits(r.AggTput) != math.Float64bits(s.AggTput) ||
			r.NumActiveCCs != s.NumActiveCCs {
			return false
		}
	}
	return true
}

// runSimShort builds both short-scale datasets with sim.Build until
// --seconds have passed. Every build must give the same digest, and at the
// default seed the digest pinned in config.json. A traced run alternates
// each untraced build with the traced replica build (which must give the
// same digest) and the ran replica of each dataset's first trace (which
// must match the runner's samples).
func runSimShort(o options, tr *tracer) (*report, error) {
	rep := newReport()
	steps := recordedSteps(o.seed)

	// Set-up: one warm run of each dataset's first trace, three times on
	// each CPU.
	var setups []float64
	for round := 0; round < 3; round++ {
		if err := onEachCPU(func() {
			t0 := time.Now()
			for _, spec := range simShortSpecs {
				sim.Run(sim.BuildConfigs(spec, simShortOpts(o.seed))[0])
			}
			setups = append(setups, time.Since(t0).Seconds())
		}); err != nil {
			return nil, err
		}
	}
	rep.e2e["setup_s"] = metric{median(setups), "s"}

	var rates, walls, tracedWalls, utils []float64
	var want string
	st := &stepTimes{}
	rt := &ranTimes{}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < o.seconds; k++ {
		t0 := time.Now()
		dss := buildShort(o.seed)
		wall := time.Since(t0).Seconds()
		walls = append(walls, wall)
		rates = append(rates, float64(steps)/wall)
		rep.attempted++
		got, err := digest(dss)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			want = got
			if o.seed == o.cfg.DefaultSeed && got != o.cfg.SimShortSHA256 {
				rep.fail("sim-short seed %d: digest %s, pinned %s", o.seed, got, o.cfg.SimShortSHA256)
			}
		} else if got != want {
			rep.fail("sim-short build %d: digest %s differs from the first build's %s", k, got, want)
		}
		if !o.trace {
			continue
		}
		t0 = time.Now()
		tdss, firsts, util, err := tracedBuild(o.seed, st, tr)
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		utils = append(utils, util)
		rep.attempted++
		if got, err := digest(tdss); err != nil {
			return nil, err
		} else if got != want {
			rep.fail("sim-short traced build %d: digest %s differs from sim.Build's %s", k, got, want)
		}
		for i, spec := range simShortSpecs {
			rep.attempted++
			cfg := sim.BuildConfigs(spec, simShortOpts(o.seed))[0]
			sp := tr.start("ran.replica", 0)
			samples := ranReplica(cfg, rt)
			tr.end(sp)
			if !sameAggregates(samples, firsts[i]) {
				rep.fail("sim-short %s: ran replica differs from sim.Runner", spec.Name())
			}
		}
	}
	fastWall, _ := quartiles(walls)
	_, fastRate := quartiles(rates)
	rep.e2e["throughput_per_s"] = metric{fastRate, "1/s"}
	rep.e2e["latency_ms"] = metric{fastWall * 1e3, "ms"}
	rep.extra["sim_steps_per_s"] = median(rates)
	rep.extra["builds"] = float64(len(walls))
	rep.extra["recorded_steps_per_build"] = float64(steps)
	if !o.trace {
		return rep, nil
	}
	us := func(ns *atomic.Int64, n *atomic.Int64) float64 { return float64(ns.Load()) / float64(n.Load()) / 1e3 }
	rep.layer["sim.new_runner_ms"] = metric{us(&st.newRunnerNS, &st.runners) / 1e3, "ms"}
	rep.layer["sim.warm_step_us"] = metric{us(&st.warmNS, &st.warmSteps), "us"}
	rep.layer["sim.record_step_us"] = metric{us(&st.recordNS, &st.recordSteps), "us"}
	rep.layer["sim.cut_ms"] = metric{us(&st.cutNS, &st.runners) / 1e3, "ms"}
	rep.layer["par.utilization"] = metric{median(utils), "ratio"}
	rep.layer["ran.engine_step_us"] = metric{float64(rt.engineNS) / float64(rt.steps) / 1e3, "us"}
	rep.layer["ran.observe_us"] = metric{float64(rt.observeNS) / float64(rt.steps) / 1e3, "us"}
	rep.layer["trace.overhead_pct"] = metric{(median(tracedWalls)/median(walls) - 1) * 100, "%"}
	return rep, nil
}
