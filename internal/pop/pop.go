// Package pop is city-scale population mode: many UEs measured against a
// shared cell grid, with per-UE throughput shaped by how many co-resident
// UEs contend for each cell's resource blocks — the system-level-simulator
// counterpart of the paper's drive tests, which sampled a network already
// loaded by thousands of real users.
//
// The population is partitioned into fixed-size shards. Each shard builds
// an identical replica of the shared grid (same deployment seed) and
// drives its UEs in lock-step: one network load step per tick, then every
// UE's engine/scheduler step in UE order. Contention inside a shard is
// exact — attach counts on the shared cells split the scheduler's RB
// share — while the load of the population outside the shard enters as a
// deterministic mean field (SetPopLoad) scaled by the rush-hour activity
// profile, so cell breathing and rush-hour degradation emerge from load
// rather than a scripted time-of-day multiplier.
//
// Determinism contract (matching internal/par): per-UE seeds are drawn
// serially in UE order before any shard runs, the shard partition depends
// only on the configuration (never on the worker count), and traces are
// emitted to the sink in UE order through a bounded reorder window — the
// output stream is byte-identical at any worker count. A population of
// one is byte-identical to the standalone single-UE simulator run (the
// population-n1-equivalence conformance law).
package pop

import (
	"context"
	"fmt"
	"math"
	"time"

	"prism5g/internal/faults"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/par"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// popSeedSalt separates the population's per-UE seed stream from every
// other rng domain derived from the campaign seed.
const popSeedSalt = 0x9e3779b900005eed

// capacityUEs is the nominal number of active UEs one cell schedules at
// full utilization; the mean-field load of the out-of-shard population is
// expected UEs per cell divided by this capacity.
const capacityUEs = 24.0

// RushProfile shapes what fraction of the city's UEs is active over the
// run: a Gaussian bump from the off-peak Base fraction to the rush-hour
// Peak fraction centred at PeakAtS. The zero value means everyone is
// active the whole run (a flat fraction of 1).
type RushProfile struct {
	// Base is the off-peak active fraction of the population.
	Base float64
	// Peak is the active fraction at the rush-hour peak.
	Peak float64
	// PeakAtS is when (seconds into the recorded run) the peak occurs.
	PeakAtS float64
	// WidthS is the Gaussian width of the rush bump (0 = 600 s).
	WidthS float64
}

// ActiveFraction returns the active fraction of the population at time t
// seconds into the recorded run, clamped to [0, 1].
func (p RushProfile) ActiveFraction(t float64) float64 {
	if p.Base == 0 && p.Peak == 0 {
		return 1
	}
	w := p.WidthS
	if w <= 0 {
		w = 600
	}
	x := (t - p.PeakAtS) / w
	f := p.Base + (p.Peak-p.Base)*math.Exp(-0.5*x*x)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Config describes a population campaign.
type Config struct {
	Operator spectrum.Operator
	Scenario mobility.Scenario
	Mobility mobility.Mobility
	Modem    ran.Modem
	// Population is the number of UEs in the city.
	Population int
	// ShardSize is how many UEs share one grid replica with exact
	// contention (0 = 64). The shard partition is fixed by the
	// configuration, never by the worker count.
	ShardSize int
	// DurationS / StepS are the per-UE recording length and sampling
	// interval (0 = 60 s at 1 s, the long-granularity defaults).
	DurationS float64
	StepS     float64
	// Seed derives the whole campaign: grid, per-UE streams, faults.
	Seed uint64
	// Workers bounds the shard worker pool (0 = one per CPU).
	Workers int
	// Rush is the rush-hour activity profile of the population.
	Rush RushProfile
	// Faults optionally degrades every UE's trace.
	Faults *faults.FaultPlan
	// BaseSeeds overrides the first len(BaseSeeds) per-UE seeds (the
	// derived stream continues after them). The conformance law uses it
	// to pin a population UE to a sim.Build trace seed.
	BaseSeeds []uint64
}

func (c *Config) normalize() {
	if c.ShardSize <= 0 {
		c.ShardSize = 64
	}
	if c.DurationS == 0 {
		c.DurationS = 60
	}
	if c.StepS == 0 {
		c.StepS = 1
	}
}

// Seeds returns the per-UE seed stream in UE order: the BaseSeeds prefix,
// then the stream derived from the campaign seed. The derived stream is
// drawn for every UE regardless of the prefix, so UE k's seed does not
// depend on whether earlier seeds were overridden.
func (c Config) Seeds() []uint64 {
	seeds := make([]uint64, c.Population)
	root := rng.New(c.Seed ^ popSeedSalt)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	copy(seeds, c.BaseSeeds)
	return seeds
}

// RunConfigFor returns the standalone sim.RunConfig that UE i of the
// population replicates: Run(RunConfigFor(i)) is byte-identical to UE i's
// emitted trace whenever the rest of its shard leaves its cells
// uncontended (always true for a population of one — the conformance
// law).
func (c Config) RunConfigFor(i int) sim.RunConfig {
	c.normalize()
	return c.runConfig(i, c.Seeds()[i], nil)
}

func (c *Config) runConfig(i int, seed uint64, net *ran.Network) sim.RunConfig {
	return sim.RunConfig{
		Operator:      c.Operator,
		Scenario:      c.Scenario,
		Mobility:      c.Mobility,
		Modem:         c.Modem,
		Tech:          spectrum.NR,
		DurationS:     c.DurationS,
		StepS:         c.StepS,
		Seed:          seed,
		TODMultiplier: 1,
		Route:         i,
		Run:           0,
		Net:           net,
		Faults:        c.Faults,
	}
}

// Report summarizes a population build.
type Report struct {
	// Population / Shards / Traces count what was simulated and emitted.
	Population int
	Shards     int
	Traces     int
	// Samples is the total emitted sample count.
	Samples int64
	// MeanAggMbps is the population mean of per-UE mean throughput.
	MeanAggMbps float64
	// MaxAttached is the deepest per-cell contention observed (UEs
	// attached to one cell at one step).
	MaxAttached int
	// Faults aggregates fault injection across the population.
	Faults faults.Report
}

// shardResult is one shard's produced traces plus its contention stats.
type shardResult struct {
	traces      []trace.Trace
	stats       []sim.RunStats
	maxAttached int
}

// Build simulates the population and emits every UE's trace to the sink
// in UE order. Peak memory is bounded by workers x shard size — never by
// the population — so a city-scale campaign streams through a spilling
// sink. The sink is not closed; the caller owns its lifecycle. A
// panicking shard is rethrown, matching sim.BuildStream.
func Build(cfg Config, sink trace.Sink) (Report, error) {
	sp := obs.StartSpan("pop.build")
	cfg.normalize()
	if cfg.Population <= 0 {
		return Report{}, fmt.Errorf("pop: population must be positive, got %d", cfg.Population)
	}
	seeds := cfg.Seeds()
	gridSeed := seeds[0]
	nShards := (cfg.Population + cfg.ShardSize - 1) / cfg.ShardSize
	rep := Report{Population: cfg.Population, Shards: nShards}
	var aggSum float64
	t0 := time.Now()
	shardsDone := 0
	err := par.OrderedStream(context.Background(), nShards, cfg.Workers,
		func(si int) (shardResult, error) {
			return buildShard(&cfg, si, seeds, gridSeed), nil
		},
		func(si int, res shardResult) error {
			if res.maxAttached > rep.MaxAttached {
				rep.MaxAttached = res.maxAttached
			}
			for j, tr := range res.traces {
				st := res.stats[j]
				rep.Faults.Add(st.Faults)
				rep.Samples += int64(len(tr.Samples))
				aggSum += st.MeanAggMbps
				rep.Traces++
				if err := sink.Emit(tr); err != nil {
					return err
				}
			}
			shardsDone++
			if obs.Enabled() {
				// Per-shard progress for prismobs tail: done/total plus an
				// ETA extrapolated from the shards consumed so far.
				eta := time.Since(t0).Seconds() / float64(shardsDone) * float64(nShards-shardsDone)
				obs.Emit("pop.progress", map[string]any{
					"shards_done": shardsDone, "shards": nShards,
					"ues": rep.Traces, "population": cfg.Population, "eta_s": eta,
				})
			}
			return nil
		})
	if pe, ok := err.(*par.PanicError); ok {
		panic(pe.Value)
	}
	if rep.Traces > 0 {
		rep.MeanAggMbps = aggSum / float64(rep.Traces)
	}
	if reg := obs.Default(); reg.Enabled() {
		reg.Add("pop.ues_built", int64(rep.Traces))
		reg.Add("pop.shards_built", int64(rep.Shards))
		if wall := time.Since(t0).Seconds(); wall > 0 {
			reg.Set("pop.ues_per_s", float64(rep.Traces)/wall)
		}
		sp.EndWith(map[string]any{
			"population": rep.Population, "shards": rep.Shards,
			"traces": rep.Traces, "samples": rep.Samples,
			"max_attached": rep.MaxAttached, "faults": rep.Faults.Total(),
		})
	}
	return rep, err
}

// BuildDataset is Build materialized through a DatasetSink — the
// convenience path for tests and small populations.
func BuildDataset(cfg Config) (*trace.Dataset, Report, error) {
	d := &trace.Dataset{
		Name:  fmt.Sprintf("pop-%s-%s-%d", cfg.Operator, cfg.Mobility, cfg.Population),
		StepS: cfg.StepS,
	}
	rep, err := Build(cfg, trace.NewDatasetSink(d))
	if d.StepS == 0 {
		d.StepS = 1
	}
	return d, rep, err
}

// buildShard drives one shard's UEs in lock-step against its grid
// replica and returns their traces in UE order.
func buildShard(cfg *Config, si int, seeds []uint64, gridSeed uint64) shardResult {
	lo := si * cfg.ShardSize
	hi := lo + cfg.ShardSize
	if hi > cfg.Population {
		hi = cfg.Population
	}
	// Every shard rebuilds the same deployment: NewNetwork consumes the
	// grid stream exactly as the standalone Net==nil run would, which is
	// what keeps a population of one byte-identical to sim.Run.
	net := ran.NewNetwork(cfg.Operator, cfg.Scenario, rng.New(gridSeed))
	runners := make([]*sim.Runner, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rc := cfg.runConfig(i, seeds[i], net)
		runners = append(runners, sim.NewPopRunner(rc))
	}
	outside := float64(cfg.Population - (hi - lo))
	totRB := 0.0
	for _, c := range net.Cells {
		totRB += float64(c.NumRB)
	}

	// Lock-step warmup: one shared load step per tick, then every UE in
	// order. The loop form matches sim.Run's warmup exactly (same float
	// accumulation, same iteration count, the runs' default duration).
	applyMeanField(net, outside, cfg.Rush.ActiveFraction(0), totRB)
	warmupS := runners[0].Cfg().WarmupS
	for t := 0.0; t < warmupS; t += sim.WarmupStepS {
		net.StepLoads(1.0, sim.WarmupStepS)
		for _, r := range runners {
			r.WarmStep(sim.WarmupStepS)
		}
	}
	for _, r := range runners {
		r.BeginRecording()
	}

	steps := runners[0].Steps()
	maxAttached := 0
	reg := obs.Default()
	for s := 0; s < steps; s++ {
		applyMeanField(net, outside, cfg.Rush.ActiveFraction(float64(s)*cfg.StepS), totRB)
		net.StepLoads(1.0, cfg.StepS)
		for _, r := range runners {
			r.RecordStep()
		}
		for _, c := range net.Cells {
			n := c.Attached()
			if n > maxAttached {
				maxAttached = n
			}
			if reg.Enabled() {
				reg.Observe("pop.cell_attached", float64(n))
				reg.Observe("pop.cell_rb_util", rbUtilization(c, n))
			}
		}
	}

	res := shardResult{
		traces:      make([]trace.Trace, len(runners)),
		stats:       make([]sim.RunStats, len(runners)),
		maxAttached: maxAttached,
	}
	for j, r := range runners {
		res.traces[j], res.stats[j] = r.Finish()
	}
	return res
}

// applyMeanField sets every cell's out-of-shard population load: the
// active out-of-shard UEs associate to cells in proportion to capacity
// (NumRB), and each cell's expected occupancy is converted to utilization
// against its nominal UE capacity. Zero outside population (a single
// all-inclusive shard, or N=1) leaves the cells untouched — the
// bit-identity guarantee of the standalone path.
func applyMeanField(net *ran.Network, outside, activeFrac, totRB float64) {
	if outside <= 0 || totRB <= 0 {
		return
	}
	active := outside * activeFrac
	for _, c := range net.Cells {
		expUEs := active * float64(c.NumRB) / totRB
		c.SetPopLoad(expUEs / capacityUEs)
	}
}

// rbUtilization estimates a cell's resource-block utilization for the
// telemetry histogram: background-plus-population load, plus the share
// the scheduler grants its attached UEs (the share is split among them,
// so its total does not grow with contention depth).
func rbUtilization(c *ran.Cell, attached int) float64 {
	load := c.Load()
	util := load
	if attached > 0 {
		util += max(ran.BaseRBShare(load), ran.MinRBShare)
	}
	if util > 1 {
		return 1
	}
	return util
}
