// Package sim is the measurement-campaign generator: the stand-in for the
// paper's XCAL-instrumented drive/walk testing over commercial carrier
// networks. It wires the mobility, RAN and PHY substrates together and emits
// traces in the trace package's format, at the paper's two granularities
// (10 ms and 1 s), across operators, scenarios, mobility patterns and UE
// models (paper Tables 1 and 11).
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"prism5g/internal/faults"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/par"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// RunConfig describes one measurement run.
type RunConfig struct {
	Operator spectrum.Operator
	Scenario mobility.Scenario
	Mobility mobility.Mobility
	Modem    ran.Modem
	// Tech selects 4G or 5G measurement (the paper collects both).
	Tech spectrum.Tech
	// DurationS is the run length in simulated seconds.
	DurationS float64
	// StepS is the sampling interval: 0.01 (short) or 1 (long).
	StepS float64
	// Seed makes the run reproducible.
	Seed uint64
	// BandLock restricts usable bands (paper methodology [C1]).
	BandLock []string
	// ChannelLock restricts usable channels by ID ("n41^a"); finer than
	// BandLock, used for the single-channel comparisons (paper Fig 6).
	ChannelLock []string
	// TODMultiplier scales background load for time-of-day effects
	// (1.0 = the paper's midnight baseline, ~1.9 = rush hour).
	TODMultiplier float64
	// Start optionally pins the UE start position.
	Start *mobility.Point
	// WarmupS runs the engine before recording so traces start from a
	// steady CA state rather than the initial attach ramp. Negative
	// disables warmup; zero means the 8 s default.
	WarmupS float64
	// Route / Run label the trace for generalizability splits.
	Route, Run int
	// Net optionally reuses an existing network (so multiple runs see
	// the same deployment); nil builds one from the seed.
	Net *ran.Network
	// Faults optionally degrades the generated trace (radio link
	// failures, handover/activation failures, sensor corruption, log
	// gaps). Nil generates a clean trace; the same seed with and without
	// a plan yields the same underlying campaign, degraded or not.
	Faults *faults.FaultPlan
	// ReestablishDelayS sets the engine's RRC re-establishment outage
	// after an in-simulation radio link failure (0 = instant reselect,
	// the historical behaviour).
	ReestablishDelayS float64
	// Direction selects which link the trace records:
	// trace.DirectionDL (the default, empty) or trace.DirectionUL. An
	// uplink run evolves the exact same campaign (same rng sequence,
	// same serving sets) but records UL goodput under the asymmetric UL
	// schedule of cfg.UL.
	Direction string
	// UL parameterizes the uplink schedule for Direction == DirectionUL
	// runs; zero fields take ran.DefaultULConfig values.
	UL ran.ULConfig
}

func (c *RunConfig) defaults() {
	if c.DurationS == 0 {
		c.DurationS = 60
	}
	if c.StepS == 0 {
		c.StepS = 1
	}
	if c.TODMultiplier == 0 {
		c.TODMultiplier = 1
	}
	if c.WarmupS == 0 {
		c.WarmupS = 8
	}
}

// RunStats summarizes a run beyond the trace itself.
type RunStats struct {
	Events        []ran.Event
	Census        *spectrum.ComboCensus
	DistanceM     float64
	MaxActiveCCs  int
	PeakAggMbps   float64
	MeanAggMbps   float64
	CCChangeCount int
	// Faults reports what the run's fault plan injected (zero if clean).
	Faults faults.Report
}

// eventHold is how long (seconds) an RRC event stays visible in the event
// feature channel; roughly the activation delay, so that the feature leads
// the throughput transition.
const eventHold = 0.3

// Run executes one measurement run and returns its trace and statistics.
//
// Telemetry (when the obs default registry is enabled): one
// "sim.trace_build" span per run plus the sim.* counters. None of it
// feeds back into the simulation — the trace is byte-identical with
// telemetry on or off (the conform telemetry-transparency law).
func Run(cfg RunConfig) (trace.Trace, RunStats) {
	sp := obs.StartSpan("sim.trace_build")
	cfg.defaults()
	r := NewRunner(cfg)
	// Warm up: let the UE attach and build its CA set before recording.
	for t := 0.0; t < cfg.WarmupS; t += WarmupStepS {
		r.WarmStep(WarmupStepS)
	}
	r.BeginRecording()
	for i, n := 0, r.Steps(); i < n; i++ {
		r.RecordStep()
	}
	tr, stats := r.Finish()
	if reg := obs.Default(); reg.Enabled() {
		sp.EndWith(map[string]any{
			"operator": string(cfg.Operator), "scenario": cfg.Scenario.String(),
			"samples": len(tr.Samples), "events": len(stats.Events),
			"faults": stats.Faults.Total(),
		})
	}
	return tr, stats
}

// faultSeedSalt separates the fault layer's rng domain from the
// simulation's own seed usage.
const faultSeedSalt = 0xfa_17_5e_ed

// slotTable assigns serving CCs to stable trace slots: the PCell always
// occupies slot 0; SCells take the lowest free slot and keep it while
// configured.
type slotTable struct {
	byPCI map[int]int
	used  [trace.MaxCC]bool
}

func newSlotTable() *slotTable {
	return &slotTable{byPCI: map[int]int{}}
}

// sync reconciles the table with the current serving set.
func (st *slotTable) sync(ccs []ran.CCObservation) {
	var pcellPCI int
	hasPCell := false
	for _, cc := range ccs {
		if cc.IsPCell {
			pcellPCI, hasPCell = cc.PCI, true
		}
	}
	// Release departed CCs.
	for pci, slot := range st.byPCI {
		if !slices.ContainsFunc(ccs, func(cc ran.CCObservation) bool { return cc.PCI == pci }) {
			st.used[slot] = false
			delete(st.byPCI, pci)
		}
	}
	// PCell owns slot 0: evict any SCell holding it.
	if hasPCell {
		if slot, ok := st.byPCI[pcellPCI]; !ok || slot != 0 {
			if ok {
				st.used[slot] = false
				delete(st.byPCI, pcellPCI)
			}
			if holder, held := st.slotHolder(0); held {
				// Move the squatter to a free slot if any.
				st.used[0] = false
				delete(st.byPCI, holder)
				if free, ok := st.freeSlot(1); ok {
					st.byPCI[holder] = free
					st.used[free] = true
				}
			}
			st.byPCI[pcellPCI] = 0
			st.used[0] = true
		}
	}
	// Assign remaining CCs.
	for _, cc := range ccs {
		if _, ok := st.byPCI[cc.PCI]; ok {
			continue
		}
		if free, ok := st.freeSlot(1); ok {
			st.byPCI[cc.PCI] = free
			st.used[free] = true
		}
	}
}

func (st *slotTable) slotHolder(slot int) (int, bool) {
	for pci, s := range st.byPCI {
		if s == slot {
			return pci, true
		}
	}
	return 0, false
}

func (st *slotTable) freeSlot(from int) (int, bool) {
	for i := from; i < trace.MaxCC; i++ {
		if !st.used[i] {
			return i, true
		}
	}
	return 0, false
}

func (st *slotTable) slotOf(pci int) (int, bool) {
	s, ok := st.byPCI[pci]
	return s, ok
}

// Granularity selects the paper's two dataset time scales.
type Granularity uint8

const (
	// Short is the 10 ms scale with a 100 ms prediction horizon.
	Short Granularity = iota
	// Long is the 1 s scale with a 10 s prediction horizon.
	Long
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	if g == Short {
		return "short"
	}
	return "long"
}

// ParseGranularity maps a granularity's exact String form to the
// granularity.
func ParseGranularity(s string) (Granularity, error) {
	for _, g := range []Granularity{Short, Long} {
		if g.String() == s {
			return g, nil
		}
	}
	return 0, fmt.Errorf("unknown granularity %q (want short or long)", s)
}

// StepS returns the sampling interval of the granularity.
func (g Granularity) StepS() float64 {
	if g == Short {
		return 0.01
	}
	return 1
}

// SubDatasetSpec identifies one of the six ML sub-datasets of Table 11.
type SubDatasetSpec struct {
	Operator spectrum.Operator
	Mobility mobility.Mobility
	Gran     Granularity
}

// Name returns the canonical sub-dataset name, e.g. "OpZ-driving-short".
func (s SubDatasetSpec) Name() string {
	return fmt.Sprintf("%s-%s-%s", s.Operator, s.Mobility, s.Gran)
}

// AllSubDatasets enumerates the paper's 6 sub-datasets at one granularity:
// {OpX, OpY, OpZ} x {walking, driving}.
func AllSubDatasets(g Granularity) []SubDatasetSpec {
	var out []SubDatasetSpec
	for _, op := range spectrum.AllOperators() {
		for _, mob := range []mobility.Mobility{mobility.Walking, mobility.Driving} {
			out = append(out, SubDatasetSpec{Operator: op, Mobility: mob, Gran: g})
		}
	}
	return out
}

// BuildOpts controls dataset building.
type BuildOpts struct {
	// TracesPerScenario is the number of traces (paper: 10).
	Traces int
	// SamplesPerTrace is the trace length in samples (paper: 300-600).
	SamplesPerTrace int
	// Seed derives all randomness.
	Seed uint64
	// Modem is the UE used (paper's ML data comes from 3-4CC phones).
	Modem ran.Modem
	// Faults optionally degrades every generated trace; nil builds the
	// historical clean dataset.
	Faults *faults.FaultPlan
	// Workers bounds the trace-generation worker pool: 0 = one worker per
	// CPU, 1 = the legacy serial path. Every trace draws its seed from the
	// build's root stream before any worker starts, so the dataset is
	// byte-identical at every worker count.
	Workers int
	// Direction selects the recorded link for every trace of the build
	// (trace.DirectionDL when empty); UL parameterizes the uplink
	// schedule of DirectionUL builds.
	Direction string
	UL        ran.ULConfig
	// BandLock restricts every run of the build to the named bands
	// (paper methodology [C1]); nil leaves band selection free.
	BandLock []string
}

// DefaultBuildOpts mirrors Table 11: 10 traces, ~450 samples each.
func DefaultBuildOpts(seed uint64) BuildOpts {
	return BuildOpts{Traces: 10, SamplesPerTrace: 450, Seed: seed, Modem: ran.ModemX70}
}

// Build generates the sub-dataset: traces alternate between urban and
// suburban scenarios for driving, and urban/indoor for walking, like the
// paper's scenario mix.
func Build(spec SubDatasetSpec, opts BuildOpts) *trace.Dataset {
	d, _ := BuildReport(spec, opts)
	return d
}

// BuildReport is Build also returning the aggregate fault-injection report
// (zero when BuildOpts.Faults is nil).
//
// Traces of a sub-dataset are independent runs, so they are generated on a
// bounded worker pool (BuildOpts.Workers). Determinism contract: every
// trace's seed is drawn from the root stream in index order before any
// worker starts, each run derives all randomness from its own seed, and the
// results are assembled in index order — the dataset is byte-identical to
// the serial build at any worker count.
func BuildReport(spec SubDatasetSpec, opts BuildOpts) (*trace.Dataset, faults.Report) {
	d := &trace.Dataset{Name: spec.Name(), StepS: spec.Gran.StepS()}
	report, err := BuildStream(spec, opts, trace.NewDatasetSink(d))
	if err != nil {
		// The materializing sink cannot fail; any error here is a produce
		// panic already rethrown by BuildStream.
		panic(err)
	}
	return d, report
}

// buildDefaults normalizes BuildOpts like BuildReport historically did:
// zero Traces selects the Table 11 defaults while keeping the caller's
// seed, fault plan and worker count.
func buildDefaults(opts BuildOpts) BuildOpts {
	if opts.Traces == 0 {
		keep := opts
		opts = DefaultBuildOpts(opts.Seed)
		opts.Faults = keep.Faults
		opts.Workers = keep.Workers
		opts.Direction = keep.Direction
		opts.UL = keep.UL
		opts.BandLock = keep.BandLock
	}
	return opts
}

// BuildConfigs returns the per-trace run configurations of a sub-dataset
// build, seeds included, in trace order. This is the sub-dataset's
// determinism contract made explicit: trace i of Build(spec, opts) is
// Run(BuildConfigs(spec, opts)[i]) (cut around its first CA transition at
// the short granularity). The population and conformance layers use it to
// replicate individual build traces.
func BuildConfigs(spec SubDatasetSpec, opts BuildOpts) []RunConfig {
	opts = buildDefaults(opts)
	seedSrc := rng.New(opts.Seed ^ uint64(len(spec.Name()))*0x9e37)
	cfgs := make([]RunConfig, opts.Traces)
	for i := 0; i < opts.Traces; i++ {
		sc := mobility.Urban
		if spec.Mobility == mobility.Driving {
			if i%3 == 1 {
				sc = mobility.Suburban
			} else if i%3 == 2 {
				sc = mobility.Beltway
			}
		} else if i%2 == 1 {
			sc = mobility.Indoor
		}
		dur := float64(opts.SamplesPerTrace) * spec.Gran.StepS()
		if spec.Gran == Short {
			// The 10 ms sub-datasets must cover CA transitions (the
			// paper's Z1/Z2 analysis depends on them), but at 4-6 s per
			// segment a random cut usually misses one. Simulate a longer
			// run and cut the segment around the first CC-count change,
			// exactly how transition-focused trace segments are
			// extracted from a continuous drive log.
			dur = math.Max(45, 3*dur)
		}
		cfgs[i] = RunConfig{
			Operator:  spec.Operator,
			Scenario:  sc,
			Mobility:  spec.Mobility,
			Modem:     opts.Modem,
			Tech:      spectrum.NR,
			DurationS: dur,
			StepS:     spec.Gran.StepS(),
			Seed:      seedSrc.Uint64(),
			BandLock:  opts.BandLock,
			Route:     i / 2,
			Run:       i % 2,
			Faults:    opts.Faults,
			Direction: opts.Direction,
			UL:        opts.UL,
		}
	}
	return cfgs
}

// BuildStream generates the sub-dataset, emitting each completed trace to
// the sink in trace order instead of materializing a Dataset. Traces are
// produced on the bounded worker pool with a bounded reorder window, so
// peak memory is a function of the worker count, not the trace count —
// this is what lets a population-scale campaign spill to disk as it runs.
//
// The determinism contract matches BuildReport: per-trace seeds are drawn
// serially in index order before any worker starts, and the sink sees
// traces in index order — the emitted stream is byte-identical at every
// worker count. The sink is not closed; the caller owns its lifecycle.
// The first sink error stops the build and is returned; a panicking run
// is rethrown as *par.PanicError.
func BuildStream(spec SubDatasetSpec, opts BuildOpts, sink trace.Sink) (faults.Report, error) {
	sp := obs.StartSpan("sim.build")
	opts = buildDefaults(opts)
	cfgs := BuildConfigs(spec, opts)
	var report faults.Report
	emitted := 0
	err := par.OrderedStream(context.Background(), opts.Traces, opts.Workers,
		func(i int) (built, error) {
			tr, stats := Run(cfgs[i])
			if spec.Gran == Short {
				tr = CutAroundTransition(tr, opts.SamplesPerTrace)
			}
			return built{tr: tr, stats: stats}, nil
		},
		func(i int, b built) error {
			report.Add(b.stats.Faults)
			emitted++
			return sink.Emit(b.tr)
		})
	if pe, ok := err.(*par.PanicError); ok {
		// Preserve the crash semantics of the serial loop (and of the
		// historical MustMap-based build).
		panic(pe.Value)
	}
	obs.Add("sim.datasets_built", 1)
	sp.EndWith(map[string]any{
		"dataset": spec.Name(), "traces": emitted, "faults": report.Total(),
	})
	return report, err
}

// built pairs one generated trace with its run statistics.
type built struct {
	tr    trace.Trace
	stats RunStats
}

// CutAroundTransition returns the n-sample segment of tr containing the
// most active-CC-count changes (ties broken toward the earliest segment);
// without any transition it returns the head of the trace. Sample
// timestamps are rebased to start at zero. This mirrors how transition-rich
// segments (the paper's Z1/Z2 areas) are extracted from a continuous drive
// log.
func CutAroundTransition(tr trace.Trace, n int) trace.Trace {
	if n <= 0 || n >= len(tr.Samples) {
		return tr
	}
	// Transition indicator per sample.
	N := len(tr.Samples)
	trans := make([]int, N)
	for i := 1; i < N; i++ {
		if tr.Samples[i].NumActiveCCs != tr.Samples[i-1].NumActiveCCs {
			trans[i] = 1
		}
	}
	// Sliding-window count, keeping the transition away from the very
	// edges by evaluating interior coverage only: trans[i] records the
	// change between samples i-1 and i, so for a window [s, s+n) only
	// trans[s+1 .. s+n-1] are interior — trans[s] happened against sample
	// s-1 outside the window and must not be credited to it.
	count := 0
	for i := 1; i < n; i++ {
		count += trans[i]
	}
	best, bestStart := count, 0
	for startIdx := 1; startIdx+n <= N; startIdx++ {
		count += trans[startIdx+n-1] - trans[startIdx]
		if count > best {
			best, bestStart = count, startIdx
		}
	}
	start := bestStart
	out := tr
	out.Samples = append([]trace.Sample(nil), tr.Samples[start:start+n]...)
	t0 := out.Samples[0].T
	for i := range out.Samples {
		out.Samples[i].T -= t0
	}
	return out
}
