package sim

import (
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// WarmupStepS is the engine step used during the pre-recording warmup
// phase (coarser than the 10 ms sampling grid, finer than the 1 s one).
const WarmupStepS = 0.2

// Runner is one measurement run opened up step by step: the exact state
// machine Run drives, exposed so a population shard can interleave many
// UEs against one shared network in lock-step. The protocol is
//
//	r := NewRunner(cfg)            // or NewPopRunner for a shared net
//	for t := 0.0; t < cfg.WarmupS; t += WarmupStepS { r.WarmStep(WarmupStepS) }
//	r.BeginRecording()
//	for i := 0; i < r.Steps(); i++ { r.RecordStep() }
//	tr, stats := r.Finish()
//
// which is op-for-op what Run does, so a single-runner drive is
// byte-identical to Run (pinned by the conformance goldens).
type Runner struct {
	cfg   RunConfig
	net   *ran.Network
	eng   *ran.Engine
	sched *ran.Scheduler
	mv    *mobility.Mover

	tr         trace.Trace
	stats      RunStats
	slots      *slotTable
	eventMarks map[int]evMark
	indoor     bool
	// stepNet is whether RecordStep/WarmStep advance the network's load
	// processes. True for standalone runs (Run's historical behaviour,
	// even with an external cfg.Net); false under a population shard,
	// where the shard steps the shared network once per tick.
	stepNet bool

	t0      float64
	aggSum  float64
	prevCCs int
	steps   int
	done    int
}

// evMark is the event-channel annotation: the value to show and its
// deadline (events stay visible for eventHold seconds).
type evMark struct {
	sign  float64
	until float64
}

// NewRunner opens a measurement run. It consumes the run seed exactly as
// Run does: building a network when cfg.Net is nil costs one draw from
// the root stream, reusing an external one costs none.
func NewRunner(cfg RunConfig) *Runner {
	cfg.defaults()
	src := rng.New(cfg.Seed)
	net := cfg.Net
	if net == nil {
		net = ran.NewNetwork(cfg.Operator, cfg.Scenario, src)
	}
	return newRunner(cfg, net, src, true, cfg.steps())
}

// NewPopRunner opens a run against a shared population grid. cfg.Net must
// be set; the runner burns the one root-stream draw that building its own
// network would have consumed, so every downstream draw (engine,
// scheduler, mover) matches the standalone Net==nil run bit-for-bit —
// that is the N=1 conformance law. The runner does not step the shared
// network's load processes; the shard does, once per tick.
func NewPopRunner(cfg RunConfig) *Runner {
	if cfg.Net == nil {
		panic("sim: NewPopRunner requires cfg.Net")
	}
	cfg.defaults()
	return newRunner(cfg, cfg.Net, pastNetworkDraw(cfg.Seed), false, cfg.steps())
}

// pastNetworkDraw returns the root stream of the seed's run past the one
// draw NewNetwork takes from it, for a run on a network it did not deploy:
// the run's later draws are then those of a run deploying its own.
func pastNetworkDraw(seed uint64) *rng.Source {
	src := rng.New(seed)
	_ = src.Uint64() // NewNetwork's Split
	return src
}

// newRunner opens a run with storage for keep samples, the whole run's for
// a run that records every step.
func newRunner(cfg RunConfig, net *ran.Network, src *rng.Source, stepNet bool, keep int) *Runner {
	ue := ran.NewUE(cfg.Modem)
	rcfg := ran.DefaultConfig(cfg.Tech)
	rcfg.ReestablishDelayS = cfg.ReestablishDelayS
	eng := ran.NewEngine(net, ue, rcfg, src)
	if len(cfg.BandLock) > 0 {
		eng.LockBands(cfg.BandLock...)
	}
	if len(cfg.ChannelLock) > 0 {
		eng.LockChannels(cfg.ChannelLock...)
	}
	sched := ran.NewScheduler(src)

	start := mobility.Point{X: cfg.Scenario.ExtentM() * 0.5, Y: cfg.Scenario.ExtentM() * 0.5}
	if cfg.Scenario == mobility.Beltway {
		start = mobility.Point{X: 200, Y: 0}
	}
	if cfg.Start != nil {
		start = *cfg.Start
	}
	mv := mobility.NewMover(cfg.Scenario, cfg.Mobility, start, src)

	var samples []trace.Sample
	if keep > 0 {
		samples = make([]trace.Sample, 0, keep) // RecordStep fills it in place
	}
	return &Runner{
		cfg:   cfg,
		net:   net,
		eng:   eng,
		sched: sched,
		mv:    mv,
		tr: trace.Trace{
			Meta: trace.Meta{
				Operator:  string(cfg.Operator),
				Scenario:  cfg.Scenario.String(),
				Mobility:  cfg.Mobility.String(),
				Modem:     cfg.Modem.String(),
				Direction: cfg.Direction,
				Route:     cfg.Route,
				Run:       cfg.Run,
			},
			StepS:   cfg.StepS,
			Samples: samples,
		},
		stats:      RunStats{Census: spectrum.NewComboCensus()},
		slots:      newSlotTable(),
		eventMarks: map[int]evMark{},
		indoor:     cfg.Scenario.IsIndoor(),
		stepNet:    stepNet,
		prevCCs:    -1,
		steps:      cfg.steps(),
	}
}

// Cfg returns the normalized run configuration.
func (r *Runner) Cfg() RunConfig { return r.cfg }

// Steps returns the number of recorded samples the run produces.
func (r *Runner) Steps() int { return r.steps }

// WarmStep advances the run dt seconds without recording: the UE attaches
// and builds its CA set so traces start from a steady state.
func (r *Runner) WarmStep(dt float64) { r.advance(dt) }

// warmUp runs the warmup phase: WarmStep over cfg.WarmupS in WarmupStepS
// steps.
func (r *Runner) warmUp() {
	for t := 0.0; t < r.cfg.WarmupS; t += WarmupStepS {
		r.WarmStep(WarmupStepS)
	}
}

// BeginRecording rebases sample timestamps to the current engine clock;
// call once, between warmup and the first RecordStep.
func (r *Runner) BeginRecording() { r.t0 = r.eng.Now() }

// advance moves the run dt seconds: the UE, the network's load log and
// the engine. It returns the step's RRC events.
func (r *Runner) advance(dt float64) []ran.Event {
	moved := r.mv.Step(dt)
	r.stats.DistanceM += moved
	if r.stepNet {
		r.net.StepLoads(r.cfg.TODMultiplier, dt)
	}
	return r.eng.Step(r.mv.Pos(), moved, dt, r.indoor)
}

// track keeps what later samples read of a step at time at: its RRC
// events, their marks on the event channel and the slot table.
func (r *Runner) track(events []ran.Event, at float64) {
	for _, ev := range events {
		r.stats.Events = append(r.stats.Events, ev)
		if ev.Cell == nil {
			continue
		}
		switch ev.Type {
		case ran.EvSCellAdd, ran.EvSCellActivate, ran.EvPCellSwitch:
			r.eventMarks[ev.Cell.PCI] = evMark{sign: 1, until: at + eventHold}
		case ran.EvSCellRemove, ran.EvRadioLinkFailure:
			r.eventMarks[ev.Cell.PCI] = evMark{sign: -1, until: at + eventHold}
		}
	}
	r.slots.sync(r.eng.Serving())
}

// skipStep is RecordStep without the sample: it runs the scheduler's state
// phase alone and keeps what track keeps, so a RecordStep after it records
// what it would have after a RecordStep. It measures nothing.
func (r *Runner) skipStep() {
	events := r.advance(r.cfg.StepS)
	r.sched.Advance(r.eng, r.cfg.Mobility, r.cfg.StepS)
	r.track(events, r.eng.Now())
}

// RecordStep advances the run one sampling interval and appends the
// sample to the trace.
func (r *Runner) RecordStep() {
	events := r.advance(r.cfg.StepS)
	var snap ran.Snapshot
	if r.cfg.Direction == trace.DirectionUL {
		snap = r.sched.ObserveUL(r.eng, r.mv.Pos(), r.cfg.Mobility, r.indoor, events, r.cfg.StepS, r.cfg.UL)
	} else {
		snap = r.sched.Observe(r.eng, r.mv.Pos(), r.cfg.Mobility, r.indoor, events, r.cfg.StepS)
	}
	r.track(events, snap.At)

	r.tr.Samples = append(r.tr.Samples, trace.Sample{})
	s := &r.tr.Samples[len(r.tr.Samples)-1]
	s.T = snap.At - r.t0
	s.AggTput = snap.AggregateMbps
	s.NumActiveCCs = snap.NumActiveCCs
	for i := range snap.CCs {
		cc := &snap.CCs[i]
		slot, ok := r.slots.slotOf(cc.PCI)
		if !ok {
			continue // beyond MaxCC slots: contributes to aggregate only
		}
		dst := &s.CCs[slot]
		dst.Present = true
		dst.BandName = cc.Chan.Band.Name
		dst.ChannelID = cc.ChannelID
		dst.IsPCell = cc.IsPCell
		if cc.Active {
			dst.Vec[trace.FActive] = 1
		}
		if m, ok := r.eventMarks[cc.PCI]; ok && snap.At <= m.until {
			dst.Vec[trace.FEvent] = m.sign
		}
		dst.Vec[trace.FBWMHz] = cc.Chan.BandwidthMHz
		dst.Vec[trace.FFreqGHz] = cc.Chan.CenterMHz / 1000
		dst.Vec[trace.FRSRP] = cc.RSRPdBm
		dst.Vec[trace.FRSRQ] = cc.RSRQdB
		dst.Vec[trace.FSINR] = cc.SINRdB
		dst.Vec[trace.FCQI] = float64(cc.CQI)
		dst.Vec[trace.FBLER] = cc.BLER
		dst.Vec[trace.FRB] = cc.RB
		dst.Vec[trace.FLayers] = float64(cc.Layers)
		dst.Vec[trace.FMCS] = float64(cc.MCS)
		dst.Vec[trace.FTput] = cc.TputMbps
	}

	r.aggSum += snap.AggregateMbps
	if snap.AggregateMbps > r.stats.PeakAggMbps {
		r.stats.PeakAggMbps = snap.AggregateMbps
	}
	if snap.NumActiveCCs > r.stats.MaxActiveCCs {
		r.stats.MaxActiveCCs = snap.NumActiveCCs
	}
	if r.prevCCs >= 0 && snap.NumActiveCCs != r.prevCCs {
		r.stats.CCChangeCount++
	}
	r.prevCCs = snap.NumActiveCCs
	if key, setKey := r.eng.ComboKeys(); key != "" {
		r.stats.Census.ObserveKeys(key, setKey)
	}
	r.done++
}

// Finish closes the run: computes the mean, applies the fault plan,
// detaches the UE from the network (so attach counts never leak into a
// later run on a reused network) and returns the trace and statistics.
// The runner must not be stepped afterwards.
func (r *Runner) Finish() (trace.Trace, RunStats) {
	if r.done > 0 {
		r.stats.MeanAggMbps = r.aggSum / float64(r.done)
	}
	// Degrade the clean trace per the fault plan (no-op when nil). The
	// injector derives all randomness from the run seed, so a campaign is
	// reproducible clean or degraded from the same seed.
	r.stats.Faults = r.cfg.Faults.Apply(&r.tr, r.cfg.Seed^faultSeedSalt)
	r.eng.Release()
	countRun(len(r.tr.Samples), len(r.stats.Events), r.stats.CCChangeCount, r.stats.Faults.Total())
	return r.tr, r.stats
}

// countRun adds one finished run to the sim.* counters: its samples, RRC
// events, active-CC-count changes and injected faults.
func countRun(samples, events, ccChanges, faults int) {
	if reg := obs.Default(); reg.Enabled() {
		reg.Add("sim.traces_built", 1)
		reg.Add("sim.samples_generated", int64(samples))
		reg.Add("sim.rrc_events", int64(events))
		reg.Add("sim.cc_changes", int64(ccChanges))
		reg.Add("sim.faults_injected", int64(faults))
	}
}
