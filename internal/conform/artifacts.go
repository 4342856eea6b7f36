package conform

import (
	"prism5g/internal/experiments"
	"prism5g/internal/faults"
	"prism5g/internal/mobility"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// The accessors below build (once per Ctx) every experiment artifact the
// goldens and checks consume. They are the single place TestHooks applies,
// so a perturbation is visible to the golden comparison and the invariant
// checks alike.

// Fig1 is the ideal-condition CC-scaling curve for OpZ / NR.
func (c *Ctx) Fig1() []experiments.CCScalingRow {
	return memoized(c, "fig1", func() []experiments.CCScalingRow {
		return experiments.Fig1IdealThroughputByCC(spectrum.OpZ, spectrum.NR, c.Cfg.Seed)
	})
}

// Table2 is the OpZ channel census.
func (c *Ctx) Table2() experiments.CensusResult {
	return memoized(c, "table2", func() experiments.CensusResult {
		return experiments.Table2ChannelCensus(spectrum.OpZ, c.Cfg.Seed)
	})
}

// Fig5 is the six-combo throughput violin summary.
func (c *Ctx) Fig5() []experiments.ComboViolinRow {
	return memoized(c, "fig5", func() []experiments.ComboViolinRow {
		return experiments.Fig5ComboViolins(c.Cfg.Seed)
	})
}

// Fig7 is the urban driving transition trace.
func (c *Ctx) Fig7() experiments.TransitionTraceResult {
	return memoized(c, "fig7", func() experiments.TransitionTraceResult {
		return experiments.Fig7TransitionTrace(c.Cfg.Seed)
	})
}

// Fig9 is the TBS(MCS, symbols) table, with the TBSDelta hook applied.
func (c *Ctx) Fig9() []experiments.TBSRow {
	return memoized(c, "fig9", func() []experiments.TBSRow {
		rows := experiments.Fig9TBSMapping()
		if Hooks.TBSDelta != 0 && len(rows) > 0 {
			rows[len(rows)/2].TBSBits += Hooks.TBSDelta
		}
		return rows
	})
}

// Fig10 is the per-band spectral-efficiency table (deterministic).
func (c *Ctx) Fig10() []experiments.EfficiencyRow {
	return memoized(c, "fig10", func() []experiments.EfficiencyRow {
		return experiments.Fig10SpectralEfficiency()
	})
}

// Fig11to13 is the intra- vs inter-band correlation pair, with the
// CorrFlip hook applied.
func (c *Ctx) Fig11to13() []experiments.CorrelationResult {
	return memoized(c, "fig11_13", func() []experiments.CorrelationResult {
		rows := experiments.Fig11to13Correlations(c.Cfg.Seed)
		if Hooks.CorrFlip {
			for i := range rows {
				if rows[i].Kind == "intra" {
					rows[i].PCellRSRPvsSCellRSRP = -rows[i].PCellRSRPvsSCellRSRP
				}
			}
		}
		return rows
	})
}

// Fig14 is the n25 CC-conditioning comparison (NonCA vs deep CA).
func (c *Ctx) Fig14() []experiments.CCConditioningRow {
	return memoized(c, "fig14", func() []experiments.CCConditioningRow {
		return experiments.Fig14MIMOReduction(c.Cfg.Seed)
	})
}

// Fig15 is the n41 RB-throttling comparison.
func (c *Ctx) Fig15() []experiments.CCConditioningRow {
	return memoized(c, "fig15", func() []experiments.CCConditioningRow {
		return experiments.Fig15RBThrottling(c.Cfg.Seed)
	})
}

// Table8 is the time-of-day dynamics table.
func (c *Ctx) Table8() []experiments.TemporalRow {
	return memoized(c, "table8", func() []experiments.TemporalRow {
		return experiments.Table8TemporalDynamics(c.Cfg.Seed)
	})
}

// tinyMLConfig is a seconds-scale learning setup: large enough to train and
// hold out two replay traces, small enough that the whole suite stays well
// inside its time budget.
func (c *Ctx) tinyMLConfig() experiments.MLConfig {
	return experiments.MLConfig{
		Traces: 4, SamplesPerTrace: 60, Stride: 3,
		Hidden: 6, Epochs: 4, Patience: 2, Seed: c.Cfg.Seed,
		Models:  []string{"LSTM", "Prism5G"},
		Workers: c.Cfg.Workers,
	}
}

// mlSpec is the sub-dataset the learning artifacts use.
func mlSpec() sim.SubDatasetSpec {
	return sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: sim.Long}
}

// Table4 is one tiny Table 4 cell: LSTM and Prism5G on OpZ-walking-long.
func (c *Ctx) Table4() []experiments.CellResult {
	return memoized(c, "table4", func() []experiments.CellResult {
		return experiments.Table4Cell(mlSpec(), c.tinyMLConfig())
	})
}

// Fig17 is the prediction-replay series on the same tiny setup.
func (c *Ctx) Fig17() experiments.SeriesResult {
	return memoized(c, "fig17", func() experiments.SeriesResult {
		return experiments.Fig17PredictionSeries(mlSpec(), c.tinyMLConfig())
	})
}

// rbTracePair is the over/under-budget run pair the RB-throttling check
// contrasts.
type rbTracePair struct {
	Over  trace.Trace // 100+40 MHz: the SCell always exceeds the FR1 budget
	Under trace.Trace // 20+40 MHz: the budget is unreachable
}

// RBTraces builds two stationary 2CC n41 runs at the same seed that differ
// only in the locked channel pair. In the Over pair the aggregate bandwidth
// exceeds the FR1 budget whichever channel wins the PCell, so the active
// SCell is throttled in every sample; in the Under pair the budget is
// unreachable. Sharing the seed keeps deployment and cell loads identical,
// leaving the budget throttle as the only systematic difference between
// the SCell RB shares.
func (c *Ctx) RBTraces() rbTracePair {
	return memoized(c, "rb_traces", func() rbTracePair {
		run := func(lock []string) trace.Trace {
			net, start := experiments.IdealStart(spectrum.OpZ, mobility.Urban, c.Cfg.Seed)
			tr, _ := sim.Run(sim.RunConfig{
				Operator: spectrum.OpZ, Scenario: net.Scenario, Mobility: mobility.Stationary,
				Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 40, StepS: 0.1,
				Seed: c.Cfg.Seed + 3, Start: &start, Net: net, TODMultiplier: 0.4,
				ChannelLock: lock,
			})
			return tr
		}
		return rbTracePair{
			Over:  run([]string{"n41^a", "n41^b"}),
			Under: run([]string{"n41^d", "n41^b"}),
		}
	})
}

// simReport pairs a built dataset with its fault report.
type simReport struct {
	DS     *trace.Dataset
	Faults faults.Report
}

// SimReport is a small clean sim.BuildReport dataset (3 traces x 60
// samples, OpZ walking at the long granularity).
func (c *Ctx) SimReport() simReport {
	return memoized(c, "sim_report", func() simReport {
		ds, rep := sim.BuildReport(mlSpec(), sim.BuildOpts{
			Traces: 3, SamplesPerTrace: 60, Seed: c.Cfg.Seed,
			Modem: ran.ModemX70, Workers: c.Cfg.Workers,
		})
		return simReport{DS: ds, Faults: rep}
	})
}

// SimShort is a small clean sim.BuildReport dataset at the 10 ms
// granularity (3 traces x 240 samples, each cut from a 45 s OpX drive).
// The seed offset puts the urban trace's cut inside an 8-CC mmWave set,
// so the golden pins co-channel interference and CA churn on the path
// where most steps skip the RRC evaluation.
func (c *Ctx) SimShort() simReport {
	return memoized(c, "sim_short", func() simReport {
		spec := sim.SubDatasetSpec{Operator: spectrum.OpX, Mobility: mobility.Driving, Gran: sim.Short}
		ds, rep := sim.BuildReport(spec, sim.BuildOpts{
			Traces: 3, SamplesPerTrace: 240, Seed: c.Cfg.Seed + 11,
			Modem: ran.ModemX70, Workers: c.Cfg.Workers,
		})
		return simReport{DS: ds, Faults: rep}
	})
}

// MIMOTrace is a stationary ideal run locked to the 4CC OpZ combo
// n41+n71+n25+n41. With two FDD carriers in the lock, at most one can be
// the PCell, so the other is guaranteed to exercise the deep-CA FDD-SCell
// conditioning path at any seed.
func (c *Ctx) MIMOTrace() trace.Trace {
	return memoized(c, "mimo_trace", func() trace.Trace {
		net, start := experiments.IdealStart(spectrum.OpZ, mobility.Urban, c.Cfg.Seed)
		tr, _ := sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: net.Scenario, Mobility: mobility.Stationary,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 40, StepS: 0.1,
			Seed: c.Cfg.Seed + 2, Start: &start, Net: net, TODMultiplier: 0.4,
			ChannelLock: []string{"n41^a", "n71^a", "n25^a", "n41^b"},
		})
		return tr
	})
}
