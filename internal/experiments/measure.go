// Package experiments implements the paper's evaluation: one function per
// table or figure, and Artifacts (artifacts.go), the one table of entries
// that renders each table and figure for cmd/prismeval and the root
// BenchmarkPaper. Measurement experiments (this file) exercise the
// simulator; learning experiments (ml.go) train and compare predictors; QoE
// experiments (qoe.go) drive the two applications; cell.go runs the
// scenario-grid cells.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/par"
	"prism5g/internal/phy"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// IdealStart returns a network and a line-of-sight start point next to the
// site carrying the most NR channels — the paper's "ideal channel
// condition" setup (stationary, LOS to the base station).
func IdealStart(op spectrum.Operator, sc mobility.Scenario, seed uint64) (*ran.Network, mobility.Point) {
	net := ran.NewNetwork(op, sc, rng.New(seed))
	bestSite, bestCount := 0, -1
	for si := range net.Deploy.Sites {
		count := 0
		for _, c := range net.CellsAtSite(si) {
			if c.Chan.Band.Tech == spectrum.NR {
				count++
			}
		}
		if count > bestCount {
			bestSite, bestCount = si, count
		}
	}
	p := net.Deploy.Sites[bestSite]
	return net, mobility.Point{X: p.X + 60, Y: p.Y}
}

// idealRun executes a stationary band/channel-locked run at the ideal spot.
func idealRun(net *ran.Network, start mobility.Point, op spectrum.Operator, tech spectrum.Tech, modem ran.Modem, chanLock []string, seed uint64) (trace.Trace, sim.RunStats) {
	return sim.Run(sim.RunConfig{
		Operator: op, Scenario: net.Scenario, Mobility: mobility.Stationary,
		Modem: modem, Tech: tech, DurationS: 40, StepS: 0.1, Seed: seed,
		Start: &start, Net: net, TODMultiplier: 0.4, ChannelLock: chanLock,
	})
}

// CCScalingRow is one point of Fig 1/23: throughput at a CC count.
type CCScalingRow struct {
	Operator spectrum.Operator
	Tech     spectrum.Tech
	NumCCs   int
	Combo    string
	MeanMbps float64
	PeakMbps float64
	AggBWMHz float64
}

// Fig1IdealThroughputByCC reproduces Fig 1/23: peak and mean throughput
// under ideal channel conditions as CCs accumulate, per operator and
// technology. CC depth is controlled by locking the k widest co-sited
// channels.
func Fig1IdealThroughputByCC(op spectrum.Operator, tech spectrum.Tech, seed uint64) []CCScalingRow {
	defer obs.StartSpan("experiments.Fig1IdealThroughputByCC").End()
	net, start := IdealStart(op, mobility.Urban, seed)
	// Channels co-sited at the ideal site for this tech, widest first.
	site, _ := net.Deploy.Nearest(start)
	var chans []spectrum.Channel
	for _, c := range net.CellsAtSite(site) {
		if c.Chan.Band.Tech == tech {
			chans = append(chans, c.Chan)
		}
	}
	// Narrowest first: the figure stacks CCs from the coverage carrier up,
	// so the curve shows CA multiplying throughput as wider carriers join.
	sort.Slice(chans, func(i, j int) bool { return chans[i].BandwidthMHz < chans[j].BandwidthMHz })
	maxK := len(chans)
	cap := 5
	if tech == spectrum.NR {
		cap = 8
	}
	if maxK > cap {
		maxK = cap
	}
	var rows []CCScalingRow
	for k := 1; k <= maxK; k++ {
		lock := make([]string, 0, k)
		bw := 0.0
		for _, c := range chans[:k] {
			lock = append(lock, c.ID())
			bw += c.BandwidthMHz
		}
		_, st := idealRun(net, start, op, tech, ran.ModemX70, lock, seed+uint64(k))
		rows = append(rows, CCScalingRow{
			Operator: op, Tech: tech, NumCCs: st.MaxActiveCCs,
			Combo: strings.Join(lock, "+"), MeanMbps: st.MeanAggMbps,
			PeakMbps: st.PeakAggMbps, AggBWMHz: bw,
		})
	}
	return rows
}

// ModesResult summarizes Fig 2/24: the multimodal throughput distribution.
type ModesResult struct {
	Tech     spectrum.Tech
	Modes    []float64
	Mean     float64
	Std      float64
	PeakMbps float64
}

// Fig2Multimodality reproduces Fig 2/24: driving throughput distributions
// are multimodal because different areas offer different CA combos.
func Fig2Multimodality(op spectrum.Operator, tech spectrum.Tech, seed uint64) ModesResult {
	defer obs.StartSpan("experiments.Fig2Multimodality").End()
	var all []float64
	for i := 0; i < 4; i++ {
		tr, _ := sim.Run(sim.RunConfig{
			Operator: op, Scenario: mobility.Urban, Mobility: mobility.Driving,
			Modem: ran.ModemX70, Tech: tech, DurationS: 150, StepS: 0.1,
			Seed: seed + uint64(i)*101,
		})
		all = append(all, tr.AggSeries()...)
	}
	v := stats.Violin(all)
	h := stats.NewHistogram(0, v.Max+1, 30)
	for _, x := range all {
		h.Add(x)
	}
	return ModesResult{
		Tech: tech, Modes: h.Modes(0.02, 2),
		Mean: v.Mean, Std: v.Std, PeakMbps: v.Max,
	}
}

// CensusResult captures Tables 1/2/6/7: channels and combinations observed.
type CensusResult struct {
	Operator      spectrum.Operator
	Channels4G    int
	Channels5G    int
	Ordered4G     int
	Unique4G      int
	Ordered5G     int
	Unique5G      int
	TopCombos5G   []string
	MaxAggBW5GMHz float64
	Max4GCCs      int
	Max5GCCs      int
	DistanceKM    float64
	DurationMin   float64
}

// Table2ChannelCensus reproduces the channel/combination census of Tables
// 1/2(b)/7 by driving all scenarios.
func Table2ChannelCensus(op spectrum.Operator, seed uint64) CensusResult {
	defer obs.StartSpan("experiments.Table2ChannelCensus").End()
	res := CensusResult{Operator: op}
	plan := spectrum.PlanFor(op)
	for _, c := range plan.Channels {
		if c.Band.Tech == spectrum.LTE {
			res.Channels4G++
		} else {
			res.Channels5G++
		}
	}
	census4, census5 := spectrum.NewComboCensus(), spectrum.NewComboCensus()
	for i, sc := range []mobility.Scenario{mobility.Urban, mobility.Suburban, mobility.Beltway} {
		for _, tech := range []spectrum.Tech{spectrum.LTE, spectrum.NR} {
			_, st := sim.Run(sim.RunConfig{
				Operator: op, Scenario: sc, Mobility: mobility.Driving,
				Modem: ran.ModemX70, Tech: tech, DurationS: 200, StepS: 0.2,
				Seed: seed + uint64(i)*7 + uint64(tech),
			})
			res.DistanceKM += st.DistanceM / 1000
			res.DurationMin += 200.0 / 60
			target := census5
			if tech == spectrum.LTE {
				target = census4
			}
			for _, key := range st.Census.Keys() {
				for n := 0; n < st.Census.Count(key); n++ {
					target.Observe(comboFromKey(plan, key))
				}
			}
			if tech == spectrum.LTE {
				if st.MaxActiveCCs > res.Max4GCCs {
					res.Max4GCCs = st.MaxActiveCCs
				}
			} else if st.MaxActiveCCs > res.Max5GCCs {
				res.Max5GCCs = st.MaxActiveCCs
			}
		}
	}
	res.Ordered4G, res.Unique4G = census4.OrderedCount(), census4.SetCount()
	res.Ordered5G, res.Unique5G = census5.OrderedCount(), census5.SetCount()
	keys := census5.Keys()
	for i := 0; i < len(keys) && i < 5; i++ {
		res.TopCombos5G = append(res.TopCombos5G, keys[i])
		bw := comboFromKey(plan, keys[i]).AggregateBandwidthMHz()
		if bw > res.MaxAggBW5GMHz {
			res.MaxAggBW5GMHz = bw
		}
	}
	return res
}

// comboFromKey rebuilds a Combo from its ordered key using the plan's
// channel identities.
func comboFromKey(plan spectrum.Plan, key string) spectrum.Combo {
	var combo spectrum.Combo
	for _, id := range strings.Split(key, "+") {
		for _, c := range plan.Channels {
			if c.ID() == id {
				combo = append(combo, c)
				break
			}
		}
	}
	return combo
}

// GridCell is one cell of the Fig 4 urban CA map.
type GridCell struct {
	X, Y    int
	MeanCCs float64
	Samples int
}

// Fig4UrbanCAMap reproduces Fig 4: the spatial distribution of observed CC
// counts over a ~1 km² urban area, on a 100 m grid.
func Fig4UrbanCAMap(op spectrum.Operator, seed uint64) []GridCell {
	defer obs.StartSpan("experiments.Fig4UrbanCAMap").End()
	net := ran.NewNetwork(op, mobility.Urban, rng.New(seed))
	type acc struct {
		sum float64
		n   int
	}
	grid := map[[2]int]*acc{}
	for r := 0; r < 4; r++ {
		src := rng.New(seed + uint64(r)*31)
		eng := ran.NewEngine(net, ran.NewUE(ran.ModemX70), ran.DefaultConfig(spectrum.NR), src)
		mv := mobility.NewMover(mobility.Urban, mobility.Driving,
			mobility.Point{X: 300 + 300*float64(r), Y: 750}, src)
		for i := 0; i < 1200; i++ {
			moved := mv.Step(0.2)
			net.StepLoads(1, 0.2)
			eng.Step(mv.Pos(), moved, 0.2, false)
			active := 0
			for _, s := range eng.Serving() {
				if s.Active(eng.Now()) {
					active++
				}
			}
			gx, gy := mobility.GridCell(mv.Pos(), 100)
			a := grid[[2]int{gx, gy}]
			if a == nil {
				a = &acc{}
				grid[[2]int{gx, gy}] = a
			}
			a.sum += float64(active)
			a.n++
		}
	}
	var out []GridCell
	for k, a := range grid {
		out = append(out, GridCell{X: k[0], Y: k[1], MeanCCs: a.sum / float64(a.n), Samples: a.n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// ComboViolinRow is one Fig 5 violin: a CA combo's throughput distribution.
type ComboViolinRow struct {
	Operator spectrum.Operator
	Combo    string
	AggBWMHz float64
	Summary  stats.ViolinSummary
}

// Fig5ComboViolins reproduces Fig 5: throughput distributions of six CA
// combos from 2 to 4 CCs, showing that equal aggregate bandwidth does not
// mean equal performance.
func Fig5ComboViolins(seed uint64) []ComboViolinRow {
	defer obs.StartSpan("experiments.Fig5ComboViolins").End()
	type comboSpec struct {
		op   spectrum.Operator
		lock []string
	}
	specs := []comboSpec{
		{spectrum.OpZ, []string{"n41^a", "n25^a"}},                   // 120 MHz 2CC inter
		{spectrum.OpX, []string{"n77^a", "n77^b"}},                   // 140 MHz 2CC intra (X)
		{spectrum.OpY, []string{"n77^c", "n77^d"}},                   // 160 MHz 2CC intra (Y)
		{spectrum.OpZ, []string{"n41^a", "n25^a", "n41^b"}},          // 160 MHz 3CC
		{spectrum.OpZ, []string{"n41^a", "n71^a", "n25^a", "n41^b"}}, // 180 MHz 4CC
		{spectrum.OpZ, []string{"n41^a", "n71^a", "n25^a", "n41^d"}}, // 160 MHz 4CC variant
	}
	// Each combo is an independent seeded run; fan them out (results stay
	// in spec order, identical at any worker count).
	return par.MustMap(context.Background(), len(specs), 0, func(i int) ComboViolinRow {
		cs := specs[i]
		net, start := IdealStart(cs.op, mobility.Urban, seed+uint64(i))
		tr, _ := idealRun(net, start, cs.op, spectrum.NR, ran.ModemX70, cs.lock, seed+uint64(i)*13)
		plan := spectrum.PlanFor(cs.op)
		bw := 0.0
		for _, id := range cs.lock {
			for _, c := range plan.Channels {
				if c.ID() == id {
					bw += c.BandwidthMHz
				}
			}
		}
		return ComboViolinRow{
			Operator: cs.op,
			Combo:    strings.Join(cs.lock, "+"),
			AggBWMHz: bw,
			Summary:  stats.Violin(tr.AggSeries()),
		}
	})
}

// AggregateVsSumResult captures Fig 6: the aggregate is not the sum.
type AggregateVsSumResult struct {
	AloneA, AloneB   float64 // mean Mbps of each channel alone
	Aggregate        float64 // mean Mbps of the 2CC aggregate
	TheoreticalSum   float64
	MeanDeficitPct   float64
	MaxDeficitPct    float64 // deepest instantaneous shortfall vs sum
	SeriesA, SeriesB []float64
	SeriesAgg        []float64
}

// Fig6AggregateVsSum reproduces Fig 6 with n41 and n25 measured alone and
// aggregated at the same location.
func Fig6AggregateVsSum(seed uint64) AggregateVsSumResult {
	defer obs.StartSpan("experiments.Fig6AggregateVsSum").End()
	net, start := IdealStart(spectrum.OpZ, mobility.Urban, seed)
	trA, stA := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70, []string{"n41^a"}, seed+1)
	trB, stB := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70, []string{"n25^a"}, seed+2)
	trC, stC := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70, []string{"n41^a", "n25^a"}, seed+3)
	sum := stA.MeanAggMbps + stB.MeanAggMbps
	res := AggregateVsSumResult{
		AloneA: stA.MeanAggMbps, AloneB: stB.MeanAggMbps,
		Aggregate: stC.MeanAggMbps, TheoreticalSum: sum,
		MeanDeficitPct: 100 * (1 - stC.MeanAggMbps/sum),
		SeriesA:        trA.AggSeries(), SeriesB: trB.AggSeries(), SeriesAgg: trC.AggSeries(),
	}
	for _, v := range res.SeriesAgg {
		d := 100 * (1 - v/sum)
		if d > res.MaxDeficitPct {
			res.MaxDeficitPct = d
		}
	}
	return res
}

// TransitionTraceResult captures Fig 7: a driving trace with CC add/remove
// events and the induced throughput swings.
type TransitionTraceResult struct {
	Trace        trace.Trace
	Events       []ran.Event
	CCChanges    int
	MaxStepRatio float64 // largest 1-second throughput ratio change
}

// Fig7TransitionTrace reproduces Fig 7: a 120 s urban driving segment where
// CC changes move throughput by hundreds of Mbps within a second.
func Fig7TransitionTrace(seed uint64) TransitionTraceResult {
	defer obs.StartSpan("experiments.Fig7TransitionTrace").End()
	tr, st := sim.Run(sim.RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 120, StepS: 0.1, Seed: seed,
	})
	res := TransitionTraceResult{Trace: tr, Events: st.Events, CCChanges: st.CCChangeCount}
	series := tr.AggSeries()
	per := int(1 / tr.StepS)
	for i := per; i < len(series); i++ {
		a, b := series[i-per], series[i]
		if a > 50 && b > 50 {
			r := b / a
			if r < 1 {
				r = 1 / r
			}
			if r > res.MaxStepRatio {
				res.MaxStepRatio = r
			}
		}
	}
	return res
}

// TBSRow is one Fig 9 point: the PHY TBS mapping.
type TBSRow struct {
	MCS     int
	Symbols int
	TBSBits int
}

// Fig9TBSMapping reproduces Fig 9: TBS as a function of MCS and allocated
// symbols at 2 MIMO layers over a full 100 MHz carrier.
func Fig9TBSMapping() []TBSRow {
	defer obs.StartSpan("experiments.Fig9TBSMapping").End()
	nRB, _ := phy.NumRB(true, 30, 100)
	var rows []TBSRow
	for _, mcs := range []int{0, 4, 9, 14, 19, 23, 27} {
		for sym := 2; sym <= 13; sym++ {
			rows = append(rows, TBSRow{
				MCS: mcs, Symbols: sym,
				TBSBits: phy.TBS(phy.NumRE(nRB, sym), phy.MCSTable256QAM[mcs], 2),
			})
		}
	}
	return rows
}

// EfficiencyRow is one Fig 10 bar: per-channel spectral efficiency.
type EfficiencyRow struct {
	Channel   string
	BWMHz     float64
	CapMbps   float64
	BitsPerHz float64
}

// Fig10SpectralEfficiency reproduces Fig 10: achievable spectral efficiency
// of five channels across low/mid/high bands under the best channel
// condition (top MCS, full allocation).
func Fig10SpectralEfficiency() []EfficiencyRow {
	defer obs.StartSpan("experiments.Fig10SpectralEfficiency").End()
	top := phy.MCSTable256QAM[len(phy.MCSTable256QAM)-1]
	type chSpec struct {
		name string
		bw   float64
		scs  int
		tdd  bool
		rank int
	}
	chans := []chSpec{
		{"n71 (low FDD 20MHz)", 20, 15, false, 2},
		{"n25 (mid FDD 20MHz)", 20, 30, false, 4},
		{"n41 (mid TDD 100MHz)", 100, 30, true, 4},
		{"n77 (C-band TDD 100MHz)", 100, 30, true, 4},
		{"n260 (mmWave TDD 100MHz)", 100, 120, true, 2},
	}
	var rows []EfficiencyRow
	for _, c := range chans {
		capMbps, err := phy.ChannelCapacityMbps(true, c.scs, c.bw, top, c.rank, c.tdd)
		if err != nil {
			continue
		}
		rows = append(rows, EfficiencyRow{
			Channel: c.name, BWMHz: c.bw, CapMbps: capMbps,
			BitsPerHz: phy.SpectralEfficiency(capMbps, c.bw),
		})
	}
	return rows
}

// CorrelationResult captures Figs 11-13: RSRP/throughput correlations for
// intra- vs inter-band CA.
type CorrelationResult struct {
	Kind                 string // "intra" or "inter"
	Combo                string
	PCellRSRPvsPCellTput float64
	SCellRSRPvsSCellTput float64
	PCellRSRPvsSCellTput float64
	SCellRSRPvsPCellTput float64
	PCellRSRPvsSCellRSRP float64
}

// Fig11to13Correlations reproduces the §4.2 analysis: same-CC correlations
// are strong everywhere, but cross-CC correlations collapse for inter-band
// combos.
func Fig11to13Correlations(seed uint64) []CorrelationResult {
	defer obs.StartSpan("experiments.Fig11to13Correlations").End()
	cases := []struct {
		kind string
		lock []string
	}{
		{"intra", []string{"n41^a", "n41^b"}},
		{"inter", []string{"n41^a", "n25^a"}},
	}
	// The intra and inter cases are independent seeded runs: fan out.
	return par.MustMap(context.Background(), len(cases), 0, func(i int) CorrelationResult {
		cs := cases[i]
		// Walking keeps the distance term small so shadowing dominates
		// the RSRP dynamics: that is the regime where intra-band carriers
		// track each other and inter-band carriers decorrelate (Fig 13).
		net, start := IdealStart(spectrum.OpZ, mobility.Urban, seed+uint64(i))
		start.X += 220
		tr, _ := sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 600, StepS: 0.2,
			Seed: seed + uint64(i)*7, ChannelLock: cs.lock, Start: &start, Net: net,
		})
		var pR, pT, sR, sT []float64
		for _, s := range tr.Samples {
			if !s.CCs[0].Present || !s.CCs[1].Present ||
				s.CCs[0].Vec[trace.FActive] == 0 || s.CCs[1].Vec[trace.FActive] == 0 {
				continue
			}
			pR = append(pR, s.CCs[0].Vec[trace.FRSRP])
			pT = append(pT, s.CCs[0].Vec[trace.FTput])
			sR = append(sR, s.CCs[1].Vec[trace.FRSRP])
			sT = append(sT, s.CCs[1].Vec[trace.FTput])
		}
		return CorrelationResult{
			Kind:                 cs.kind,
			Combo:                strings.Join(cs.lock, "+"),
			PCellRSRPvsPCellTput: stats.Pearson(pR, pT),
			SCellRSRPvsSCellTput: stats.Pearson(sR, sT),
			PCellRSRPvsSCellTput: stats.Pearson(pR, sT),
			SCellRSRPvsPCellTput: stats.Pearson(sR, pT),
			PCellRSRPvsSCellRSRP: stats.Pearson(pR, sR),
		}
	})
}

// CCConditioningRow captures Figs 14/15: the same channel behaves
// differently under different CA configurations.
type CCConditioningRow struct {
	Scenario  string
	Channel   string
	RSRPdBm   float64
	CQI       float64
	Layers    float64
	RB        float64
	CCTput    float64
	TotalTput float64
}

// Fig14MIMOReduction reproduces Fig 14: the n25 channel alone vs inside a
// 3CC combo — similar RSRP/CQI, collapsed MIMO, roughly halved throughput.
func Fig14MIMOReduction(seed uint64) []CCConditioningRow {
	defer obs.StartSpan("experiments.Fig14MIMOReduction").End()
	net, start := IdealStart(spectrum.OpZ, mobility.Urban, seed)
	alone, _ := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70, []string{"n25^a"}, seed+1)
	ca, _ := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70,
		[]string{"n41^a", "n25^a", "n41^b"}, seed+2)
	return []CCConditioningRow{
		ccStats("NonCA n25", "n25^a", alone),
		ccStats("CA n41+n25+n41", "n25^a", ca),
	}
}

// Fig15RBThrottling reproduces Fig 15: the same n41 SCell in different
// combos gets different RB shares.
func Fig15RBThrottling(seed uint64) []CCConditioningRow {
	defer obs.StartSpan("experiments.Fig15RBThrottling").End()
	net, start := IdealStart(spectrum.OpZ, mobility.Urban, seed)
	intra, _ := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70,
		[]string{"n41^a", "n41^b"}, seed+1)
	inter, _ := idealRun(net, start, spectrum.OpZ, spectrum.NR, ran.ModemX70,
		[]string{"n25^a", "n41^a", "n41^b"}, seed+2)
	return []CCConditioningRow{
		ccStats("CA n41+n41", "n41^b", intra),
		ccStats("CA n25+n41+n41", "n41^b", inter),
	}
}

// ccStats averages one channel's per-CC fields over a trace.
func ccStats(scenario, channelID string, tr trace.Trace) CCConditioningRow {
	var rsrp, cqi, layers, rb, tput, total stats.Welford
	for _, s := range tr.Samples {
		total.Add(s.AggTput)
		for c := 0; c < trace.MaxCC; c++ {
			cc := s.CCs[c]
			if !cc.Present || cc.ChannelID != channelID || cc.Vec[trace.FActive] == 0 {
				continue
			}
			rsrp.Add(cc.Vec[trace.FRSRP])
			cqi.Add(cc.Vec[trace.FCQI])
			layers.Add(cc.Vec[trace.FLayers])
			rb.Add(cc.Vec[trace.FRB])
			tput.Add(cc.Vec[trace.FTput])
		}
	}
	return CCConditioningRow{
		Scenario: scenario, Channel: channelID,
		RSRPdBm: rsrp.Mean(), CQI: cqi.Mean(), Layers: layers.Mean(),
		RB: rb.Mean(), CCTput: tput.Mean(), TotalTput: total.Mean(),
	}
}

// PrevalenceRow is one Fig 25/26 cell: CA prevalence and throughput while
// driving a scenario.
type PrevalenceRow struct {
	Operator     spectrum.Operator
	Scenario     mobility.Scenario
	CAFraction   float64 // fraction of time with >= 2 active CCs
	NRFraction   float64 // fraction of time connected to 5G at all
	MeanMbps     float64
	EventPeriodS float64 // mean time between CC changes
}

// Fig25DrivingPrevalence reproduces Figs 25/26 for one operator. The three
// scenario drives are independent seeded runs and execute concurrently.
func Fig25DrivingPrevalence(op spectrum.Operator, seed uint64) []PrevalenceRow {
	defer obs.StartSpan("experiments.Fig25DrivingPrevalence").End()
	scenarios := []mobility.Scenario{mobility.Urban, mobility.Suburban, mobility.Beltway}
	return par.MustMap(context.Background(), len(scenarios), 0, func(i int) PrevalenceRow {
		sc := scenarios[i]
		tr, st := sim.Run(sim.RunConfig{
			Operator: op, Scenario: sc, Mobility: mobility.Driving,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 240, StepS: 0.2,
			Seed: seed + uint64(i)*17,
		})
		caN, nrN := 0, 0
		for _, s := range tr.Samples {
			if s.NumActiveCCs >= 2 {
				caN++
			}
			if s.NumActiveCCs >= 1 {
				nrN++
			}
		}
		period := 240.0
		if st.CCChangeCount > 0 {
			period = 240.0 / float64(st.CCChangeCount)
		}
		return PrevalenceRow{
			Operator: op, Scenario: sc,
			CAFraction:   float64(caN) / float64(len(tr.Samples)),
			NRFraction:   float64(nrN) / float64(len(tr.Samples)),
			MeanMbps:     st.MeanAggMbps,
			EventPeriodS: period,
		}
	})
}

// IndoorResult captures Figs 27/28: indoor coverage with and without the
// FDD low band.
type IndoorResult struct {
	WithLowBand    PrevalenceRow
	WithoutLowBand PrevalenceRow
	LowBandRSRP    float64 // mean n71 RSRP indoors
	MidBandRSRP    float64 // mean n41 RSRP indoors
}

// Fig27IndoorCoverage reproduces Figs 27/28: locking out the n71 low band
// degrades indoor 5G coverage and throughput for OpZ.
func Fig27IndoorCoverage(seed uint64) IndoorResult {
	defer obs.StartSpan("experiments.Fig27IndoorCoverage").End()
	run := func(lock []string) (trace.Trace, sim.RunStats) {
		return sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Indoor, Mobility: mobility.Walking,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 120, StepS: 0.2,
			Seed: seed, BandLock: lock,
		})
	}
	trAll, stAll := run(nil)
	trMid, stMid := run([]string{"n41", "n25"})
	row := func(tr trace.Trace, st sim.RunStats, sc mobility.Scenario) PrevalenceRow {
		nrN, caN := 0, 0
		for _, s := range tr.Samples {
			if s.NumActiveCCs >= 1 {
				nrN++
			}
			if s.NumActiveCCs >= 2 {
				caN++
			}
		}
		return PrevalenceRow{
			Operator: spectrum.OpZ, Scenario: sc,
			CAFraction: float64(caN) / float64(len(tr.Samples)),
			NRFraction: float64(nrN) / float64(len(tr.Samples)),
			MeanMbps:   st.MeanAggMbps,
		}
	}
	res := IndoorResult{
		WithLowBand:    row(trAll, stAll, mobility.Indoor),
		WithoutLowBand: row(trMid, stMid, mobility.Indoor),
	}
	var low, mid stats.Welford
	for _, s := range trAll.Samples {
		for c := 0; c < trace.MaxCC; c++ {
			cc := s.CCs[c]
			if !cc.Present {
				continue
			}
			switch cc.BandName {
			case "n71":
				low.Add(cc.Vec[trace.FRSRP])
			case "n41":
				mid.Add(cc.Vec[trace.FRSRP])
			}
		}
	}
	res.LowBandRSRP, res.MidBandRSRP = low.Mean(), mid.Mean()
	return res
}

// UECapabilityRow is one Fig 29 bar: CA depth and throughput per handset.
type UECapabilityRow struct {
	Modem    ran.Modem
	Phone    string
	MaxCCs   int
	CAFrac   float64
	MeanMbps float64
}

// Fig29UECapability reproduces Fig 29 / Table 5: newer modems unlock deeper
// CA and higher throughput on the identical walk. The per-modem runs share
// the seed but nothing mutable, so they execute concurrently.
func Fig29UECapability(seed uint64) []UECapabilityRow {
	defer obs.StartSpan("experiments.Fig29UECapability").End()
	modems := []ran.Modem{ran.ModemX50, ran.ModemX60, ran.ModemX65, ran.ModemX70}
	return par.MustMap(context.Background(), len(modems), 0, func(i int) UECapabilityRow {
		m := modems[i]
		tr, st := sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
			Modem: m, Tech: spectrum.NR, DurationS: 120, StepS: 0.2, Seed: seed,
		})
		caN := 0
		for _, s := range tr.Samples {
			if s.NumActiveCCs >= 2 {
				caN++
			}
		}
		return UECapabilityRow{
			Modem: m, Phone: m.Phone(), MaxCCs: st.MaxActiveCCs,
			CAFrac:   float64(caN) / float64(len(tr.Samples)),
			MeanMbps: st.MeanAggMbps,
		}
	})
}

// TemporalRow is one Table 8 entry: per-CC signal stability across times of
// day.
type TemporalRow struct {
	Label   string
	TOD     float64
	PerCC   []string // "channel: mean±std dBm"
	MeanRB  float64
	MeanCQI float64
	MeanMCS float64
}

// Table8TemporalDynamics reproduces Tables 8/9/10: signal strength is
// stable across times of day while the RB share shrinks at rush hour.
func Table8TemporalDynamics(seed uint64) []TemporalRow {
	defer obs.StartSpan("experiments.Table8TemporalDynamics").End()
	_, start := IdealStart(spectrum.OpZ, mobility.Urban, seed)
	var rows []TemporalRow
	for _, tod := range []struct {
		label string
		mult  float64
	}{{"T1 rush", 1.9}, {"T2 night", 1.0}, {"T3 evening", 1.3}} {
		tr, _ := sim.Run(sim.RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 60, StepS: 0.2,
			Seed: seed, Start: &start, Net: ran.NewNetwork(spectrum.OpZ, mobility.Urban, rng.New(seed)),
			TODMultiplier: tod.mult,
		})
		perCC := map[string]*stats.Welford{}
		var rb, cqi, mcs stats.Welford
		for _, s := range tr.Samples {
			for c := 0; c < trace.MaxCC; c++ {
				cc := s.CCs[c]
				if !cc.Present {
					continue
				}
				w := perCC[cc.ChannelID]
				if w == nil {
					w = &stats.Welford{}
					perCC[cc.ChannelID] = w
				}
				w.Add(cc.Vec[trace.FRSRP])
				if cc.IsPCell {
					rb.Add(cc.Vec[trace.FRB])
					cqi.Add(cc.Vec[trace.FCQI])
					mcs.Add(cc.Vec[trace.FMCS])
				}
			}
		}
		var ids []string
		for id := range perCC {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		row := TemporalRow{Label: tod.label, TOD: tod.mult, MeanRB: rb.Mean(), MeanCQI: cqi.Mean(), MeanMCS: mcs.Mean()}
		for _, id := range ids {
			w := perCC[id]
			row.PerCC = append(row.PerCC, fmt.Sprintf("%s: %.1f±%.1f dBm", id, w.Mean(), w.StdDev()))
		}
		rows = append(rows, row)
	}
	return rows
}
