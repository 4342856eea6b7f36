package conform

import (
	"fmt"
	"math"
	"strings"

	"prism5g/internal/phy"
	"prism5g/internal/predictors"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// invariantChecks lists the paper's qualitative laws. Each is tolerance-
// banded: the margins come from probing the simulator across seeds, so the
// checks stay green under re-seeding while still catching sign flips,
// ordering inversions and broken conditioning logic.
func invariantChecks() []Check {
	return []Check{
		{Name: "tbs-monotone", Figs: "Fig 9", Run: checkTBSMonotone},
		{Name: "spectral-efficiency-ordering", Figs: "Fig 10", Run: checkSpectralEfficiency},
		{Name: "mimo-collapse", Figs: "Fig 14", Run: checkMIMOCollapse},
		{Name: "rb-throttling", Figs: "Fig 15", Run: checkRBThrottling},
		{Name: "correlation-structure", Figs: "Figs 11-13", Run: checkCorrelationStructure},
		{Name: "event-lead", Figs: "Figs 7/17", Run: checkEventLead},
		{Name: "cc-scaling", Figs: "Fig 1", Run: checkCCScaling},
		{Name: "rush-hour-rb", Figs: "Table 8", Run: checkRushHourRB},
		{Name: "harmonic-mean-bound", Figs: "§6 baselines", Run: checkHarmonicMeanBound},
		{Name: "predictor-metrics-bounded", Figs: "Table 4 / Fig 17", Run: checkPredictorMetrics},
	}
}

// checkTBSMonotone: the transport block size must be monotone in both MCS
// index and allocation size — the PHY law behind Fig 9's staircase.
func checkTBSMonotone(c *Ctx) []Violation {
	const name = "tbs-monotone"
	var out []Violation
	rows := c.Fig9()
	bySym := map[int][]int{} // symbols -> TBS ordered by MCS
	lastBySym := map[int]int{}
	lastMCS := -1
	for i, r := range rows {
		if r.TBSBits <= 0 {
			out = append(out, violate(name, fmt.Sprintf("rows[%d]", i),
				"TBS must be positive", r.TBSBits, "> 0"))
		}
		// Within one MCS, TBS must grow with the symbol allocation.
		if r.MCS == lastMCS {
			if prev := lastBySym[r.MCS]; r.TBSBits < prev {
				out = append(out, violate(name,
					fmt.Sprintf("mcs=%d sym=%d", r.MCS, r.Symbols),
					"TBS decreased as symbols grew", r.TBSBits, fmt.Sprintf(">= %d", prev)))
			}
		}
		lastMCS = r.MCS
		lastBySym[r.MCS] = r.TBSBits
		bySym[r.Symbols] = append(bySym[r.Symbols], r.TBSBits)
	}
	// Across MCS at a fixed symbol count (rows are MCS-major, so each
	// bySym slice is ordered by MCS).
	for sym, tbs := range bySym {
		for i := 1; i < len(tbs); i++ {
			if tbs[i] < tbs[i-1] {
				out = append(out, violate(name, fmt.Sprintf("sym=%d mcsStep=%d", sym, i),
					"TBS decreased as MCS grew", tbs[i], fmt.Sprintf(">= %d", tbs[i-1])))
			}
		}
	}
	// Monotone in the RB dimension, directly against the PHY tables.
	mcs := phy.MCSTable256QAM[len(phy.MCSTable256QAM)-1]
	prev := 0
	for _, rb := range []int{10, 20, 50, 100, 150, 200, 273} {
		tbs := phy.TBS(phy.NumRE(rb, phy.SymbolsPerSlot-1), mcs, 2)
		if tbs < prev {
			out = append(out, violate(name, fmt.Sprintf("rb=%d", rb),
				"TBS decreased as RBs grew", tbs, fmt.Sprintf(">= %d", prev)))
		}
		prev = tbs
	}
	return out
}

// checkSpectralEfficiency: Fig 10's cross-band ordering. FDD mid-band beats
// TDD mid-band (no downlink-fraction loss), mid-band beats the rank-2 low
// band, and mmWave has the lowest bits/Hz despite the highest capacity.
func checkSpectralEfficiency(c *Ctx) []Violation {
	const name = "spectral-efficiency-ordering"
	var out []Violation
	rows := c.Fig10()
	eff := map[string]float64{}
	for _, r := range rows {
		band := r.Channel
		if i := strings.IndexByte(band, ' '); i > 0 {
			band = band[:i]
		}
		eff[band] = r.BitsPerHz
		if r.BitsPerHz <= 0 || r.BitsPerHz > 60 {
			out = append(out, violate(name, r.Channel,
				"spectral efficiency out of physical range", r.BitsPerHz, "(0, 60] bits/Hz"))
		}
	}
	need := []string{"n25", "n41", "n71", "n77", "n260"}
	for _, b := range need {
		if _, ok := eff[b]; !ok {
			out = append(out, violate(name, b, "band missing from Fig 10", "<absent>", "present"))
		}
	}
	if len(out) > 0 {
		return out
	}
	type ord struct{ hi, lo, why string }
	for _, o := range []ord{
		{"n25", "n41", "FDD mid-band must beat TDD mid-band (TDD pays the downlink fraction)"},
		{"n41", "n71", "rank-4 mid-band must beat the rank-2 low band"},
		{"n41", "n260", "mid-band must beat mmWave in bits/Hz (rank-2 beamformed)"},
	} {
		if eff[o.hi] <= eff[o.lo] {
			out = append(out, violate(name, o.hi+" vs "+o.lo, o.why,
				fmt.Sprintf("%.3f <= %.3f", eff[o.hi], eff[o.lo]), "strictly greater"))
		}
	}
	if d := math.Abs(eff["n41"] - eff["n77"]); d > 0.5 {
		out = append(out, violate(name, "n41 vs n77",
			"equally configured TDD carriers must have matching efficiency", d, "<= 0.5 bits/Hz"))
	}
	return out
}

// checkMIMOCollapse: in combos of three or more CCs, an active FDD SCell
// must collapse to one MIMO layer (Fig 14's PDSCH conditioning) while the
// same class of carrier keeps multiple layers outside deep CA. The 4CC
// lock behind MIMOTrace carries two FDD carriers, so at least one is an
// SCell at any seed — the check cannot pass vacuously.
func checkMIMOCollapse(c *Ctx) []Violation {
	const name = "mimo-collapse"
	var out []Violation
	tr := c.MIMOTrace()
	engaged := 0
	for si, s := range tr.Samples {
		if s.NumActiveCCs < 3 {
			continue
		}
		for ci := 0; ci < trace.MaxCC; ci++ {
			cc := s.CCs[ci]
			if !cc.Present || cc.IsPCell || cc.Vec[trace.FActive] != 1 {
				continue
			}
			band := cc.ChannelID
			if i := strings.IndexByte(band, '^'); i > 0 {
				band = band[:i]
			}
			if band != "n71" && band != "n25" { // the FDD carriers of the lock
				continue
			}
			engaged++
			if cc.Vec[trace.FLayers] > 1 {
				out = append(out, violate(name,
					fmt.Sprintf("sample[%d] cc[%d]=%s", si, ci, cc.ChannelID),
					"active FDD SCell in a >=3CC combo kept more than 1 MIMO layer",
					cc.Vec[trace.FLayers], "<= 1"))
				if len(out) >= maxDiffs {
					return out
				}
			}
		}
	}
	if engaged < 50 {
		out = append(out, violate(name, "engagement",
			"too few FDD-SCell samples in deep CA; the conditioning path went unexercised",
			engaged, ">= 50"))
	}
	// Contrast: the same carrier class outside deep CA keeps rank > 1
	// (Fig 14's NonCA column).
	for _, r := range c.Fig14() {
		if strings.HasPrefix(r.Scenario, "NonCA") && r.Layers < 1.5 {
			out = append(out, violate(name, r.Scenario,
				"standalone carrier should keep multiple MIMO layers", r.Layers, ">= 1.5"))
		}
	}
	return out
}

// checkRBThrottling: once the aggregate FR1 bandwidth crosses the budget,
// active SCells receive a throttled RB share (Fig 15). The shipped Fig 15
// rows are pinned byte-exactly by their golden; this check instead
// contrasts the purpose-built RBTraces pair — over-budget whichever channel
// wins the PCell vs budget-unreachable — so the verdict does not ride on
// the PCell draw or on run-to-run load noise.
func checkRBThrottling(c *Ctx) []Violation {
	const name = "rb-throttling"
	var out []Violation
	pair := c.RBTraces()
	// Mean RB share (fraction of the channel's N_RB, 30 kHz SCS — both
	// locks are n41-only) over every active-SCell observation.
	meanShare := func(tr trace.Trace) (float64, int) {
		sum, n := 0.0, 0
		for _, s := range tr.Samples {
			for ci := 0; ci < trace.MaxCC; ci++ {
				cc := s.CCs[ci]
				if !cc.Present || cc.IsPCell || cc.Vec[trace.FActive] != 1 {
					continue
				}
				nrb, err := phy.NumRB(true, 30, cc.Vec[trace.FBWMHz])
				if err != nil || nrb <= 0 {
					continue
				}
				sum += cc.Vec[trace.FRB] / float64(nrb)
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	over, nOver := meanShare(pair.Over)
	under, nUnder := meanShare(pair.Under)
	if nOver < 30 || nUnder < 30 {
		return append(out, violate(name, "engagement",
			"too few active-SCell samples; the bandwidth-budget path went unexercised",
			fmt.Sprintf("over=%d under=%d", nOver, nUnder), ">= 30 each"))
	}
	if under <= 0.4 {
		out = append(out, violate(name, "in-budget",
			"an un-throttled SCell must keep most of its RB share", under, "> 0.40 of N_RB"))
	}
	if over >= under*0.72 {
		out = append(out, violate(name, "over-budget",
			"crossing the FR1 bandwidth budget must throttle the SCell RB share",
			fmt.Sprintf("%.3f of N_RB", over),
			fmt.Sprintf("< %.3f (0.72x the in-budget share)", under*0.72)))
	}
	// The shipped Fig 15 rows stay physically sane.
	for _, r := range c.Fig15() {
		if r.RB <= 0 || math.IsNaN(r.RB) {
			out = append(out, violate(name, r.Scenario, "RB share must be positive", r.RB, "> 0"))
		}
	}
	return out
}

// checkCorrelationStructure: Figs 11-13's core claim — co-located same-band
// carriers fade together (cross-CC RSRP correlation near 1) while
// different bands decorrelate, and same-CC RSRP->throughput correlations
// stay positive everywhere.
func checkCorrelationStructure(c *Ctx) []Violation {
	const name = "correlation-structure"
	var out []Violation
	var intra, inter *c31
	for _, r := range c.Fig11to13() {
		rr := c31{r.Kind, r.PCellRSRPvsPCellTput, r.SCellRSRPvsSCellTput, r.PCellRSRPvsSCellRSRP}
		switch r.Kind {
		case "intra":
			v := rr
			intra = &v
		case "inter":
			v := rr
			inter = &v
		}
	}
	if intra == nil || inter == nil {
		return []Violation{violate(name, "rows", "need one intra and one inter combo",
			fmt.Sprintf("intra=%v inter=%v", intra != nil, inter != nil), "both present")}
	}
	if intra.rsrpXC < 0.95 {
		out = append(out, violate(name, "intra.PCellRSRPvsSCellRSRP",
			"same-band carriers must fade together", intra.rsrpXC, ">= 0.95"))
	}
	if inter.rsrpXC > intra.rsrpXC-0.02 {
		out = append(out, violate(name, "inter.PCellRSRPvsSCellRSRP",
			"cross-band RSRP correlation must sit below intra-band",
			inter.rsrpXC, fmt.Sprintf("<= %.3f", intra.rsrpXC-0.02)))
	}
	for _, rr := range []*c31{intra, inter} {
		if rr.pp < 0.3 {
			out = append(out, violate(name, rr.kind+".PCellRSRPvsPCellTput",
				"same-CC RSRP->throughput correlation must stay clearly positive", rr.pp, ">= 0.3"))
		}
		if rr.ss < 0.3 {
			out = append(out, violate(name, rr.kind+".SCellRSRPvsSCellTput",
				"same-CC RSRP->throughput correlation must stay clearly positive", rr.ss, ">= 0.3"))
		}
	}
	return out
}

// c31 is the correlation slice the structure check consumes.
type c31 struct {
	kind           string
	pp, ss, rsrpXC float64
}

// checkEventLead: RRC signaling must lead throughput transitions (Fig 7's
// Z areas, the information Prism5G exploits in Fig 17): the event feature
// fires on carriers not yet active, CC changes occur, and throughput moves
// by a large factor within a second.
func checkEventLead(c *Ctx) []Violation {
	const name = "event-lead"
	var out []Violation
	res := c.Fig7()
	leads := 0
	for _, s := range res.Trace.Samples {
		for ci := 0; ci < trace.MaxCC; ci++ {
			cc := s.CCs[ci]
			if cc.Present && cc.Vec[trace.FEvent] > 0 && cc.Vec[trace.FActive] == 0 {
				leads++
			}
		}
	}
	if leads == 0 {
		out = append(out, violate(name, "leads",
			"the RRC event feature never preceded carrier activation", leads, ">= 1"))
	}
	if res.CCChanges < 1 {
		out = append(out, violate(name, "cc_changes",
			"a 120 s urban drive must change its CC count", res.CCChanges, ">= 1"))
	}
	if len(res.Events) < 1 {
		out = append(out, violate(name, "events",
			"a 120 s urban drive must emit RRC events", len(res.Events), ">= 1"))
	}
	if res.MaxStepRatio < 1.5 {
		out = append(out, violate(name, "max_step_ratio",
			"CC transitions must move throughput by a large factor within 1 s",
			res.MaxStepRatio, ">= 1.5"))
	}
	return out
}

// checkCCScaling: Fig 1's premise — adding carriers raises throughput.
func checkCCScaling(c *Ctx) []Violation {
	const name = "cc-scaling"
	var out []Violation
	rows := c.Fig1()
	if len(rows) < 2 {
		return []Violation{violate(name, "rows", "need at least two CC depths", len(rows), ">= 2")}
	}
	for i, r := range rows {
		if r.MeanMbps <= 0 || !finite(r.MeanMbps) {
			out = append(out, violate(name, fmt.Sprintf("rows[%d].MeanMbps", i),
				"mean throughput must be positive and finite", r.MeanMbps, "> 0"))
		}
		if r.PeakMbps < r.MeanMbps {
			out = append(out, violate(name, fmt.Sprintf("rows[%d]", i),
				"peak throughput below the mean", r.PeakMbps, fmt.Sprintf(">= %.1f", r.MeanMbps)))
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.MeanMbps <= first.MeanMbps {
		out = append(out, violate(name, "scaling",
			"the deepest CA combo must out-perform the single carrier",
			fmt.Sprintf("%.1f Mbps at %d CC", last.MeanMbps, last.NumCCs),
			fmt.Sprintf("> %.1f Mbps at %d CC", first.MeanMbps, first.NumCCs)))
	}
	return out
}

// checkRushHourRB: Table 8's law — signal quality holds across times of
// day while the schedulable RB share shrinks under rush-hour load.
func checkRushHourRB(c *Ctx) []Violation {
	const name = "rush-hour-rb"
	var out []Violation
	rows := c.Table8()
	var rush, night *float64
	for _, r := range rows {
		if r.MeanCQI < 0 || r.MeanCQI > 15 {
			out = append(out, violate(name, r.Label+".MeanCQI", "CQI out of range", r.MeanCQI, "[0, 15]"))
		}
		if r.MeanMCS < 0 || r.MeanMCS > 27 {
			out = append(out, violate(name, r.Label+".MeanMCS", "MCS out of range", r.MeanMCS, "[0, 27]"))
		}
		v := r.MeanRB
		if strings.HasPrefix(r.Label, "T1") {
			rush = &v
		}
		if strings.HasPrefix(r.Label, "T2") {
			night = &v
		}
	}
	if rush == nil || night == nil {
		out = append(out, violate(name, "rows", "need the T1 rush and T2 night rows",
			fmt.Sprintf("rush=%v night=%v", rush != nil, night != nil), "both present"))
		return out
	}
	if *rush >= *night*0.95 {
		out = append(out, violate(name, "T1 vs T2",
			"rush-hour load must shrink the RB share well below the night baseline",
			fmt.Sprintf("%.1f RBs", *rush), fmt.Sprintf("< %.1f RBs", *night*0.95)))
	}
	return out
}

// checkHarmonicMeanBound: MPC's estimator must satisfy HM <= AM on every
// history (the reason it under-estimates, which the QoE section leans on),
// stay positive and hold one constant value over the horizon.
func checkHarmonicMeanBound(c *Ctx) []Violation {
	const name = "harmonic-mean-bound"
	var out []Violation
	histories := [][]float64{
		{120, 80, 200, 150, 60, 90, 110, 140, 70, 100},
		{5, 5, 5, 5, 5},
		{0, 0, 0, 300},        // RLF outage: the floor must drag HM toward 0
		{math.NaN(), 100, 50}, // corrupted sensor reads are dropped
		{1e-9, 400, 400, 400}, // sub-floor value clamps up
	}
	fig7 := c.Fig7()
	if agg := fig7.Trace.AggSeries(); len(agg) >= 50 {
		histories = append(histories, agg[:50])
	}
	hm := &predictors.HarmonicMean{Horizon: 5}
	for hi, hist := range histories {
		pred := hm.Predict(historyWindow(hist, 5))
		// The arithmetic mean over the same sanitized view.
		var sum float64
		n := 0
		for _, v := range hist {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < 1e-6 {
				v = 1e-6
			}
			sum += v
			n++
		}
		am := sum / float64(n)
		path := fmt.Sprintf("history[%d]", hi)
		if len(pred) != 5 {
			out = append(out, violate(name, path, "horizon length mismatch", len(pred), 5))
			continue
		}
		for i, p := range pred {
			if p != pred[0] {
				out = append(out, violate(name, fmt.Sprintf("%s.pred[%d]", path, i),
					"the estimate must be held constant over the horizon", p, pred[0]))
			}
		}
		if !(pred[0] > 0) || !finite(pred[0]) {
			out = append(out, violate(name, path, "estimate must be positive and finite", pred[0], "> 0"))
			continue
		}
		if pred[0] > am*(1+1e-9) {
			out = append(out, violate(name, path,
				"harmonic mean exceeded the arithmetic mean", pred[0], fmt.Sprintf("<= %.6f", am)))
		}
	}
	return out
}

// checkPredictorMetrics: Table 4 / Fig 17 outputs must be finite and
// physically plausible — the learning stack's "no silent NaN" contract.
func checkPredictorMetrics(c *Ctx) []Violation {
	const name = "predictor-metrics-bounded"
	var out []Violation
	for _, cell := range c.Table4() {
		path := cell.Dataset + "/" + cell.Model
		if !finite(cell.RMSE) || cell.RMSE <= 0 || cell.RMSE > 5 {
			out = append(out, violate(name, path+".RMSE",
				"test RMSE must be finite and in scaled range", cell.RMSE, "(0, 5]"))
		}
		if cell.Epochs < 1 {
			out = append(out, violate(name, path+".Epochs",
				"a trainable model must run at least one epoch", cell.Epochs, ">= 1"))
		}
	}
	res := c.Fig17()
	if len(res.Real) == 0 {
		out = append(out, violate(name, "fig17.points", "prediction replay produced no points", 0, "> 0"))
		return out
	}
	for model, pred := range res.Pred {
		if len(pred) != len(res.Real) {
			out = append(out, violate(name, "fig17."+model+".len",
				"prediction series length mismatch", len(pred), len(res.Real)))
			continue
		}
		for i, p := range pred {
			if !finite(p) {
				out = append(out, violate(name, fmt.Sprintf("fig17.%s[%d]", model, i),
					"non-finite prediction", p, "finite"))
				break
			}
		}
		if rmse := stats.RMSE(pred, res.Real); !finite(rmse) {
			out = append(out, violate(name, "fig17."+model+".rmse",
				"replay RMSE must be finite", rmse, "finite"))
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
