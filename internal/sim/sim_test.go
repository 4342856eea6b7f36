package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/ran"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// idealStart returns a point near the site with the most NR channels, the
// "line-of-sight to the base station" setup of the paper's ideal runs.
func idealStart(t *testing.T, op spectrum.Operator, seed uint64) (*ran.Network, mobility.Point) {
	t.Helper()
	net := ran.NewNetwork(op, mobility.Urban, rng.New(seed))
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

func TestRunProducesRequestedSamples(t *testing.T) {
	tr, _ := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 5, StepS: 0.01, Seed: 1,
	})
	if len(tr.Samples) != 500 {
		t.Fatalf("samples = %d, want 500", len(tr.Samples))
	}
	if tr.StepS != 0.01 {
		t.Fatalf("StepS = %f", tr.StepS)
	}
	// Timestamps start near zero (post-warmup) and increase by StepS.
	if tr.Samples[0].T > 0.2 {
		t.Fatalf("first sample at %f, warmup not subtracted", tr.Samples[0].T)
	}
	dt := tr.Samples[1].T - tr.Samples[0].T
	if math.Abs(dt-0.01) > 1e-9 {
		t.Fatalf("sample spacing = %f", dt)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 20, StepS: 0.1, Seed: 99,
	}
	a, sa := Run(cfg)
	b, sb := Run(cfg)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Samples {
		if a.Samples[i].AggTput != b.Samples[i].AggTput {
			t.Fatalf("diverged at %d", i)
		}
	}
	if sa.PeakAggMbps != sb.PeakAggMbps || len(sa.Events) != len(sb.Events) {
		t.Fatal("stats diverged")
	}
}

func TestWarmupAvoidsAttachRamp(t *testing.T) {
	net, start := idealStart(t, spectrum.OpZ, 5)
	tr, _ := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 10, StepS: 0.1, Seed: 5,
		Start: &start, Net: net,
	})
	// With warmup, the very first sample should already be in CA.
	if tr.Samples[0].NumActiveCCs < 2 {
		t.Fatalf("first sample has %d CCs; warmup insufficient", tr.Samples[0].NumActiveCCs)
	}
}

func TestIdealThroughputShape(t *testing.T) {
	// Paper Fig 1 / 23 shape: OpZ 4CC FR1 ~1.5 Gbps mean; 4G 5CC ~hundreds
	// of Mbps; 5G >> 4G.
	net, start := idealStart(t, spectrum.OpZ, 7)
	_, nr := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 30, StepS: 0.1, Seed: 7,
		Start: &start, Net: net, TODMultiplier: 0.4,
	})
	_, lte := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.LTE, DurationS: 30, StepS: 0.1, Seed: 7,
		Start: &start, Net: net, TODMultiplier: 0.4,
	})
	if nr.MeanAggMbps < 900 || nr.MeanAggMbps > 2200 {
		t.Fatalf("OpZ NR ideal mean = %.0f, want ~1.5 Gbps class", nr.MeanAggMbps)
	}
	if nr.MaxActiveCCs != 4 {
		t.Fatalf("OpZ ideal CCs = %d, want 4", nr.MaxActiveCCs)
	}
	if lte.MaxActiveCCs != 5 {
		t.Fatalf("OpZ 4G CCs = %d, want 5", lte.MaxActiveCCs)
	}
	if lte.MeanAggMbps < 100 || lte.MeanAggMbps > 700 {
		t.Fatalf("OpZ 4G ideal mean = %.0f", lte.MeanAggMbps)
	}
	if nr.MeanAggMbps < 1.7*lte.MeanAggMbps {
		t.Fatalf("5G (%.0f) should be well above 4G (%.0f)", nr.MeanAggMbps, lte.MeanAggMbps)
	}
}

func TestAggregateBelowSumOfParts(t *testing.T) {
	// Paper Fig 6: the aggregate of n41+n25 is not the sum of the two
	// channels measured alone.
	net, start := idealStart(t, spectrum.OpZ, 3)
	base := RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 60, StepS: 0.1, Seed: 3,
		Start: &start, Net: net, TODMultiplier: 0.4,
	}
	run := func(chans ...string) RunStats {
		c := base
		c.ChannelLock = chans
		_, s := Run(c)
		return s
	}
	n41 := run("n41^a")
	n25 := run("n25^a")
	both := run("n41^a", "n25^a")
	sum := n41.MeanAggMbps + n25.MeanAggMbps
	if both.MeanAggMbps >= sum {
		t.Fatalf("aggregate %.0f not below sum %.0f", both.MeanAggMbps, sum)
	}
	deficit := 1 - both.MeanAggMbps/sum
	if deficit < 0.03 {
		t.Fatalf("deficit only %.1f%%, expected a material CA cost", 100*deficit)
	}
	if both.MaxActiveCCs != 2 {
		t.Fatalf("lock produced %d CCs", both.MaxActiveCCs)
	}
	if n41.MaxActiveCCs != 1 || n25.MaxActiveCCs != 1 {
		t.Fatal("single-channel locks produced CA")
	}
}

func TestDrivingProducesTransitions(t *testing.T) {
	// Paper Fig 7: driving adds/removes CCs, causing abrupt throughput
	// changes.
	tr, st := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 120, StepS: 0.1, Seed: 11,
	})
	if st.CCChangeCount < 4 {
		t.Fatalf("only %d CC changes in 120 s of urban driving", st.CCChangeCount)
	}
	if len(st.Events) == 0 {
		t.Fatal("no RRC events while driving")
	}
	// Variability: driving aggregate should swing materially.
	v := stats.Violin(tr.AggSeries())
	if v.Std < 0.1*v.Mean {
		t.Fatalf("driving throughput suspiciously stable: %s", v.String())
	}
}

func TestEventFeatureLeadsActivation(t *testing.T) {
	// The event feature must appear while the new CC is still inactive —
	// the causal lead a CA-aware predictor exploits (paper Fig 18).
	tr, _ := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 120, StepS: 0.01, Seed: 13,
	})
	leads := 0
	for _, s := range tr.Samples {
		for c := 0; c < trace.MaxCC; c++ {
			cc := s.CCs[c]
			if cc.Present && cc.Vec[trace.FEvent] > 0 && cc.Vec[trace.FActive] == 0 {
				leads++
			}
		}
	}
	if leads == 0 {
		t.Fatal("event feature never preceded activation")
	}
}

func TestSlotStability(t *testing.T) {
	// A CC must keep its slot while configured: channel IDs per slot only
	// change when the slot empties or the PCell switches.
	tr, _ := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 240, StepS: 0.1, Seed: 17,
	})
	transitions := 0
	badSwaps := 0 // slot changed channel with no handover at that step
	for i := 1; i < len(tr.Samples); i++ {
		prev, cur := tr.Samples[i-1], tr.Samples[i]
		pcellChanged := prev.CCs[0].ChannelID != cur.CCs[0].ChannelID
		for c := 1; c < trace.MaxCC; c++ { // SCell slots
			if prev.CCs[c].Present && cur.CCs[c].Present &&
				prev.CCs[c].ChannelID != cur.CCs[c].ChannelID && !pcellChanged &&
				cur.CCs[c].Vec[trace.FEvent] == 0 {
				// A same-step slot replacement is legitimate only when
				// the RRC event channel marks it.
				badSwaps++
			}
			if prev.CCs[c].Present != cur.CCs[c].Present {
				transitions++
			}
		}
	}
	if transitions == 0 {
		t.Fatal("no slot transitions while driving")
	}
	// A slot may only switch channels in one step during a handover
	// rebuild or a signaled remove+add; otherwise it must pass through
	// the absent state first.
	if badSwaps > 0 {
		t.Fatalf("%d unsignaled slot swaps", badSwaps)
	}
}

func TestSampleInternalConsistency(t *testing.T) {
	tr, _ := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 60, StepS: 0.1, Seed: 19,
	})
	for i, s := range tr.Samples {
		var sum float64
		var active int
		pcells := 0
		for c := 0; c < trace.MaxCC; c++ {
			cc := s.CCs[c]
			if !cc.Present {
				continue
			}
			sum += cc.Vec[trace.FTput]
			if cc.Vec[trace.FActive] == 1 {
				active++
			}
			if cc.IsPCell {
				pcells++
				if c != 0 {
					t.Fatalf("sample %d: PCell in slot %d", i, c)
				}
			}
		}
		if pcells > 1 {
			t.Fatalf("sample %d: %d PCells", i, pcells)
		}
		// Per-CC throughputs must sum to the aggregate (all OpZ FR1
		// combos fit in MaxCC slots).
		if math.Abs(sum-s.AggTput) > 1e-6 {
			t.Fatalf("sample %d: CC sum %.3f != agg %.3f", i, sum, s.AggTput)
		}
		if active != s.NumActiveCCs {
			t.Fatalf("sample %d: active %d != NumActiveCCs %d", i, active, s.NumActiveCCs)
		}
	}
}

func TestRushHourReducesRBs(t *testing.T) {
	// Paper Tables 9/10: rush hour shrinks the RB share while CQI stays.
	net, start := idealStart(t, spectrum.OpZ, 23)
	cfgNight := RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 40, StepS: 0.1, Seed: 23,
		Start: &start, Net: net, TODMultiplier: 1.0,
	}
	cfgRush := cfgNight
	cfgRush.TODMultiplier = 1.9
	// Fresh network per run so load processes start identically.
	cfgNight.Net = nil
	cfgRush.Net = nil
	trN, _ := Run(cfgNight)
	trR, _ := Run(cfgRush)
	meanRB := func(tr trace.Trace) float64 {
		var w stats.Welford
		for _, s := range tr.Samples {
			if s.CCs[0].Present {
				w.Add(s.CCs[0].Vec[trace.FRB])
			}
		}
		return w.Mean()
	}
	if meanRB(trR) >= meanRB(trN) {
		t.Fatalf("rush-hour RBs %.1f not below midnight %.1f", meanRB(trR), meanRB(trN))
	}
}

func TestUECapabilityShapesDataset(t *testing.T) {
	// Paper Fig 29: S10 cannot CA, S22 reaches 3CC.
	run := func(m ran.Modem) int {
		_, st := Run(RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Walking,
			Modem: m, Tech: spectrum.NR, DurationS: 60, StepS: 0.1, Seed: 29,
		})
		return st.MaxActiveCCs
	}
	if got := run(ran.ModemX50); got > 1 {
		t.Fatalf("S10 aggregated %d CCs", got)
	}
	if got := run(ran.ModemX65); got > 3 {
		t.Fatalf("S22 aggregated %d CCs", got)
	}
}

func TestGranularityAndSpecs(t *testing.T) {
	if Short.StepS() != 0.01 || Long.StepS() != 1 {
		t.Fatal("granularity steps wrong")
	}
	if Short.String() != "short" || Long.String() != "long" {
		t.Fatal("granularity strings wrong")
	}
	specs := AllSubDatasets(Short)
	if len(specs) != 6 {
		t.Fatalf("sub-datasets = %d, want 6", len(specs))
	}
	names := map[string]bool{}
	for _, sp := range specs {
		names[sp.Name()] = true
	}
	if !names["OpZ-driving-short"] || !names["OpX-walking-short"] {
		t.Fatalf("names = %v", names)
	}
}

func TestBuildSubDataset(t *testing.T) {
	d := Build(SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Walking, Gran: Long},
		BuildOpts{Traces: 3, SamplesPerTrace: 60, Seed: 31, Modem: ran.ModemX70})
	if len(d.Traces) != 3 {
		t.Fatalf("traces = %d", len(d.Traces))
	}
	for _, tr := range d.Traces {
		if len(tr.Samples) != 60 {
			t.Fatalf("trace samples = %d", len(tr.Samples))
		}
		if tr.Meta.Operator != "OpZ" || tr.Meta.Mobility != "walking" {
			t.Fatalf("meta = %+v", tr.Meta)
		}
	}
	// Traces must differ (different seeds/routes).
	if d.Traces[0].Samples[10].AggTput == d.Traces[1].Samples[10].AggTput {
		t.Fatal("traces identical")
	}
	if d.Name != "OpZ-walking-long" {
		t.Fatalf("name = %s", d.Name)
	}
}

func TestCensusCollectsCombos(t *testing.T) {
	_, st := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Driving,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 120, StepS: 0.1, Seed: 37,
	})
	if st.Census.OrderedCount() < 2 {
		t.Fatalf("census saw only %d combos", st.Census.OrderedCount())
	}
	if st.Census.SetCount() > st.Census.OrderedCount() {
		t.Fatal("set count exceeds ordered count")
	}
}

func TestIndoorWorseThanOutdoor(t *testing.T) {
	// Paper Fig 27: indoor throughput drops significantly compared to the
	// ideal (outdoor, LOS) channel condition.
	net, start := idealStart(t, spectrum.OpZ, 41)
	_, ideal := Run(RunConfig{
		Operator: spectrum.OpZ, Scenario: mobility.Urban, Mobility: mobility.Stationary,
		Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 40, StepS: 0.1, Seed: 41,
		Start: &start, Net: net, TODMultiplier: 0.4,
	})
	var indoorSum float64
	seeds := []uint64{41, 42, 43}
	for _, seed := range seeds {
		_, st := Run(RunConfig{
			Operator: spectrum.OpZ, Scenario: mobility.Indoor, Mobility: mobility.Walking,
			Modem: ran.ModemX70, Tech: spectrum.NR, DurationS: 40, StepS: 0.1, Seed: seed,
		})
		indoorSum += st.MeanAggMbps
	}
	indoor := indoorSum / float64(len(seeds))
	if indoor >= 0.6*ideal.MeanAggMbps {
		t.Fatalf("indoor %.0f not significantly below ideal %.0f", indoor, ideal.MeanAggMbps)
	}
}

// TestCensusMatchesPerStepKeys pins the census the runner keeps from the
// engine's combo keys, which are built only when the serving set changes,
// against a census built by recomputing both keys from the engine's PCell
// and SCells on every recorded step. The OpX run is the urban 10 ms trace
// of the sim_short golden (8-CC mmWave churn), the OpZ run an FR1 drive.
func TestCensusMatchesPerStepKeys(t *testing.T) {
	for _, c := range []struct {
		op   spectrum.Operator
		seed uint64
	}{{spectrum.OpX, 53}, {spectrum.OpZ, 1}} {
		spec := SubDatasetSpec{Operator: c.op, Mobility: mobility.Driving, Gran: Short}
		cfg := BuildConfigs(spec, BuildOpts{Traces: 1, SamplesPerTrace: 240, Seed: c.seed, Modem: ran.ModemX70})[0]
		r := NewRunner(cfg)
		for t := 0.0; t < r.Cfg().WarmupS; t += WarmupStepS {
			r.WarmStep(WarmupStepS)
		}
		r.BeginRecording()
		ref := spectrum.NewComboCensus()
		for i := 0; i < r.Steps(); i++ {
			r.RecordStep()
			if pc := r.eng.PCell(); pc != nil {
				combo := spectrum.Combo{pc.Cell.Chan}
				for _, s := range r.eng.SCells() {
					combo = append(combo, s.Cell.Chan)
				}
				ref.Observe(combo)
			}
		}
		_, st := r.Finish()
		if !reflect.DeepEqual(st.Census, ref) {
			t.Errorf("%s: census %v (%d sets) differs from per-step keys %v (%d sets)",
				c.op, st.Census.Keys(), st.Census.SetCount(), ref.Keys(), ref.SetCount())
		}
		if ref.OrderedCount() < 2 {
			t.Errorf("%s: only %d combos seen, the run exercises no CA churn", c.op, ref.OrderedCount())
		}
	}
}

// TestRecordStepAllocatesNothing pins the allocation-free 10 ms step:
// across a recorded run only CA events and a cell's first measurement
// allocate, far less than once per step on average.
func TestRecordStepAllocatesNothing(t *testing.T) {
	spec := SubDatasetSpec{Operator: spectrum.OpX, Mobility: mobility.Driving, Gran: Short}
	cfg := BuildConfigs(spec, BuildOpts{Traces: 1, SamplesPerTrace: 240, Seed: 53, Modem: ran.ModemX70})[0]
	r := NewRunner(cfg)
	for t := 0.0; t < r.Cfg().WarmupS; t += WarmupStepS {
		r.WarmStep(WarmupStepS)
	}
	r.BeginRecording()
	// AllocsPerRun makes one extra warm-up call: Steps()-1 runs record
	// exactly the run's samples.
	if allocs := testing.AllocsPerRun(r.Steps()-1, r.RecordStep); allocs != 0 {
		t.Fatalf("RecordStep allocated %v times per step, want 0", allocs)
	}
}

// TestParseGranularity accepts both granularities by their exact String
// form and rejects anything else, such as a step length, with an error
// naming the accepted values.
func TestParseGranularity(t *testing.T) {
	for _, g := range []Granularity{Short, Long} {
		if got, err := ParseGranularity(g.String()); got != g || err != nil {
			t.Fatalf("ParseGranularity(%q) = %v, %v", g, got, err)
		}
	}
	if _, err := ParseGranularity("1s"); err == nil || !strings.Contains(err.Error(), "short or long") {
		t.Fatalf("ParseGranularity(\"1s\") error = %v", err)
	}
}
