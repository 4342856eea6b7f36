package conform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"prism5g/internal/experiments"
	"prism5g/internal/faults"
	"prism5g/internal/obs"
	"prism5g/internal/predictors"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/trace"
)

// metamorphicChecks lists the cross-run relations: properties of *pairs*
// of executions rather than single outputs.
func metamorphicChecks() []Check {
	return []Check{
		{Name: "fault-severity-zero", Figs: "fault layer", Run: checkFaultSeverityZero},
		{Name: "repair-clean-identity", Figs: "trace layer", Run: checkRepairClean},
		{Name: "seed-shift-stability", Figs: "sim layer", Run: checkSeedShift},
		{Name: "scaling-homogeneity", Figs: "§6 baselines", Run: checkScalingHomogeneity},
		{Name: "telemetry-transparency", Figs: "obs layer", Run: checkTelemetryTransparency},
	}
}

// checkTelemetryTransparency: enabling telemetry must not perturb any
// computed artifact — a sim.BuildReport dataset and a Table 4 cell
// (TrainTime stripped, the one legitimately wall-clock output) must be
// byte-identical with the registry off and on at the same seed, while the
// enabled run must actually record the pipeline (nonzero sim, trace and
// train counters — an inert registry would make the law vacuous).
func checkTelemetryTransparency(c *Ctx) []Violation {
	const name = "telemetry-transparency"
	var out []Violation
	simOpts := sim.BuildOpts{Traces: 2, SamplesPerTrace: 40, Seed: c.Cfg.Seed,
		Modem: ran.ModemX70, Workers: c.Cfg.Workers}
	mlCfg := experiments.MLConfig{
		Traces: 3, SamplesPerTrace: 40, Stride: 3,
		Hidden: 4, Epochs: 2, Patience: 2, Seed: c.Cfg.Seed,
		Models:  []string{"LSTM"},
		Workers: c.Cfg.Workers,
	}
	run := func() (dsJSON, t4JSON []byte, err error) {
		ds, _ := sim.BuildReport(mlSpec(), simOpts)
		dsJSON, err = json.Marshal(ds)
		if err != nil {
			return nil, nil, err
		}
		var rows []table4Row
		for _, cell := range experiments.Table4Cell(mlSpec(), mlCfg) {
			rows = append(rows, table4Row{
				Dataset: cell.Dataset, Model: cell.Model,
				RMSE: cell.RMSE, Epochs: cell.Epochs,
			})
		}
		t4JSON, err = json.Marshal(rows)
		return dsJSON, t4JSON, err
	}
	offDS, offT4, errOff := run()
	reg := obs.New()
	var journal bytes.Buffer
	reg.SetJournal(obs.NewJournal(&journal))
	prev := obs.SetDefault(reg)
	onDS, onT4, errOn := run()
	obs.SetDefault(prev)
	if errOff != nil || errOn != nil {
		return append(out, violate(name, "marshal", "artifacts must serialize",
			fmt.Sprintf("%v / %v", errOff, errOn), "no error"))
	}
	if !bytes.Equal(offDS, onDS) {
		out = append(out, violate(name, "dataset",
			"enabling telemetry changed the generated dataset", "bytes differ", "byte-identical"))
	}
	if !bytes.Equal(offT4, onT4) {
		out = append(out, violate(name, "table4",
			"enabling telemetry changed the Table 4 cell", "bytes differ", "byte-identical"))
	}
	for _, counter := range []string{"sim.traces_built", "trace.windows_built", "train.epochs"} {
		if reg.Counter(counter).Value() == 0 {
			out = append(out, violate(name, counter,
				"the enabled run must record the pipeline", 0, "> 0"))
		}
	}
	if err := reg.Journal().Flush(); err != nil {
		out = append(out, violate(name, "journal", "journal must flush", err, "no error"))
	} else if evs, err := obs.ReadEvents(&journal); err != nil || len(evs) == 0 {
		out = append(out, violate(name, "journal",
			"the enabled run must journal events",
			fmt.Sprintf("%d events, err %v", len(evs), err), "> 0 events, no error"))
	}
	return out
}

// checkFaultSeverityZero: a severity-0 fault plan must be indistinguishable
// from no plan at all — byte-identical dataset, zero fault report.
func checkFaultSeverityZero(c *Ctx) []Violation {
	const name = "fault-severity-zero"
	var out []Violation
	zero := faults.PlanAtSeverity(0)
	if zero.Enabled() {
		out = append(out, violate(name, "plan", "severity 0 must produce a disabled plan", "enabled", "disabled"))
	}
	opts := sim.BuildOpts{Traces: 2, SamplesPerTrace: 40, Seed: c.Cfg.Seed,
		Modem: ran.ModemX70, Workers: c.Cfg.Workers}
	clean, cleanRep := sim.BuildReport(mlSpec(), opts)
	optsZ := opts
	optsZ.Faults = &zero
	zeroed, zeroRep := sim.BuildReport(mlSpec(), optsZ)
	if cleanRep.Total() != 0 || zeroRep.Total() != 0 {
		out = append(out, violate(name, "report", "no faults may be reported",
			fmt.Sprintf("clean=%d zero=%d", cleanRep.Total(), zeroRep.Total()), "0 and 0"))
	}
	a, errA := json.Marshal(clean)
	b, errB := json.Marshal(zeroed)
	if errA != nil || errB != nil {
		out = append(out, violate(name, "marshal", "dataset must serialize",
			fmt.Sprintf("%v / %v", errA, errB), "no error"))
	} else if string(a) != string(b) {
		out = append(out, violate(name, "dataset",
			"severity-0 faults changed the generated dataset", "bytes differ", "byte-identical"))
	}
	return out
}

// checkRepairClean: repairing a clean dataset must be the identity — no
// fixes applied, bytes unchanged.
func checkRepairClean(c *Ctx) []Violation {
	const name = "repair-clean-identity"
	var out []Violation
	before, err := json.Marshal(c.SimReport().DS)
	if err != nil {
		return []Violation{violate(name, "marshal", "dataset must serialize", err, "no error")}
	}
	var cp trace.Dataset
	if err := json.Unmarshal(before, &cp); err != nil {
		return []Violation{violate(name, "roundtrip", "dataset must round-trip JSON", err, "no error")}
	}
	vrep, rrep := cp.ValidateAndRepair()
	if !vrep.OK() {
		out = append(out, violate(name, "validate",
			"a freshly simulated clean dataset failed validation",
			fmt.Sprintf("%d findings", len(vrep.Errors)), "0 findings"))
	}
	if rrep != (trace.RepairReport{}) {
		out = append(out, violate(name, "repair",
			"repair applied fixes to clean data", fmt.Sprintf("%+v", rrep), "zero report"))
	}
	after, err := json.Marshal(&cp)
	if err != nil {
		return append(out, violate(name, "marshal", "repaired dataset must serialize", err, "no error"))
	}
	if string(before) != string(after) {
		out = append(out, violate(name, "identity",
			"Repair(clean) changed the dataset", "bytes differ", "byte-identical"))
	}
	return out
}

// checkSeedShift: re-seeding moves dataset-level statistics only within a
// band — the simulator's distributions are properties of the configuration,
// not of one lucky seed. The comparison runs at the dataset level (three
// walking traces averaged together) because a single run's mean
// legitimately swings several-fold with its serving cell's load and
// position draw.
func checkSeedShift(c *Ctx) []Violation {
	const name = "seed-shift-stability"
	var out []Violation
	dsMean := func(ds *trace.Dataset) float64 {
		sum, n := 0.0, 0
		for _, tr := range ds.Traces {
			for _, s := range tr.Samples {
				sum += s.AggTput
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	a := dsMean(c.SimReport().DS)
	shifted, _ := sim.BuildReport(mlSpec(), sim.BuildOpts{
		Traces: 3, SamplesPerTrace: 60, Seed: c.Cfg.Seed + 1,
		Modem: ran.ModemX70, Workers: c.Cfg.Workers,
	})
	b := dsMean(shifted)
	for _, v := range []float64{a, b} {
		if !(v > 0) || !finite(v) {
			out = append(out, violate(name, "mean", "throughput must be positive and finite", v, "> 0"))
		}
	}
	if len(out) > 0 {
		return out
	}
	ratio := a / b
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 3 {
		out = append(out, violate(name, "ratio",
			"re-seeding moved the dataset mean throughput by more than 3x",
			fmt.Sprintf("%.1f vs %.1f Mbps", a, b), "within 3x"))
	}
	return out
}

// historyWindow is a hand-built window carrying only the aggregate
// throughput history, the one input HarmonicMean reads.
func historyWindow(hist []float64, horizon int) trace.Window {
	w := trace.NewWindow(len(hist), horizon)
	copy(w.AggHist(), hist)
	return w
}

// checkScalingHomogeneity: the harmonic-mean baseline is a degree-1
// homogeneous function of its history — scaling the input scales the
// forecast by the same factor.
func checkScalingHomogeneity(c *Ctx) []Violation {
	const name = "scaling-homogeneity"
	var out []Violation
	base := []float64{120, 80, 200, 150, 60, 90, 110, 140, 70, 100}
	hm := &predictors.HarmonicMean{Horizon: 3}
	ref := hm.Predict(historyWindow(base, 3))
	for _, k := range []float64{0.5, 2, 10} {
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = k * v
		}
		got := hm.Predict(historyWindow(scaled, 3))
		for i := range got {
			want := k * ref[i]
			if math.Abs(got[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				out = append(out, violate(name, fmt.Sprintf("k=%g pred[%d]", k, i),
					"HarmonicMean(k*x) must equal k*HarmonicMean(x)", got[i], want))
			}
		}
	}
	return out
}
