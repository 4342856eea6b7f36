package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"prism5g/internal/faults"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/ran"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// traceJSON is the trace's JSON encoding, the byte-identity currency of
// the dataset files.
func traceJSON(t *testing.T, tr trace.Trace) []byte {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runAndCut is the reference runCut must equal: the full run, then the
// cut.
func runAndCut(cfg RunConfig, n int) (trace.Trace, faults.Report) {
	tr, stats := Run(cfg)
	return CutAroundTransition(tr, n), stats.Faults
}

// TestShortBuildMatchesRunAndCut is the law of the short build's scout
// and replay: every trace of a short BuildReport is
// CutAroundTransition(Run(cfg), n), byte for byte in the trace JSON, for
// every operator, walking and driving, downlink and uplink, and seeds 1-3.
func TestShortBuildMatchesRunAndCut(t *testing.T) {
	const n = 240
	cut := 0
	for _, op := range spectrum.AllOperators() {
		for _, mob := range []mobility.Mobility{mobility.Walking, mobility.Driving} {
			for _, dir := range []string{trace.DirectionDL, trace.DirectionUL} {
				for seed := uint64(1); seed <= 3; seed++ {
					spec := SubDatasetSpec{Operator: op, Mobility: mob, Gran: Short}
					opts := BuildOpts{Traces: 3, SamplesPerTrace: n, Seed: seed, Modem: ran.ModemX70, Direction: dir}
					ds, _ := BuildReport(spec, opts)
					for i, cfg := range BuildConfigs(spec, opts) {
						cfg.defaults()
						if !replays(&cfg, n) {
							t.Fatalf("%s %s seed %d trace %d: not replayed", spec.Name(), dir, seed, i)
						}
						full, _ := Run(cfg)
						want := CutAroundTransition(full, n)
						if !bytes.Equal(traceJSON(t, ds.Traces[i]), traceJSON(t, want)) {
							t.Fatalf("%s %s seed %d trace %d differs from Run and the cut", spec.Name(), dir, seed, i)
						}
						if want.Samples[0].T != full.Samples[0].T {
							cut++
						}
					}
				}
			}
		}
	}
	// The law says nothing unless segments start past the head.
	if cut < 36 {
		t.Fatalf("only %d of 108 segments start past the run's first sample", cut)
	}
}

// TestShortBuildEdgeCases pins runCut where the replay meets an edge: a
// cut that keeps the whole run, a run without a transition, a fault plan
// and the worker count.
func TestShortBuildEdgeCases(t *testing.T) {
	spec := SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: Short}
	cfg := BuildConfigs(spec, BuildOpts{Traces: 1, SamplesPerTrace: 240, Seed: 5, Modem: ran.ModemX70})[0]
	check := func(name string, cfg RunConfig, n int) {
		t.Helper()
		got, gotRep := runCut(cfg, n)
		want, wantRep := runAndCut(cfg, n)
		if !bytes.Equal(traceJSON(t, got), traceJSON(t, want)) || gotRep != wantRep {
			t.Fatalf("%s: runCut differs from Run and the cut", name)
		}
	}

	t.Run("uncut", func(t *testing.T) {
		c := cfg
		c.DurationS = 3
		for _, n := range []int{0, 300, 301} {
			check("n", c, n)
			if got, _ := runCut(c, n); len(got.Samples) != 300 {
				t.Fatalf("n=%d: %d samples, want the whole run's 300", n, len(got.Samples))
			}
		}
	})

	t.Run("no transition", func(t *testing.T) {
		c := cfg
		c.ChannelLock = []string{spectrum.PlanFor(c.Operator).Channels[0].ID()}
		full, _ := Run(c)
		for i := 1; i < len(full.Samples); i++ {
			if full.Samples[i].NumActiveCCs != full.Samples[i-1].NumActiveCCs {
				t.Fatalf("a one-channel run changes its active-CC count at sample %d", i)
			}
		}
		c.defaults()
		if !replays(&c, 240) {
			t.Fatal("the one-channel run is not replayed")
		}
		check("no transition", c, 240)
	})

	t.Run("faulted", func(t *testing.T) {
		plan := faults.PlanAtSeverity(0.5)
		opts := BuildOpts{Traces: 2, SamplesPerTrace: 240, Seed: 9, Modem: ran.ModemX70, Faults: &plan}
		ds, rep := BuildReport(spec, opts)
		var wantRep faults.Report
		for i, c := range BuildConfigs(spec, opts) {
			c.defaults()
			if replays(&c, 240) {
				t.Fatal("a faulted run is replayed")
			}
			want, r := runAndCut(c, 240)
			wantRep.Add(r)
			if !bytes.Equal(traceJSON(t, ds.Traces[i]), traceJSON(t, want)) {
				t.Fatalf("faulted trace %d differs from Run and the cut", i)
			}
		}
		if rep != wantRep || rep.Total() == 0 {
			t.Fatalf("fault report %+v, want %+v and nonzero", rep, wantRep)
		}
	})

	t.Run("workers", func(t *testing.T) {
		encode := func(workers int) []byte {
			d := Build(spec, BuildOpts{Traces: 4, SamplesPerTrace: 240, Seed: 11, Modem: ran.ModemX70, Workers: workers})
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(encode(0), encode(1)) {
			t.Fatal("the short build differs between 0 and 1 workers")
		}
	})
}

// TestShortBuildTelemetryMatchesRunAndCut pins the replay's telemetry to
// Run's: the same sim.* counters (samples_generated counts the simulated
// steps, rrc_events and cc_changes the whole run), one sim.trace_build
// span per trace, and the same journal events up to their durations.
func TestShortBuildTelemetryMatchesRunAndCut(t *testing.T) {
	const n = 240
	spec := SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: Short}
	cfgs := BuildConfigs(spec, BuildOpts{Traces: 3, SamplesPerTrace: n, Seed: 1, Modem: ran.ModemX70})
	for _, c := range cfgs {
		if c.defaults(); !replays(&c, n) {
			t.Fatal("the build's runs are not replayed")
		}
	}
	record := func(build func(RunConfig, int) (trace.Trace, faults.Report)) (obs.Snapshot, []obs.Event) {
		reg := obs.New()
		var journal bytes.Buffer
		reg.SetJournal(obs.NewJournal(&journal))
		prev := obs.SetDefault(reg)
		defer obs.SetDefault(prev)
		for _, c := range cfgs {
			build(c, n)
		}
		if err := reg.Journal().Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(&journal)
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), evs
	}
	got, gotEvs := record(runCut)
	want, wantEvs := record(runAndCut)

	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatalf("counters %v, want %v", got.Counters, want.Counters)
	}
	if want.Counters["sim.samples_generated"] != int64(len(cfgs)*4500) || want.Counters["sim.cc_changes"] == 0 {
		t.Fatalf("reference counters %v do not count whole runs", want.Counters)
	}
	if !reflect.DeepEqual(got.Gauges, want.Gauges) {
		t.Fatalf("gauges %v, want %v", got.Gauges, want.Gauges)
	}
	if len(got.Histograms) != len(want.Histograms) {
		t.Fatalf("%d histograms, want %d", len(got.Histograms), len(want.Histograms))
	}
	for name, h := range want.Histograms {
		if got.Histograms[name].Count != h.Count {
			t.Fatalf("histogram %s: %d observations, want %d", name, got.Histograms[name].Count, h.Count)
		}
	}
	if c := want.Histograms["sim.trace_build"].Count; c != uint64(len(cfgs)) {
		t.Fatalf("%d sim.trace_build spans, want one per trace", c)
	}
	if len(gotEvs) != len(wantEvs) {
		t.Fatalf("%d journal events, want %d", len(gotEvs), len(wantEvs))
	}
	for i := range wantEvs {
		g, w := gotEvs[i], wantEvs[i]
		delete(g.Fields, "dur_s")
		delete(w.Fields, "dur_s")
		if g.Name != w.Name || !reflect.DeepEqual(g.Fields, w.Fields) {
			t.Fatalf("event %d: %s %v, want %s %v", i, g.Name, g.Fields, w.Name, w.Fields)
		}
	}
}

// BenchmarkBuildShort builds the sim-short benchmark's datasets (OpZ and
// OpX driving at 10 ms, 6 traces of 240 samples each) on one worker and
// reports the traces built per second.
func BenchmarkBuildShort(b *testing.B) {
	specs := []SubDatasetSpec{
		{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: Short},
		{Operator: spectrum.OpX, Mobility: mobility.Driving, Gran: Short},
	}
	opts := BuildOpts{Traces: 6, SamplesPerTrace: 240, Seed: 1, Modem: ran.ModemX70, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			Build(spec, opts)
		}
	}
	b.ReportMetric(float64(b.N*len(specs)*opts.Traces)/b.Elapsed().Seconds(), "traces/s")
}
