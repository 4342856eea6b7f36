package trace

import (
	"math"
	"testing"
)

// degradedDataset builds a dataset with the full menu of defects Repair
// handles: imputed NaN fields, an out-of-range clamp, a broken activation
// mask, a timestamp swap and a logging gap.
func degradedDataset(traces, samples int) *Dataset {
	d := makeDataset(traces, samples)
	for ti := range d.Traces {
		tr := &d.Traces[ti]
		for i := 5; i < len(tr.Samples); i += 9 {
			tr.Samples[i].AggTput = math.NaN()
		}
		for i := 7; i < len(tr.Samples); i += 11 {
			tr.Samples[i].CCs[1].Vec[FRSRP] = math.Inf(1)
		}
		tr.Samples[2].CCs[0].Vec[FBLER] = 3 // out of [0,1]
		tr.Samples[3].NumActiveCCs = 7      // exceeds the present CCs
		tr.Samples[9].T, tr.Samples[10].T = tr.Samples[10].T, tr.Samples[9].T
		// Carve a 4-step hole near the end.
		cut := len(tr.Samples) - 10
		tr.Samples = append(tr.Samples[:cut], tr.Samples[cut+4:]...)
	}
	return d
}

// BenchmarkRepair measures the ingest repair pass over a dataset carrying
// every defect class. The degraded copy is rebuilt outside the timed
// region each iteration (Repair mutates its receiver). Paired with
// BENCH_obs.json via scripts/benchjson.sh.
func BenchmarkRepair(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := degradedDataset(4, 200)
		b.StartTimer()
		rep := d.Repair()
		if rep.Total() == 0 {
			b.Fatal("repair found nothing to fix in degraded data")
		}
	}
	b.ReportMetric(float64(4*b.N)/b.Elapsed().Seconds(), "traces/s")
}

// BenchmarkWindows measures the bulk window builder — the path every
// experiment and training run goes through. windows/s is one of the
// tracked headline throughput numbers (see BENCH_obs.json).
func BenchmarkWindows(b *testing.B) {
	d := makeDataset(8, 400)
	var sc Scaler
	sc.Fit(d.Traces)
	opts := WindowOpts{History: 10, Horizon: 5, Stride: 2}
	n := len(Windows(d, &sc, opts))
	if n == 0 {
		b.Fatal("no windows built")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Windows(d, &sc, opts)
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "windows/s")
}

// BenchmarkMakeWindow measures the single-window online path (serving-time
// extraction), which scales only the samples its window covers.
func BenchmarkMakeWindow(b *testing.B) {
	d := makeDataset(1, 400)
	var sc Scaler
	sc.Fit(d.Traces)
	opts := WindowOpts{History: 10, Horizon: 5, Stride: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MakeWindow(&d.Traces[0], 0, i%300, &sc, opts)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
}
