// Benchmark harness: BenchmarkPaper renders every paper table and figure
// of experiments.Artifacts as a sub-benchmark named after the entry, and
// prints each entry's rows once under a "--- <title> ---" header, so the
// suite doubles as the reproduction harness:
//
//	go test -run '^$' -bench BenchmarkPaper -benchtime 1x .
//	go test -run '^$' -bench 'BenchmarkPaper/fig6$' -benchtime 1x .
//
// The learning and QoE entries train at QuickMLConfig(42); set the
// environment variable PRISM5G_PAPER=1 to train them at PaperMLConfig(42)
// (tens of minutes per entry). The measurement entries and Fig 8 keep
// their own seeds at either scale.
package prism5g_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
)

// once guards the row printing so repeated b.N iterations stay quiet.
var printOnce sync.Map

func printRows(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n--- %s ---\n%s", key, text)
	}
}

func BenchmarkPaper(b *testing.B) {
	cfg := experiments.QuickMLConfig(42)
	if os.Getenv("PRISM5G_PAPER") == "1" {
		cfg = experiments.PaperMLConfig(42)
	}
	for _, a := range experiments.Artifacts() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out strings.Builder
				if err := a.Run(&out, cfg); err != nil {
					b.Fatal(err)
				}
				printRows(a.Title, out.String())
			}
		})
	}
}

// BenchmarkParallelBuild measures the deterministic worker-pool speedup on
// dataset generation: same seed, same bytes, different worker counts.
func BenchmarkParallelBuild(b *testing.B) {
	spec := sim.SubDatasetSpec{Operator: spectrum.OpZ, Mobility: mobility.Driving, Gran: sim.Long}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Build(spec, sim.BuildOpts{
					Traces: 8, SamplesPerTrace: 400, Seed: 42,
					Modem: ran.ModemX70, Workers: workers,
				})
			}
			// Simulated traces generated per second — a tracked headline
			// number alongside windows/s (see BENCH_obs.json).
			b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "traces/s")
		})
	}
}

// BenchmarkParallelTable4 measures the pool across the full experiment
// fan-out: sub-dataset builds and model training at 1 vs 4 workers.
func BenchmarkParallelTable4(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.MLConfig{
					Traces: 4, SamplesPerTrace: 200, Stride: 2,
					Hidden: 16, Epochs: 15, Patience: 5, Seed: 42,
					Models:  []string{"LSTM", "TCN", "Prism5G"},
					Workers: workers,
				}
				experiments.Table4(sim.Long, cfg)
			}
		})
	}
}
