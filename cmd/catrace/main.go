// Command catrace generates measurement traces and prints or exports them:
// the time-series views of paper Figs 6/7 plus CSV/JSON export for further
// analysis.
//
// Usage:
//
//	catrace -mode fig6|fig7|dataset [-seed N] [-csv out.csv] [-json out.json]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
)

func main() {
	mode := flag.String("mode", "fig7", "fig6 (aggregate vs sum), fig7 (transition trace) or dataset (ML sub-dataset)")
	seed := flag.Uint64("seed", 42, "run seed")
	csvPath := flag.String("csv", "", "write the trace as CSV to this path")
	jsonPath := flag.String("json", "", "write the dataset as JSON to this path")
	op := flag.String("op", "OpZ", "operator for dataset mode")
	mob := flag.String("mobility", "driving", "stationary, walking or driving for dataset mode")
	gran := flag.String("gran", "long", "short (10ms) or long (1s) for dataset mode")
	flag.Parse()

	switch *mode {
	case "fig6":
		res := experiments.Fig6AggregateVsSum(*seed)
		fmt.Printf("n41 alone: %.0f Mbps   n25 alone: %.0f Mbps   sum: %.0f Mbps\n",
			res.AloneA, res.AloneB, res.TheoreticalSum)
		fmt.Printf("n41+n25 aggregate: %.0f Mbps  (mean deficit %.1f%%, max instantaneous %.1f%%)\n",
			res.Aggregate, res.MeanDeficitPct, res.MaxDeficitPct)
		fmt.Println("\naggregate series (Mbps, 1 sample per 100 ms):")
		printSeries(res.SeriesAgg, 10)
	case "fig7":
		res := experiments.Fig7TransitionTrace(*seed)
		fmt.Printf("120 s urban drive: %d CC changes, largest 1 s throughput swing %.1fx\n",
			res.CCChanges, res.MaxStepRatio)
		fmt.Println("\nRRC events:")
		for _, ev := range res.Events {
			fmt.Printf("  %s\n", ev)
		}
		fmt.Println("\naggregate series (Mbps):")
		printSeries(res.Trace.AggSeries(), 10)
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := res.Trace.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			fmt.Println("\nwrote", *csvPath)
		}
	case "dataset":
		o, errOp := spectrum.ParseOperator(*op)
		m, errMob := mobility.ParseMobility(*mob)
		g, errGran := sim.ParseGranularity(*gran)
		if err := errors.Join(errOp, errMob, errGran); err != nil {
			log.Fatal(err)
		}
		spec := sim.SubDatasetSpec{Operator: o, Mobility: m, Gran: g}
		ds := sim.Build(spec, sim.BuildOpts{Traces: 10, SamplesPerTrace: 450, Seed: *seed, Modem: ran.ModemX70})
		fmt.Printf("built %s: %d traces, %d samples\n", ds.Name, len(ds.Traces), ds.NumSamples())
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := ds.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", *jsonPath)
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// printSeries renders a series as a coarse ASCII strip chart, one row per
// group of samples.
func printSeries(series []float64, group int) {
	maxV := 0.0
	for _, v := range series {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	for i := 0; i < len(series); i += group {
		end := i + group
		if end > len(series) {
			end = len(series)
		}
		avg := 0.0
		for _, v := range series[i:end] {
			avg += v
		}
		avg /= float64(end - i)
		bars := int(40 * avg / maxV)
		fmt.Printf("%6d |%s %.0f\n", i, strings.Repeat("#", bars), avg)
	}
}
