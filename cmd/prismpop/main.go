// Command prismpop runs a city-scale population build: many UEs on a
// shared cell grid with per-cell contention and an optional rush-hour
// activity profile, streamed to a selectable sink.
//
// Usage:
//
//	prismpop [-op OpZ] [-scenario urban] [-mobility walking] [-modem X70]
//	         [-pop N] [-shardsize N] [-duration S] [-step S] [-seed N]
//	         [-workers N] [-sink memory|jsonl|discard] [-out file]
//	         [-rush-base F] [-rush-peak F] [-rush-at S] [-rush-width S]
//	         [-metrics file] [-journal file] [-pprof addr]
//
// The jsonl sink spills one trace per line to -out, keeping peak memory
// independent of the population size; discard counts and drops (for
// capacity measurements); memory materializes a dataset and prints its
// summary. The emitted stream is byte-identical at any -workers setting.
// -op and -mobility take the exact names grid configs take (OpZ,
// walking); -scenario and -modem ignore case.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/pop"
	"prism5g/internal/ran"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

func parseScenario(s string) (mobility.Scenario, error) {
	for _, sc := range mobility.AllScenarios() {
		if strings.EqualFold(sc.String(), s) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q (urban, suburban, beltway, indoor)", s)
}

func parseModem(s string) (ran.Modem, error) {
	for _, m := range ran.AllModems() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown modem %q (X50, X55, X60, X65, X70)", s)
}

func main() {
	opFlag := flag.String("op", "OpZ", "operator (OpX, OpY, OpZ)")
	scFlag := flag.String("scenario", "urban", "deployment scenario (urban, suburban, beltway, indoor)")
	mobFlag := flag.String("mobility", "walking", "mobility class (stationary, walking, driving)")
	modemFlag := flag.String("modem", "X70", "UE modem generation (X50..X70)")
	popSize := flag.Int("pop", 256, "population size (number of UEs)")
	shardSize := flag.Int("shardsize", 64, "UEs per shard (exact contention scope; partition is worker-independent)")
	duration := flag.Float64("duration", 60, "recorded seconds per UE")
	step := flag.Float64("step", 1, "sampling interval in seconds")
	seed := flag.Uint64("seed", 42, "campaign seed (grid, per-UE streams)")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU; output is identical at any setting")
	sinkKind := flag.String("sink", "memory", "trace sink: memory (materialize), jsonl (spill to -out), discard (count and drop)")
	out := flag.String("out", "pop.jsonl", "output path for the jsonl sink")
	rushBase := flag.Float64("rush-base", 0, "off-peak active fraction of the population (0 with rush-peak 0 = everyone active)")
	rushPeak := flag.Float64("rush-peak", 0, "rush-hour peak active fraction")
	rushAt := flag.Float64("rush-at", 0, "rush-hour peak time, seconds into the run")
	rushWidth := flag.Float64("rush-width", 0, "rush bump Gaussian width in seconds (0 = 600)")
	teleFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	op, err := spectrum.ParseOperator(*opFlag)
	if err != nil {
		log.Fatalf("prismpop: %v", err)
	}
	sc, err := parseScenario(*scFlag)
	if err != nil {
		log.Fatalf("prismpop: %v", err)
	}
	mob, err := mobility.ParseMobility(*mobFlag)
	if err != nil {
		log.Fatalf("prismpop: %v", err)
	}
	modem, err := parseModem(*modemFlag)
	if err != nil {
		log.Fatalf("prismpop: %v", err)
	}

	tele, err := teleFlags.Start()
	if err != nil {
		log.Fatalf("prismpop: %v", err)
	}
	if addr := tele.PprofAddr(); addr != "" {
		fmt.Printf("pprof: http://%s/debug/pprof/\n", addr)
	}

	cfg := pop.Config{
		Operator: op, Scenario: sc, Mobility: mob, Modem: modem,
		Population: *popSize, ShardSize: *shardSize,
		DurationS: *duration, StepS: *step,
		Seed: *seed, Workers: *workers,
		Rush: pop.RushProfile{Base: *rushBase, Peak: *rushPeak, PeakAtS: *rushAt, WidthS: *rushWidth},
	}

	var sink trace.Sink
	var dataset *trace.Dataset
	switch *sinkKind {
	case "memory":
		dataset = &trace.Dataset{
			Name:  fmt.Sprintf("pop-%s-%s-%d", cfg.Operator, cfg.Mobility, cfg.Population),
			StepS: cfg.StepS,
		}
		sink = trace.NewDatasetSink(dataset)
	case "jsonl":
		s, err := trace.CreateJSONLSink(*out)
		if err != nil {
			log.Fatalf("prismpop: %v", err)
		}
		sink = s
	case "discard":
		sink = &trace.DiscardSink{}
	default:
		log.Fatalf("prismpop: unknown sink %q (memory, jsonl, discard)", *sinkKind)
	}

	rep, err := pop.Build(cfg, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("prismpop: %v", err)
	}

	fmt.Printf("population %d (%d shards): %d traces, %d samples, mean %.1f Mbps, deepest cell contention %d UEs\n",
		rep.Population, rep.Shards, rep.Traces, rep.Samples, rep.MeanAggMbps, rep.MaxAttached)
	if rep.Faults.Total() > 0 {
		fmt.Printf("faults: %d injected\n", rep.Faults.Total())
	}
	switch *sinkKind {
	case "memory":
		fmt.Printf("dataset %q: %d traces, %d samples in memory\n",
			dataset.Name, len(dataset.Traces), dataset.NumSamples())
	case "jsonl":
		fmt.Printf("spilled to %s\n", *out)
	}

	if tele.Active() {
		fmt.Println(tele.Summary())
		if err := tele.Close(); err != nil {
			log.Fatalf("prismpop: %v", err)
		}
	}
}
