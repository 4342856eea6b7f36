// Command prismtrain trains one throughput predictor on one sub-dataset and
// reports its test RMSE — the single-cell view of paper Table 4.
//
// Usage:
//
//	prismtrain [-model Prism5G] [-op OpZ] [-mobility driving] [-gran short]
//	           [-quick] [-seed N] [-metrics file] [-journal file] [-pprof addr]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
)

func main() {
	model := flag.String("model", "Prism5G", "Prophet, LSTM, TCN, Lumos5G, GBDT, RF, Prism5G, Prism5G-NoState or Prism5G-NoFusion")
	op := flag.String("op", "OpZ", "operator")
	mob := flag.String("mobility", "driving", "stationary, walking or driving")
	gran := flag.String("gran", "short", "short (10ms) or long (1s)")
	quick := flag.Bool("quick", false, "use the small CI-sized configuration")
	seed := flag.Uint64("seed", 42, "seed")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU, 1 = legacy serial; results are identical at any setting")
	teleFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	o, errOp := spectrum.ParseOperator(*op)
	m, errMob := mobility.ParseMobility(*mob)
	g, errGran := sim.ParseGranularity(*gran)
	if err := errors.Join(errOp, errMob, errGran); err != nil {
		log.Fatal(err)
	}
	spec := sim.SubDatasetSpec{Operator: o, Mobility: m, Gran: g}

	tele, err := teleFlags.Start()
	if err != nil {
		log.Fatalf("prismtrain: %v", err)
	}
	if addr := tele.PprofAddr(); addr != "" {
		fmt.Printf("pprof: http://%s/debug/pprof/\n", addr)
	}

	if !experiments.IsKnownModel(*model) {
		log.Fatalf("unknown model %q; known models: %s", *model, strings.Join(experiments.KnownModels(), ", "))
	}

	cfg := experiments.PaperMLConfig(*seed)
	if *quick {
		cfg = experiments.QuickMLConfig(*seed)
	}
	cfg.Models = []string{*model}
	cfg.Workers = *workers

	fmt.Printf("training %s on %s ...\n", *model, spec.Name())
	cells := experiments.Table4Cell(spec, cfg)
	if len(cells) == 0 {
		log.Fatal("no result")
	}
	c := cells[0]
	fmt.Printf("%s on %s: test RMSE %.4f (%d epochs, %v)\n",
		c.Model, c.Dataset, c.RMSE, c.Epochs, c.TrainTime.Round(1e6))
	if tele.Active() {
		fmt.Println(tele.Summary())
		if err := tele.Close(); err != nil {
			log.Fatalf("prismtrain: %v", err)
		}
	}
}
