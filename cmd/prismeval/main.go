// Command prismeval renders the paper's tables and figures from the one
// artifact table, experiments.Artifacts: the measurement study, the
// channel plans, the learning evaluation, the QoE use cases and the
// population streaming pipeline. The fault-severity sweep is a scenario
// grid: prismgrid -config examples/grids/robustness.json.
//
// Usage:
//
//	prismeval [-quick] [-seed N] [-workers N] [-only name,...]
//	          [-metrics file] [-journal file] [-journal-max-mb N] [-pprof addr]
//
// -only names the entries to render (fig6, table4, runtime, population,
// ...); without it every entry runs, which takes minutes. -seed drives the
// learning and QoE entries; the measurement figures and Fig 8 keep their
// own seeds. The telemetry flags are off by default; any of them enables
// the process-wide metrics registry (see DESIGN.md "Observability")
// without changing any computed artifact.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"prism5g/internal/experiments"
	"prism5g/internal/obs"
)

func main() {
	quick := flag.Bool("quick", true, "train at the small configuration (the paper-scale run takes ~1 h)")
	seed := flag.Uint64("seed", 42, "seed of the learning and QoE entries")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU, 1 = legacy serial; results are identical at any setting")
	only := flag.String("only", "", "comma-separated artifact names to render (default: every entry)")
	teleFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	arts, err := experiments.SelectArtifacts(names)
	if err != nil {
		log.Fatalf("prismeval: %v", err)
	}

	tele, err := teleFlags.Start()
	if err != nil {
		log.Fatalf("prismeval: %v", err)
	}
	if addr := tele.PprofAddr(); addr != "" {
		fmt.Printf("pprof: http://%s/debug/pprof/\n", addr)
	}

	cfg := experiments.PaperMLConfig(*seed)
	if *quick {
		cfg = experiments.QuickMLConfig(*seed)
	}
	cfg.Workers = *workers
	for i, a := range arts {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", a.Title)
		if err := a.Run(os.Stdout, cfg); err != nil {
			log.Fatalf("prismeval: %s: %v", a.Name, err)
		}
	}
	if tele.Active() {
		fmt.Println(tele.Summary())
		if err := tele.Close(); err != nil {
			log.Fatalf("prismeval: %v", err)
		}
	}
}
