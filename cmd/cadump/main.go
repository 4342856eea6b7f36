// Command cadump surveys the simulated operators and prints the CA
// deployment census: the channel plans, observed CA combinations and
// coverage statistics of paper Tables 1/2/6/7 and Figs 4/25.
//
// Usage:
//
//	cadump [-op OpX|OpY|OpZ|all] [-seed N] [-map]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"prism5g/internal/experiments"
	"prism5g/internal/spectrum"
)

func main() {
	opFlag := flag.String("op", "all", "operator to survey (OpX, OpY, OpZ or all)")
	seed := flag.Uint64("seed", 42, "campaign seed")
	showMap := flag.Bool("map", false, "print the urban CA map (Fig 4)")
	flag.Parse()

	ops := spectrum.AllOperators()
	if *opFlag != "all" {
		op, err := spectrum.ParseOperator(*opFlag)
		if err != nil {
			log.Fatalf("unknown operator %q (want OpX, OpY, OpZ or all)", *opFlag)
		}
		ops = []spectrum.Operator{op}
	}

	fmt.Println("== Channel plans (paper Tables 2(a)/6) ==")
	for _, op := range ops {
		plan := spectrum.PlanFor(op)
		fmt.Printf("\n%s: %d channels across bands %s\n", op, len(plan.Channels), strings.Join(plan.UniqueBands(), " "))
		fmt.Printf("  %-10s %-6s %-10s %-8s %s\n", "Channel", "Mode", "Freq(MHz)", "BW(MHz)", "Class")
		for _, c := range plan.Channels {
			fmt.Printf("  %-10s %-6s %-10.0f %-8.0f %s\n",
				c.ID(), c.Band.Duplex, c.CenterMHz, c.BandwidthMHz, c.Band.Class())
		}
	}

	fmt.Println("\n== Driving census (paper Tables 1/2(b)/7) ==")
	for _, op := range ops {
		res := experiments.Table2ChannelCensus(op, *seed)
		fmt.Printf("\n%s: %.0f km driven over %.0f min\n", op, res.DistanceKM, res.DurationMin)
		fmt.Printf("  4G: %d channels, up to %d CCs, %d/%d combos (ordered/unique)\n",
			res.Channels4G, res.Max4GCCs, res.Ordered4G, res.Unique4G)
		fmt.Printf("  5G: %d channels, up to %d CCs, %d/%d combos, max agg BW %.0f MHz\n",
			res.Channels5G, res.Max5GCCs, res.Ordered5G, res.Unique5G, res.MaxAggBW5GMHz)
		fmt.Println("  top 5G combos:")
		for _, c := range res.TopCombos5G {
			fmt.Printf("    %s\n", c)
		}
	}

	fmt.Println("\n== CA prevalence while driving (paper Figs 25/26) ==")
	fmt.Printf("%-5s %-10s %8s %8s %10s %10s\n", "Op", "Scenario", "5G%", "CA%", "Mean Mbps", "CCchg(s)")
	for _, op := range ops {
		for _, row := range experiments.Fig25DrivingPrevalence(op, *seed) {
			fmt.Printf("%-5s %-10s %7.0f%% %7.0f%% %10.0f %10.1f\n",
				row.Operator, row.Scenario, 100*row.NRFraction, 100*row.CAFraction,
				row.MeanMbps, row.EventPeriodS)
		}
	}

	if *showMap {
		fmt.Println("\n== Urban CA map, 100 m grid (paper Fig 4) ==")
		cells := experiments.Fig4UrbanCAMap(ops[0], *seed)
		for _, c := range cells {
			bar := strings.Repeat("#", int(c.MeanCCs*2+0.5))
			fmt.Printf("  (%3d,%3d) meanCCs=%.1f %s\n", c.X, c.Y, c.MeanCCs, bar)
		}
	}
	os.Exit(0)
}
