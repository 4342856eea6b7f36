package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads every untraced result file in dir, keyed by workload,
// then metric, then seed.
func loadResults(dir string) (map[string]map[string]map[uint64]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]map[uint64]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rf.Trace || !rf.Result.Correct {
			continue
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string]map[uint64]float64{}
		}
		for name, m := range rf.E2E {
			if out[rf.Workload][name] == nil {
				out[rf.Workload][name] = map[uint64]float64{}
			}
			out[rf.Workload][name][rf.Seed] = m.Value
		}
	}
	return out, nil
}

// verdict classifies head against base for one metric, by the rule of
// choosing-metrics §8: a gain needs head to win at least nine tenths of the
// seed-matched pairs (ties count for neither) and the medians to differ by
// more than base's quartile distance; a regression is a median worse by
// more than the bound; a base spread wider than the bound leaves the
// metric unresolved unless every head run beats every base run.
func verdict(base, head []float64, pairs [][2]float64, lowerBetter bool, bound float64) (string, float64) {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	share := float64(wins) / math.Max(float64(len(pairs)), 1)
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	worse := (mh - mb) / math.Abs(mb)
	if !lowerBetter {
		worse = -worse
	}
	allBetter := len(head) > 0 && len(base) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case len(pairs) > 0 && share >= 0.9 && math.Abs(mh-mb) > q3-q1:
		return "improved", share
	case worse > bound:
		return "regressed", share
	case (q3-q1)/math.Abs(mb) > bound && !allBetter:
		return "unresolved", share
	}
	return "no-worse", share
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the share of seed-matched pairs head won and the
// verdict. It exits 1 if any metric regressed.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "result directory of the parent commit")
	headDir := fs.String("head", "", "result directory of the change")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	base, err := loadResults(*baseDir)
	if err == nil {
		var head map[string]map[string]map[uint64]float64
		if head, err = loadResults(*headDir); err == nil {
			return printComparison(w, spec, base, head)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func printComparison(w io.Writer, spec benchSpec, base, head map[string]map[string]map[uint64]float64) int {
	var names []string
	for wl := range base {
		names = append(names, wl)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %12s %12s %12s %12s %6s %s\n",
		"workload", "metric", "base_med", "base_q1", "base_q3", "head_med", "head_q1", "head_q3", "won", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			bs, hs := base[wl][m.Name], head[wl][m.Name]
			if len(bs) == 0 || len(hs) == 0 {
				continue
			}
			var bv, hv []float64
			var pairs [][2]float64
			for seed, v := range bs {
				bv = append(bv, v)
				if h, ok := hs[seed]; ok {
					pairs = append(pairs, [2]float64{v, h})
				}
			}
			for _, v := range hs {
				hv = append(hv, v)
			}
			v, share := verdict(bv, hv, pairs, m.Better == "lower", m.Bound)
			if v == "regressed" {
				code = 1
			}
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Fprintf(w, "%-14s %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %5.0f%% %s\n",
				wl, m.Name, median(bv), bq1, bq3, median(hv), hq1, hq3, share*100, v)
		}
	}
	return code
}
