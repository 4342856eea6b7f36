package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"prism5g/internal/experiments"
	"prism5g/internal/sim"
)

func TestLoadPlanIsSeeded(t *testing.T) {
	a := newLoadPlan(7, 500, 2*time.Second)
	b := newLoadPlan(7, 500, 2*time.Second)
	c := newLoadPlan(8, 500, 2*time.Second)
	if len(a.arrivals) == 0 || len(a.arrivals) != len(b.arrivals) {
		t.Fatalf("arrival counts %d and %d", len(a.arrivals), len(b.arrivals))
	}
	for k := range a.arrivals {
		if a.arrivals[k] != b.arrivals[k] {
			t.Fatalf("arrival %d: %v != %v", k, a.arrivals[k], b.arrivals[k])
		}
		if !bytes.Equal(a.openRequest(k), b.openRequest(k)) {
			t.Fatalf("request %d differs for the same seed", k)
		}
		if !bytes.Equal(a.body("s", 1, k), b.body("s", 1, k)) {
			t.Fatalf("closed-loop body %d differs for the same seed", k)
		}
	}
	same := len(a.arrivals) == len(c.arrivals)
	for k := 0; same && k < len(a.arrivals); k++ {
		same = a.arrivals[k] == c.arrivals[k] && bytes.Equal(a.openRequest(k), c.openRequest(k))
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same plan")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{20, 50, true},
		{19, 0, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		p, v, ok := tailPercentile(xs)
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%v = %v has %d samples beyond it", c.n, p, v, beyond)
			}
		}
	}
}

func TestSliceRatesSplitEvenly(t *testing.T) {
	// 4.8 s at a steady 1000/s: the tail past the last whole slice must
	// not pile into the last slice (which would read 20 % high). A slice
	// holds 252 or 253 answers, hence the 5/s tolerance.
	dur := 4800 * time.Millisecond
	var okAt []time.Duration
	for t := time.Duration(0); t < dur; t += time.Millisecond {
		okAt = append(okAt, t)
	}
	rates := sliceRates(okAt, dur)
	if len(rates) != int(dur/closedSlice) {
		t.Fatalf("%d slices", len(rates))
	}
	for i, r := range rates {
		if math.Abs(r-1000) > 5 {
			t.Errorf("slice %d: %v/s, want 1000/s", i, r)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"session":"s","model":"m","forecast_mbps":[1],"queue_wait_ms":0,"infer_ms":0}`))
	}))
	defer srv.Close()
	l := newLoader(srv.URL, 1)
	defer l.close()
	arrivals := make([]time.Duration, 8)
	for k := range arrivals {
		arrivals[k] = time.Duration(k) * 10 * time.Millisecond
	}
	res := openLoop(1, arrivals, func(int) answer { return l.post([]byte(`{}`), nil, 0) })
	for k, r := range res {
		if r.err != nil || r.out != outOK {
			t.Fatalf("request %d: out=%v err=%v", k, r.out, r.err)
		}
	}
	// Request k was due at 10k ms but could only go out after the stall.
	for k := 1; k < 4; k++ {
		floor := stall - arrivals[k] - 5*time.Millisecond
		if res[k].latency < floor || res[k].lag < floor {
			t.Errorf("request %d queued behind the stall: latency %v, lag %v, want both >= %v", k, res[k].latency, res[k].lag, floor)
		}
	}
}

func TestRanReplicaMatchesRun(t *testing.T) {
	for _, spec := range simShortSpecs {
		cfg := sim.BuildConfigs(spec, simShortOpts(3))[1]
		cfg.DurationS = 4
		want, _ := sim.Run(cfg)
		var rt ranTimes
		if got := ranReplica(cfg, &rt); !sameAggregates(got, want) {
			t.Errorf("%s: ran replica differs from sim.Run", spec.Name())
		}
		if rt.steps != len(want.Samples) || rt.engineNS <= 0 || rt.observeNS <= 0 {
			t.Errorf("%s: replica timed %d steps (%d samples), engine %d ns, observe %d ns",
				spec.Name(), rt.steps, len(want.Samples), rt.engineNS, rt.observeNS)
		}
	}
}

func TestTracedBuildMatchesPinnedDigest(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	got, err := digest(buildShort(cfg.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg.SimShortSHA256 {
		t.Fatalf("sim.Build digest %s, pinned %s", got, cfg.SimShortSHA256)
	}
	tr := newTracer("test")
	dss, firsts, util, err := tracedBuild(cfg.DefaultSeed, &stepTimes{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := digest(dss); err != nil || got != cfg.SimShortSHA256 {
		t.Fatalf("traced build digest %s (%v), pinned %s", got, err, cfg.SimShortSHA256)
	}
	if len(firsts) != len(simShortSpecs) || util <= 0 || util > 1.05 {
		t.Fatalf("%d first traces, utilization %v", len(firsts), util)
	}
	if n := len(tr.durations("sim.Run")); n != 12 {
		t.Fatalf("%d sim.Run spans, want 12", n)
	}
}

func TestCellMatchesPredictCell(t *testing.T) {
	cfg := experiments.QuickMLConfig(5)
	cfg.Traces, cfg.SamplesPerTrace, cfg.Epochs = 2, 80, 2
	c := runCell(cfg, newTracer("test"))
	for _, name := range trainLongModels {
		want := experiments.PredictCell(trainLongSpec, name, cfg, experiments.CellAxes{}).RMSE
		if math.Float64bits(c.rmse[name]) != math.Float64bits(want) {
			t.Errorf("%s: cell RMSE %v, PredictCell %v", name, c.rmse[name], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	pairs := func(head []float64) [][2]float64 {
		var p [][2]float64
		for i := range base {
			p = append(p, [2]float64{base[i], head[i]})
		}
		return p
	}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		head  []float64
		lower bool
		bound float64
		want  string
	}{
		{shift(-10), true, 0.05, "improved"},
		{shift(10), true, 0.05, "regressed"},
		{shift(1), true, 0.05, "no-worse"},
		{shift(0), true, 0.001, "unresolved"},
		{shift(10), false, 0.05, "improved"},
	} {
		if got, _ := verdict(base, c.head, pairs(c.head), c.lower, c.bound); got != c.want {
			t.Errorf("head %v lower=%v bound=%v: %s, want %s", c.head[0], c.lower, c.bound, got, c.want)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, output %q", code, out.String())
	}
}
