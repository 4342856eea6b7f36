package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"prism5g/internal/rng"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter must memoize by name")
	}
	g := r.Gauge("g")
	if _, ok := g.Value(); ok {
		t.Fatal("unset gauge must report !ok")
	}
	g.Set(2.5)
	if v, ok := g.Value(); !ok || v != 2.5 {
		t.Fatalf("gauge = %v,%v want 2.5,true", v, ok)
	}
}

func TestDisabledRegistryIsInert(t *testing.T) {
	r := NewDisabled()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(3)
	r.Add("c2", 1)
	sp := r.StartSpan("s")
	if sp.Active() {
		t.Fatal("span on a disabled registry must be inactive")
	}
	sp.End()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("disabled registry recorded: %v", s)
	}
	// Flipping on makes held handles live without re-fetching.
	c := r.Counter("c")
	r.SetEnabled(true)
	c.Add(2)
	if c.Value() != 2 {
		t.Fatal("held counter handle must observe SetEnabled")
	}
}

// TestNoAllocsWhenDisabled pins the no-op fast path: instruments on a
// disabled registry must not allocate (the pipeline is instrumented
// unconditionally, so this is the cost every ordinary run pays).
func TestNoAllocsWhenDisabled(t *testing.T) {
	r := NewDisabled()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(1)
		h.Observe(1)
		sp := r.StartSpan("s")
		sp.End()
		r.Emit("ev", nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f times per op, want 0", allocs)
	}
}

// TestHistogramQuantilesAgainstSort checks the fixed-bucket estimator
// against a reference sort: estimates must land within one bucket width of
// the exact empirical quantile.
func TestHistogramQuantilesAgainstSort(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	src := rng.New(7)
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [100µs, 10s] — spans many buckets like real
		// span durations do.
		vals[i] = math.Pow(10, src.Range(-4, 1))
		h.Observe(vals[i])
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := sorted[int(q*float64(n-1))]
		got := h.Quantile(q)
		// Bucket resolution on the 1-2-5 ladder: the next bound is at most
		// 2.5x the previous, so the estimate must be within [lower, upper]
		// of the bucket containing the exact value.
		if got < exact/2.5 || got > exact*2.5 {
			t.Errorf("q=%v: estimate %.6g outside bucket tolerance of exact %.6g", q, got, exact)
		}
	}
	s := h.Snapshot()
	if s.Count != uint64(n) {
		t.Errorf("count = %d, want %d", s.Count, n)
	}
	wantMean := 0.0
	for _, v := range vals {
		wantMean += v
	}
	wantMean /= float64(n)
	if math.Abs(s.Mean-wantMean) > 1e-9*wantMean {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
	if s.Min != sorted[0] || s.Max != sorted[n-1] {
		t.Errorf("min/max = %v/%v, want %v/%v", s.Min, s.Max, sorted[0], sorted[n-1])
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not ordered: p50=%v p90=%v p99=%v", s.P50, s.P90, s.P99)
	}
}

func TestHistogramCustomBoundsAndEdges(t *testing.T) {
	r := New()
	h := r.HistogramWithBounds("edges", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1, 1.5, 2, 2.5, 3, 99} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // must be ignored
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7 (NaN must be ignored)", s.Count)
	}
	if s.Min != 0.5 || s.Max != 99 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if q := h.Quantile(0); q != 0.5 {
		t.Errorf("q0 = %v, want min", q)
	}
	if q := h.Quantile(1); q != 99 {
		t.Errorf("q1 = %v, want max", q)
	}
	defer func() {
		if recover() == nil {
			t.Error("descending bounds must panic")
		}
	}()
	r.HistogramWithBounds("bad", []float64{2, 1})
}

// TestConcurrentHammering exercises every instrument from many goroutines;
// run under -race this is the data-race gate, and the final counts must be
// exact (atomics, not best-effort).
func TestConcurrentHammering(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetJournal(NewJournal(&buf))
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hammer.count")
			h := r.Histogram("hammer.hist")
			for i := 0; i < perG; i++ {
				c.Add(1)
				r.Gauge("hammer.gauge").Set(float64(i))
				h.Observe(float64(i%100) / 100)
				if i%500 == 0 {
					sp := r.StartSpan("hammer.span")
					sp.End()
					r.Emit("hammer.ev", map[string]any{"g": g, "i": i})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("hammer.count").Value(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("hammer.hist").Snapshot().Count; got != goroutines*perG {
		t.Fatalf("hist count = %d, want %d", got, goroutines*perG)
	}
	if err := r.Journal().Flush(); err != nil {
		t.Fatalf("journal flush: %v", err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("journal must stay parseable under concurrency: %v", err)
	}
	want := goroutines * perG / 500 // fires at i = 0, 500, 1000, 1500 per goroutine
	if len(evs) != 2*want {
		t.Fatalf("journal has %d events, want %d", len(evs), 2*want)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.SetJournal(NewJournal(&buf))
	r.Emit("train.epoch", map[string]any{"epoch": 3, "val_rmse": 0.25, "note": "ok"})
	r.Emit("sim.trace", map[string]any{"samples": 60})
	r.Emit("bare", nil)
	if err := r.Journal().Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != "train.epoch" || evs[1].Name != "sim.trace" || evs[2].Name != "bare" {
		t.Fatalf("names = %q %q %q", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	if evs[0].Fields["epoch"].(float64) != 3 || evs[0].Fields["val_rmse"].(float64) != 0.25 {
		t.Fatalf("fields lost: %v", evs[0].Fields)
	}
	if evs[0].TS.IsZero() {
		t.Fatal("timestamp lost")
	}
	if evs[2].Fields != nil {
		t.Fatalf("bare event grew fields: %v", evs[2].Fields)
	}
	// Every line is standalone JSON.
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
	}
}

func TestSpanNestingAndHistogram(t *testing.T) {
	r := New()
	sp := r.StartSpan("outer")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatal("span duration must be positive")
	}
	s := r.Snapshot()
	if s.Histograms["outer"].Count != 1 {
		t.Fatalf("outer span not recorded: %v", s)
	}
}

func TestSnapshotJSONAndOmission(t *testing.T) {
	r := New()
	r.Counter("zero") // never incremented: must be omitted
	r.Add("used", 2)
	r.Set("g", 1.5)
	r.Observe("h", 0.1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot must round-trip: %v", err)
	}
	if _, ok := s.Counters["zero"]; ok {
		t.Error("zero counter must be omitted from the snapshot")
	}
	if s.Counters["used"] != 2 || s.Gauges["g"] != 1.5 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot lost data: %+v", s)
	}
}

func TestDefaultSwapRestores(t *testing.T) {
	scratch := New()
	prev := SetDefault(scratch)
	defer SetDefault(prev)
	Add("x", 3)
	if scratch.Counter("x").Value() != 3 {
		t.Fatal("package helpers must route to the installed default")
	}
	if Default() != scratch {
		t.Fatal("Default must return the installed registry")
	}
}
