package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism5g/internal/obs"
	"prism5g/internal/predictors"
	"prism5g/internal/trace"
)

// mkSample builds one plausible sample with a present PCell.
func mkSample(t, mbps float64) trace.Sample {
	var s trace.Sample
	s.T = t
	s.AggTput = mbps
	s.NumActiveCCs = 1
	cc := &s.CCs[0]
	cc.Present = true
	cc.IsPCell = true
	cc.BandName = "n41"
	cc.ChannelID = "n41^a"
	cc.Vec[trace.FActive] = 1
	cc.Vec[trace.FBWMHz] = 100
	cc.Vec[trace.FFreqGHz] = 2.5
	cc.Vec[trace.FRSRP] = -90
	cc.Vec[trace.FRSRQ] = -11
	cc.Vec[trace.FSINR] = 15
	cc.Vec[trace.FCQI] = 11
	cc.Vec[trace.FBLER] = 0.05
	cc.Vec[trace.FRB] = 150
	cc.Vec[trace.FLayers] = 2
	cc.Vec[trace.FMCS] = 20
	cc.Vec[trace.FTput] = mbps
	return s
}

// mkSamples builds n samples with varying throughput.
func mkSamples(n int, base float64) []trace.Sample {
	out := make([]trace.Sample, n)
	for i := range out {
		out[i] = mkSample(float64(i), base+10*float64(i%5))
	}
	return out
}

// mkScaler fits a scaler over a synthetic trace wide enough to cover the
// test samples.
func mkScaler() *trace.Scaler {
	tr := trace.Trace{Samples: []trace.Sample{mkSample(0, 0), mkSample(1, 1000)}}
	sc := &trace.Scaler{}
	sc.Fit([]trace.Trace{tr})
	return sc
}

// stub is a controllable predictor for server tests.
type stub struct {
	name   string
	delay  time.Duration
	panics atomic.Bool
	calls  atomic.Int64
}

func (p *stub) Name() string { return p.name }
func (p *stub) Train(train, val []trace.Window) predictors.TrainReport {
	return predictors.TrainReport{}
}
func (p *stub) Predict(w trace.Window) []float64 {
	p.calls.Add(1)
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.panics.Load() {
		panic("stub exploded")
	}
	out := make([]float64, len(w.Y()))
	for i := range out {
		out[i] = 0.42
	}
	return out
}

// testServer builds a server around a stub with fast test timeouts.
func testServer(t *testing.T, p predictors.Predictor, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Concurrency:      2,
		QueueCap:         8,
		Deadline:         2 * time.Second,
		BreakerThreshold: 3,
		BreakerOpenFor:   time.Minute,
		Reg:              obs.New(),
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(p.Name(), p, mkScaler(), cfg)
}

// post sends one forecast request through the handler.
func post(t *testing.T, h http.Handler, session string, samples []trace.Sample) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(Request{Session: session, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeResp(t *testing.T, rec *httptest.ResponseRecorder) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v (body %q)", err, rec.Body.String())
	}
	return resp
}

func TestWarmupThenForecast(t *testing.T) {
	s := testServer(t, &stub{name: "stub"}, nil)
	h := s.Handler()
	samples := mkSamples(10, 200)

	rec := post(t, h, "ue-1", samples[:9])
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d", rec.Code)
	}
	resp := decodeResp(t, rec)
	if !resp.Warmup || resp.Need != 1 {
		t.Fatalf("want warmup with need=1, got %+v", resp)
	}

	rec = post(t, h, "ue-1", samples[9:10])
	resp = decodeResp(t, rec)
	if resp.Warmup || resp.Degraded {
		t.Fatalf("want clean forecast, got %+v", resp)
	}
	if len(resp.ForecastMbps) != 10 {
		t.Fatalf("forecast has %d steps, want 10", len(resp.ForecastMbps))
	}
	for i, v := range resp.ForecastMbps {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("forecast[%d] non-finite: %v", i, v)
		}
	}
	if resp.Model != "stub" {
		t.Fatalf("model %q, want stub", resp.Model)
	}
}

func TestRequestValidation(t *testing.T) {
	s := testServer(t, &stub{name: "stub"}, nil)
	h := s.Handler()
	long := make([]byte, maxSessionIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", ``, http.StatusBadRequest},
		{"not-json", `{{{`, http.StatusBadRequest},
		{"wrong-type", `[1,2,3]`, http.StatusBadRequest},
		{"no-session", `{"samples":[{"T":0,"AggTput":10}]}`, http.StatusBadRequest},
		{"long-session", fmt.Sprintf(`{"session":%q,"samples":[{"T":0,"AggTput":10}]}`, string(long)), http.StatusBadRequest},
		{"no-samples", `{"session":"x"}`, http.StatusBadRequest},
		{"huge-number", `{"session":"x","samples":[{"T":0,"AggTput":1e999}]}`, http.StatusBadRequest},
		{"negative-tput", `{"session":"x","samples":[{"T":0,"AggTput":-5}]}`, http.StatusBadRequest},
		{"bad-cc-count", `{"session":"x","samples":[{"T":0,"AggTput":5,"NumActiveCCs":99}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader([]byte(tc.body)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	s := testServer(t, &stub{name: "stub"}, func(c *Config) { c.MaxBodyBytes = 512 })
	h := s.Handler()
	rec := post(t, h, "ue-big", mkSamples(20, 100))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

// TestChunkedBodyDecodes streams the same one-sample requests to two
// sessions over loopback HTTP, one with a Content-Length and one chunked
// (the client cannot know the length of a plain io.Reader): the server must
// see both framings, answer each request with 200, and give both sessions
// the same forecast once they are warm.
func TestChunkedBodyDecodes(t *testing.T) {
	s := testServer(t, &predictors.HarmonicMean{Horizon: 10}, nil)
	h := s.Handler()
	var mu sync.Mutex
	var lengths []int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		lengths = append(lengths, r.ContentLength)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	send := func(session string, smp trace.Sample, chunked bool) Response {
		body, err := json.Marshal(Request{Session: session, Samples: []trace.Sample{smp}})
		if err != nil {
			t.Fatal(err)
		}
		var r io.Reader = bytes.NewReader(body)
		if chunked {
			r = struct{ io.Reader }{r}
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/forecast", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %+v (%v)", session, resp.StatusCode, out, err)
		}
		return out
	}
	var sized, chunked Response
	for _, smp := range mkSamples(s.cfg.History, 120) {
		sized = send("sized", smp, false)
		chunked = send("chunked", smp, true)
	}
	for i, n := range lengths {
		if (i%2 == 0) != (n > 0) {
			t.Fatalf("request %d arrived with Content-Length %d", i, n)
		}
	}
	if sized.Warmup || chunked.Warmup || !bitsEqual(sized.ForecastMbps, chunked.ForecastMbps) {
		t.Fatalf("chunked session answered %+v, sized %+v", chunked, sized)
	}
}

// TestBodyReadFailures covers the two ways a body read fails besides a
// timeout: a body shorter than its Content-Length is a 400 counted as a
// body-read rejection, and a chunked body over the limit is a 413 counted
// as oversize.
func TestBodyReadFailures(t *testing.T) {
	s := testServer(t, &stub{name: "stub"}, func(c *Config) { c.MaxBodyBytes = 512 })
	short := httptest.NewRequest(http.MethodPost, "/v1/forecast", strings.NewReader(`{"session":"x"`))
	short.ContentLength += 100
	big := httptest.NewRequest(http.MethodPost, "/v1/forecast", struct{ io.Reader }{strings.NewReader(oneSampleBody)})
	for _, tc := range []struct {
		req  *http.Request
		code int
		n    *obs.Counter
	}{{short, http.StatusBadRequest, s.m.rejectedBodyRead}, {big, http.StatusRequestEntityTooLarge, s.m.rejectedOversize}} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, tc.req)
		if rec.Code != tc.code || tc.n.Value() != 1 {
			t.Fatalf("Content-Length %d: status %d, counter %d; want %d, 1", tc.req.ContentLength, rec.Code, tc.n.Value(), tc.code)
		}
	}
}

// expectedFallbackMbps reproduces the degraded answer for the session
// whose ring holds the last History entries of samples.
func expectedFallbackMbps(s *Server, samples []trace.Sample) []float64 {
	hist := samples[len(samples)-s.cfg.History:]
	tr := trace.Trace{Samples: append([]trace.Sample(nil), hist...)}
	w := trace.MakeWindow(&tr, 0, 0, s.scaler, s.wopts)
	y := (&predictors.HarmonicMean{Horizon: s.cfg.Horizon}).Predict(w)
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = s.scaler.InvertTput(v)
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestDeadlineDegradesToFallback(t *testing.T) {
	p := &stub{name: "slow", delay: 300 * time.Millisecond}
	s := testServer(t, p, func(c *Config) { c.Deadline = 30 * time.Millisecond })
	h := s.Handler()
	samples := mkSamples(10, 150)
	rec := post(t, h, "ue-slow", samples)
	resp := decodeResp(t, rec)
	if !resp.Degraded || resp.Reason != "timeout" {
		t.Fatalf("want timeout degradation, got %+v", resp)
	}
	if !bitsEqual(resp.ForecastMbps, expectedFallbackMbps(s, samples)) {
		t.Fatalf("degraded forecast is not the harmonic-mean fallback:\n got %v\nwant %v",
			resp.ForecastMbps, expectedFallbackMbps(s, samples))
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	p := &stub{name: "flappy"}
	p.panics.Store(true)
	s := testServer(t, p, func(c *Config) {
		c.Now = now
		c.BreakerThreshold = 3
		c.BreakerOpenFor = 10 * time.Second
	})
	h := s.Handler()
	samples := mkSamples(10, 300)

	// Three consecutive panics: answered from the fallback (model_fault),
	// and the third trips the breaker.
	for i := 0; i < 3; i++ {
		resp := decodeResp(t, post(t, h, "ue-b", samples))
		if !resp.Degraded || resp.Reason != "model_fault" {
			t.Fatalf("call %d: want model_fault, got %+v", i, resp)
		}
	}
	if got := s.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", got)
	}

	// While open, the model is not called at all and the answer is
	// bit-for-bit the harmonic-mean fallback.
	before := p.calls.Load()
	resp := decodeResp(t, post(t, h, "ue-b", samples[9:10]))
	if !resp.Degraded || resp.Reason != "breaker_open" {
		t.Fatalf("want breaker_open, got %+v", resp)
	}
	if p.calls.Load() != before {
		t.Fatal("model was called while the breaker was open")
	}
	if !bitsEqual(resp.ForecastMbps, expectedFallbackMbps(s, append(mkSamples(10, 300), samples[9]))) {
		t.Fatal("breaker-open forecast is not bit-for-bit the fallback")
	}

	// Probe after OpenFor: still failing → re-open.
	advance(11 * time.Second)
	resp = decodeResp(t, post(t, h, "ue-b", samples[9:10]))
	if !resp.Degraded || resp.Reason != "model_fault" {
		t.Fatalf("probe should hit the model, got %+v", resp)
	}
	if got := s.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker %v after failed probe, want open", got)
	}

	// Heal the model; the next probe closes the breaker.
	p.panics.Store(false)
	advance(11 * time.Second)
	resp = decodeResp(t, post(t, h, "ue-b", samples[9:10]))
	if resp.Degraded {
		t.Fatalf("healed probe should answer cleanly, got %+v", resp)
	}
	if got := s.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker %v after healed probe, want closed", got)
	}
}

func TestInvalidInputDegradesWithoutBreaker(t *testing.T) {
	p := &stub{name: "stub"}
	s := testServer(t, p, func(c *Config) { c.BreakerThreshold = 1 })
	h := s.Handler()
	samples := mkSamples(10, 100)
	// Poison one CC feature with NaN (wire form: null) — legal degraded
	// input under the trace JSON convention.
	samples[4].CCs[0].Vec[trace.FSINR] = math.NaN()
	resp := decodeResp(t, post(t, h, "ue-nan", samples))
	if !resp.Degraded || resp.Reason != "invalid_input" {
		t.Fatalf("want invalid_input degradation, got %+v", resp)
	}
	if s.BreakerState() != BreakerClosed {
		t.Fatal("invalid input must not trip the breaker")
	}
	if p.calls.Load() != 0 {
		t.Fatal("model must not see a poisoned window")
	}
}

func TestBackpressureShedsWithRetryAfter(t *testing.T) {
	p := &stub{name: "slow", delay: 200 * time.Millisecond}
	s := testServer(t, p, func(c *Config) {
		c.Concurrency = 1
		c.QueueCap = 1
		c.Deadline = 2 * time.Second
	})
	h := s.Handler()

	// Pre-warm sessions so every request runs inference.
	const clients = 8
	for i := 0; i < clients; i++ {
		post(t, h, fmt.Sprintf("ue-%d", i), mkSamples(10, 100))
		// Wait out the warm inference (concurrency 1).
	}
	time.Sleep(300 * time.Millisecond)

	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, h, fmt.Sprintf("ue-%d", i), mkSamples(1, 100))
			switch rec.Code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if rec.Header().Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Errorf("unexpected status %d", rec.Code)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("no request shed at concurrency=1 queue=1 with %d clients", clients)
	}
	if ok.Load() == 0 {
		t.Fatal("every request shed; the gate admitted nothing")
	}
	if got := ok.Load() + shed.Load(); got != clients {
		t.Fatalf("%d responses for %d requests — a request was dropped on the floor", got, clients)
	}
}

func TestHotSwapDrainsOldModel(t *testing.T) {
	p := &stub{name: "v1"}
	s := testServer(t, p, func(c *Config) {
		c.Build = func(name string) (predictors.Predictor, error) {
			if name == "boom" {
				return nil, fmt.Errorf("unknown model")
			}
			return &stub{name: name}, nil
		}
	})
	h := s.Handler()
	samples := mkSamples(10, 100)
	post(t, h, "ue-s", samples)

	body := bytes.NewReader([]byte(`{"model":"v2"}`))
	req := httptest.NewRequest(http.MethodPost, "/admin/swap", body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("swap status %d: %s", rec.Code, rec.Body.String())
	}
	var sw swapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Old != "v1" || sw.New != "v2" || !sw.Drained {
		t.Fatalf("swap outcome %+v", sw)
	}
	resp := decodeResp(t, post(t, h, "ue-s", samples[9:10]))
	if resp.Model != "v2" {
		t.Fatalf("serving %q after swap, want v2", resp.Model)
	}

	// Unknown model: 400, and the active model is untouched.
	req = httptest.NewRequest(http.MethodPost, "/admin/swap", bytes.NewReader([]byte(`{"model":"boom"}`)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad swap status %d", rec.Code)
	}
	if s.ModelName() != "v2" {
		t.Fatalf("failed swap changed the model to %q", s.ModelName())
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := testServer(t, &stub{name: "stub"}, nil)
	h := s.Handler()
	for _, path := range []string{"/healthz", "/readyz"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", path, rec.Code)
		}
	}
	s.draining.Store(true)
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", rec.Code)
	}
	// Forecasts are refused while draining, with a Retry-After.
	rec = post(t, h, "ue-d", mkSamples(1, 10))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining forecast: status %d retry=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestMetricsSnapshot(t *testing.T) {
	s := testServer(t, &stub{name: "stub"}, nil)
	h := s.Handler()
	post(t, h, "ue-m", mkSamples(10, 100))
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not parseable: %v", err)
	}
	if snap.Counters["serve.requests"] != 1 || snap.Counters["serve.ok"] != 1 {
		t.Fatalf("request counters missing from snapshot: %+v", snap.Counters)
	}
	if _, ok := snap.Histograms["serve.latency_s"]; !ok {
		t.Fatalf("latency histogram missing: %+v", snap.Histograms)
	}
}
