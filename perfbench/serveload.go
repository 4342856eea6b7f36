package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prism5g"
	"prism5g/internal/obs"
	"prism5g/internal/rng"
	"prism5g/internal/serve"
	"prism5g/internal/trace"
)

// The bootstrap campaign and training are prismserve's defaults for a
// Prism5G server.
const (
	bootstrapSeed    = 42
	bootstrapTraces  = 4
	bootstrapSamples = 120
	bootstrapEpochs  = 10
)

// Session replay inputs: sessionTraces UE traces of sessionSamples samples,
// generated from the workload seed like prismload does; the open loop
// spreads its requests over openSessions sessions. Every session gets its
// own trace: Prism5G's kernels skip the zero inputs of inactive carriers,
// so inference cost follows the traces' CA mix, and with prismload's 8
// traces that mix, and the throughput, varied by a third between seeds.
const (
	sessionTraces  = 64
	sessionSamples = 64
	openSessions   = 64
	historyLen     = 10 // serve.Config's default History
)

// served is one running forecast server.
type served struct {
	srv    *serve.Server
	model  prism5g.Predictor
	scaler *trace.Scaler
	url    string
	done   chan error
}

// startServer trains the bootstrap model and serves it on a loopback port
// with the default serve.Config, the way prismserve -model Prism5G does.
func startServer() (*served, error) {
	ds := prism5g.GenerateDatasetSized(prism5g.OpZ, prism5g.Driving, prism5g.Long, bootstrapSeed, bootstrapTraces, bootstrapSamples)
	b := prism5g.Prepare(ds, bootstrapSeed)
	p := prism5g.NewPrism5G(b, prism5g.ModelConfig{Epochs: bootstrapEpochs, Seed: bootstrapSeed})
	p.Train(b.Train, b.Val)
	srv := serve.New("Prism5G", p, b.Scaler, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{srv: srv, model: p, scaler: b.Scaler, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	// Shutdown before Serve has installed its http.Server would leave Serve
	// running, so set-up ends only once the server answers /readyz.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			ln.Close() // ends Serve, which may not have installed its server yet
			<-s.done
			return nil, fmt.Errorf("server not ready after 10s: %v", err)
		}
	}
}

// stop drains the server and waits for Serve to return.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// loadPlan is everything the load generator sends, derived from the seed:
// the session traces and the open-loop arrival offsets.
type loadPlan struct {
	traces   [][]trace.Sample
	arrivals []time.Duration
}

func newLoadPlan(seed uint64, ratePerS float64, dur time.Duration) *loadPlan {
	ds := prism5g.GenerateDatasetSized(prism5g.OpZ, prism5g.Driving, prism5g.Long, seed, sessionTraces, sessionSamples)
	p := &loadPlan{}
	for _, t := range ds.Traces {
		p.traces = append(p.traces, t.Samples)
	}
	src := rng.New(seed ^ 0x0a77_1e55)
	for t := src.Exp(ratePerS); t < dur.Seconds(); t += src.Exp(ratePerS) {
		p.arrivals = append(p.arrivals, time.Duration(t*1e9))
	}
	return p
}

// body is the request that sends sample i of trace ti for session id.
func (p *loadPlan) body(id string, ti, i int) []byte {
	tr := p.traces[ti%len(p.traces)]
	b, err := json.Marshal(serve.Request{Session: id, Samples: []trace.Sample{tr[i%len(tr)]}})
	if err != nil {
		panic(err) // trace.Sample always marshals
	}
	return b
}

// openRequest is open-loop request k: session k mod openSessions sends
// its (k / openSessions)-th sample, so each session's samples stay in order.
func (p *loadPlan) openRequest(k int) []byte {
	s := k % openSessions
	return p.body(fmt.Sprintf("b%03d", s), s, k/openSessions)
}

// outcome classifies one answer.
type outcome uint8

const (
	outFailed outcome = iota
	outOK
	outWarmup
	outDegraded
	outShed
)

// answer is one request's result as the client saw it.
type answer struct {
	out  outcome
	resp serve.Response
	err  error
}

// loader sends forecast requests over at most nproc keep-alive
// connections.
type loader struct {
	url    string
	client *http.Client
}

func newLoader(url string, conns int) *loader {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &loader{url: url + "/v1/forecast", client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (l *loader) close() { l.client.Transport.(*http.Transport).CloseIdleConnections() }

func (l *loader) post(body []byte, tr *tracer, parent int) answer {
	sp := tr.start("http.roundtrip", parent)
	resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return answer{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	var a answer
	switch {
	case err != nil:
		a.err = err
	case resp.StatusCode == http.StatusTooManyRequests:
		a.out = outShed
	case resp.StatusCode != http.StatusOK:
		a.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		sp = tr.start("client.decode", parent)
		a.err = json.Unmarshal(raw, &a.resp)
		tr.end(sp)
		switch {
		case a.err != nil:
		case a.resp.Warmup:
			a.out = outWarmup
		case a.resp.Degraded:
			a.out = outDegraded
		default:
			a.out = outOK
		}
	}
	return a
}

// sampled is one ok answer kept for the serve-equals-offline check: the
// session, its trace and the index of the sample that completed the
// window (the plan regenerates the bodies), and the forecast.
type sampled struct {
	id          string
	trace, last int
	forecast    []float64
}

// closedStats are one closed-loop phase's counts.
type closedStats struct {
	sent, ok, failed int
	okAt             []time.Duration // when each ok answer arrived, from the phase start
	checks           []string
	sampled          []sampled
}

// closedSessions is how many UE sessions each closed-loop client streams,
// round robin. The population is fixed, as in the open loop: with a new
// session per trace the server's session table and live heap kept growing
// through the phase, and the throughput rose with them as garbage
// collections got rarer.
const closedSessions = 32

// closedLoop runs nproc keep-alive clients back to back for dur. Client c
// streams sessions "<prefix><c>-<j>" round robin, one trace sample per
// request (so the first historyLen-1 answers of each session are
// warmups), checks every answer and keeps a seeded sample of ok answers
// for the offline check.
func closedLoop(l *loader, p *loadPlan, seed uint64, prefix string, clients int, dur time.Duration, tr *tracer) closedStats {
	var mu sync.Mutex
	var total closedStats
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var st closedStats
			pick := rng.New(seed ^ uint64(c+1)*0x9e3779b97f4a7c15)
			for k := 0; time.Now().Before(deadline); k++ {
				j, i := k%closedSessions, k/closedSessions
				id := fmt.Sprintf("%s%d-%d", prefix, c, j)
				ti := c + j*clients
				root := tr.start("client.request", 0)
				a := l.post(p.body(id, ti, i), tr, root)
				tr.end(root)
				st.sent++
				switch {
				case a.err != nil:
					st.failed++
					st.checks = append(st.checks, fmt.Sprintf("closed loop %s #%d: %v", id, i, a.err))
				case a.out == outShed || a.out == outDegraded:
					// Counted by the open loop's SLO; the closed loop has
					// nothing to compare them against.
				case (a.out == outWarmup) != (i < historyLen-1):
					st.failed++
					st.checks = append(st.checks, fmt.Sprintf("closed loop %s #%d: warmup=%v", id, i, a.out == outWarmup))
				case a.out == outOK:
					st.ok++
					st.okAt = append(st.okAt, time.Since(start))
					if pick.Float64() < 1.0/256 && len(st.sampled) < 32 {
						st.sampled = append(st.sampled, sampled{id: id, trace: ti, last: i, forecast: a.resp.ForecastMbps})
					}
				}
			}
			mu.Lock()
			total.sent += st.sent
			total.ok += st.ok
			total.okAt = append(total.okAt, st.okAt...)
			total.failed += st.failed
			total.checks = append(total.checks, st.checks...)
			total.sampled = append(total.sampled, st.sampled...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// openResult is one open-loop request's timing and answer.
type openResult struct {
	latency, lag time.Duration
	queueWaitMs  float64
	out          outcome
	err          error
}

// openLoop sends request k at start+arrivals[k] from a fixed set of
// workers. Latency counts from when a request was due, so a stall also
// delays, and is charged to, every request queued behind it; lag is how
// late the generator sent.
func openLoop(workers int, arrivals []time.Duration, send func(k int) answer) []openResult {
	res := make([]openResult, len(arrivals))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(arrivals) {
					return
				}
				due := start.Add(arrivals[k])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				a := send(k)
				res[k] = openResult{latency: time.Since(due), lag: sent.Sub(due), queueWaitMs: a.resp.QueueWaitMs, out: a.out, err: a.err}
			}
		}()
	}
	wg.Wait()
	return res
}

// checkOffline asserts the serve-equals-offline law on the sampled
// answers: the served forecast is bit-identical to
// Scaler.InvertTput(Predict(MakeWindow(history))) computed here.
func checkOffline(rep *report, s *served, p *loadPlan, samples []sampled) {
	wopts := trace.WindowOpts{History: historyLen, Horizon: historyLen, Stride: 1}
	for n, smp := range samples {
		rep.attempted++
		hist := make([]trace.Sample, 0, historyLen)
		for i := smp.last - historyLen + 1; i <= smp.last; i++ {
			req, err := serve.DecodeRequest(p.body(smp.id, smp.trace, i), 0)
			if err != nil {
				rep.fail("offline check %d: decode: %v", n, err)
				return
			}
			hist = append(hist, req.Samples...)
		}
		w := trace.MakeWindow(&trace.Trace{Samples: hist}, 0, 0, s.scaler, wopts)
		y := s.model.Predict(w)
		same := len(y) == len(smp.forecast)
		for i := 0; same && i < len(y); i++ {
			same = math.Float64bits(s.scaler.InvertTput(y[i])) == math.Float64bits(smp.forecast[i])
		}
		if !same {
			rep.fail("offline check %d: served %v, offline differs", n, smp.forecast)
		}
	}
}

// runServe is the serve-prism5g workload: (a) a closed loop of nproc
// clients for 40% of --seconds, then (b) an open loop of Poisson arrivals
// at config.json's fixed rate for the rest. throughput_per_s comes from
// (a), latency_ms (the p50 from the due time) from (b). A traced run
// splits (a) into an untraced and a traced half (the difference is the
// tracing overhead), traces (b), scrapes the server's /metrics around it
// and times each serving layer in process.
func runServe(o options, tr *tracer) (*report, error) {
	rep := newReport()
	nproc := runtime.NumCPU()
	closedDur := time.Duration(0.4 * o.seconds * float64(time.Second))
	openDur := time.Duration(float64(time.Second)*o.seconds) - closedDur

	// Set-up: start the server twice on each CPU, stopping the previous one
	// first; the last one serves the run.
	var setups []float64
	var s *served
	var err error
	for round := 0; round < 2 && err == nil; round++ {
		perr := onEachCPU(func() {
			if err != nil {
				return
			}
			if s != nil {
				if err = s.stop(); err != nil {
					err = fmt.Errorf("stop set-up server: %w", err)
					return
				}
			}
			t0 := time.Now()
			if s, err = startServer(); err == nil {
				setups = append(setups, time.Since(t0).Seconds())
			}
		})
		if perr != nil {
			return nil, perr
		}
	}
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	plan := newLoadPlan(o.seed, o.cfg.OpenLoopRatePerS, openDur)
	l := newLoader(s.url, nproc)

	// (a) closed loop, its rate the upper quartile over closedSlice slices
	// (see README.md on the fastest quarter).
	var cs closedStats
	var fps float64
	if !o.trace {
		cs = closedLoop(l, plan, o.seed, "a", nproc, closedDur, nil)
		_, fps = quartiles(sliceRates(cs.okAt, closedDur))
	} else {
		cs = closedLoop(l, plan, o.seed, "a", nproc, closedDur/2, nil)
		_, fps = quartiles(sliceRates(cs.okAt, closedDur/2))
		ct := closedLoop(l, plan, o.seed, "t", nproc, closedDur/2, tr)
		_, tracedFPS := quartiles(sliceRates(ct.okAt, closedDur/2))
		rep.layer["trace.overhead_pct"] = metric{(fps/tracedFPS - 1) * 100, "%"}
		cs.sent += ct.sent
		cs.failed += ct.failed
		cs.checks = append(cs.checks, ct.checks...)
		cs.sampled = append(cs.sampled, ct.sampled...)
	}
	rep.attempted += cs.sent
	rep.failed += cs.failed
	rep.checks = append(rep.checks, cs.checks...)
	rep.e2e["throughput_per_s"] = metric{fps, "1/s"}
	rep.extra["forecasts_per_s"] = fps

	// (b) open loop.
	before, err := scrape(s.url)
	if err != nil {
		return nil, err
	}
	res := openLoop(nproc, plan.arrivals, func(k int) answer {
		// One open-loop request in 16 is traced, which keeps the span
		// record of a run to a few MB.
		t := tr
		if k%16 != 0 {
			t = nil
		}
		root := t.start("client.request", 0)
		a := l.post(plan.openRequest(k), t, root)
		t.end(root)
		return a
	})
	after, err := scrape(s.url)
	if err != nil {
		return nil, err
	}
	var lat, lags []float64
	var warm, degraded, shed, queued, miss, forecasts int
	slo := o.cfg.SLOMs
	nSlices := max(1, int(openDur/openSlice))
	width := openDur / time.Duration(nSlices)
	sliceLat := make([][]float64, nSlices)
	for k, r := range res {
		rep.attempted++
		lags = append(lags, r.lag.Seconds()*1e3)
		switch r.out {
		case outWarmup:
			warm++
			continue
		case outShed:
			shed++
		case outDegraded:
			degraded++
		}
		forecasts++
		if r.err != nil {
			rep.fail("open loop #%d: %v", k, r.err)
			miss++
			continue
		}
		ms := r.latency.Seconds() * 1e3
		if r.out != outShed {
			lat = append(lat, ms)
			if r.queueWaitMs > 0 {
				queued++
			}
			i := min(int(plan.arrivals[k]/width), nSlices-1)
			sliceLat[i] = append(sliceLat[i], ms)
		}
		if r.out != outOK || ms > slo {
			miss++
		}
	}
	// p50 and p99 are medians over the slices; each slice must hold
	// enough samples to support a p99.
	var p50s, p99s []float64
	for i, sl := range sliceLat {
		if p, _, ok := tailPercentile(sl); !ok || p < 99 {
			rep.fail("open loop slice %d: %d latency samples cannot support a p99", i, len(sl))
		}
		asc := sorted(sl)
		p50s = append(p50s, nearestRank(asc, 50))
		p99s = append(p99s, nearestRank(asc, 99))
	}
	p, _, _ := tailPercentile(lat)
	rep.e2e["latency_ms"] = metric{median(p50s), "ms"}
	rep.extra["p50_ms"] = median(p50s)
	rep.extra["p99_ms"] = median(p99s)
	rep.extra["loadgen_lag_p50_ms"] = median(lags)
	rep.extra["open_loop_samples"] = float64(len(lat))
	rep.extra["open_loop_slices"] = float64(nSlices)
	rep.extra["open_loop_tail_percentile"] = p
	rep.extra["open_loop_p99_all_ms"] = nearestRank(sorted(lat), 99)
	rep.extra["slo_miss_frac"] = float64(miss) / float64(max(forecasts, 1))
	rep.extra["p99_of_slo"] = median(p99s) / slo
	rep.extra["open_loop_offered_per_s"] = o.cfg.OpenLoopRatePerS

	if o.trace {
		// The gate admits 4 inferences at once and the load never has more
		// than nproc in flight, so requests do not queue: the queue wait is
		// reported as the count of requests that waited at all, and the
		// server's queue-wait histogram (all in its first bucket) only as
		// an extra.
		rep.layer["serve.queued"] = metric{float64(queued), "count"}
		rep.layer["serve.warmup_frac"] = metric{float64(warm) / float64(max(len(res), 1)), "ratio"}
		rep.layer["serve.degraded"] = metric{float64(degraded), "count"}
		rep.layer["serve.shed"] = metric{float64(shed), "count"}
		rep.layer["loadgen.lag_p99_ms"] = metric{nearestRank(sorted(lags), 99), "ms"}
		for _, h := range []string{"latency", "stage.decode", "stage.infer", "stage.encode", "queue_wait"} {
			name := "serve." + h + "_s"
			p50, p99 := deltaQuantiles(before.Histograms[name], after.Histograms[name])
			if h == "queue_wait" {
				rep.extra["server."+h+"_p50_us"], rep.extra["server."+h+"_p99_us"] = p50*1e6, p99*1e6
				continue
			}
			rep.layer["server."+h+"_p50_us"] = metric{p50 * 1e6, "us"}
			rep.layer["server."+h+"_p99_us"] = metric{p99 * 1e6, "us"}
		}
	}
	l.close()

	if o.trace {
		if err := layerTimes(rep, s, plan); err != nil {
			return nil, err
		}
		rep.layer["obs.add_ns_contended"] = metric{contendedAddNS(nproc), "ns"}
	}
	checkOffline(rep, s, plan, cs.sampled)
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	return rep, nil
}

// closedSlice and openSlice are the least slice lengths the closed-loop
// rate (then its upper quartile) and the open-loop percentiles (then their
// median) are taken over.
const (
	closedSlice = 250 * time.Millisecond
	openSlice   = 2 * time.Second
)

// sliceRates is the ok-answer rate in each of the n equal slices of a
// phase, n being as many as hold at least one closedSlice each.
func sliceRates(okAt []time.Duration, dur time.Duration) []float64 {
	n := max(1, int(dur/closedSlice))
	width := dur / time.Duration(n)
	counts := make([]float64, n)
	for _, t := range okAt {
		counts[min(int(t/width), n-1)]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// scrape reads the server's JSON /metrics snapshot.
func scrape(url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return snap, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("scrape /metrics: %w", err)
	}
	return snap, nil
}

// deltaQuantiles estimates the p50 and p99 of the observations a histogram
// gained between two snapshots from the bucket-count differences,
// interpolating linearly inside a bucket.
func deltaQuantiles(a, b obs.HistSnapshot) (p50, p99 float64) {
	if len(b.Buckets) == 0 {
		return math.NaN(), math.NaN()
	}
	d := make([]float64, len(b.Buckets))
	var total float64
	for i := range d {
		d[i] = float64(b.Buckets[i])
		if i < len(a.Buckets) {
			d[i] -= float64(a.Buckets[i])
		}
		total += d[i]
	}
	q := func(p float64) float64 {
		target := p * total
		var cum float64
		for i, c := range d {
			if c == 0 || cum+c < target {
				cum += c
				continue
			}
			lo, hi := 0.0, b.Max
			if i > 0 {
				lo = b.Bounds[i-1]
			}
			if i < len(b.Bounds) {
				hi = b.Bounds[i]
			}
			return lo + (hi-lo)*(target-cum)/c
		}
		return b.Max
	}
	return q(0.50), q(0.99)
}

// layerTimes times each serving layer in process on full windows built
// from the plan's traces: request decode, window extraction, Prism5G
// inference (batch 1), the whole handler without a socket (on a second
// server sharing the model), and a sequential loopback round trip.
func layerTimes(rep *report, s *served, plan *loadPlan) error {
	const sessions = 16
	wopts := trace.WindowOpts{History: historyLen, Horizon: historyLen, Stride: 1}
	h := serve.New("Prism5G", s.model, s.scaler, serve.Config{}).Handler()
	l := newLoader(s.url, 1)
	defer l.close()
	var decode, window, predict, handler, rtt []float64
	for si := 0; si < sessions; si++ {
		var hist []trace.Sample
		for i := 0; i < sessionSamples; i++ {
			body := plan.body(fmt.Sprintf("m%03d", si), si, i)
			t0 := time.Now()
			req, err := serve.DecodeRequest(body, 0)
			dt := time.Since(t0)
			if err != nil {
				return fmt.Errorf("layer times: decode: %w", err)
			}
			hist = append(hist, req.Samples...)
			hr := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t1 := time.Now()
			h.ServeHTTP(rec, hr)
			dh := time.Since(t1)
			t2 := time.Now()
			a := l.post(body, nil, 0)
			dr := time.Since(t2)
			if a.err != nil || rec.Code != http.StatusOK {
				return fmt.Errorf("layer times: handler %d, loopback %v", rec.Code, a.err)
			}
			if len(hist) < historyLen {
				continue
			}
			win := &trace.Trace{Samples: hist[len(hist)-historyLen:]}
			t3 := time.Now()
			w := trace.MakeWindow(win, 0, 0, s.scaler, wopts)
			t4 := time.Now()
			s.model.Predict(w)
			t5 := time.Now()
			decode = append(decode, us(dt))
			handler = append(handler, us(dh))
			rtt = append(rtt, us(dr))
			window = append(window, us(t4.Sub(t3)))
			predict = append(predict, us(t5.Sub(t4)))
		}
	}
	md, mw, mp, mh := median(decode), median(window), median(predict), median(handler)
	rep.layer["serve.decode_us"] = metric{md, "us"}
	rep.layer["trace.make_window_us"] = metric{mw, "us"}
	rep.layer["core.predict_us"] = metric{mp, "us"}
	rep.layer["serve.handler_us"] = metric{mh, "us"}
	rep.layer["http.loopback_us"] = metric{median(rtt) - mh, "us"}
	rep.layer["serve.unattributed_us"] = metric{mh - md - mw - mp, "us"}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// contendedAddNS is the median, over three rounds, of the wall time per
// Registry.Add call when n goroutines add to one counter of a fresh
// registry at once.
func contendedAddNS(n int) float64 {
	const adds = 200000
	var rounds []float64
	for r := 0; r < 3; r++ {
		reg := obs.New()
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < adds; i++ {
					reg.Add("serve.requests", 1)
				}
			}()
		}
		wg.Wait()
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/adds)
	}
	return median(rounds)
}
