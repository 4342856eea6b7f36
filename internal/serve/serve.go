// Package serve is the prediction-as-a-service layer: a long-running,
// fault-tolerant HTTP/JSON forecast server over the trained predictors.
// Clients stream per-UE feature samples in; the server keeps a bounded
// sliding window per session and answers with the aggregate-throughput
// forecast in Mbps.
//
// Robustness is engineered in at every layer (see DESIGN.md §12):
//
//   - Bounded admission: at most Concurrency inferences run at once and at
//     most QueueCap requests wait; everything beyond is shed with 429 +
//     Retry-After. Overload can never grow goroutines or memory.
//   - Graceful degradation: a request that cannot get a model answer
//     inside its Deadline — queued too long, inference too slow, model
//     quarantined — is answered from the harmonic-mean fallback
//     (predictors.Resilient's estimator), deterministically, never dropped.
//   - Circuit breaking: consecutive model failures (recovered panics,
//     non-finite forecasts) trip a per-predictor breaker; while open, all
//     traffic takes the fallback path, and a probe schedule half-opens it.
//   - Bounded sessions: per-session memory is a fixed-length history; idle
//     sessions are evicted on a TTL and the session count is hard-capped
//     with LRU eviction.
//   - Atomic hot-swap: POST /admin/swap installs a new predictor without
//     dropping a request; the old model drains its in-flight calls first.
//   - Graceful shutdown: Shutdown flips /readyz to 503, stops accepting,
//     and drains in-flight requests before returning.
package serve

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prism5g/internal/obs"
	"prism5g/internal/predictors"
	"prism5g/internal/trace"
)

// Config tunes the server. The zero value of every field selects a
// sensible default (see withDefaults).
type Config struct {
	// History and Horizon are the window shape (default 10/10, the paper's).
	History, Horizon int
	// Concurrency bounds simultaneous inferences (default 4).
	Concurrency int
	// QueueCap bounds requests waiting for an inference slot beyond
	// Concurrency (default 64). Excess requests are shed with 429.
	QueueCap int
	// Deadline is the per-request budget including queue wait; when it
	// expires the request is answered from the fallback (default 250ms).
	Deadline time.Duration
	// MaxSessions hard-caps live sessions; inserting past it evicts the
	// least-recently-used session (default 10000).
	MaxSessions int
	// IdleTTL evicts sessions with no traffic for this long (default 2m).
	IdleTTL time.Duration
	// MaxBodyBytes bounds a request body (default 256 KiB).
	MaxBodyBytes int64
	// MaxSamples bounds samples per request (default 64).
	MaxSamples int
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker (default 5).
	BreakerThreshold int
	// BreakerOpenFor is how long the breaker stays open before allowing a
	// half-open probe (default 5s).
	BreakerOpenFor time.Duration
	// DrainTimeout bounds old-model draining on swap and the shutdown
	// drain (default 10s).
	DrainTimeout time.Duration
	// Build constructs (and trains) a predictor by name for /admin/swap.
	// Nil disables swapping (the endpoint answers 501).
	Build func(name string) (predictors.Predictor, error)
	// Reg is the telemetry registry backing /metrics (default: a fresh
	// enabled registry private to this server).
	Reg *obs.Registry
	// Now is the clock, injectable for deterministic breaker tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = trace.DefaultWindowOpts().History
	}
	if c.Horizon <= 0 {
		c.Horizon = trace.DefaultWindowOpts().Horizon
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 10000
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 10
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 64
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Reg == nil {
		c.Reg = obs.New()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// modelSlot is one installed predictor generation. Requests acquire the
// slot for the duration of their inference so a hot-swap can drain the
// old generation before declaring the swap complete.
type modelSlot struct {
	name string
	res  *predictors.Resilient

	mu       sync.Mutex
	inflight int
	retired  bool
	drained  chan struct{}
}

func newModelSlot(name string, p predictors.Predictor, horizon int) *modelSlot {
	return &modelSlot{name: name, res: predictors.NewResilient(p, horizon), drained: make(chan struct{})}
}

// acquire registers an in-flight inference; it fails once the slot is
// retired (the caller should reload the active slot and retry).
func (m *modelSlot) acquire() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.retired {
		return false
	}
	m.inflight++
	return true
}

// release ends one in-flight inference, closing the drain latch when a
// retired slot empties.
func (m *modelSlot) release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	if m.retired && m.inflight == 0 {
		close(m.drained)
	}
}

// retire marks the slot dead to new acquisitions and returns a channel
// that closes once the last in-flight inference releases.
func (m *modelSlot) retire() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.retired {
		m.retired = true
		if m.inflight == 0 {
			close(m.drained)
		}
	}
	return m.drained
}

// Server is the forecast service. Construct with New, mount Handler on an
// http.Server or call Serve, and stop with Shutdown.
type Server struct {
	cfg      Config
	scaler   *trace.Scaler
	wopts    trace.WindowOpts
	fallback *predictors.HarmonicMean
	active   atomic.Pointer[modelSlot]
	breaker  *Breaker
	gate     *gate
	sessions *sessionStore
	reg      *obs.Registry
	m        meters

	ready    atomic.Bool
	draining atomic.Bool
	swapMu   sync.Mutex

	// ewmaInferS tracks a smoothed inference time (seconds, as float bits)
	// feeding the Retry-After estimate on shed responses.
	ewmaInferS atomic.Uint64

	httpSrv     *http.Server
	janitorStop chan struct{}
	janitorDone chan struct{}
	startOnce   sync.Once
}

// New builds a server holding the trained predictor p (installed under
// name) and the scaler its windows were fit with. The scaler must be
// fitted; the predictor must already be trained.
func New(name string, p predictors.Predictor, sc *trace.Scaler, cfg Config) *Server {
	if sc == nil || !sc.Fitted() {
		panic("serve: scaler must be fitted")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		scaler:   sc,
		wopts:    trace.WindowOpts{History: cfg.History, Horizon: cfg.Horizon, Stride: 1},
		fallback: &predictors.HarmonicMean{Horizon: cfg.Horizon},
		breaker:  NewBreaker(cfg.BreakerThreshold, cfg.BreakerOpenFor, cfg.Now, cfg.Reg),
		gate:     newGate(cfg.Concurrency, cfg.QueueCap),
		sessions: newSessionStore(cfg.History, cfg.MaxSessions, cfg.Now, cfg.Reg),
		reg:      cfg.Reg,
		m:        newMeters(cfg.Reg),
	}
	s.active.Store(newModelSlot(name, p, cfg.Horizon))
	s.ready.Store(true)
	return s
}

// ModelName returns the name of the active predictor generation.
func (s *Server) ModelName() string { return s.active.Load().name }

// BreakerState exposes the breaker state for status endpoints and tests.
func (s *Server) BreakerState() BreakerState { return s.breaker.State() }

// Response is the wire form of a forecast answer.
type Response struct {
	Session string `json:"session"`
	Model   string `json:"model"`
	// Warmup is set while the session has fewer than History samples;
	// Need says how many more are required before forecasts start.
	Warmup bool `json:"warmup,omitempty"`
	Need   int  `json:"need,omitempty"`
	// ForecastMbps is the per-horizon-step aggregate forecast.
	ForecastMbps []float64 `json:"forecast_mbps,omitempty"`
	// Degraded is set when the answer came from the harmonic-mean
	// fallback; Reason says why: "timeout", "breaker_open",
	// "invalid_input" or "model_fault".
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// QueueWaitMs and InferMs expose the request's own latency split.
	QueueWaitMs float64 `json:"queue_wait_ms"`
	InferMs     float64 `json:"infer_ms"`
}

// inferOutcome carries one inference result across the deadline select.
type inferOutcome struct {
	y          []float64
	intervened bool
	inferS     float64
}

// forecast runs the full serving path for a decoded request: session
// update, admission, breaker, inference under deadline, degradation. It
// returns the response and the HTTP status (200 for every answered
// forecast including degraded ones, 429 on shed). Along the way it fills
// rt's stage durations (queue wait, breaker, inference) and outcome, so
// the handler can journal the full per-request decomposition.
func (s *Server) forecast(ctx context.Context, req *Request, rt *reqTrace) (*Response, int) {
	s.m.requests.Add(1)
	rt.session = req.Session
	w, n, full := s.sessions.touch(req.Session).push(req.Samples, s.scaler, s.wopts)
	if !full {
		s.m.warmup.Add(1)
		rt.outcome = "warmup"
		return &Response{Session: req.Session, Model: s.active.Load().name,
			Warmup: true, Need: s.cfg.History - n}, http.StatusOK
	}

	ctx, cancel := context.WithTimeout(ctx, s.cfg.Deadline)
	defer cancel()

	res, waited := s.gate.admit(ctx)
	rt.queueS = waited.Seconds()
	switch res {
	case admitShed:
		s.m.shed.Add(1)
		rt.outcome = "shed"
		return nil, http.StatusTooManyRequests
	case admitTimeout:
		return s.degrade(req, w, "timeout", waited, rt), http.StatusOK
	}

	// A window poisoned by non-finite inputs (NaN sensor nulls that
	// survived into a full history) would make any model emit garbage;
	// answer deterministically from the fallback and keep the breaker out
	// of it — the model is healthy, the input is not.
	if !predictors.ValidWindow(w) {
		s.gate.release()
		return s.degrade(req, w, "invalid_input", waited, rt), http.StatusOK
	}

	bt0 := time.Now()
	proceed, probe := s.breaker.Allow()
	rt.breakerS = time.Since(bt0).Seconds()
	if !proceed {
		s.gate.release()
		return s.degrade(req, w, "breaker_open", waited, rt), http.StatusOK
	}

	slot := s.acquireActive()
	done := make(chan inferOutcome, 1)
	go func() {
		t0 := time.Now()
		y, intervened := slot.res.PredictChecked(w)
		inferS := time.Since(t0).Seconds()
		s.breaker.Record(!intervened, probe)
		s.observeInfer(inferS)
		slot.release()
		s.gate.release()
		done <- inferOutcome{y: y, intervened: intervened, inferS: inferS}
	}()

	select {
	case out := <-done:
		rt.inferS = out.inferS
		if out.intervened {
			s.m.degradedModelFault.Add(1)
			rt.outcome, rt.reason = "degraded", "model_fault"
			return s.respond(req, slot.name, out.y, true, "model_fault", waited, out.inferS, rt), http.StatusOK
		}
		s.m.ok.Add(1)
		rt.outcome = "ok"
		return s.respond(req, slot.name, out.y, false, "", waited, out.inferS, rt), http.StatusOK
	case <-ctx.Done():
		// The inference goroutine keeps its gate slot until it finishes,
		// so a backlog of slow inferences surfaces as backpressure rather
		// than goroutine growth.
		return s.degrade(req, w, "timeout", waited, rt), http.StatusOK
	}
}

// acquireActive loops until it holds a non-retired model slot. The retry
// only triggers in the instant between a swap retiring the old slot and
// this request reloading the pointer.
func (s *Server) acquireActive() *modelSlot {
	for {
		slot := s.active.Load()
		if slot.acquire() {
			return slot
		}
	}
}

// degrade answers from the harmonic-mean fallback. The output is
// bit-for-bit the fallback predictor's forecast — the conformance harness
// pins this (degradation is deterministic, not best-effort).
func (s *Server) degrade(req *Request, w trace.Window, reason string, waited time.Duration, rt *reqTrace) *Response {
	switch reason {
	case "timeout":
		s.m.degradedTimeout.Add(1)
	case "breaker_open":
		s.m.degradedBreaker.Add(1)
	case "invalid_input":
		s.m.degradedInput.Add(1)
	}
	rt.outcome, rt.reason = "degraded", reason
	if s.reg.Journal() != nil {
		s.reg.Emit("serve.degraded", map[string]any{"session": req.Session, "reason": reason, "trace": rt.id})
	}
	return s.respond(req, s.active.Load().name, s.fallback.Predict(w), true, reason, waited, 0, rt)
}

// respond converts a scaled forecast into the wire response in Mbps.
func (s *Server) respond(req *Request, model string, y []float64, degraded bool, reason string, waited time.Duration, inferS float64, rt *reqTrace) *Response {
	mbps := make([]float64, len(y))
	for i, v := range y {
		mbps[i] = s.scaler.InvertTput(v)
	}
	s.m.queueWait.ObserveEx(waited.Seconds(), rt.id)
	if inferS > 0 {
		s.m.infer.ObserveEx(inferS, rt.id)
	}
	return &Response{
		Session:      req.Session,
		Model:        model,
		ForecastMbps: mbps,
		Degraded:     degraded,
		Reason:       reason,
		QueueWaitMs:  waited.Seconds() * 1e3,
		InferMs:      inferS * 1e3,
	}
}

// observeInfer folds one inference duration into the smoothed estimate
// behind Retry-After.
func (s *Server) observeInfer(sec float64) {
	for {
		oldBits := s.ewmaInferS.Load()
		old := math.Float64frombits(oldBits)
		next := sec
		if old > 0 {
			next = 0.8*old + 0.2*sec
		}
		if s.ewmaInferS.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a shed client should back off:
// roughly the time to drain the current queue at the smoothed service
// rate, clamped to [1, 30] whole seconds.
func (s *Server) retryAfterSeconds() int {
	ewma := math.Float64frombits(s.ewmaInferS.Load())
	if ewma <= 0 {
		ewma = s.cfg.Deadline.Seconds()
	}
	depth := float64(s.gate.depth()) + 1
	est := ewma * depth / float64(s.cfg.Concurrency)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Swap atomically installs a new predictor generation built by the
// configured factory, then drains the old generation (bounded by
// DrainTimeout). It returns the retired model's name and whether it
// drained fully inside the bound.
func (s *Server) Swap(name string) (old string, drained bool, err error) {
	if s.cfg.Build == nil {
		return "", false, fmt.Errorf("serve: no model factory configured")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	p, err := s.cfg.Build(name)
	if err != nil {
		return "", false, err
	}
	next := newModelSlot(name, p, s.cfg.Horizon)
	prev := s.active.Swap(next)
	s.breaker.Reset()
	t0 := time.Now()
	select {
	case <-prev.retire():
		drained = true
	case <-time.After(s.cfg.DrainTimeout):
	}
	s.reg.Add("serve.swaps", 1)
	s.reg.Emit("serve.swap", map[string]any{
		"from": prev.name, "to": name, "drained": drained,
		"drain_ms": time.Since(t0).Seconds() * 1e3,
	})
	return prev.name, drained, nil
}

// Serve accepts connections on ln until Shutdown. It blocks like
// http.Server.Serve and returns http.ErrServerClosed after a clean
// shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.start()
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// ReadTimeout bounds slow-loris bodies: a client trickling bytes
		// holds only its connection, and only this long.
		ReadTimeout:  s.cfg.Deadline + 5*time.Second,
		WriteTimeout: s.cfg.Deadline + 5*time.Second,
		IdleTimeout:  60 * time.Second,
	}
	return s.httpSrv.Serve(ln)
}

// start launches the session janitor once.
func (s *Server) start() {
	s.startOnce.Do(func() {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		interval := s.cfg.IdleTTL / 4
		if interval < time.Second {
			interval = time.Second
		}
		go func() {
			defer close(s.janitorDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.sessions.evictIdle(s.cfg.IdleTTL)
				case <-s.janitorStop:
					return
				}
			}
		}()
	})
}

// Shutdown drains the server: /readyz flips to 503 so load balancers stop
// sending, in-flight requests finish (bounded by ctx), and the janitor
// stops. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ready.Store(false)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	s.reg.Emit("serve.shutdown", map[string]any{"clean": err == nil})
	return err
}
