package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prism5g/internal/trace"
)

// Handler returns the server's route table:
//
//	POST /v1/forecast  — stream samples, get a forecast (or 429/400/413);
//	                     every answer carries an X-Prism-Trace request ID
//	GET  /healthz      — liveness: 200 while the process serves at all
//	GET  /readyz       — readiness: 503 while warming up or draining
//	GET  /metrics      — obs registry snapshot (JSON by default;
//	                     ?format=openmetrics for Prometheus scrapes)
//	GET  /statusz      — model, breaker, queue and session state
//	POST /admin/swap   — atomic model hot-swap with old-model draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/forecast", s.handleForecast)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/admin/swap", s.handleSwap)
	return mux
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The trace opens before any work: every answered request — rejects,
	// sheds and drains included — carries an X-Prism-Trace header and
	// lands in the journal with whatever stages it reached.
	rt := s.newReqTrace()
	w.Header().Set(TraceHeader, rt.id)
	defer s.finishTrace(rt)
	if s.draining.Load() || !s.ready.Load() {
		rt.outcome = "unavailable"
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		rt.decodeS = time.Since(rt.start).Seconds()
		rt.outcome = "rejected"
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.m.rejectedOversize.Add(1)
			rt.reason = "oversize"
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		// Slow-loris bodies die here on the read deadline; the client
		// never held anything but its own connection.
		s.m.rejectedBodyRead.Add(1)
		rt.reason = "body_read"
		http.Error(w, "body read failed", http.StatusBadRequest)
		return
	}
	req, err := DecodeRequest(body, s.cfg.MaxSamples)
	rt.decodeS = time.Since(rt.start).Seconds()
	if err != nil {
		s.m.rejectedMalformed.Add(1)
		rt.outcome, rt.reason = "rejected", "malformed"
		var re *RequestError
		if errors.As(err, &re) {
			http.Error(w, re.Msg, re.Status)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, status := s.forecast(r.Context(), req, rt)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "queue full", status)
		return
	}
	et0 := time.Now()
	writeJSON(w, status, resp)
	rt.encodeS = time.Since(et0).Seconds()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// handleMetrics serves the obs registry in two expositions: the repo's
// JSON snapshot (default) and OpenMetrics text (?format=openmetrics, or
// an Accept header naming application/openmetrics-text) for real
// monitoring stacks. Rendering goes through a buffer so a marshal failure
// surfaces as a 500 instead of a half-written 200.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		format = "openmetrics"
	}
	var buf bytes.Buffer
	var contentType string
	var err error
	switch format {
	case "", "json":
		contentType = "application/json; charset=utf-8"
		err = s.reg.WriteJSON(&buf)
	case "openmetrics":
		contentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		err = s.reg.WriteOpenMetrics(&buf)
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json or openmetrics)", format), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, "metrics render failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
}

// statuszBody is the /statusz payload.
type statuszBody struct {
	Model     string `json:"model"`
	Breaker   string `json:"breaker"`
	Queued    int64  `json:"queued"`
	InFlight  int    `json:"in_flight"`
	Sessions  int    `json:"sessions"`
	Draining  bool   `json:"draining"`
	History   int    `json:"history"`
	Horizon   int    `json:"horizon"`
	QueueCap  int    `json:"queue_cap"`
	Deadline  string `json:"deadline"`
	Fallbacks string `json:"degradation_fallback"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statuszBody{
		Model:     s.ModelName(),
		Breaker:   s.breaker.State().String(),
		Queued:    s.gate.depth(),
		InFlight:  s.gate.inFlight(),
		Sessions:  s.sessions.len(),
		Draining:  s.draining.Load(),
		History:   s.cfg.History,
		Horizon:   s.cfg.Horizon,
		QueueCap:  s.cfg.QueueCap,
		Deadline:  s.cfg.Deadline.String(),
		Fallbacks: s.fallback.Name(),
	})
}

// swapRequest is the /admin/swap payload.
type swapRequest struct {
	Model string `json:"model"`
}

// swapResponse reports the swap outcome.
type swapResponse struct {
	Old     string `json:"old"`
	New     string `json:"new"`
	Drained bool   `json:"drained"`
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.Build == nil {
		http.Error(w, "no model factory configured", http.StatusNotImplemented)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4096))
	if err != nil {
		http.Error(w, "body read failed", http.StatusBadRequest)
		return
	}
	var req swapRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Model == "" {
		http.Error(w, `want {"model": "<name>"}`, http.StatusBadRequest)
		return
	}
	old, drained, err := s.Swap(req.Model)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, swapResponse{Old: old, New: req.Model, Drained: drained})
}

// writeJSON writes v as json.Encoder does. A forecast Response is
// appended by hand to the same bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if r, ok := v.(*Response); ok {
		if b, ok := r.appendJSON(make([]byte, 0, 512)); ok {
			w.Write(b) //nolint:errcheck // client gone; nothing to do
			return
		}
	}
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// appendJSON appends r and a newline, byte for byte what json.Encoder
// writes for it. It reports false on a non-finite float, which json.Encoder
// refuses with an error.
func (r *Response) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"session":`...)
	b = trace.AppendJSONString(b, r.Session)
	b = append(b, `,"model":`...)
	b = trace.AppendJSONString(b, r.Model)
	if r.Warmup {
		b = append(b, `,"warmup":true`...)
	}
	if r.Need != 0 {
		b = append(b, `,"need":`...)
		b = strconv.AppendInt(b, int64(r.Need), 10)
	}
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if len(r.ForecastMbps) > 0 {
		b = append(b, `,"forecast_mbps":[`...)
		for i, v := range r.ForecastMbps {
			if !finite(v) {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = trace.AppendJSONFloat(b, v)
		}
		b = append(b, ']')
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.Reason != "" {
		b = append(b, `,"reason":`...)
		b = trace.AppendJSONString(b, r.Reason)
	}
	if !finite(r.QueueWaitMs) || !finite(r.InferMs) {
		return b, false
	}
	b = append(b, `,"queue_wait_ms":`...)
	b = trace.AppendJSONFloat(b, r.QueueWaitMs)
	b = append(b, `,"infer_ms":`...)
	b = trace.AppendJSONFloat(b, r.InferMs)
	return append(b, "}\n"...), true
}
