package serve

import (
	"time"

	"prism5g/internal/obs"
)

// TraceHeader is the response header carrying the request's trace ID.
// Every forecast response (including 429s and decode rejections) carries
// one, so a client-side latency outlier can be joined against the
// server-side "trace" journal event that decomposes it stage by stage.
const TraceHeader = "X-Prism-Trace"

// reqTrace is one request's latency decomposition: the trace ID plus the
// per-stage durations the handler and forecast path fill in as the
// request moves decode → admission queue → breaker → inference → encode.
// It is owned by the request goroutine; the inference goroutine reports
// its duration through the outcome channel, never by writing here.
type reqTrace struct {
	id      string
	start   time.Time
	session string
	outcome string // ok, warmup, degraded, shed, rejected, unavailable
	reason  string // degradation or rejection reason, "" for ok

	decodeS, queueS, breakerS, inferS, encodeS float64
}

// newReqTrace opens a trace for one inbound request.
func (s *Server) newReqTrace() *reqTrace {
	return &reqTrace{id: obs.NewTraceID(), start: time.Now()}
}

// finish closes the trace: per-stage histograms (exemplared with the
// trace ID so OpenMetrics buckets link back to the journal), the
// end-to-end latency observation, and one "trace" journal event carrying
// the full stage decomposition — the record `prismobs blame` consumes.
func (s *Server) finishTrace(rt *reqTrace) {
	totalS := time.Since(rt.start).Seconds()
	s.m.latency.ObserveEx(totalS, rt.id)
	s.m.stageDecode.ObserveEx(rt.decodeS, rt.id)
	s.m.stageEncode.ObserveEx(rt.encodeS, rt.id)
	if rt.inferS > 0 {
		s.m.stageInfer.ObserveEx(rt.inferS, rt.id)
	}
	if s.reg.Journal() == nil {
		return
	}
	s.reg.Emit("trace", map[string]any{
		"trace":     rt.id,
		"session":   rt.session,
		"outcome":   rt.outcome,
		"reason":    rt.reason,
		"total_s":   totalS,
		"decode_s":  rt.decodeS,
		"queue_s":   rt.queueS,
		"breaker_s": rt.breakerS,
		"infer_s":   rt.inferS,
		"encode_s":  rt.encodeS,
	})
}

// meters are the request path's instruments, resolved once in New so a
// request takes no registry lock. Instruments that never record stay out
// of both /metrics expositions, as before.
type meters struct {
	requests, warmup, shed, ok                                          *obs.Counter
	degradedTimeout, degradedBreaker, degradedInput, degradedModelFault *obs.Counter
	rejectedOversize, rejectedBodyRead, rejectedMalformed               *obs.Counter

	queueWait, infer, latency, stageDecode, stageEncode, stageInfer *obs.Histogram
}

func newMeters(reg *obs.Registry) meters {
	return meters{
		requests:           reg.Counter("serve.requests"),
		warmup:             reg.Counter("serve.warmup"),
		shed:               reg.Counter("serve.shed"),
		ok:                 reg.Counter("serve.ok"),
		degradedTimeout:    reg.Counter("serve.degraded_timeout"),
		degradedBreaker:    reg.Counter("serve.degraded_breaker"),
		degradedInput:      reg.Counter("serve.degraded_input"),
		degradedModelFault: reg.Counter("serve.degraded_model_fault"),
		rejectedOversize:   reg.Counter("serve.rejected_oversize"),
		rejectedBodyRead:   reg.Counter("serve.rejected_body_read"),
		rejectedMalformed:  reg.Counter("serve.rejected_malformed"),
		queueWait:          reg.Histogram("serve.queue_wait_s"),
		infer:              reg.Histogram("serve.infer_s"),
		latency:            reg.Histogram("serve.latency_s"),
		stageDecode:        reg.Histogram("serve.stage.decode_s"),
		stageEncode:        reg.Histogram("serve.stage.encode_s"),
		stageInfer:         reg.Histogram("serve.stage.infer_s"),
	}
}
