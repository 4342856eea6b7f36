package obs

import "time"

// Span is one timing measurement. Spans are values, not pointers: starting
// one on the disabled path allocates nothing and End on the zero Span is a
// no-op, so instrumentation sites can unconditionally
//
//	sp := obs.StartSpan("experiments.Table4")
//	defer sp.End()
//
// Ending a span records its duration (seconds) into the histogram named
// after it and emits a "span" journal event.
type Span struct {
	r     *Registry
	name  string
	start time.Time
}

// StartSpan opens a span. When the registry is disabled the returned span
// is the zero value and no clock is read.
func (r *Registry) StartSpan(name string) Span {
	if !r.Enabled() {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// Active reports whether the span records (false for the disabled path).
func (s Span) Active() bool { return s.r != nil }

// End records the elapsed time and returns it. Safe on the zero Span.
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.Observe(s.name, d.Seconds())
	s.r.Emit("span", map[string]any{"name": s.name, "dur_s": d.Seconds()})
	return d
}

// EndWith is End plus extra journal fields merged into the span event
// (e.g. a row count), for sites where the duration alone undersells the
// work done.
func (s Span) EndWith(fields map[string]any) time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.Observe(s.name, d.Seconds())
	ev := map[string]any{"name": s.name, "dur_s": d.Seconds()}
	for k, v := range fields {
		if k != "name" && k != "dur_s" {
			ev[k] = v
		}
	}
	s.r.Emit("span", ev)
	return d
}
