// Package obs is the repository's telemetry subsystem: atomic counters and
// gauges, fixed-bucket histograms with quantile estimates, nestable timing
// spans and a structured JSON-lines event journal — stdlib only, like
// everything else in this tree.
//
// The paper's contribution is a measurement methodology; obs applies the
// same discipline to the reproduction pipeline itself, so dataset builds,
// repairs, training runs and experiment sweeps stop being black boxes.
//
// Design rules (see DESIGN.md §11):
//
//   - Off by default. The process-global Default() registry starts
//     disabled; every instrument is a no-op until something (normally a CLI
//     -metrics/-journal flag) enables it. The disabled fast path is a
//     single atomic load and allocates nothing.
//   - Deterministic-output-safe. Telemetry reads clocks and writes metric
//     files; it never draws from an rng.Source and never feeds a value
//     back into the pipeline, so artifacts are byte-identical with
//     telemetry on or off (locked by the conform "telemetry-transparency"
//     metamorphic law).
//   - Injectable. Tests and the conformance harness construct their own
//     *Registry with New() and either use it directly or install it
//     temporarily with SetDefault.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of instruments. Instruments are created on
// first use and live for the registry's lifetime; all methods are safe for
// concurrent use.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	journal atomic.Pointer[Journal]
}

// New returns an enabled registry (callers constructing one mean to use
// it). The process-global Default() registry instead starts disabled.
func New() *Registry {
	r := newRegistry()
	r.enabled.Store(true)
	return r
}

// NewDisabled returns a registry whose instruments are no-ops until
// SetEnabled(true).
func NewDisabled() *Registry { return newRegistry() }

func newRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Enabled reports whether instruments record.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled flips recording on or off. Held instrument handles observe
// the change immediately (they share the registry's flag).
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{on: &r.enabled}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{on: &r.enabled}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default (exponential)
// bucket layout, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWithBounds(name, nil)
}

// HistogramWithBounds returns the named histogram, creating it with the
// given ascending upper bounds on first use (nil = DefaultBounds). Bounds
// are fixed at creation; later calls ignore the argument.
func (r *Registry) HistogramWithBounds(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(&r.enabled, bounds)
		r.hists[name] = h
	}
	return h
}

// Add increments the named counter by n (no-op while disabled).
func (r *Registry) Add(name string, n int64) {
	if !r.Enabled() {
		return
	}
	r.Counter(name).Add(n)
}

// Set sets the named gauge (no-op while disabled).
func (r *Registry) Set(name string, v float64) {
	if !r.Enabled() {
		return
	}
	r.Gauge(name).Set(v)
}

// Observe records v into the named histogram (no-op while disabled).
func (r *Registry) Observe(name string, v float64) {
	if !r.Enabled() {
		return
	}
	r.Histogram(name).Observe(v)
}

// ObserveEx records v with an exemplar trace ID (no-op while disabled).
func (r *Registry) ObserveEx(name string, v float64, traceID string) {
	if !r.Enabled() {
		return
	}
	r.Histogram(name).ObserveEx(v, traceID)
}

// Counter is a monotonically adjustable integer metric.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments by n; a single atomic load when disabled.
func (c *Counter) Add(n int64) {
	if !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (readable even while disabled).
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value float metric.
type Gauge struct {
	on   *atomic.Bool
	bits atomic.Uint64
	set  atomic.Bool
}

// Set records v; a single atomic load when disabled.
func (g *Gauge) Set(v float64) {
	if !g.on.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last set value and whether one was ever set.
func (g *Gauge) Value() (float64, bool) {
	if !g.set.Load() {
		return 0, false
	}
	return math.Float64frombits(g.bits.Load()), true
}

// Snapshot is the serializable state of a registry at one instant — the
// payload the CLI -metrics flag dumps.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current state. Instruments that
// never recorded (zero counters, unset gauges, empty histograms) are
// omitted so the dump only contains signals that actually fired.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	for name, c := range r.counters {
		if v := c.Value(); v != 0 {
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[name] = v
		}
	}
	for name, g := range r.gauges {
		if v, ok := g.Value(); ok {
			if s.Gauges == nil {
				s.Gauges = map[string]float64{}
			}
			s.Gauges[name] = v
		}
	}
	for name, h := range r.hists {
		if hs := h.Snapshot(); hs.Count > 0 {
			if s.Histograms == nil {
				s.Histograms = map[string]HistSnapshot{}
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented, key-sorted JSON (Go's encoder
// sorts map keys, so the output is stable across runs up to the values).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// def is the process-global registry; it starts disabled so library code
// instrumented with the package-level helpers costs one atomic load per
// call site until a CLI (or test) turns telemetry on.
var def atomic.Pointer[Registry]

func init() { def.Store(NewDisabled()) }

// Default returns the process-global registry.
func Default() *Registry { return def.Load() }

// SetDefault installs r as the process-global registry and returns the
// previous one, so tests and the conformance harness can swap a scratch
// registry in and restore the old one after.
func SetDefault(r *Registry) *Registry {
	if r == nil {
		panic("obs: SetDefault(nil)")
	}
	return def.Swap(r)
}

// Enabled reports whether the default registry records; instrumentation
// sites use it to skip even clock reads on the disabled path.
func Enabled() bool { return Default().Enabled() }

// Add increments a counter on the default registry.
func Add(name string, n int64) { Default().Add(name, n) }

// ObserveEx records a histogram observation with an exemplar trace ID on
// the default registry.
func ObserveEx(name string, v float64, traceID string) { Default().ObserveEx(name, v, traceID) }

// Emit writes a journal event on the default registry.
func Emit(event string, fields map[string]any) { Default().Emit(event, fields) }

// StartSpan opens a timing span on the default registry.
func StartSpan(name string) Span { return Default().StartSpan(name) }

// String renders a compact single-line summary of a snapshot, used by
// error paths and tests.
func (s Snapshot) String() string {
	return fmt.Sprintf("snapshot{counters=%d gauges=%d histograms=%d}",
		len(s.Counters), len(s.Gauges), len(s.Histograms))
}
