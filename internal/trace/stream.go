package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"prism5g/internal/obs"
)

// Sink consumes completed traces one at a time, in build order. It is the
// streaming half of the dataset pipeline: the simulator emits each trace
// as it finishes instead of accumulating a Dataset, so a campaign's peak
// memory is set by the worker pool, not the trace count. Emit takes the
// trace by value and may retain it (the materializing sink does); an
// error aborts the build. Close flushes whatever the sink buffers —
// callers own the lifecycle and must call it exactly once.
type Sink interface {
	Emit(tr Trace) error
	Close() error
}

// DatasetSink is the materializing sink: the historical in-memory path,
// now one implementation among several. Emitting appends to the wrapped
// dataset in order.
type DatasetSink struct {
	d *Dataset
}

// NewDatasetSink wraps a dataset (Name/StepS already set by the caller).
func NewDatasetSink(d *Dataset) *DatasetSink { return &DatasetSink{d: d} }

// Emit implements Sink.
func (s *DatasetSink) Emit(tr Trace) error {
	s.d.Traces = append(s.d.Traces, tr)
	return nil
}

// Close implements Sink (no-op: the dataset belongs to the caller).
func (s *DatasetSink) Close() error { return nil }

// DiscardSink counts what it drops — the sink for throughput/allocation
// measurements of the build itself.
type DiscardSink struct {
	Traces  int
	Samples int64
}

// Emit implements Sink.
func (s *DiscardSink) Emit(tr Trace) error {
	s.Traces++
	s.Samples += int64(len(tr.Samples))
	return nil
}

// Close implements Sink.
func (s *DiscardSink) Close() error { return nil }

// JSONLSink spills traces to disk as JSON lines — one trace per line, the
// append-only format a population-scale build streams into. Non-finite
// feature values survive the round-trip as nulls (see CC.MarshalJSON).
// Telemetry (when enabled): sink.spill_traces / sink.spill_bytes counters
// and a sink.emit_wait_s histogram, the backpressure signal — time the
// build spends blocked on the disk.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONLSink writes JSON lines to w. Close flushes but does not close w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<20)}
}

// CreateJSONLSink creates (truncating) the file at path; Close closes it.
func CreateJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create jsonl sink: %w", err)
	}
	s := NewJSONLSink(f)
	s.c = f
	return s, nil
}

// Emit implements Sink.
func (s *JSONLSink) Emit(tr Trace) error {
	if s.err != nil {
		return s.err
	}
	reg := obs.Default()
	var t0 time.Time
	if reg.Enabled() {
		t0 = time.Now()
	}
	b, err := json.Marshal(tr)
	if err != nil {
		s.err = fmt.Errorf("trace: jsonl sink: %w", err)
		return s.err
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = fmt.Errorf("trace: jsonl sink: %w", err)
		return s.err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = fmt.Errorf("trace: jsonl sink: %w", err)
		return s.err
	}
	if reg.Enabled() {
		reg.Add("sink.spill_traces", 1)
		reg.Add("sink.spill_bytes", int64(len(b)+1))
		reg.Observe("sink.emit_wait_s", time.Since(t0).Seconds())
	}
	return nil
}

// Close implements Sink: flushes the buffer and closes the underlying
// file when the sink owns one.
func (s *JSONLSink) Close() error {
	ferr := s.w.Flush()
	if s.err == nil && ferr != nil {
		s.err = fmt.Errorf("trace: jsonl sink: %w", ferr)
	}
	if s.c != nil {
		cerr := s.c.Close()
		if s.err == nil && cerr != nil {
			s.err = fmt.Errorf("trace: jsonl sink: %w", cerr)
		}
		s.c = nil
	}
	return s.err
}

// TraceSource yields traces in a fixed order, restartably — the reading
// half of the streaming pipeline (a spilled JSONL file, or a dataset
// already in memory). Next returns io.EOF when exhausted; Reset rewinds
// to the first trace.
type TraceSource interface {
	Next() (*Trace, error)
	Reset() error
}

// DatasetSource adapts a materialized dataset to TraceSource.
type DatasetSource struct {
	d *Dataset
	i int
}

// NewDatasetSource returns a source over d's traces in order.
func NewDatasetSource(d *Dataset) *DatasetSource { return &DatasetSource{d: d} }

// Next implements TraceSource.
func (s *DatasetSource) Next() (*Trace, error) {
	if s.i >= len(s.d.Traces) {
		return nil, io.EOF
	}
	tr := &s.d.Traces[s.i]
	s.i++
	return tr, nil
}

// Reset implements TraceSource.
func (s *DatasetSource) Reset() error {
	s.i = 0
	return nil
}

// JSONLSource reads traces back from a JSONL spill file, one line at a
// time — only the current trace is in memory. Reset seeks back to the
// start, so multi-pass consumers (scaler fit, then per-epoch training)
// re-read the file instead of holding it.
type JSONLSource struct {
	f   *os.File
	r   *bufio.Reader
	cur Trace
}

// OpenJSONLSource opens a spill file written by JSONLSink.
func OpenJSONLSource(path string) (*JSONLSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open jsonl source: %w", err)
	}
	return &JSONLSource{f: f, r: bufio.NewReaderSize(f, 1<<20)}, nil
}

// Next implements TraceSource. The returned trace is valid until the
// following Next call.
func (s *JSONLSource) Next() (*Trace, error) {
	for {
		line, err := s.r.ReadBytes('\n')
		if len(line) == 0 {
			if err == io.EOF {
				return nil, io.EOF
			}
			if err != nil {
				return nil, fmt.Errorf("trace: jsonl source: %w", err)
			}
			continue
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace: jsonl source: %w", err)
		}
		if isBlank(line) {
			if err == io.EOF {
				return nil, io.EOF
			}
			continue
		}
		s.cur = Trace{}
		if jerr := json.Unmarshal(line, &s.cur); jerr != nil {
			return nil, fmt.Errorf("trace: jsonl source: %w", jerr)
		}
		return &s.cur, nil
	}
}

// Reset implements TraceSource.
func (s *JSONLSource) Reset() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("trace: jsonl source: %w", err)
	}
	s.r.Reset(s.f)
	return nil
}

// Close releases the underlying file.
func (s *JSONLSource) Close() error { return s.f.Close() }

func isBlank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// WindowStream yields supervised windows in fixed order, in bounded
// chunks — what population-scale training consumes instead of a
// materialized []Window. Next returns at most max windows and an empty
// slice once exhausted; the returned windows stay valid (they share only
// the read-only scaled copy of their trace) but holding every chunk
// defeats the constant-memory point. Reset rewinds to the first window
// for the next epoch.
type WindowStream interface {
	Next(max int) ([]Window, error)
	Reset() error
}

// SliceStream adapts a materialized []Window to WindowStream.
type SliceStream struct {
	ws []Window
	i  int
}

// NewSliceStream wraps ws.
func NewSliceStream(ws []Window) *SliceStream { return &SliceStream{ws: ws} }

// Next implements WindowStream.
func (s *SliceStream) Next(max int) ([]Window, error) {
	if max <= 0 || s.i >= len(s.ws) {
		return nil, nil
	}
	j := s.i + max
	if j > len(s.ws) {
		j = len(s.ws)
	}
	out := s.ws[s.i:j]
	s.i = j
	return out, nil
}

// Reset implements WindowStream.
func (s *SliceStream) Reset() error {
	s.i = 0
	return nil
}

// StreamedWindows windows a trace source on the fly: the incremental
// counterpart of Windows. Each trace is scaled once per pass, as it is
// reached, and windows appear in exactly the order (and with exactly the
// TraceIdx/Start/values) Windows assigns over the materialized dataset —
// pinned by the streaming-window conformance law.
type StreamedWindows struct {
	src  TraceSource
	sc   *Scaler
	opts WindowOpts

	cur   *scaled // the current trace, scaled; nil if none or too short
	ti    int
	start int
	eof   bool
}

// StreamWindows returns a window stream over src; sc must be fitted.
func StreamWindows(src TraceSource, sc *Scaler, opts WindowOpts) *StreamedWindows {
	if !sc.Fitted() {
		panic("trace: scaler not fitted")
	}
	if opts.Stride <= 0 {
		opts.Stride = 1
	}
	return &StreamedWindows{src: src, sc: sc, opts: opts, ti: -1}
}

// Next implements WindowStream.
func (s *StreamedWindows) Next(max int) ([]Window, error) {
	if max <= 0 || s.eof {
		return nil, nil
	}
	span := s.opts.History + s.opts.Horizon
	var out []Window
	for len(out) < max {
		if s.cur == nil || s.start+span > len(s.cur.agg) {
			tr, err := s.src.Next()
			if err == io.EOF {
				s.eof = true
				break
			}
			if err != nil {
				return out, err
			}
			s.cur, s.ti, s.start = nil, s.ti+1, 0
			if len(tr.Samples) >= span {
				s.cur = scale(tr, 0, len(tr.Samples), s.sc, s.opts)
			}
			continue
		}
		out = append(out, Window{TraceIdx: s.ti, Start: s.start, s: s.cur, off: s.start})
		s.start += s.opts.Stride
	}
	if len(out) > 0 {
		obs.Add("trace.windows_built", int64(len(out)))
	}
	return out, nil
}

// Reset implements WindowStream.
func (s *StreamedWindows) Reset() error {
	if err := s.src.Reset(); err != nil {
		return err
	}
	s.cur, s.ti, s.start, s.eof = nil, -1, 0, false
	return nil
}
