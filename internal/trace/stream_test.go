package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDatasetSinkMaterializes(t *testing.T) {
	d := &Dataset{Name: "sink", StepS: 1}
	s := NewDatasetSink(d)
	for i := 0; i < 3; i++ {
		if err := s.Emit(synthTrace(10, i, 0)); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(d.Traces) != 3 || d.Traces[1].Meta.Route != 1 {
		t.Fatalf("dataset sink did not materialize in order: %d traces", len(d.Traces))
	}
}

func TestDiscardSinkCounts(t *testing.T) {
	var s DiscardSink
	_ = s.Emit(synthTrace(10, 0, 0))
	_ = s.Emit(synthTrace(7, 1, 0))
	if s.Traces != 2 || s.Samples != 17 {
		t.Fatalf("discard sink counted %d traces / %d samples", s.Traces, s.Samples)
	}
}

// TestJSONLRoundTrip pins the spill format: sink then source reproduces
// the exact trace sequence, including non-finite feature values (which
// cross the format as nulls and come back as NaN).
func TestJSONLRoundTrip(t *testing.T) {
	d := synthDataset(4, 25)
	d.Traces[2].Samples[3].CCs[0].Vec[FSINR] = math.NaN()

	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, tr := range d.Traces {
		if err := sink.Emit(tr); err != nil {
			t.Fatalf("emit: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	path := filepath.Join(t.TempDir(), "spill.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenJSONLSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	for pass := 0; pass < 2; pass++ {
		for i := range d.Traces {
			got, err := src.Next()
			if err != nil {
				t.Fatalf("pass %d trace %d: %v", pass, i, err)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(d.Traces[i])
			if !bytes.Equal(gb, wb) {
				t.Fatalf("pass %d trace %d differs after round trip", pass, i)
			}
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("pass %d: want io.EOF after last trace, got %v", pass, err)
		}
		if err := src.Reset(); err != nil {
			t.Fatalf("reset: %v", err)
		}
	}
}

func TestCreateJSONLSinkWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, err := CreateJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(synthTrace(5, 0, 0)); err != nil {
		t.Fatalf("emit: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.Split(bytes.TrimSpace(b), []byte("\n"))) != 1 {
		t.Fatalf("expected one JSON line, got %q", b)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(&failWriter{n: 64})
	var firstErr error
	// The 1MB bufio buffer absorbs writes until Close flushes, so push
	// enough data to overflow it and force the underlying write to fail.
	for i := 0; i < 200 && firstErr == nil; i++ {
		firstErr = sink.Emit(synthTrace(50, i, 0))
	}
	if firstErr == nil {
		firstErr = sink.Close()
	}
	if firstErr == nil {
		t.Fatal("sink never surfaced the write error")
	}
	if err := sink.Emit(synthTrace(5, 0, 0)); err == nil {
		t.Fatal("sink accepted writes after error")
	}
}

// TestStreamWindowsMatchesWindows is the streaming-window equivalence law
// at unit scope: StreamWindows over a source yields exactly Windows' output
// regardless of chunk size, and Reset replays it for a second epoch.
func TestStreamWindowsMatchesWindows(t *testing.T) {
	d := synthDataset(4, 30)
	d.Traces = append(d.Traces, synthTrace(6, 8, 0)) // short trace mid-stream
	d.Traces = append(d.Traces, synthTrace(30, 8, 1))
	var sc Scaler
	sc.Fit(d.Traces)
	opts := WindowOpts{History: 10, Horizon: 3, Stride: 1}
	want := Windows(d, &sc, opts)

	for _, chunk := range []int{1, 7, 64, 10_000} {
		st := StreamWindows(NewDatasetSource(d), &sc, opts)
		for pass := 0; pass < 2; pass++ {
			var got []Window
			for {
				ws, err := st.Next(chunk)
				if err != nil {
					t.Fatalf("chunk=%d: %v", chunk, err)
				}
				if len(ws) == 0 {
					break
				}
				got = append(got, ws...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d pass=%d: streamed %d windows differ from Windows' %d",
					chunk, pass, len(got), len(want))
			}
			if err := st.Reset(); err != nil {
				t.Fatalf("reset: %v", err)
			}
		}
	}
}

// TestStreamWindowsFromJSONL runs the full spill pipeline: sink to disk,
// incremental scaler fit over the file, then streamed windows — all equal
// to the materialized path.
func TestStreamWindowsFromJSONL(t *testing.T) {
	d := synthDataset(3, 25)
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	sink, err := CreateJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range d.Traces {
		if err := sink.Emit(tr); err != nil {
			t.Fatalf("emit: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	src, err := OpenJSONLSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Incremental fit over the spilled file must equal the in-memory fit.
	var scStream Scaler
	scStream.BeginFit()
	for {
		tr, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scStream.ObserveTrace(tr)
	}
	scStream.FinishFit()
	var scMem Scaler
	scMem.Fit(d.Traces)
	if scStream != scMem {
		t.Fatalf("incremental fit over spill differs from in-memory fit")
	}

	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	opts := WindowOpts{History: 10, Horizon: 3, Stride: 1}
	want := Windows(d, &scMem, opts)
	st := StreamWindows(src, &scStream, opts)
	var got []Window
	for {
		ws, err := st.Next(16)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) == 0 {
			break
		}
		got = append(got, ws...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spill-streamed windows differ from materialized (%d vs %d)", len(got), len(want))
	}
}

func TestSliceStreamChunks(t *testing.T) {
	d := synthDataset(2, 30)
	var sc Scaler
	sc.Fit(d.Traces)
	ws := Windows(d, &sc, WindowOpts{History: 10, Horizon: 3, Stride: 1})
	st := NewSliceStream(ws)
	var got []Window
	for {
		c, err := st.Next(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 {
			break
		}
		got = append(got, c...)
	}
	if !reflect.DeepEqual(got, ws) {
		t.Fatal("slice stream lost or reordered windows")
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if c, _ := st.Next(1); len(c) != 1 || !reflect.DeepEqual(c[0], ws[0]) {
		t.Fatal("reset did not rewind slice stream")
	}
}
