package par

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prism5g/internal/obs"
)

func TestMapOrderedAtAnyWorkerCount(t *testing.T) {
	want := make([]int, 100)
	for i := range want {
		want[i] = i * i
	}
	for _, w := range []int{0, 1, 2, 4, 8, 100} {
		got, err := Map(context.Background(), len(want), w, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", Workers(0), runtime.NumCPU())
	}
	if Workers(-3) != runtime.NumCPU() {
		t.Fatal("negative should resolve to NumCPU")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit count not honoured")
	}
}

// TestForEachBoundsConcurrency requires Map, which runs a task for each
// index, to run at most workers tasks at once.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), 64, workers, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, cap is %d", p, workers)
	}
}

// TestMapClaimsPastASlowTask requires Map's room for all n results: while
// task 0 sleeps on one of two workers, the other must run every later
// task, which a window of 2*workers results would hold back.
func TestMapClaimsPastASlowTask(t *testing.T) {
	var done atomic.Int64
	var doneBefore0 int64
	_, err := Map(context.Background(), 8, 2, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
			doneBefore0 = done.Load()
		}
		done.Add(1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if doneBefore0 != 7 {
		t.Fatalf("%d of tasks 1-7 finished while task 0 ran, want all 7", doneBefore0)
	}
}

// TestPoolsJournalNothing runs a stream and a Map with an enabled registry
// and a journal: neither journals an event, while the pool and task
// counters still count.
func TestPoolsJournalNothing(t *testing.T) {
	var journal bytes.Buffer
	r := obs.New()
	j := obs.NewJournal(&journal)
	r.SetJournal(j)
	defer obs.SetDefault(obs.SetDefault(r))
	if err := OrderedStream(context.Background(), 6, 2,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(context.Background(), 5, 2, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != 0 {
		t.Fatalf("pools journaled %q", journal.String())
	}
	snap := r.Snapshot()
	if snap.Counters["par.pools"] != 2 || snap.Counters["par.tasks"] != 11 {
		t.Fatalf("par.pools %d, par.tasks %d; want 2 and 11", snap.Counters["par.pools"], snap.Counters["par.tasks"])
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := Map(context.Background(), 8, w, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", w, err)
		}
		if pe.Task != 5 || fmt.Sprint(pe.Value) != "boom" {
			t.Fatalf("workers=%d: wrong panic payload: %+v", w, pe)
		}
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	sentinel3 := errors.New("task 3")
	sentinel7 := errors.New("task 7")
	// Task 7 fails instantly; task 3 fails after a delay. The reported
	// error must still be task 3's (the lowest failing index among tasks
	// that ran).
	_, err := Map(context.Background(), 8, 8, func(i int) (int, error) {
		switch i {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return 0, sentinel3
		case 7:
			return 0, sentinel7
		}
		return i, nil
	})
	if !errors.Is(err, sentinel3) {
		t.Fatalf("want task 3's error, got %v", err)
	}
}

func TestContextCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 1000, 2, func(i int) (int, error) {
		if ran.Add(1) == 4 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

func TestMustMapRepanics(t *testing.T) {
	defer func() {
		if p := recover(); fmt.Sprint(p) != "kaput" {
			t.Fatalf("want original panic value, got %v", p)
		}
	}()
	MustMap(context.Background(), 4, 4, func(i int) int {
		if i == 2 {
			panic("kaput")
		}
		return i
	})
}

func TestOrderedStreamConsumesInOrder(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		var got []int
		err := OrderedStream(context.Background(), 50, w,
			func(i int) (int, error) {
				// Stagger completion so later indices often finish first.
				time.Sleep(time.Duration(50-i) * 10 * time.Microsecond)
				return i * 3, nil
			},
			func(i, v int) error {
				got = append(got, v)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: consumed %d of 50", w, len(got))
		}
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("workers=%d: got[%d]=%d, want %d (out of order)", w, i, v, i*3)
			}
		}
	}
}

func TestOrderedStreamBoundsInFlight(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := OrderedStream(context.Background(), 64, workers,
		func(i int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			return i, nil
		},
		func(i, v int) error {
			inFlight.Add(-1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The reorder window is 2*workers: produced-but-unconsumed results
	// never exceed it, which is the constant-memory guarantee.
	if p := peak.Load(); p > 2*workers {
		t.Fatalf("observed %d results in flight, window is %d", p, 2*workers)
	}
}

func TestOrderedStreamConsumeErrorStops(t *testing.T) {
	sentinel := errors.New("stop here")
	for _, w := range []int{1, 4} {
		var produced atomic.Int64
		var consumed int
		err := OrderedStream(context.Background(), 1000, w,
			func(i int) (int, error) {
				produced.Add(1)
				return i, nil
			},
			func(i, v int) error {
				consumed++
				if i == 5 {
					return sentinel
				}
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: want sentinel, got %v", w, err)
		}
		if consumed != 6 {
			t.Fatalf("workers=%d: consumed %d, want exactly 6", w, consumed)
		}
		if n := produced.Load(); n >= 1000 {
			t.Fatalf("workers=%d: consume error did not stop production", w)
		}
	}
}

func TestOrderedStreamProduceErrorPreservesPrefix(t *testing.T) {
	sentinel := errors.New("bad task")
	for _, w := range []int{1, 4} {
		var got []int
		err := OrderedStream(context.Background(), 20, w,
			func(i int) (int, error) {
				if i == 7 {
					return 0, sentinel
				}
				return i, nil
			},
			func(i, v int) error {
				got = append(got, v)
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: want sentinel, got %v", w, err)
		}
		// The consumed prefix must be exactly the serial prefix 0..6.
		if len(got) != 7 {
			t.Fatalf("workers=%d: consumed %d, want 7", w, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: prefix[%d]=%d, want %d", w, i, v, i)
			}
		}
	}
}

func TestOrderedStreamPanicSurfaces(t *testing.T) {
	for _, w := range []int{1, 4} {
		err := OrderedStream(context.Background(), 10, w,
			func(i int) (int, error) {
				if i == 4 {
					panic("stream boom")
				}
				return i, nil
			},
			func(i, v int) error { return nil })
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", w, err)
		}
		if pe.Task != 4 || fmt.Sprint(pe.Value) != "stream boom" {
			t.Fatalf("workers=%d: wrong panic payload: %+v", w, pe)
		}
	}
}

func TestOrderedStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var consumed atomic.Int64
	err := OrderedStream(ctx, 1000, 2,
		func(i int) (int, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		},
		func(i, v int) error {
			if consumed.Add(1) == 4 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := consumed.Load(); n >= 1000 {
		t.Fatal("cancellation did not stop the stream")
	}
}

func TestOrderedStreamEmpty(t *testing.T) {
	err := OrderedStream(context.Background(), 0, 4,
		func(i int) (int, error) { return 0, errors.New("never") },
		func(i, v int) error { return errors.New("never") })
	if err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
}

func TestEmptyAndSerialEdgeCases(t *testing.T) {
	if out, err := Map(context.Background(), 0, 4, func(int) (int, error) { return 0, errors.New("never") }); err != nil || len(out) != 0 {
		t.Fatal("n=0 must be a no-op")
	}
	// nil context is treated as background.
	out, err := Map(nil, 3, 1, func(i int) (int, error) { return i, nil }) //nolint:staticcheck
	if err != nil || len(out) != 3 {
		t.Fatalf("nil ctx: %v %v", out, err)
	}
}

func TestOrderedStreamConsumesSerially(t *testing.T) {
	const n = 100
	for _, w := range []int{2, 4, 8} {
		var inConsume, overlaps atomic.Int64
		var got []int
		err := OrderedStream(context.Background(), n, w,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if inConsume.Add(1) != 1 {
					overlaps.Add(1)
				}
				defer inConsume.Add(-1)
				time.Sleep(20 * time.Microsecond)
				got = append(got, v)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if k := overlaps.Load(); k != 0 {
			t.Fatalf("workers=%d: consume overlapped itself %d times", w, k)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: consumed %d of %d", w, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: consume saw %d at position %d", w, v, i)
			}
		}
	}
}

func TestOrderedStreamConsumePanicReachesCaller(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); fmt.Sprint(p) != "consume boom" {
					t.Fatalf("workers=%d: want the consume panic's value, got %v", w, p)
				}
			}()
			OrderedStream(context.Background(), 20, w,
				func(i int) (int, error) { return i, nil },
				func(i, v int) error {
					if i == 6 {
						panic("consume boom")
					}
					return nil
				})
		}()
	}
}
