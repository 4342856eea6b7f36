// Package par is the repository's deterministic parallel-execution engine.
//
// Every headline artifact of the reproduction — the Table 4 model grid, the
// figure sweeps, dataset generation, the robustness severity rows — is
// embarrassingly parallel: independent cells indexed 0..n-1 whose results
// are assembled in index order. OrderedStream runs those cells on a bounded
// worker pool and hands each result to a consumer in index order, one at a
// time, while preserving the exact observable behaviour of the serial
// loop:
//
//   - Results are consumed in task-index order, never completion order.
//   - Tasks must not share mutable state; under that contract the output is
//     byte-identical at any worker count (the determinism contract, see
//     DESIGN.md "Deterministic parallelism").
//   - A panic inside a task is captured and surfaced as a *PanicError
//     rather than crashing sibling workers.
//   - When several tasks fail, the error of the lowest task index wins, so
//     error reporting is deterministic too.
//   - Context cancellation stops claiming new tasks; tasks already
//     running finish.
//
// The stream holds a bounded window of results. It streams
// sim.BuildStream's traces, pop.Build's shards and grid.Run's cells, and
// runs Prism5G's minibatch, whose chunks' gradient logs must commit in
// window order. Map and MustMap run on the same workers with room for all
// n results and collect them into a slice.
//
// workers <= 0 selects runtime.NumCPU(); workers == 1 is the legacy serial
// path (the tasks run inline on the calling goroutine).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"prism5g/internal/obs"
)

// PanicError wraps a panic recovered from a task.
type PanicError struct {
	Task  int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// Workers resolves a worker-count setting: n <= 0 means runtime.NumCPU()
// (the "auto" setting of the CLI -workers flags), any other value is used
// as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// poolTelemetry carries per-pool observability state. A nil pointer (the
// telemetry-disabled path, and the common case) makes every method a
// no-op, so the worker loop stays free of clock reads unless a CLI asked
// for metrics. Metric names: par.pools / par.tasks / par.panics counters,
// par.task_s / par.task_wait_s duration histograms and par.utilization
// (busy worker time over wall time x workers, one observation per pool).
// A pool journals no event: Prism5G's training runs one per minibatch.
type poolTelemetry struct {
	r       *obs.Registry
	workers int
	start   time.Time
	busyNS  atomic.Int64
}

func newPoolTelemetry(workers int) *poolTelemetry {
	r := obs.Default()
	if !r.Enabled() {
		return nil
	}
	return &poolTelemetry{r: r, workers: workers, start: time.Now()}
}

// taskStart records queue wait (pool start -> task pickup) and returns the
// task's start time.
func (t *poolTelemetry) taskStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	now := time.Now()
	t.r.Observe("par.task_wait_s", now.Sub(t.start).Seconds())
	return now
}

func (t *poolTelemetry) taskEnd(t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	t.busyNS.Add(int64(d))
	t.r.Observe("par.task_s", d.Seconds())
	t.r.Add("par.tasks", 1)
}

func (t *poolTelemetry) taskPanicked() {
	if t == nil {
		return
	}
	t.r.Add("par.panics", 1)
}

// finish observes pool-level utilization: the fraction of worker capacity
// that ran tasks. 1.0 means every worker was busy the whole time.
func (t *poolTelemetry) finish() {
	if t == nil {
		return
	}
	elapsed := time.Since(t.start).Seconds()
	if elapsed > 0 && t.workers > 0 {
		t.r.Observe("par.utilization", time.Duration(t.busyNS.Load()).Seconds()/(elapsed*float64(t.workers)))
	}
	t.r.Add("par.pools", 1)
}

// Map runs fn(0..n-1) on at most workers goroutines and returns the results
// in task-index order. It is OrderedStream with room for all n results, so
// no slow task holds up the claiming of later ones. It returns the error
// of the lowest failing task index, or ctx.Err() if the context was
// cancelled first; tasks that can already be claimed may still run until
// the failure is reached in index order, and the returned slice holds the
// results of every index below it.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := runStream(ctx, n, workers, true, fn, func(i int, v T) error {
		out[i] = v
		return nil
	})
	return out, err
}

// MustMap is Map for task functions that cannot fail; a captured panic is
// re-raised on the calling goroutine, preserving the crash semantics of the
// serial loop it replaces.
func MustMap[T any](ctx context.Context, n, workers int, fn func(i int) T) []T {
	out, err := Map(ctx, n, workers, func(i int) (T, error) {
		return fn(i), nil
	})
	if err != nil {
		if pe, ok := err.(*PanicError); ok {
			panic(pe.Value)
		}
		panic(err)
	}
	return out
}

// OrderedStream runs produce(0..n-1) on at most workers goroutines and
// feeds each result to consume in strict task index order, one consume at
// a time, holding at most 2*workers results in flight, so consume sees
// exactly the serial sequence at any worker count and peak memory is
// bounded by the reorder window instead of n.
//
// The caller only waits. Each worker claims the next index while fewer
// than 2*workers are claimed and unconsumed, produces it, and then,
// unless another worker is consuming, consumes every produced result whose
// predecessors have been consumed. So whichever worker is free consumes,
// and one slow result holds up the others only once the window is full.
// With one worker everything runs inline on the caller.
//
// Error semantics: consume's first error stops the stream and is
// returned; results already produced for later indices are discarded. A
// produce error (or captured panic, surfaced as *PanicError) is returned
// when the consumer reaches that index — earlier indices are still
// consumed first, so the observed prefix matches the serial run. A
// cancelled context stops new claims and the stream returns ctx.Err(). A
// panic in consume stops the stream and is raised again on the caller.
func OrderedStream[T any](ctx context.Context, n, workers int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	return runStream(ctx, n, workers, false, produce, consume)
}

// runStream is the one worker pool behind OrderedStream and Map: its
// window holds 2*w results, or all n when roomForAll is set.
func runStream[T any](ctx context.Context, n, workers int, roomForAll bool, produce func(i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	tele := newPoolTelemetry(w)
	defer tele.finish()
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := produceTask(i, produce, tele)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	window := 2 * w
	if roomForAll {
		window = n
	}
	s := &stream[T]{ctx: ctx, n: n, produce: produce, consume: consume, tele: tele, slots: make([]slot[T], window)}
	s.room.L = &s.mu
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()
	if cp, ok := s.err.(consumePanic); ok {
		panic(cp.value)
	}
	if s.err != nil {
		return s.err
	}
	return ctx.Err()
}

// stream is the state runStream's workers share.
type stream[T any] struct {
	ctx     context.Context
	n       int
	produce func(i int) (T, error)
	consume func(i int, v T) error
	tele    *poolTelemetry

	// Under mu:
	mu        sync.Mutex
	room      sync.Cond // signalled when an index is consumed or the stream stops; L is &mu
	slots     []slot[T] // index i's result at i % len(slots)
	next      int       // the next index to claim
	consumed  int       // indices consumed
	consuming bool      // a worker is consuming
	err       error     // set once, and the stream stops
}

// slot holds one produced result until it is consumed.
type slot[T any] struct {
	v    T
	err  error
	done bool
}

// consumePanic carries a panic recovered from consume until the stream
// raises it again on the caller.
type consumePanic struct{ value any }

func (c consumePanic) Error() string { return fmt.Sprintf("par: consume panicked: %v", c.value) }

// work is one stream worker. Until every index is claimed or the
// stream stops, it claims the next index once the window has room,
// produces it, and then, unless another worker is consuming, consumes
// every produced result whose predecessors have been consumed, in index
// order.
func (s *stream[T]) work() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.err == nil && s.next < s.n && s.next-s.consumed == len(s.slots) {
			s.room.Wait()
		}
		if s.err != nil || s.next == s.n {
			return
		}
		if err := s.ctx.Err(); err != nil {
			s.stop(err)
			return
		}
		i := s.next
		s.next++
		s.mu.Unlock()
		v, err := produceTask(i, s.produce, s.tele)
		s.mu.Lock()
		s.slots[i%len(s.slots)] = slot[T]{v: v, err: err, done: true}
		for !s.consuming && s.err == nil {
			r := &s.slots[s.consumed%len(s.slots)]
			if !r.done {
				break
			}
			if r.err != nil {
				s.stop(r.err)
				break
			}
			i, v := s.consumed, r.v
			*r = slot[T]{}
			s.consuming = true
			s.mu.Unlock()
			err := consumeTask(i, v, s.consume)
			s.mu.Lock()
			s.consuming = false
			s.consumed++
			if err != nil {
				s.stop(err)
			}
			s.room.Broadcast()
		}
	}
}

// stop ends the stream with err unless it has already ended; s.mu is held.
func (s *stream[T]) stop(err error) {
	if s.err == nil {
		s.err = err
		s.room.Broadcast()
	}
}

// consumeTask invokes consume(i, v) converting a panic into a consumePanic.
func consumeTask[T any](i int, v T, consume func(i int, v T) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = consumePanic{p}
		}
	}()
	return consume(i, v)
}

// produceTask invokes produce(i) converting a panic into a *PanicError.
func produceTask[T any](i int, produce func(i int) (T, error), tele *poolTelemetry) (v T, err error) {
	t0 := tele.taskStart()
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Task: i, Value: p, Stack: debug.Stack()}
			tele.taskPanicked()
		}
		tele.taskEnd(t0)
	}()
	return produce(i)
}
