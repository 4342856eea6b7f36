package serve

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"prism5g/internal/obs"
	"prism5g/internal/trace"
)

func TestSessionRing(t *testing.T) {
	st := newSessionStore(4, 10, nil, obs.New())
	sc := mkScaler()
	wopts := trace.WindowOpts{History: 4, Horizon: 2, Stride: 1}
	s := st.touch("ue")
	if _, n, full := s.push(mkSamples(3, 100), sc, wopts); full || n != 3 {
		t.Fatalf("3 samples into a 4-history: n=%d full=%v, want 3/false", n, full)
	}
	// Each push keeps the last four samples in time order, and the window
	// is MakeWindow's over exactly those.
	for _, tc := range []struct {
		push []trace.Sample
		want []float64
	}{
		{mkSamples(3, 500), []float64{120, 500, 510, 520}}, // slides by two
		{mkSamples(6, 700), []float64{720, 730, 740, 700}}, // longer than the history
		{mkSamples(1, 900), []float64{730, 740, 700, 900}},
	} {
		w, n, full := s.push(tc.push, sc, wopts)
		if !full || n != 4 {
			t.Fatalf("n=%d full=%v, want 4/true", n, full)
		}
		for i, v := range tc.want {
			if s.hist[i].AggTput != v {
				t.Fatalf("hist[%d].AggTput=%g, want %g", i, s.hist[i].AggTput, v)
			}
		}
		ref := trace.MakeWindow(&trace.Trace{Samples: append([]trace.Sample(nil), s.hist...)}, 0, 0, sc, wopts)
		if !reflect.DeepEqual(w, ref) {
			t.Fatalf("window differs from MakeWindow over the history")
		}
	}
	if cap(s.hist) != 4 {
		t.Fatalf("history grew to cap %d", cap(s.hist))
	}
}

func TestSessionStoreLRUEviction(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { clock = clock.Add(time.Second); return clock }
	st := newSessionStore(4, 3, now, obs.New())
	for i := 0; i < 3; i++ {
		st.touch(fmt.Sprintf("ue-%d", i))
	}
	st.touch("ue-0") // refresh: ue-1 is now the LRU
	st.touch("ue-3") // over cap → evicts ue-1
	if st.len() != 3 {
		t.Fatalf("store holds %d sessions, want 3", st.len())
	}
	st.mu.Lock()
	_, has1 := st.sessions["ue-1"]
	_, has0 := st.sessions["ue-0"]
	st.mu.Unlock()
	if has1 || !has0 {
		t.Fatalf("LRU eviction picked the wrong victim: has ue-1=%v ue-0=%v", has1, has0)
	}
}

func TestSessionStoreIdleEviction(t *testing.T) {
	clock := time.Unix(0, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	st := newSessionStore(4, 10, now, obs.New())
	st.touch("old")
	mu.Lock()
	clock = clock.Add(5 * time.Minute)
	mu.Unlock()
	st.touch("fresh")
	if n := st.evictIdle(2 * time.Minute); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	st.mu.Lock()
	_, hasOld := st.sessions["old"]
	_, hasFresh := st.sessions["fresh"]
	st.mu.Unlock()
	if hasOld || !hasFresh {
		t.Fatalf("idle eviction wrong: old=%v fresh=%v", hasOld, hasFresh)
	}
}

// TestSessionStoreLRUAtCap fills the store to its cap under a frozen clock,
// so every session carries the same timestamp: the victims must still go
// in touch order.
func TestSessionStoreLRUAtCap(t *testing.T) {
	frozen := time.Unix(0, 0)
	reg := obs.New()
	st := newSessionStore(1, 100, func() time.Time { return frozen }, reg)
	id := func(i int) string { return "ue-" + strconv.Itoa(i) }
	for i := 0; i < 100; i++ {
		st.touch(id(i))
	}
	for i := 0; i < 100; i += 2 {
		st.touch(id(i)) // the odd sessions are now the least recently touched
	}
	for k := 0; k < 50; k++ {
		st.touch(id(1000 + k))
		st.mu.Lock()
		_, victim := st.sessions[id(2*k+1)]
		_, next := st.sessions[id(2*k+3)]
		n := len(st.sessions)
		st.mu.Unlock()
		if victim || (k < 49 && !next) || n != 100 {
			t.Fatalf("insert %d: ue-%d present=%v, ue-%d present=%v, %d sessions", k, 2*k+1, victim, 2*k+3, next, n)
		}
	}
	st.mu.Lock()
	for i := 0; i < 100; i += 2 {
		if _, ok := st.sessions[id(i)]; !ok {
			t.Errorf("refreshed session %s evicted", id(i))
		}
	}
	st.mu.Unlock()
	if got := reg.Counter("serve.sessions_evicted_lru").Value(); got != 50 {
		t.Fatalf("serve.sessions_evicted_lru=%d, want 50", got)
	}
	// Idle eviction walks the same list: everything is older than the cutoff.
	frozen = frozen.Add(time.Hour)
	if n := st.evictIdle(time.Minute); n != 100 || st.len() != 0 {
		t.Fatalf("idle eviction removed %d, %d left", n, st.len())
	}
	if st.head != nil || st.tail != nil {
		t.Fatal("recency list not empty after evicting every session")
	}
}

// TestSessionStoreConcurrent drives touches, pushes and idle eviction from
// several goroutines at a small cap (run it under -race), then checks that
// the recency list and the map still hold the same sessions.
func TestSessionStoreConcurrent(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); clock = clock.Add(time.Millisecond); return clock }
	st := newSessionStore(4, 8, now, obs.New())
	sc := mkScaler()
	wopts := trace.WindowOpts{History: 4, Horizon: 2, Stride: 1}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				s := st.touch("ue-" + strconv.Itoa((g*7+i)%20))
				if _, n, _ := s.push(mkSamples(1+i%3, 100), sc, wopts); n < 1 || n > 4 {
					t.Errorf("session holds %d samples", n)
				}
				if i%50 == 0 {
					st.evictIdle(20 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for s := st.tail; s != nil; s = s.prev {
		if st.sessions[s.id] != s {
			t.Fatalf("listed session %s is not the mapped one", s.id)
		}
		n++
	}
	if n != len(st.sessions) || n > 8 {
		t.Fatalf("list holds %d sessions, map %d, cap 8", n, len(st.sessions))
	}
}

// BenchmarkSessionTouch times touching an existing session and creating one
// past the default cap of 10,000 sessions, which evicts the LRU session.
func BenchmarkSessionTouch(b *testing.B) {
	const cap = 10000
	for _, fresh := range []bool{false, true} {
		name := "existing"
		if fresh {
			name = "new-at-cap"
		}
		b.Run(name, func(b *testing.B) {
			st := newSessionStore(10, cap, nil, obs.New())
			for i := 0; i < cap; i++ {
				st.touch("ue-" + strconv.Itoa(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					st.touch("new-" + strconv.Itoa(i))
				} else {
					st.touch("ue-" + strconv.Itoa(i%cap))
				}
			}
		})
	}
}
