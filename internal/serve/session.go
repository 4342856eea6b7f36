package serve

import (
	"sync"
	"time"

	"prism5g/internal/obs"
	"prism5g/internal/trace"
)

// session is one UE's sliding feature window: its most recent samples in
// time order, at most History of them. Memory per session is bounded by
// the history length at construction and never grows.
type session struct {
	mu   sync.Mutex
	hist []trace.Sample // time order; cap == History

	// Guarded by the store's mutex: the session's key and its place on the
	// recency list.
	id         string
	lastSeen   time.Time
	prev, next *session // toward the most and the least recently touched
}

// push appends samples, dropping the oldest beyond the history length, and
// returns how many samples the session holds. Once the history is full it
// also builds the scaled window over it. One lock acquisition covers both,
// so an inference never races a later update, and nothing but the window
// itself is copied out of the session.
func (s *session) push(samples []trace.Sample, sc *trace.Scaler, wopts trace.WindowOpts) (trace.Window, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := cap(s.hist)
	if len(samples) >= h {
		s.hist = append(s.hist[:0], samples[len(samples)-h:]...)
	} else {
		if drop := len(s.hist) + len(samples) - h; drop > 0 {
			s.hist = s.hist[:copy(s.hist, s.hist[drop:])]
		}
		s.hist = append(s.hist, samples...)
	}
	if len(s.hist) < h {
		return trace.Window{}, len(s.hist), false
	}
	tr := trace.Trace{Samples: s.hist}
	return trace.MakeWindow(&tr, 0, 0, sc, wopts), h, true
}

// sessionStore owns every live session under two bounds: a hard cap on the
// session count (inserting past it evicts the least-recently-used session)
// and an idle TTL enforced by the janitor. Total memory is therefore
// O(MaxSessions × History) regardless of how many distinct session IDs the
// traffic invents. Sessions sit on a list in touch order, so both kinds of
// eviction take the least recently touched from its tail without a scan.
//
// Lock order: store.mu before session.mu, never the reverse.
type sessionStore struct {
	history int
	max     int
	now     func() time.Time

	active                  *obs.Gauge
	evictedLRU, evictedIdle *obs.Counter

	mu         sync.Mutex
	sessions   map[string]*session
	head, tail *session // most and least recently touched
}

func newSessionStore(history, max int, now func() time.Time, reg *obs.Registry) *sessionStore {
	if history <= 0 {
		history = 10
	}
	if max <= 0 {
		max = 10000
	}
	if now == nil {
		now = time.Now
	}
	return &sessionStore{
		history:     history,
		max:         max,
		now:         now,
		active:      reg.Gauge("serve.sessions_active"),
		evictedLRU:  reg.Counter("serve.sessions_evicted_lru"),
		evictedIdle: reg.Counter("serve.sessions_evicted_idle"),
		sessions:    map[string]*session{},
	}
}

// touch returns the session for id, creating it if needed, and moves it to
// the head of the recency list. Creating past the cap evicts the tail, the
// least recently touched session, so memory stays bounded under
// session-churn abuse.
func (st *sessionStore) touch(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if ok {
		st.unlinkLocked(s)
	} else {
		if len(st.sessions) >= st.max && st.tail != nil {
			st.removeLocked(st.tail)
			st.evictedLRU.Add(1)
		}
		s = &session{id: id, hist: make([]trace.Sample, 0, st.history)}
		st.sessions[id] = s
	}
	s.lastSeen = st.now()
	s.prev, s.next = nil, st.head
	if st.head != nil {
		st.head.prev = s
	} else {
		st.tail = s
	}
	st.head = s
	st.active.Set(float64(len(st.sessions)))
	return s
}

// unlinkLocked takes s off the recency list. Caller holds mu.
func (st *sessionStore) unlinkLocked(s *session) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		st.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		st.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

// removeLocked drops s from the store. Caller holds mu.
func (st *sessionStore) removeLocked(s *session) {
	st.unlinkLocked(s)
	delete(st.sessions, s.id)
}

// evictIdle removes sessions idle longer than ttl and returns how many. It
// walks from the tail and stops at the first session touched since the
// cutoff.
func (st *sessionStore) evictIdle(ttl time.Duration) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	cutoff := st.now().Add(-ttl)
	evicted := 0
	for st.tail != nil && st.tail.lastSeen.Before(cutoff) {
		st.removeLocked(st.tail)
		evicted++
	}
	if evicted > 0 {
		st.evictedIdle.Add(int64(evicted))
		st.active.Set(float64(len(st.sessions)))
	}
	return evicted
}

// len returns the live session count.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}
