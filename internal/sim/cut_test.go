package sim

import (
	"math"
	"testing"

	"prism5g/internal/trace"
)

// ccTrace builds a trace whose i-th sample has NumActiveCCs ccs[i],
// AggTput i (so the chosen window start is recoverable) and T = 10+i
// (so timestamp rebasing is observable).
func ccTrace(ccs []int) trace.Trace {
	tr := trace.Trace{StepS: 1}
	for i, c := range ccs {
		tr.Samples = append(tr.Samples, trace.Sample{
			T: 10 + float64(i), AggTput: float64(i), NumActiveCCs: c,
		})
	}
	return tr
}

func TestCutAroundTransitionWindowAccounting(t *testing.T) {
	cases := []struct {
		name      string
		ccs       []int
		n         int
		wantStart int
	}{
		// trans[s] records the change between samples s-1 and s; for a
		// window [s, s+n) only trans[s+1 .. s+n-1] are interior. The
		// pre-fix code credited trans[s] to the window too, so here it
		// jumped to s=4 (the 3->4 change is interior AND the phantom
		// 2->3 boundary change inflated its count to 2); the true
		// interior count is 1 everywhere a transition fits, and the
		// earliest such window starts at s=1.
		{name: "boundary transition not credited", ccs: []int{1, 1, 2, 2, 3, 4, 4}, n: 2, wantStart: 1},
		// n == len-1: only two candidate windows. All deltas are
		// transitions, both windows hold 2 interior changes, so the tie
		// breaks to the earliest. Pre-fix the second window scored 3 by
		// absorbing its boundary transition and won.
		{name: "n equals len minus one, all transitions", ccs: []int{1, 2, 3, 4}, n: 3, wantStart: 0},
		// Every consecutive pair is a transition: all windows tie on
		// interior count, earliest wins.
		{name: "all transitions", ccs: []int{1, 2, 3, 4, 5}, n: 2, wantStart: 0},
		// No transitions at all: head of the trace.
		{name: "no transitions", ccs: []int{2, 2, 2, 2, 2}, n: 3, wantStart: 0},
		// The densest interior cluster wins, earliest on the tie.
		{name: "dense cluster", ccs: []int{1, 1, 1, 2, 1, 2, 2}, n: 3, wantStart: 2},
		// A transition against the last sample: window must end there.
		{name: "transition at tail", ccs: []int{1, 1, 1, 1, 2}, n: 2, wantStart: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := ccTrace(tc.ccs)
			out := CutAroundTransition(tr, tc.n)
			if len(out.Samples) != tc.n {
				t.Fatalf("got %d samples, want %d", len(out.Samples), tc.n)
			}
			if got := int(out.Samples[0].AggTput); got != tc.wantStart {
				t.Fatalf("window starts at sample %d, want %d", got, tc.wantStart)
			}
			// Timestamps are rebased to zero but keep their spacing.
			if out.Samples[0].T != 0 {
				t.Fatalf("first timestamp %v, want 0 after rebasing", out.Samples[0].T)
			}
			for i := 1; i < len(out.Samples); i++ {
				if dt := out.Samples[i].T - out.Samples[i-1].T; math.Abs(dt-1) > 1e-12 {
					t.Fatalf("sample spacing %v at %d, want 1", dt, i)
				}
			}
			// The cut is a contiguous copy of the source window.
			for i, s := range out.Samples {
				if s.NumActiveCCs != tc.ccs[tc.wantStart+i] {
					t.Fatalf("sample %d has %d CCs, want %d", i, s.NumActiveCCs, tc.ccs[tc.wantStart+i])
				}
			}
		})
	}
}

func TestCutAroundTransitionPassthrough(t *testing.T) {
	tr := ccTrace([]int{1, 2, 1})
	for _, n := range []int{0, -1, 3, 4} {
		out := CutAroundTransition(tr, n)
		if len(out.Samples) != len(tr.Samples) {
			t.Fatalf("n=%d: got %d samples, want passthrough %d", n, len(out.Samples), len(tr.Samples))
		}
	}
	// Passthrough keeps original timestamps untouched.
	if out := CutAroundTransition(tr, 5); out.Samples[0].T != 10 {
		t.Fatalf("passthrough rebased timestamps: %v", out.Samples[0].T)
	}
}

// bruteSegment is the segment rule by enumeration: the start of the
// n-step segment with the most changes between two of its own steps, the
// earliest on a tie.
func bruteSegment(active []int, n int) int {
	best, bestStart := -1, 0
	for start := 0; start+n <= len(active); start++ {
		count := 0
		for i := start + 1; i < start+n; i++ {
			if active[i] != active[i-1] {
				count++
			}
		}
		if count > best {
			best, bestStart = count, start
		}
	}
	return bestStart
}

// FuzzCutSegment checks the segment rule the short build's scout and
// CutAroundTransition share: over random active-CC counts and segment
// lengths, cutSegment must pick bruteSegment's start, and
// CutAroundTransition must keep that segment of a trace with those counts.
func FuzzCutSegment(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 3, 4, 4}, uint16(2))
	f.Add([]byte{1, 2, 3, 4}, uint16(3))
	f.Add([]byte{2, 2, 2, 2, 2}, uint16(3))
	f.Add([]byte{1, 1, 1, 2, 1, 2, 2}, uint16(3))
	f.Add([]byte{1, 1, 1, 1, 2}, uint16(2))
	f.Fuzz(func(t *testing.T, counts []byte, n uint16) {
		if len(counts) < 2 {
			t.Skip()
		}
		// A small alphabet makes runs, so segments differ in count.
		active := make([]int, len(counts))
		for i, c := range counts {
			active[i] = int(c % 4)
		}
		seg := 1 + int(n)%(len(active)-1)
		want := bruteSegment(active, seg)
		if got := cutSegment(active, seg); got != want {
			t.Fatalf("cutSegment(%v, %d) = %d, want %d", active, seg, got, want)
		}
		out := CutAroundTransition(ccTrace(active), seg)
		if len(out.Samples) != seg || int(out.Samples[0].AggTput) != want {
			t.Fatalf("CutAroundTransition kept %d samples from %v, want %d from %d",
				len(out.Samples), out.Samples[0].AggTput, seg, want)
		}
	})
}
