package nn

// laneTape is what the LSTM and GRU tapes share: a pass over b lanes (b
// sequences of one length), its input spine and the arena its buffers come
// from. Every per-step buffer holds the lanes back to back: lane s of step
// t sits at [s*H:(s+1)*H] of the step's row, its input at [s*In:(s+1)*In].
// A tape reused across passes recycles its arena, so steady-state passes
// allocate nothing.
type laneTape struct {
	b    int         // lanes
	xs   [][]float64 // inputs per step (b*In, the caller's)
	ar   Arena
	mark Mark // arena state after the forward; backward passes rewind here
	// log holds one lane's gradient rows for a backward pass given no
	// log of its caller's, which commits it after the lane.
	log GradLog
}

// T returns the sequence length of the tape.
func (t *laneTape) T() int { return len(t.xs) }

// oneLane resets the arena and records seq as the one lane. It copies
// seq's spine but not its rows, which must stay valid until the backward
// pass.
func (t *laneTape) oneLane(seq [][]float64) {
	t.ar.Reset()
	t.b, t.xs = 1, t.ar.Rows(len(seq))
	copy(t.xs, seq)
}

// lanes resets the arena and records b sequences of length T, stored
// step-major in X: step ti of lane s is X[(ti*b+s)*in : +in].
func (t *laneTape) lanes(X []float64, b, in, T int) {
	t.ar.Reset()
	t.b, t.xs = b, t.ar.Rows(T)
	for ti := range t.xs {
		t.xs[ti] = X[ti*b*in : (ti+1)*b*in]
	}
}

// eachLane runs bptt on every lane in ascending order, so that lanes add
// their parameter gradients as b one-lane passes would. ghLast is the flat
// b*H gradient into each lane's final hidden state; bptt gets a gradient
// spine that is nil but at the last step, the arena mark its scratch
// starts at and the log its rows go to: log, or when log is nil the
// tape's own, committed after each lane.
func (t *laneTape) eachLane(ghLast []float64, H int, log *GradLog, bptt func(s int, m Mark, gh [][]float64, log *GradLog)) {
	T := t.T()
	if T == 0 {
		return
	}
	t.ar.Rewind(t.mark)
	gh := t.ar.Rows(T)
	m := t.ar.Mark() // lane scratch starts above the spine
	for s := 0; s < t.b; s++ {
		gh[T-1] = ghLast[s*H : (s+1)*H]
		if log != nil {
			bptt(s, m, gh, log)
			continue
		}
		bptt(s, m, gh, &t.log)
		t.log.Commit()
	}
}
