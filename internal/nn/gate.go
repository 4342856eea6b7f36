package nn

import "math"

// Gate nonlinearities over whole vectors. On amd64 CPUs with AVX2 and FMA
// an assembly kernel (gate_amd64.s) computes Sigmoid and Tanh four lanes
// at a time by replaying math.Exp's FMA branch instruction for
// instruction. The scalar functions compute the tail past the last 4-lane
// group and every group the kernel declines, and they are the only path
// everywhere else. Both paths give the same bits.

// useGateAVX selects the gate kernel. It is fixed at start-up from the
// CPU's features and the probe below; only tests override it.
var useGateAVX = hasAVX2FMA() && gateKernelMatches()

// gateProbe holds inputs on which the kernel must equal Sigmoid and Tanh
// before it is used. The first eight are inputs whose Sigmoid (four) or
// Tanh (four) differs between math.Exp's FMA and non-FMA branches, so the
// probe fails wherever math.Exp does not take the FMA branch the kernel
// replays: a CPU without FMA, or GODEBUG=cpu.fma=off. The rest reach each
// tanh branch and both signed zeros.
var gateProbe = [...]float64{
	-4.381581359870945, -2.356065027569352, -1.3390943136883322, -0.4318594967154026,
	-0.8128936007107646, -1.119435735122984, 0.9841564610315208, -1.9542763221288029,
	0, math.Copysign(0, -1), 0.625, -0.3, 44.5, -30, 5e-324, 3,
}

// gateKernelMatches reports whether the kernel computes every gateProbe
// group and equals Sigmoid and Tanh on each lane bit for bit.
func gateKernelMatches() bool {
	const groups = len(gateProbe) / 4
	var y [len(gateProbe)]float64
	for _, g := range [...]struct {
		kernel func(dst, src *float64, n int) int
		f      func(float64) float64
	}{{sigmoidsAVX, Sigmoid}, {tanhsAVX, Tanh}} {
		if g.kernel(&y[0], &gateProbe[0], groups) != groups {
			return false
		}
		for i, x := range gateProbe {
			if math.Float64bits(y[i]) != math.Float64bits(g.f(x)) {
				return false
			}
		}
	}
	return true
}

// sigmoids sets dst[i] = Sigmoid(src[i]) for every i < len(dst). dst may
// be src.
func sigmoids(dst, src []float64) { applyGate(dst, src, sigmoidsAVX, Sigmoid) }

// tanhs sets dst[i] = Tanh(src[i]) for every i < len(dst). dst may be src.
func tanhs(dst, src []float64) { applyGate(dst, src, tanhsAVX, Tanh) }

// applyGate runs kernel over the whole 4-lane groups while useGateAVX is
// set. The kernel returns at the first group it declines; f computes that
// group lane by lane, and the kernel resumes after it. f also computes the
// tail.
func applyGate(dst, src []float64, kernel func(dst, src *float64, n int) int, f func(float64) float64) {
	src = src[:len(dst)]
	i := 0
	if useGateAVX {
		for n := len(dst) &^ 3; i < n; {
			i += 4 * kernel(&dst[i], &src[i], (n-i)/4)
			for end := min(i+4, n); i < end; i++ {
				dst[i] = f(src[i])
			}
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = f(src[i])
	}
}
