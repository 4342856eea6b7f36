package nn

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// gateFuncs pairs each vector gate with its scalar reference.
var gateFuncs = [...]struct {
	name string
	vec  func(dst, src []float64)
	f    func(float64) float64
}{{"Sigmoid", sigmoids, Sigmoid}, {"Tanh", tanhs, math.Tanh}}

// checkGates runs both vector gates over x into y and compares every lane
// with the scalar function bit for bit. y may be x's storage: the inputs
// are copied first, so the in-place form is checked too.
func checkGates(t *testing.T, y, x []float64) {
	t.Helper()
	in := append([]float64(nil), x...)
	for _, g := range gateFuncs {
		copy(x, in)
		g.vec(y, x)
		for i, v := range in {
			if want := g.f(v); math.Float64bits(y[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%v) at %d of %d = %v (%#x), scalar %v (%#x)",
					g.name, v, i, len(in), y[i], math.Float64bits(y[i]), want, math.Float64bits(want))
			}
		}
	}
	copy(x, in)
}

// gateEdges lists both signs of every value where the scalar functions
// change branch or math.Exp leaves its main path: zero, the smallest
// subnormal, tanh's 0.625 and 0.5*MAXLOG with their neighbours, Exp's
// overflow points (709.44 and 709.5 overflow only on amd64, where
// round(x*log2e) = 1024), its underflow points, infinity; then NaN.
func gateEdges() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	var e []float64
	for _, v := range []float64{0, 5e-324, 0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		halfMaxLog, math.Nextafter(halfMaxLog, 0), math.Nextafter(halfMaxLog, 100),
		708, 709.44, 709.5, 709.79, 745, 745.2, math.Inf(1)} {
		e = append(e, v, -v)
	}
	return append(e, math.NaN())
}

// TestGateKernelMatchesScalar compares sigmoids and tanhs with Sigmoid and
// math.Tanh bit for bit: over 4.2M inputs from six distributions, on every
// edge value in every lane position of a group between two ordinary
// groups, and at lengths 0-9 and 33 in and out of place; then once more
// with the kernel off.
func TestGateKernelMatchesScalar(t *testing.T) {
	check := func(t *testing.T) {
		src := rng.New(16)
		uniform := func(r float64) func() float64 {
			return func() float64 { return (2*src.Float64() - 1) * r }
		}
		dists := []struct {
			name string
			draw func() float64
		}{
			{"N(0,3²)", func() float64 { return 3 * src.Norm() }},
			{"U(±0.65)", uniform(0.65)},
			{"U(±20)", uniform(20)},
			{"U(±750)", uniform(750)},
			{"U(±1e-6)", uniform(1e-6)},
			{"bits", func() float64 { return math.Float64frombits(src.Uint64()) }},
		}
		const chunk, chunks = 4099, 171 // 701k inputs per distribution; each chunk ends in a 3-lane tail
		x := make([]float64, chunk)
		y := make([]float64, chunk)
		for _, d := range dists {
			t.Run(d.name, func(t *testing.T) {
				for c := 0; c < chunks; c++ {
					for i := range x {
						x[i] = d.draw()
					}
					checkGates(t, y, x)
				}
			})
		}
		t.Run("edges", func(t *testing.T) {
			fill := []float64{0.3, -1.7, 2.5, -0.05}
			x := make([]float64, 12)
			for _, e := range gateEdges() {
				for lane := 0; lane < 4; lane++ {
					for i := range x {
						x[i] = fill[(i+lane)%4] * float64(1+i/4)
					}
					x[4+lane] = e
					checkGates(t, y[:12], x)
				}
			}
		})
		t.Run("lengths", func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
				x := make([]float64, n)
				for i := range x {
					x[i] = 3 * src.Norm()
				}
				checkGates(t, make([]float64, n), x)
				checkGates(t, x, x)
			}
		})
	}
	if !useGateAVX {
		t.Log("gate kernel not selected on this CPU: only the scalar path runs")
	}
	t.Run("cpu", check)
	t.Run("scalar", func(t *testing.T) { withKernels(useAVX, false, func() { check(t) }) })
}

// TestGateKernelDeclines pins the kernel's fast range: it computes a group
// only when every lane's exponential argument a (-x for Sigmoid, 2|x| for
// Tanh) has a*log2e rounding into [-1022, 1023], where math.Exp runs its
// main path, and leaves every other group to the scalar functions. The
// inputs sit on both sides of each end of that range.
func TestGateKernelDeclines(t *testing.T) {
	if !useGateAVX {
		t.Skip("gate kernel not selected on this CPU")
	}
	inRange := func(a float64) bool {
		k := math.RoundToEven(a * log2e)
		return k >= -1022 && k <= 1023
	}
	xs := append(gateEdges(), 708.74, 708.75, -709.43, 354.715, -354.715, 354.72, -354.72, 1e300)
	for _, x := range xs {
		for _, g := range [...]struct {
			name   string
			kernel func(dst, src *float64, n int) int
			arg    float64
		}{{"Sigmoid", sigmoidsAVX, -x}, {"Tanh", tanhsAVX, 2 * math.Abs(x)}} {
			src := [4]float64{0.5, x, -1, 2}
			var dst [4]float64
			want := 0
			if inRange(g.arg) {
				want = 1
			}
			if got := g.kernel(&dst[0], &src[0], 1); got != want {
				t.Errorf("%s kernel on a group holding %v computed %d of 1 group; want %d", g.name, x, got, want)
			}
		}
	}
}

// log2e is the LOG2E of math's exp_amd64.s.
const log2e = 1.4426950408889634073599246810018920

// expFMA is math.Exp's amd64 FMA branch, written with math.FMA, for
// arguments inside its fast range. It witnesses which branch math.Exp
// takes without running the kernel.
func expFMA(x float64) float64 {
	const (
		ln2u = 0.69314718055966295651160180568695068359375
		ln2l = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(x * log2e)
	x = math.FMA(-k, ln2u, x)
	x = math.FMA(-k, ln2l, x)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = math.FMA(p, x, c)
	}
	x *= p
	for range 3 {
		x *= x + 2
	}
	return math.Ldexp(math.FMA(x+2, x, 1), int(k))
}

// TestGateKernelSelection requires the gate kernel to be selected exactly
// when the CPU has AVX2 and FMA and math.Exp takes its FMA branch on the
// probe's exponential arguments. On such a CPU a kernel that fails its
// probe fails here, although every other test then runs the scalar path
// and passes.
func TestGateKernelSelection(t *testing.T) {
	fmaBranch := true
	for _, x := range gateProbe[:8] {
		for _, a := range []float64{-x, 2 * math.Abs(x)} {
			if math.Float64bits(math.Exp(a)) != math.Float64bits(expFMA(a)) {
				fmaBranch = false
			}
		}
	}
	if want := hasAVX2FMA() && fmaBranch; useGateAVX != want {
		t.Fatalf("gate kernel selected: %v; want %v (AVX2 and FMA: %v, math.Exp on its FMA branch: %v)",
			useGateAVX, want, hasAVX2FMA(), fmaBranch)
	}
}
