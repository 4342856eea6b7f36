package phy

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// pow10Inputs returns the sweep TestPow10MatchesPow checks: the ranges the
// simulator feeds Pow10, every integer and half-integer in [-400, 400],
// random bit patterns, and the edges: the special cases, the subnormal
// results below 10^-308, the overflow above 10^308 and the fallback
// threshold at |y| = 1024.
func pow10Inputs() []float64 {
	src := rng.New(1010)
	ys := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, -2,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(-0.5, 0), math.Nextafter(-0.5, -1),
		math.Log10(math.MaxFloat64), math.Log10(math.SmallestNonzeroFloat64), math.Log10(0x1p-1022),
	}
	for _, edge := range []float64{pow10MaxAbs, pow10MaxAbs - 0.5, pow10MaxAbs - 1, 1 << 11, 1 << 63} {
		for _, y := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1))} {
			ys = append(ys, y, -y)
		}
	}
	ys = append(ys, 1023.5, 1023.6, -1023.6, 1023.25, -1023.75)
	for i := -800; i <= 800; i++ {
		ys = append(ys, float64(i)/2)
	}
	// Subnormal results (y from -308 to -324) and overflow (308.25 to 309),
	// on a fine grid and at random.
	for y := -324.0; y <= -308; y += 1.0 / 64 {
		ys = append(ys, y)
	}
	for y := 308.25; y <= 309; y += 1.0 / 256 {
		ys = append(ys, y)
	}
	for i := 0; i < 20000; i++ {
		ys = append(ys, src.Range(-324, -308), src.Range(308.25, 309))
	}
	for i := 0; i < 200000; i++ {
		ys = append(ys,
			src.Range(-25, 15),     // (rx - noise)/10 of an interferer, SINR/10
			-src.Range(-60, 60)/8,  // -margin/8 of BLER
			src.Range(-1100, 1100), // everything up to the fallback
			math.Float64frombits(src.Uint64()),
		)
	}
	return ys
}

// TestPow10MatchesPow asserts that Pow10 returns math.Pow(10, y)'s bits
// over a seeded sweep of the simulator's ranges and every edge.
func TestPow10MatchesPow(t *testing.T) {
	for _, y := range pow10Inputs() {
		if got, want := Pow10(y), math.Pow(10, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow10(%v) (%#016x) = %v (%#016x), math.Pow %v (%#016x)",
				y, math.Float64bits(y), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func FuzzPow10(f *testing.F) {
	for _, y := range []float64{0, 0.5, -1, 3.7, -12.3, -310.5, 308.9, 1023.6, math.Inf(-1)} {
		f.Add(y)
	}
	f.Fuzz(func(t *testing.T, y float64) {
		if got, want := Pow10(y), math.Pow(10, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow10(%v) = %v, math.Pow %v", y, got, want)
		}
	})
}

// benchExponents are interference exponents, (rx - noise)/10, of the
// range the step computes.
var benchExponents = func() []float64 {
	src := rng.New(3)
	ys := make([]float64, 1024)
	for i := range ys {
		ys[i] = src.Range(-25, 15)
	}
	return ys
}()

var powSink float64

func BenchmarkPow10(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += Pow10(benchExponents[i&1023])
	}
	powSink = s
}

// BenchmarkMathPow10 is BenchmarkPow10 through math.Pow.
func BenchmarkMathPow10(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += math.Pow(10, benchExponents[i&1023])
	}
	powSink = s
}
