package phy

import "math"

// ln10 is math.Log(10), which math.Pow(10, y) works out again on every
// call.
var ln10 = math.Log(10)

// pow10MaxAbs bounds the |y| Pow10 computes itself. Below it, the integer
// part math.Pow's squaring loop walks is at most 1024 (1023 plus a fraction
// above one half rounded up), so the loop reads bits 0 to 10 of it and
// never reaches the guard it applies once the squares' binary exponent
// passes 2^12, which bit 11 would. 10^y has overflowed to +Inf or
// underflowed to 0 long before |y| = 1024.
const pow10MaxAbs = 1024

// pow10Squares holds, for bit k of the integer part, the mantissa in
// [0.5, 1) and the binary exponent of 10^(2^k) as math.Pow's loop reaches
// them: by the same squarings, from the same math.Frexp(10).
var pow10Squares = func() (t [11]struct {
	frac float64
	exp  int
}) {
	x1, xe := math.Frexp(10)
	for k := range t {
		t[k].frac, t[k].exp = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return t
}()

// Pow10 returns math.Pow(10, y), bit for bit. It runs math.Pow's own
// operations in the same order: Exp of the signed fraction (at most one
// half) times Log(10), then one product per set bit of the integer part,
// low bit first, and a reciprocal for negative y. Log(10) and the squares
// of 10 are computed once, not per call. The result's exponent is applied
// by a multiply by 2^ae where the result is normal (exact, as math.Ldexp
// is), and by math.Ldexp where it may not be. The special cases (NaN,
// ±Inf, ±0.5) and |y| ≥ 1024 go to math.Pow itself; ±0 and 1 take the
// general path, which gives math.Pow's 1 and 10.
func Pow10(y float64) float64 {
	a := math.Abs(y)
	if !(a < pow10MaxAbs) || a == 0.5 {
		return math.Pow(10, y)
	}
	yi, yf := math.Modf(a)
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	for i, k := int(yi), 0; i != 0; i, k = i>>1, k+1 {
		if i&1 == 1 {
			a1 *= pow10Squares[k].frac
			ae += pow10Squares[k].exp
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	// a1 lies within [2^-13, 2^13], so below |ae| = 1000 the result is
	// normal.
	if -1000 < ae && ae < 1000 {
		return a1 * math.Float64frombits(uint64(ae+1023)<<52)
	}
	return math.Ldexp(a1, ae)
}
