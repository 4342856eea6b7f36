package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, the paper's choice) over
// a fixed set of parameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// ClipNorm caps the global gradient norm when > 0 (RNN stability).
	ClipNorm float64

	params []*Param
	m, v   [][]float64
	t      int
}

// NewAdam creates an optimizer with the paper's defaults (lr 0.01).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		params: params,
	}
	for _, p := range params {
		a.m = append(a.m, make([]float64, p.Size()))
		a.v = append(a.v, make([]float64, p.Size()))
	}
	return a
}

// Step applies one update from the accumulated gradients and zeroes them.
func (a *Adam) Step() {
	a.t++
	// Global-norm clipping.
	if a.ClipNorm > 0 {
		var norm2 float64
		for _, p := range a.params {
			for _, g := range p.Grad {
				norm2 += g * g
			}
		}
		if norm := math.Sqrt(norm2); norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range a.params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.Grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			p.Grad[i] = 0
		}
	}
}

// MSE returns the mean squared error between pred and target.
func MSE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("nn: MSE length mismatch")
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MSEGradInto writes dMSE/dpred into a caller-owned buffer (len(pred)).
func MSEGradInto(g, pred, target []float64) []float64 {
	n := float64(len(pred))
	for i := range pred {
		g[i] = 2 * (pred[i] - target[i]) / n
	}
	return g
}

// RMSE returns the root mean squared error.
func RMSE(pred, target []float64) float64 { return math.Sqrt(MSE(pred, target)) }
