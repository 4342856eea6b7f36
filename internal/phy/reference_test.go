package phy

import (
	"math"
	"testing"

	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// The reference functions below are the link budget as it was computed on
// every step before its frequency terms moved into Carrier: each call took
// log10 of the distance and of the frequency once per formula and
// recomputed noise, indoor loss and Tx power. The tests assert the
// production code returns the same bits.

func refPathLossLOS(dM, fGHz float64) float64 {
	if dM < 1 {
		dM = 1
	}
	return 28.0 + 22.0*math.Log10(dM) + 20.0*math.Log10(fGHz)
}

func refPathLossNLOS(dM, fGHz float64) float64 {
	if dM < 1 {
		dM = 1
	}
	nlos := 13.54 + 39.08*math.Log10(dM) + 20.0*math.Log10(fGHz)
	return math.Max(refPathLossLOS(dM, fGHz), nlos)
}

func refEvaluate(l *Link, dM float64, indoor bool, loadINR float64) RadioState {
	var pl float64
	if l.Site.LOS {
		pl = refPathLossLOS(dM, l.FreqGHz)
	} else {
		pl = refPathLossNLOS(dM, l.FreqGHz)
	}
	if indoor {
		pl += IndoorPenetrationDB(l.FreqGHz)
	}
	rsrp := TxPowerPerREdBm(l.FreqGHz) - pl + l.Site.Shadow() + l.Band.Value() + l.dev.Value()
	if rsrp > -44 {
		rsrp = -44
	}
	if rsrp < -140 {
		rsrp = -140
	}
	noise := NoiseDBm(l.SCSKHz)
	sinr := rsrp - noise - 10*math.Log10(1+loadINR)
	if sinr > 32 {
		sinr = 32
	}
	if sinr < -10 {
		sinr = -10
	}
	snrLin := math.Pow(10, sinr/10)
	rsrq := -10.8 - 10*math.Log10(1+loadINR) - 10*math.Log10(1+3/math.Max(snrLin, 0.1))/3
	if rsrq < -19.5 {
		rsrq = -19.5
	}
	if rsrq > -3 {
		rsrq = -3
	}
	return RadioState{RSRPdBm: rsrp, RSRQdB: rsrq, SINRdB: sinr}
}

func refSINRForCQI(cqi int) float64 {
	if cqi <= 0 {
		return -10
	}
	if cqi > MaxCQI {
		cqi = MaxCQI
	}
	eff := CQITable256QAM[cqi-1].Efficiency
	lin := math.Pow(2, eff/0.75) - 1
	return 10 * math.Log10(lin)
}

// planCarriers returns the (frequency, SCS) of every channel of every
// operator plan, plus the band-class edges of the Tx-power model.
func planCarriers() [][2]float64 {
	var out [][2]float64
	for _, op := range spectrum.AllOperators() {
		for _, ch := range spectrum.PlanFor(op).Channels {
			out = append(out, [2]float64{ch.CenterMHz / 1000, float64(ch.SCSKHz)})
		}
	}
	return append(out, [2]float64{1, 30}, [2]float64{24, 120}, [2]float64{0.999, 15})
}

// refDistances is a seeded spread of 2D distances plus the clamp edge.
func refDistances(src *rng.Source) []float64 {
	ds := []float64{0, 0.25, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 10, 18, 250, 375, 1350, 5250}
	for i := 0; i < 200; i++ {
		ds = append(ds, src.Range(0, 6000))
	}
	return ds
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestPathLossMatchesReference(t *testing.T) {
	src := rng.New(2024)
	for _, fc := range planCarriers() {
		f := fc[0]
		c := NewCarrier(f, int(fc[1]))
		for _, d := range refDistances(src) {
			if got, want := c.PathLoss(d, true), refPathLossLOS(d, f); !sameBits(got, want) {
				t.Fatalf("LOS f=%v d=%v: %v, reference %v", f, d, got, want)
			}
			if got, want := c.PathLoss(d, false), refPathLossNLOS(d, f); !sameBits(got, want) {
				t.Fatalf("NLOS f=%v d=%v: %v, reference %v", f, d, got, want)
			}
		}
		if !sameBits(c.IndoorDB, IndoorPenetrationDB(f)) || !sameBits(c.NoiseDBm, NoiseDBm(int(fc[1]))) ||
			!sameBits(c.TxPerREdBm, TxPowerPerREdBm(f)) {
			t.Fatalf("carrier constants at f=%v differ from the per-call functions", f)
		}
	}
}

func TestLinkEvaluateMatchesReference(t *testing.T) {
	src := rng.New(77)
	dists := refDistances(rng.New(78))
	inrs := []float64{0, 1e-9, 0.3, 1, 17, 5000}
	for _, fc := range planCarriers() {
		for k := 0; k < 4; k++ {
			l := newTestLink(src, fc[0], int(fc[1]), src.Range(1, 2000))
			l.Site.LOS = k%2 == 0 // both path-loss branches
			for i, d := range dists {
				for _, indoor := range []bool{false, true} {
					inr := inrs[i%len(inrs)]
					if i%3 == 0 {
						inr = src.Range(0, 50)
					}
					want := refEvaluate(l, d, indoor, inr)
					got := l.Evaluate(d, indoor, inr)
					if !sameBits(got.RSRPdBm, want.RSRPdBm) || !sameBits(got.RSRQdB, want.RSRQdB) || !sameBits(got.SINRdB, want.SINRdB) {
						t.Fatalf("f=%v los=%v d=%v indoor=%v inr=%v: %+v, reference %+v",
							fc[0], l.Site.LOS, d, indoor, inr, got, want)
					}
					if rsrp := l.RSRP(d, indoor); !sameBits(rsrp, got.RSRPdBm) {
						t.Fatalf("f=%v los=%v d=%v indoor=%v: RSRP %v, Evaluate's %v",
							fc[0], l.Site.LOS, d, indoor, rsrp, got.RSRPdBm)
					}
				}
				if i%10 == 0 {
					l.Site.Move(20, d)
					l.Band.Move(20)
					l.Move(20)
				}
			}
		}
	}
}

func TestSINRForCQIMatchesReference(t *testing.T) {
	for cqi := -2; cqi <= MaxCQI+2; cqi++ {
		if got, want := SINRForCQI(cqi), refSINRForCQI(cqi); !sameBits(got, want) {
			t.Fatalf("cqi %d: %v, reference %v", cqi, got, want)
		}
	}
}
