package ran

import (
	"fmt"
	"math"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/phy"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// refPathLossNLOS is the UMa NLOS path loss as it was computed per
// interferer before the frequency term moved into phy.Carrier: log10 of
// the distance twice and of the frequency twice per call.
func refPathLossNLOS(dM, fGHz float64) float64 {
	if dM < 1 {
		dM = 1
	}
	los := 28.0 + 22.0*math.Log10(dM) + 20.0*math.Log10(fGHz)
	nlos := 13.54 + 39.08*math.Log10(dM) + 20.0*math.Log10(fGHz)
	return math.Max(los, nlos)
}

// cellsByChan groups a network's cells by channel ID in deployment
// order, as Network kept them for the per-call interferer lookup.
func cellsByChan(n *Network) map[string][]*Cell {
	m := map[string][]*Cell{}
	for _, c := range n.Cells {
		m[c.Chan.ID()] = append(m[c.Chan.ID()], c)
	}
	return m
}

// refCoChannelINR is the co-channel interference sum as it was computed
// per call before the per-cell constants: the interferer list looked up
// by channel ID, and noise, indoor loss, Tx power and reach recomputed for
// every interferer.
func refCoChannelINR(byChan map[string][]*Cell, c *Cell, p mobility.Point, indoor bool) float64 {
	noise := phy.NoiseDBm(c.Chan.SCSKHz)
	f := c.FreqGHz()
	inr := 0.0
	for _, other := range byChan[c.Chan.ID()] {
		if other.Site == c.Site {
			continue
		}
		d := other.Pos.Dist(p)
		if d > other.CoverageRadiusM()*1.5 {
			continue
		}
		pl := refPathLossNLOS(d, f)
		if indoor {
			pl += phy.IndoorPenetrationDB(f)
		}
		rx := phy.TxPowerPerREdBm(f) - pl
		inr += math.Pow(10, (rx-noise)/10) * other.Load()
	}
	return inr
}

// atDistance returns points at distance exactly r from q when one is
// found next to q+(r,0), plus its neighbours one ulp nearer and farther.
func atDistance(q mobility.Point, r float64) []mobility.Point {
	x := q.X + r
	for i := 0; i < 8 && q.Dist(mobility.Point{X: x, Y: q.Y}) != r; i++ {
		if q.Dist(mobility.Point{X: x, Y: q.Y}) < r {
			x = math.Nextafter(x, math.Inf(1))
		} else {
			x = math.Nextafter(x, math.Inf(-1))
		}
	}
	return []mobility.Point{
		{X: x, Y: q.Y},
		{X: math.Nextafter(x, math.Inf(-1)), Y: q.Y},
		{X: math.Nextafter(x, math.Inf(1)), Y: q.Y},
	}
}

// TestCoChannelINRMatchesReference asserts bit equality between the
// precomputed interference sum and the per-call reference for every cell
// of the OpX and OpZ urban and suburban networks, indoors and out, over a
// seeded spread of UE positions plus the edges: on top of an interferer
// (d < 1 m, the path-loss clamp) and at exactly 1.5x its coverage radius.
func TestCoChannelINRMatchesReference(t *testing.T) {
	src := rng.New(31)
	reached := 0
	for _, op := range []spectrum.Operator{spectrum.OpX, spectrum.OpZ} {
		for _, sc := range []mobility.Scenario{mobility.Urban, mobility.Suburban} {
			n := NewNetwork(op, sc, src)
			byChan := cellsByChan(n)
			for i, tod := range []float64{1, 1.9, 0.4} {
				n.StepLoads(tod, 0.01)
				n.Cells[i].SetPopLoad(0.5) // one loaded, one saturated cell
				n.Cells[len(n.Cells)-1-i].SetPopLoad(0.9)
			}
			ext := sc.ExtentM()
			for _, c := range n.Cells {
				var pts []mobility.Point
				for k := 0; k < 4; k++ {
					pts = append(pts, mobility.Point{X: src.Range(-0.1*ext, 1.1*ext), Y: src.Range(-0.1*ext, 1.1*ext)})
				}
				pts = append(pts, c.Pos)
				for _, o := range c.interferers {
					pts = append(pts, o.Pos, mobility.Point{X: o.Pos.X + 0.4, Y: o.Pos.Y - 0.3})
					pts = append(pts, atDistance(o.Pos, o.CoverageRadiusM()*1.5)...)
				}
				for _, p := range pts {
					for _, indoor := range []bool{false, true} {
						got, want := c.CoChannelINR(p, indoor), refCoChannelINR(byChan, c, p, indoor)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %s cell %s at %+v indoor=%v: INR %v, reference %v",
								op, sc, c.ID(), p, indoor, got, want)
						}
						if got > 0 {
							reached++
						}
					}
				}
			}
		}
	}
	if reached == 0 {
		t.Fatal("no position saw any co-channel interference")
	}
}

// TestCellConstantsMatchDefinitions pins the values NewNetwork fixes per
// cell against the functions they replace on the per-step path.
func TestCellConstantsMatchDefinitions(t *testing.T) {
	for _, op := range spectrum.AllOperators() {
		n := NewNetwork(op, mobility.Urban, rng.New(5))
		for _, c := range n.Cells {
			if c.chanID != c.Chan.ID() || c.ID() != fmt.Sprintf("%s@%d#%d", c.Chan.ID(), c.Site, c.PCI) {
				t.Fatalf("cell %d: IDs %q/%q", c.PCI, c.ID(), c.chanID)
			}
			if c.coverageM != c.CoverageRadiusM() || c.reachM != c.CoverageRadiusM()*1.5 {
				t.Fatalf("cell %s: radii %v/%v", c.ID(), c.coverageM, c.reachM)
			}
			want := 0
			for _, o := range cellsByChan(n)[c.Chan.ID()] {
				if o.Site != c.Site {
					if want >= len(c.interferers) || c.interferers[want] != o {
						t.Fatalf("cell %s: interferer %d is not %s", c.ID(), want, o.ID())
					}
					want++
				}
			}
			if want != len(c.interferers) {
				t.Fatalf("cell %s: %d interferers, want %d", c.ID(), len(c.interferers), want)
			}
		}
	}
}
