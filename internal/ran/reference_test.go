package ran

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
// engine's phased interference sum and the per-call reference for every cell of the OpX and OpZ urban and
// suburban networks, indoors and out, over a seeded spread of UE positions
// plus the edges: on top of an interferer (d < 1 m, the path-loss clamp)
// and at exactly 1.5x its coverage radius.
func TestCoChannelINRMatchesReference(t *testing.T) {
	src := rng.New(31)
	reached := 0
	for _, op := range []spectrum.Operator{spectrum.OpX, spectrum.OpZ} {
		for _, sc := range []mobility.Scenario{mobility.Urban, mobility.Suburban} {
			n := NewNetwork(op, sc, src)
			eng := NewEngine(n, NewUE(ModemX70), DefaultConfig(spectrum.NR), rng.New(1))
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
						got, want := eng.coChannelINR(c, p, indoor), refCoChannelINR(byChan, c, p, indoor)
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

// refStepLoads is StepLoads as it was before steps were logged and applied
// on read: every cell's load process stepped at once.
func refStepLoads(n *Network, todMultiplier, dt float64) {
	theta := 1 - math.Exp(-dt/loadTauS)
	sigma := loadStd * math.Sqrt(theta*(2-theta))
	for _, c := range n.Cells {
		c.load.Theta = theta
		c.load.Sigma = sigma
		c.load.Mean = c.baseLoad * todMultiplier
		c.load.Step()
	}
}

// TestLazyLoadsMatchEagerReference drives two networks built from one
// seed through one seeded schedule of dt (0.01, 0.2, 1 s) and time-of-day
// (0.4, 1, 1.9) changes, one with StepLoads and one with the eager
// reference loop, and reads their cells in four ways: every step, at
// random steps, before the first step and then at random steps, and only
// at the end. Every read must agree bit for bit, and the log must hold
// one run per parameter change.
func TestLazyLoadsMatchEagerReference(t *testing.T) {
	dts := []float64{0.01, 0.2, 1}
	tods := []float64{0.4, 1, 1.9}
	const steps = 800
	for _, op := range []spectrum.Operator{spectrum.OpX, spectrum.OpZ} {
		lazy := NewNetwork(op, mobility.Urban, rng.New(17))
		eager := NewNetwork(op, mobility.Urban, rng.New(17))
		sched := rng.New(23)
		check := func(step, i int) {
			t.Helper()
			got, want := lazy.Cells[i].Load(), eager.Cells[i].Load()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s cell %s after step %d: load %v, eager reference %v",
					op, lazy.Cells[i].ID(), step, got, want)
			}
		}
		for i := 2; i < len(lazy.Cells); i += 4 {
			check(0, i)
		}
		dt, tod, runs := 0.0, 0.0, 0
		for s := 1; s <= steps; s++ {
			ndt, ntod := dt, tod
			if s == 1 || sched.Bool(0.05) {
				ndt = dts[sched.Intn(len(dts))]
			}
			if s == 1 || sched.Bool(0.05) {
				ntod = tods[sched.Intn(len(tods))]
			}
			if ndt != dt || ntod != tod {
				runs++
			}
			dt, tod = ndt, ntod
			lazy.StepLoads(tod, dt)
			refStepLoads(eager, tod, dt)
			for i := range lazy.Cells {
				switch i % 4 {
				case 0:
					check(s, i)
				case 1, 2:
					if sched.Bool(0.1) {
						check(s, i)
					}
				}
			}
		}
		for i := range lazy.Cells {
			check(steps, i)
		}
		if len(lazy.loadLog) != runs || runs < 10 {
			t.Fatalf("%s: %d log runs for %d parameter runs", op, len(lazy.loadLog), runs)
		}
	}
}

// TestEvaluationMeasurementsMatchUncached drives the engine over OpX and
// OpZ urban at 10 ms, indoors and out. After every RRC evaluation it
// measures each candidate again through Link.Evaluate and the per-call
// reference sum, whose RSRP the evaluation's must equal, and on every step
// it measures each serving cell through MeasureServing and through the
// reference: the engine's measurements must equal the reference's bit for
// bit.
func TestEvaluationMeasurementsMatchUncached(t *testing.T) {
	same := func(a, b phy.RadioState) bool {
		return math.Float64bits(a.RSRPdBm) == math.Float64bits(b.RSRPdBm) &&
			math.Float64bits(a.RSRQdB) == math.Float64bits(b.RSRQdB) &&
			math.Float64bits(a.SINRdB) == math.Float64bits(b.SINRdB)
	}
	for _, op := range []spectrum.Operator{spectrum.OpX, spectrum.OpZ} {
		src := rng.New(61)
		net := NewNetwork(op, mobility.Urban, src)
		byChan := cellsByChan(net)
		eng := NewEngine(net, NewUE(ModemX70), DefaultConfig(spectrum.NR), src)
		ext := mobility.Urban.ExtentM()
		mv := mobility.NewMover(mobility.Urban, mobility.Driving, mobility.Point{X: ext / 2, Y: ext / 2}, src)
		evals, served, interfered := 0, 0, 0
		for s := 0; s < 4000; s++ {
			indoor := s/1000%2 == 1
			moved := mv.Step(0.01)
			net.StepLoads(1, 0.01)
			eng.Step(mv.Pos(), moved, 0.01, indoor)
			p := mv.Pos()
			if eng.sinceEval == 0 {
				evals++
				for _, m := range eng.ms {
					d := m.cell.Pos.Dist(p)
					want := eng.links[m.cell.PCI].Evaluate(d, indoor, refCoChannelINR(byChan, m.cell, p, indoor))
					if math.Float64bits(m.rsrp) != math.Float64bits(want.RSRPdBm) {
						t.Fatalf("%s step %d cell %s: measured RSRP %v, uncached %+v", op, s, m.cell.ID(), m.rsrp, want)
					}
				}
			}
			for _, sc := range eng.Serving() {
				inr := refCoChannelINR(byChan, sc.Cell, p, indoor)
				want := sc.Link.Evaluate(sc.Cell.Pos.Dist(p), indoor, inr)
				if got := eng.MeasureServing(sc, p, indoor); !same(got, want) {
					t.Fatalf("%s step %d serving cell %s: measured %+v, uncached %+v", op, s, sc.Cell.ID(), got, want)
				}
				served++
				if inr > 0 {
					interfered++
				}
			}
		}
		if evals < 100 || served < 4000 || interfered == 0 {
			t.Fatalf("%s: %d evaluations; %d serving measurements, %d with interference",
				op, evals, served, interfered)
		}
	}
}

// carrierBits returns the bits of every field of a carrier, unexported
// ones included.
func carrierBits(c phy.Carrier) []uint64 {
	v := reflect.ValueOf(c)
	out := make([]uint64, v.NumField())
	for i := range out {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			out[i] = math.Float64bits(f.Float())
		default:
			out[i] = uint64(f.Int())
		}
	}
	return out
}

// TestChannelCellsShareCarrier asserts that every cell holds the carrier
// terms of its own channel and that all cells of a channel hold the same
// bits, which is what lets a co-channel sum read each interferer's terms
// from the interferer's own carrier.
func TestChannelCellsShareCarrier(t *testing.T) {
	for _, op := range spectrum.AllOperators() {
		for _, sc := range mobility.AllScenarios() {
			n := NewNetwork(op, sc, rng.New(7))
			for _, c := range n.Cells {
				bits := carrierBits(c.carrier)
				if want := carrierBits(phy.NewCarrier(c.Chan.CenterMHz/1000, c.Chan.SCSKHz)); !slices.Equal(bits, want) {
					t.Fatalf("%s %s cell %s: carrier %v, channel's %v", op, sc, c.ID(), bits, want)
				}
				for _, o := range c.interferers {
					if !slices.Equal(carrierBits(o.carrier), bits) {
						t.Fatalf("%s %s: cells %s and %s of one channel hold different carriers", op, sc, c.ID(), o.ID())
					}
				}
			}
		}
	}
}
