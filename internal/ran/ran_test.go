package ran

import (
	"slices"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

func TestModemCapabilities(t *testing.T) {
	// Paper Fig 29: S10 no SA-CA, S21 2CC, S22 3CC.
	if ModemX50.MaxNRCCsFR1() != 1 {
		t.Error("X50 should not support SA 5G CA")
	}
	if ModemX60.MaxNRCCsFR1() != 2 {
		t.Error("X60 should support 2CC")
	}
	if ModemX65.MaxNRCCsFR1() != 3 {
		t.Error("X65 should support 3CC")
	}
	if ModemX70.MaxNRCCsFR1() != 4 {
		t.Error("X70 should support 4CC")
	}
	for _, m := range AllModems() {
		if m.MaxLTECCs() != 5 {
			t.Errorf("%s: 4G CA should be 5CC", m)
		}
		if m.String() == "" || m.Phone() == "" {
			t.Errorf("modem %d: empty labels", m)
		}
	}
	if ModemX55.MaxNRCCsFR2() != 8 || ModemX50.MaxNRCCsFR2() != 2 {
		t.Error("FR2 CC caps wrong")
	}
	ue := NewUE(ModemX65)
	if ue.Name != "S22" || ue.Modem != ModemX65 {
		t.Errorf("NewUE = %+v", ue)
	}
}

func TestNetworkDeployment(t *testing.T) {
	src := rng.New(100)
	for _, op := range spectrum.AllOperators() {
		n := NewNetwork(op, mobility.Urban, src)
		if len(n.Cells) == 0 {
			t.Fatalf("%s: no cells", op)
		}
		// PCIs unique.
		seen := map[int]bool{}
		lte, nr := 0, 0
		for _, c := range n.Cells {
			if seen[c.PCI] {
				t.Fatalf("%s: duplicate PCI %d", op, c.PCI)
			}
			seen[c.PCI] = true
			if c.NumRB <= 0 {
				t.Fatalf("%s %s: NumRB = %d", op, c.ID(), c.NumRB)
			}
			if c.Chan.Band.Tech == spectrum.LTE {
				lte++
			} else {
				nr++
			}
		}
		if lte == 0 || nr == 0 {
			t.Fatalf("%s: lte=%d nr=%d", op, lte, nr)
		}
		// Cells co-sited lookup matches.
		for _, c := range n.Cells {
			found := false
			for _, cc := range n.CellsAtSite(c.Site) {
				if cc.PCI == c.PCI {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell %s missing from its site", c.ID())
			}
		}
	}
}

func TestOpZDeploysNoMmWaveOpXDoes(t *testing.T) {
	src := rng.New(200)
	z := NewNetwork(spectrum.OpZ, mobility.Urban, src)
	for _, c := range z.Cells {
		if c.Chan.Band.Range() == spectrum.FR2 {
			t.Fatal("OpZ deployed mmWave")
		}
	}
	// OpX mmWave clusters appear with multiple seeds eventually.
	foundFR2 := false
	for seed := uint64(0); seed < 8 && !foundFR2; seed++ {
		x := NewNetwork(spectrum.OpX, mobility.Urban, rng.New(300+seed))
		for _, c := range x.Cells {
			if c.Chan.Band.Range() == spectrum.FR2 {
				foundFR2 = true
				break
			}
		}
	}
	if !foundFR2 {
		t.Fatal("OpX never deployed mmWave across 8 seeds")
	}
}

func TestCandidateCellsRespectCoverage(t *testing.T) {
	n := NewNetwork(spectrum.OpZ, mobility.Urban, rng.New(7))
	p := mobility.Point{X: 750, Y: 750}
	cands := n.CandidateCells(nil, p, spectrum.NR)
	if len(cands) == 0 {
		t.Fatal("no NR candidates at map center")
	}
	for _, c := range cands {
		if c.Pos.Dist(p) > c.CoverageRadiusM() {
			t.Fatalf("candidate %s outside coverage", c.ID())
		}
		if c.Chan.Band.Tech != spectrum.NR {
			t.Fatalf("wrong tech returned")
		}
	}
}

func TestCoverageRadiusOrdering(t *testing.T) {
	low := Cell{Chan: spectrum.MustChannel("n71", "a", 20, 0)}
	mid := Cell{Chan: spectrum.MustChannel("n41", "a", 100, 0)}
	cband := Cell{Chan: spectrum.MustChannel("n77", "a", 100, 0)}
	mm := Cell{Chan: spectrum.MustChannel("n260", "a", 100, 0)}
	if !(low.CoverageRadiusM() > mid.CoverageRadiusM() &&
		mid.CoverageRadiusM() > cband.CoverageRadiusM() &&
		cband.CoverageRadiusM() > mm.CoverageRadiusM()) {
		t.Fatal("coverage radius ordering violated")
	}
}

func TestCellLoadBounds(t *testing.T) {
	n := NewNetwork(spectrum.OpZ, mobility.Urban, rng.New(11))
	for i := 0; i < 200; i++ {
		n.StepLoads(1.0, 0.2)
	}
	for _, c := range n.Cells {
		l := c.Load()
		if l < 0 || l > 1 {
			t.Fatalf("load out of range: %f", l)
		}
	}
	// Rush hour raises mean load.
	var midnight, rush float64
	for i := 0; i < 200; i++ {
		n.StepLoads(1.0, 0.2)
		midnight += n.Cells[0].Load()
	}
	for i := 0; i < 200; i++ {
		n.StepLoads(1.9, 0.2)
		rush += n.Cells[0].Load()
	}
	if rush <= midnight {
		t.Fatalf("rush load %.1f not above midnight %.1f", rush, midnight)
	}
}

// runEngine steps an engine+mover for n steps and returns snapshots.
func runEngine(t *testing.T, op spectrum.Operator, sc mobility.Scenario, pat mobility.Mobility, modem Modem, steps int, dt float64, seed uint64) []Snapshot {
	t.Helper()
	src := rng.New(seed)
	net := NewNetwork(op, sc, src)
	eng := NewEngine(net, NewUE(modem), DefaultConfig(spectrum.NR), src)
	sched := NewScheduler(src)
	start := mobility.Point{X: sc.ExtentM() / 2, Y: sc.ExtentM() / 2}
	if sc == mobility.Beltway {
		start = mobility.Point{X: 100, Y: 0}
	}
	mv := mobility.NewMover(sc, pat, start, src)
	var out []Snapshot
	for i := 0; i < steps; i++ {
		moved := mv.Step(dt)
		net.StepLoads(1.0, 0.2)
		events := eng.Step(mv.Pos(), moved, dt, sc.IsIndoor())
		snap := sched.Observe(eng, mv.Pos(), pat, sc.IsIndoor(), events, dt)
		snap.CCs = slices.Clone(snap.CCs) // the scheduler reuses the backing array
		out = append(out, snap)
	}
	return out
}

func TestEngineConnectsAndAggregates(t *testing.T) {
	snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Stationary, ModemX70, 100, 0.2, 42)
	last := snaps[len(snaps)-1]
	if last.NumActiveCCs == 0 {
		t.Fatal("UE never connected")
	}
	if last.AggregateMbps <= 0 {
		t.Fatal("no throughput")
	}
	// Aggregate equals sum of active CC throughputs.
	sum := 0.0
	for _, cc := range last.CCs {
		sum += cc.TputMbps
	}
	if diff := sum - last.AggregateMbps; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("aggregate %.3f != sum %.3f", last.AggregateMbps, sum)
	}
}

func TestEngineBuildsCAOverTime(t *testing.T) {
	snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Stationary, ModemX70, 200, 0.2, 43)
	maxCC := 0
	for _, s := range snaps {
		if s.NumActiveCCs > maxCC {
			maxCC = s.NumActiveCCs
		}
	}
	if maxCC < 2 {
		t.Fatalf("OpZ urban stationary should aggregate >=2 CCs, got %d", maxCC)
	}
	if maxCC > 4 {
		t.Fatalf("OpZ FR1 CA depth exceeded: %d", maxCC)
	}
}

func TestUECapabilityLimitsCCs(t *testing.T) {
	for _, tc := range []struct {
		modem Modem
		max   int
	}{{ModemX50, 1}, {ModemX60, 2}, {ModemX65, 3}, {ModemX70, 4}} {
		snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Stationary, tc.modem, 300, 0.2, 44)
		seen := 0
		for _, s := range snaps {
			if s.NumActiveCCs > seen {
				seen = s.NumActiveCCs
			}
		}
		if seen > tc.max {
			t.Errorf("%s: %d CCs exceeds capability %d", tc.modem, seen, tc.max)
		}
	}
}

func TestBandLocking(t *testing.T) {
	src := rng.New(45)
	net := NewNetwork(spectrum.OpZ, mobility.Urban, src)
	eng := NewEngine(net, NewUE(ModemX70), DefaultConfig(spectrum.NR), src)
	eng.LockBands("n41")
	sched := NewScheduler(src)
	p := mobility.Point{X: 750, Y: 750}
	for i := 0; i < 200; i++ {
		net.StepLoads(1.0, 0.2)
		events := eng.Step(p, 0, 0.2, false)
		snap := sched.Observe(eng, p, mobility.Stationary, false, events, 0.2)
		for _, cc := range snap.CCs {
			if cc.Chan.Band.Name != "n41" {
				t.Fatalf("band lock violated: serving %s", cc.CellID)
			}
		}
	}
	// An unlocked engine on the same network must (eventually) serve from
	// more than one band somewhere on the map.
	free := NewEngine(net, NewUE(ModemX70), DefaultConfig(spectrum.NR), rng.New(46))
	foundOther := false
	for _, probe := range []mobility.Point{{X: 750, Y: 750}, {X: 400, Y: 400}, {X: 1100, Y: 600}} {
		for i := 0; i < 150 && !foundOther; i++ {
			net.StepLoads(1.0, 0.2)
			free.Step(probe, 0, 0.2, false)
			for _, s := range free.Serving() {
				if s.Cell.Chan.Band.Name != "n41" {
					foundOther = true
				}
			}
		}
	}
	if !foundOther {
		t.Fatal("unlocked engine never served a non-n41 band")
	}
}

func TestEventsAccompanyCCChanges(t *testing.T) {
	snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Driving, ModemX70, 2000, 0.2, 46)
	adds, removes, switches := 0, 0, 0
	for _, s := range snaps {
		for _, ev := range s.Events {
			switch ev.Type {
			case EvSCellAdd:
				adds++
			case EvSCellRemove:
				removes++
			case EvPCellSwitch:
				switches++
			}
		}
	}
	if adds == 0 {
		t.Fatal("driving 400s produced no SCell adds")
	}
	if switches == 0 {
		t.Fatal("driving 400s produced no handovers")
	}
	if removes == 0 {
		t.Fatal("driving 400s produced no SCell removals")
	}
}

func TestSCellActivationDelay(t *testing.T) {
	snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Stationary, ModemX70, 400, 0.05, 47)
	// Find an SCell add event and check the CC appears configured but
	// inactive for some steps before carrying data.
	for i, s := range snaps {
		for _, ev := range s.Events {
			if ev.Type != EvSCellAdd {
				continue
			}
			// In the same snapshot the new CC must not be active yet
			// (activation delay 150ms > step 50ms).
			for _, cc := range s.CCs {
				if cc.PCI == ev.Cell.PCI && cc.Active {
					t.Fatalf("step %d: SCell active immediately at add", i)
				}
			}
			return // verified one instance
		}
	}
	t.Skip("no SCell add observed in window")
}

func TestDeepCAReducesFDDSCellLayers(t *testing.T) {
	// Fig 14 shape: in >=3CC combos, FDD SCells (like n25) collapse to
	// fewer layers than the same cell would use as PCell.
	snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Stationary, ModemX70, 600, 0.2, 48)
	var fddSCellLayers, fddAloneLayers []float64
	for _, s := range snaps {
		for _, cc := range s.CCs {
			if cc.Chan.Band.Duplex != spectrum.FDD || !cc.Active {
				continue
			}
			if !cc.IsPCell && len(s.CCs) >= 3 {
				fddSCellLayers = append(fddSCellLayers, float64(cc.Layers))
			}
			if cc.IsPCell && len(s.CCs) == 1 {
				fddAloneLayers = append(fddAloneLayers, float64(cc.Layers))
			}
		}
	}
	if len(fddSCellLayers) == 0 {
		t.Skip("no deep-CA FDD SCell observed")
	}
	mean := 0.0
	for _, l := range fddSCellLayers {
		mean += l
	}
	mean /= float64(len(fddSCellLayers))
	if mean > 1.7 {
		t.Fatalf("deep-CA FDD SCell mean layers = %.2f, want collapsed (<1.7)", mean)
	}
}

func TestObservationFieldsInRange(t *testing.T) {
	snaps := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Walking, ModemX70, 500, 0.2, 49)
	for _, s := range snaps {
		for _, cc := range s.CCs {
			if cc.RSRPdBm > -44 || cc.RSRPdBm < -140 {
				t.Fatalf("RSRP out of range: %f", cc.RSRPdBm)
			}
			if cc.CQI < 0 || cc.CQI > 15 {
				t.Fatalf("CQI out of range: %d", cc.CQI)
			}
			if cc.BLER < 0 || cc.BLER > 0.5 {
				t.Fatalf("BLER out of range: %f", cc.BLER)
			}
			if cc.Layers < 1 || cc.Layers > 4 {
				t.Fatalf("layers out of range: %d", cc.Layers)
			}
			if cc.RB < 0 || cc.RB > 273 {
				t.Fatalf("RB out of range: %f", cc.RB)
			}
			if cc.TputMbps < 0 {
				t.Fatalf("negative throughput")
			}
			if !cc.Active && cc.TputMbps != 0 {
				t.Fatalf("inactive CC carrying traffic")
			}
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Driving, ModemX70, 200, 0.2, 50)
	b := runEngine(t, spectrum.OpZ, mobility.Urban, mobility.Driving, ModemX70, 200, 0.2, 50)
	for i := range a {
		if a[i].AggregateMbps != b[i].AggregateMbps {
			t.Fatalf("diverged at step %d: %.3f vs %.3f", i, a[i].AggregateMbps, b[i].AggregateMbps)
		}
	}
}

// TestActiveCCsMatchesObservation pins ActiveCCs, which a short build's
// scout reads in place of an observation, to the NumActiveCCs of Observe
// and ObserveUL at every 10 ms step of two drives, some of them above the
// uplink's carrier cap.
func TestActiveCCsMatchesObservation(t *testing.T) {
	// capped counts the steps with more active CCs than the uplink cap.
	capped := 0
	for _, op := range []spectrum.Operator{spectrum.OpZ, spectrum.OpX} {
		src := rng.New(61)
		net := NewNetwork(op, mobility.Urban, src)
		eng := NewEngine(net, NewUE(ModemX70), DefaultConfig(spectrum.NR), src)
		sched := NewScheduler(src)
		mv := mobility.NewMover(mobility.Urban, mobility.Driving,
			mobility.Point{X: mobility.Urban.ExtentM() / 2, Y: mobility.Urban.ExtentM() / 2}, src)
		for i := 0; i < 6000; i++ {
			moved := mv.Step(0.01)
			net.StepLoads(1, 0.01)
			events := eng.Step(mv.Pos(), moved, 0.01, false)
			dl := sched.Observe(eng, mv.Pos(), mobility.Driving, false, events, 0.01)
			if got := ActiveCCs(eng, false); got != dl.NumActiveCCs {
				t.Fatalf("%s step %d: ActiveCCs %d, Observe %d", op, i, got, dl.NumActiveCCs)
			}
			obs := sched.ObserveUL(eng, mv.Pos(), mobility.Driving, false, events, 0.01, ULConfig{})
			if got := ActiveCCs(eng, true); got != obs.NumActiveCCs {
				t.Fatalf("%s step %d: ActiveCCs %d, ObserveUL %d", op, i, got, obs.NumActiveCCs)
			}
			if dl.NumActiveCCs > ulMaxCC {
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatalf("no step above the uplink cap %d", ulMaxCC)
	}
}

// TestEngineStepReadsNoLoad drives OpX and OpZ urban engines over 4,000
// 10 ms steps of a logged load process and fails if any cell applied a
// logged step: the engine decides on RSRP alone and reads no load. A short
// build's scout relies on it, and on Release detaching every cell, to leave
// its network as deployed for the replay.
func TestEngineStepReadsNoLoad(t *testing.T) {
	for _, op := range []spectrum.Operator{spectrum.OpX, spectrum.OpZ} {
		src := rng.New(61)
		net := NewNetwork(op, mobility.Urban, src)
		eng := NewEngine(net, NewUE(ModemX70), DefaultConfig(spectrum.NR), src)
		mv := mobility.NewMover(mobility.Urban, mobility.Driving,
			mobility.Point{X: mobility.Urban.ExtentM() / 2, Y: mobility.Urban.ExtentM() / 2}, src)
		events, deepest := 0, 0
		for i := 0; i < 4000; i++ {
			moved := mv.Step(0.01)
			net.StepLoads(1, 0.01)
			events += len(eng.Step(mv.Pos(), moved, 0.01, false))
			deepest = max(deepest, len(eng.Serving()))
		}
		if events == 0 || deepest < 2 {
			t.Fatalf("%s: %d RRC events, at most %d serving CCs; the drive builds no CA", op, events, deepest)
		}
		for _, c := range net.Cells {
			if c.loadSteps != 0 {
				t.Fatalf("%s: cell %s applied %d of %d logged load steps", op, c.ID(), c.loadSteps, net.loadSteps)
			}
		}
		eng.Release()
		for _, c := range net.Cells {
			if n := c.Attached(); n != 0 {
				t.Fatalf("%s: cell %s has %d UEs attached after Release", op, c.ID(), n)
			}
		}
	}
}

func TestEventStringAndTypes(t *testing.T) {
	for _, et := range []EventType{EvSCellAdd, EvSCellRemove, EvSCellActivate, EvPCellSwitch, EvRadioLinkFailure} {
		if et.String() == "" {
			t.Fatal("empty event type string")
		}
	}
	ev := Event{Type: EvSCellAdd, At: 1.5}
	if ev.String() == "" {
		t.Fatal("empty event string")
	}
}

func TestComboReflectsServing(t *testing.T) {
	src := rng.New(51)
	net := NewNetwork(spectrum.OpZ, mobility.Urban, src)
	eng := NewEngine(net, NewUE(ModemX70), DefaultConfig(spectrum.NR), src)
	p := mobility.Point{X: 750, Y: 750}
	for i := 0; i < 300; i++ {
		net.StepLoads(1.0, 0.2)
		eng.Step(p, 0, 0.2, false)
	}
	var combo spectrum.Combo
	for _, s := range eng.Serving() {
		combo = append(combo, s.Cell.Chan)
	}
	if len(combo) == 0 || eng.PCell() == nil {
		t.Fatal("stationary urban UE never connected")
	}
	if srv := eng.Serving(); srv[0] != eng.PCell() || !slices.Equal(srv[1:], eng.SCells()) {
		t.Fatal("serving list is not PCell followed by SCells")
	}
	if key, setKey := eng.ComboKeys(); key != combo.Key() || setKey != combo.SetKey() {
		t.Fatalf("combo keys %q/%q, serving set gives %q/%q", key, setKey, combo.Key(), combo.SetKey())
	}
	eng.Release()
	if key, setKey := eng.ComboKeys(); len(eng.Serving()) != 0 || key != "" || setKey != "" {
		t.Fatalf("released engine still serves %d CCs, keys %q/%q", len(eng.Serving()), key, setKey)
	}
}
