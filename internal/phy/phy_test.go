package phy

import (
	"math"
	"testing"
	"testing/quick"

	"prism5g/internal/rng"
)

func TestMCSTableMonotoneEfficiency(t *testing.T) {
	prev := 0.0
	for _, m := range MCSTable256QAM {
		eff := m.Efficiency()
		if eff <= prev {
			t.Fatalf("MCS %d efficiency %.4f not increasing (prev %.4f)", m.Index, eff, prev)
		}
		prev = eff
	}
	// Top MCS ~ 7.4 bits/RE (256QAM, R=948/1024).
	top := MCSTable256QAM[len(MCSTable256QAM)-1].Efficiency()
	if math.Abs(top-7.4063) > 0.01 {
		t.Fatalf("top MCS efficiency = %f", top)
	}
}

func TestCQITableMonotone(t *testing.T) {
	prev := 0.0
	for _, r := range CQITable256QAM {
		if r.Efficiency <= prev {
			t.Fatalf("CQI %d efficiency not increasing", r.Index)
		}
		prev = r.Efficiency
	}
}

func TestNumRB(t *testing.T) {
	cases := []struct {
		isNR bool
		scs  int
		bw   float64
		want int
	}{
		{true, 30, 100, 273},
		{true, 30, 40, 106},
		{true, 30, 20, 51},
		{true, 15, 20, 106},
		{true, 120, 100, 66},
		{false, 15, 20, 100},
		{false, 15, 5, 25},
	}
	for _, c := range cases {
		got, err := NumRB(c.isNR, c.scs, c.bw)
		if err != nil {
			t.Fatalf("NumRB(%v,%d,%.0f): %v", c.isNR, c.scs, c.bw, err)
		}
		if got != c.want {
			t.Errorf("NumRB(%v,%d,%.0f) = %d, want %d", c.isNR, c.scs, c.bw, got, c.want)
		}
	}
	if _, err := NumRB(true, 30, 33); err == nil {
		t.Error("invalid bandwidth accepted")
	}
	if _, err := NumRB(true, 7, 20); err == nil {
		t.Error("invalid SCS accepted")
	}
	if _, err := NumRB(false, 15, 33); err == nil {
		t.Error("invalid LTE bandwidth accepted")
	}
}

func TestNumRE(t *testing.T) {
	// Full slot: 12*14-18 = 150 <= 156 per RB.
	if got := NumRE(1, SymbolsPerSlot); got != 150 {
		t.Fatalf("NumRE(1,14) = %d", got)
	}
	if got := NumRE(10, SymbolsPerSlot); got != 1500 {
		t.Fatalf("NumRE(10,14) = %d", got)
	}
	if got := NumRE(1, 1); got != 0 {
		t.Fatalf("NumRE(1,1) = %d, overhead should consume it", got)
	}
	// Monotone in symbols.
	prev := -1
	for s := 0; s <= SymbolsPerSlot; s++ {
		v := NumRE(5, s)
		if v < prev {
			t.Fatalf("NumRE not monotone at %d symbols", s)
		}
		prev = v
	}
}

func TestTBSKnownValues(t *testing.T) {
	// Small allocation lands in table 5.1.3.2-1.
	mcs0 := MCSTable256QAM[0] // QPSK R=120/1024
	tbs := TBS(156, mcs0, 1)
	// N_info = 156 * 0.1172 * 2 = 36.6 -> quantized 32 -> table entry 40.
	if tbs < 24 || tbs > 56 {
		t.Fatalf("small TBS = %d", tbs)
	}
	// Large allocation: full 100 MHz (273 RB), top MCS, 4 layers.
	top := MCSTable256QAM[len(MCSTable256QAM)-1]
	nRE := NumRE(273, 13)
	big := TBS(nRE, top, 4)
	// N_info ~ 273*150... nRE = 273*150=40950 (13 symbols: 12*13-18=138 -> 37674).
	// bits ~ 37674 * 7.406 * 4 ~ 1.116M.
	if big < 1000000 || big > 1250000 {
		t.Fatalf("big TBS = %d", big)
	}
	// TBS+24 must be byte-aligned per spec quantization.
	if (big+24)%8 != 0 {
		t.Fatalf("TBS %d not byte aligned", big)
	}
}

func TestTBSEdgeCases(t *testing.T) {
	mcs := MCSTable256QAM[10]
	if TBS(0, mcs, 2) != 0 {
		t.Error("zero RE should give zero TBS")
	}
	if TBS(100, mcs, 0) != 0 {
		t.Error("zero layers should give zero TBS")
	}
}

func TestTBSMonotoneInResources(t *testing.T) {
	mcs := MCSTable256QAM[15]
	f := func(a, b uint16) bool {
		x, y := int(a%4000)+1, int(b%4000)+1
		if x > y {
			x, y = y, x
		}
		return TBS(x, mcs, 2) <= TBS(y, mcs, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTBSMonotoneInLayers(t *testing.T) {
	mcs := MCSTable256QAM[20]
	for layers := 1; layers < 4; layers++ {
		if TBS(5000, mcs, layers) > TBS(5000, mcs, layers+1) {
			t.Fatalf("TBS not monotone in layers at %d", layers)
		}
	}
}

func TestChannelCapacityMatchesPaperScale(t *testing.T) {
	top := MCSTable256QAM[len(MCSTable256QAM)-1]
	// n41 100 MHz, 30 kHz SCS, TDD, 4 layers: the paper's single-channel
	// peak is ~700-900 Mbps; theoretical capacity should be near 1.6 Gbps
	// at 4 layers full allocation (UEs see less after scheduling).
	c, err := ChannelCapacityMbps(true, 30, 100, top, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if c < 1200 || c > 2000 {
		t.Fatalf("n41-100MHz capacity = %.0f Mbps", c)
	}
	// 4G 20 MHz FDD, 2 layers ~ 200 Mbps class.
	c4g, err := ChannelCapacityMbps(false, 15, 20, top, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if c4g < 150 || c4g > 350 {
		t.Fatalf("LTE 20MHz capacity = %.0f Mbps", c4g)
	}
	// mmWave 100 MHz @120 kHz, 2 layers.
	mm, err := ChannelCapacityMbps(true, 120, 100, top, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if mm < 500 || mm > 1000 {
		t.Fatalf("mmWave 100MHz capacity = %.0f Mbps", mm)
	}
	if _, err := ChannelCapacityMbps(true, 30, 33, top, 2, true); err == nil {
		t.Error("invalid bandwidth accepted")
	}
}

func TestSpectralEfficiency(t *testing.T) {
	if e := SpectralEfficiency(740, 100); math.Abs(e-7.4) > 1e-9 {
		t.Fatalf("eff = %f", e)
	}
	if e := SpectralEfficiency(100, 0); e != 0 {
		t.Fatalf("zero-bw eff = %f", e)
	}
}

func TestPathLossProperties(t *testing.T) {
	// Monotone in distance and frequency; NLOS >= LOS.
	for _, f := range []float64{0.6, 2.5, 3.7, 28} {
		c := NewCarrier(f, 30)
		prev := 0.0
		for _, d := range []float64{10, 50, 100, 500, 1000, 3000} {
			pl := c.PathLoss(d, true)
			if pl <= prev {
				t.Fatalf("LOS PL not increasing at d=%f f=%f", d, f)
			}
			prev = pl
			if c.PathLoss(d, false) < pl {
				t.Fatalf("NLOS < LOS at d=%f f=%f", d, f)
			}
		}
	}
	low, high := NewCarrier(0.6, 15), NewCarrier(28, 120)
	if low.PathLoss(100, true) >= high.PathLoss(100, true) {
		t.Fatal("higher frequency should have more path loss")
	}
	// Sub-1m clamps to 1m.
	mid := NewCarrier(2.5, 30)
	if mid.PathLoss(0.1, true) != mid.PathLoss(1, true) || mid.PathLoss(0.1, false) != mid.PathLoss(1, false) {
		t.Fatal("distance not clamped")
	}
}

func TestLOSProbability(t *testing.T) {
	if p := LOSProbability(5); p != 1 {
		t.Fatalf("close LOS prob = %f", p)
	}
	p100 := LOSProbability(100)
	p1000 := LOSProbability(1000)
	if !(p100 > p1000) {
		t.Fatalf("LOS prob should fall with distance: %f vs %f", p100, p1000)
	}
	if p1000 < 0 || p1000 > 1 {
		t.Fatalf("LOS prob out of range: %f", p1000)
	}
}

func TestIndoorPenetrationIncreasesWithFrequency(t *testing.T) {
	low := IndoorPenetrationDB(0.6)
	mid := IndoorPenetrationDB(2.5)
	c := IndoorPenetrationDB(3.7)
	if !(low < mid && mid < c) {
		t.Fatalf("penetration: %.1f %.1f %.1f", low, mid, c)
	}
	if IndoorPenetrationDB(28) > 45 {
		t.Fatal("penetration not capped")
	}
}

func TestNoise(t *testing.T) {
	n30 := NoiseDBm(30)
	n15 := NoiseDBm(15)
	if math.Abs((n30-n15)-3.01) > 0.05 {
		t.Fatalf("doubling SCS should add ~3 dB noise: %f vs %f", n15, n30)
	}
}

func newTestLink(src *rng.Source, fGHz float64, scs int, d0 float64) *Link {
	return NewLink(src, fGHz, scs, NewSiteState(src, d0), NewBandState(src))
}

func TestLinkEvaluate(t *testing.T) {
	src := rng.New(99)
	l := newTestLink(src, 2.5, 30, 100)
	rs := l.Evaluate(100, false, 0)
	if rs.RSRPdBm > -44 || rs.RSRPdBm < -140 {
		t.Fatalf("RSRP out of range: %f", rs.RSRPdBm)
	}
	if rs.RSRQdB > -3 || rs.RSRQdB < -19.5 {
		t.Fatalf("RSRQ out of range: %f", rs.RSRQdB)
	}
	if rs.SINRdB > 40 || rs.SINRdB < -10 {
		t.Fatalf("SINR out of range: %f", rs.SINRdB)
	}
	// Indoor must be worse than outdoor on average.
	out := l.Evaluate(200, false, 0)
	in := l.Evaluate(200, true, 0)
	if in.RSRPdBm >= out.RSRPdBm {
		t.Fatalf("indoor RSRP %.1f not below outdoor %.1f", in.RSRPdBm, out.RSRPdBm)
	}
	// Load reduces SINR (INR large enough to clear the SINR ceiling).
	unloaded := l.Evaluate(200, false, 0)
	loaded := l.Evaluate(200, false, 5000)
	if loaded.SINRdB >= unloaded.SINRdB {
		t.Fatal("interference load did not reduce SINR")
	}
}

func TestLinkDistanceMatters(t *testing.T) {
	// Average over many links to wash out shadowing.
	src := rng.New(123)
	var nearSum, farSum float64
	const n = 200
	for i := 0; i < n; i++ {
		l := newTestLink(src, 2.5, 30, 100)
		nearSum += l.Evaluate(80, false, 0).RSRPdBm
		farSum += l.Evaluate(800, false, 0).RSRPdBm
	}
	if nearSum/n <= farSum/n+10 {
		t.Fatalf("near RSRP %.1f should beat far %.1f by >10 dB", nearSum/n, farSum/n)
	}
}

func TestLinkMoveEvolvesShadowing(t *testing.T) {
	src := rng.New(7)
	st := NewSiteState(src, 150)
	l := NewLink(src, 2.5, 30, st, NewBandState(src))
	a := l.Evaluate(150, false, 0).RSRPdBm
	for i := 0; i < 50; i++ {
		st.Move(20, 150)
		l.Move(20)
	}
	b := l.Evaluate(150, false, 0).RSRPdBm
	if a == b {
		t.Fatal("shadowing did not evolve with movement")
	}
}

func TestCQIFromSINRMonotone(t *testing.T) {
	prev := -1
	for s := -10.0; s <= 40; s += 0.5 {
		c := CQIFromSINR(s)
		if c < prev {
			t.Fatalf("CQI not monotone at SINR %.1f", s)
		}
		if c < 0 || c > MaxCQI {
			t.Fatalf("CQI out of range: %d", c)
		}
		prev = c
	}
	if CQIFromSINR(-10) > 1 {
		t.Fatal("very low SINR should give CQI <= 1")
	}
	if CQIFromSINR(40) != MaxCQI {
		t.Fatal("very high SINR should give max CQI")
	}
}

func TestMCSFromCQI(t *testing.T) {
	if m := MCSFromCQI(0); m.Index != 0 {
		t.Fatalf("CQI0 -> MCS %d", m.Index)
	}
	if m := MCSFromCQI(15); m.Index != len(MCSTable256QAM)-1 {
		t.Fatalf("CQI15 -> MCS %d", m.Index)
	}
	if m := MCSFromCQI(99); m.Index != len(MCSTable256QAM)-1 {
		t.Fatalf("clamped CQI -> MCS %d", m.Index)
	}
	// MCS efficiency never exceeds the CQI's, except at CQI 1 where the
	// scheduler floors at MCS 0 (0.234 b/RE > CQI 1's 0.152 b/s/Hz).
	for cqi := 2; cqi <= MaxCQI; cqi++ {
		m := MCSFromCQI(cqi)
		if m.Efficiency() > CQITable256QAM[cqi-1].Efficiency+1e-9 {
			t.Fatalf("MCS efficiency exceeds CQI %d", cqi)
		}
	}
	if MCSFromCQI(1).Index != 0 {
		t.Fatal("CQI 1 should floor at MCS 0")
	}
}

func TestBLER(t *testing.T) {
	if b := BLER(0); math.Abs(b-0.10) > 1e-9 {
		t.Fatalf("BLER(0) = %f, want 0.10", b)
	}
	if BLER(10) >= BLER(0) || BLER(-10) <= BLER(0) {
		t.Fatal("BLER not monotone in margin")
	}
	if BLER(100) < 0.005 || BLER(-100) > 0.5 {
		t.Fatal("BLER not clamped")
	}
}

func TestRankFromSINR(t *testing.T) {
	if RankFromSINR(30, 4) != 4 || RankFromSINR(18, 4) != 3 || RankFromSINR(10, 4) != 2 || RankFromSINR(0, 4) != 1 {
		t.Fatal("rank thresholds wrong")
	}
	if RankFromSINR(30, 2) != 2 {
		t.Fatal("maxRank clamp failed")
	}
	if RankFromSINR(30, 0) != 1 {
		t.Fatal("rank floor failed")
	}
}

func TestMaxRankForBand(t *testing.T) {
	if MaxRankForBand(2.5, true) != 4 {
		t.Error("mid-band TDD should allow 4 layers")
	}
	if MaxRankForBand(0.6, false) != 2 {
		t.Error("low band should cap at 2")
	}
	if MaxRankForBand(28, true) != 2 {
		t.Error("mmWave should cap at 2")
	}
}

func TestAdapt(t *testing.T) {
	la := Adapt(25, 4, 0)
	if la.CQI < 12 {
		t.Fatalf("good channel CQI = %d", la.CQI)
	}
	if la.Layers != 4 {
		t.Fatalf("good channel layers = %d", la.Layers)
	}
	bad := Adapt(-5, 4, 0)
	if bad.CQI > 3 || bad.Layers != 1 {
		t.Fatalf("bad channel adapt = %+v", bad)
	}
	// CQI staleness raises BLER.
	fresh := Adapt(15, 4, 0)
	stale := Adapt(15, 4, 5)
	if stale.BLER <= fresh.BLER {
		t.Fatal("stale CQI should raise BLER")
	}
}

func TestSlotsPerSecond(t *testing.T) {
	cases := map[int]int{15: 1000, 30: 2000, 60: 4000, 120: 8000, 240: 16000, 7: 1000}
	for scs, want := range cases {
		if got := SlotsPerSecond(scs); got != want {
			t.Errorf("SlotsPerSecond(%d) = %d, want %d", scs, got, want)
		}
	}
}
