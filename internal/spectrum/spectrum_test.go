package spectrum

import (
	"strings"
	"testing"
)

func TestBandCatalogConsistency(t *testing.T) {
	for _, b := range AllBands() {
		if b.Name == "" {
			t.Fatal("band with empty name")
		}
		wantPrefix := "b"
		if b.Tech == NR {
			wantPrefix = "n"
		}
		if !strings.HasPrefix(b.Name, wantPrefix) {
			t.Errorf("band %s: prefix does not match tech %s", b.Name, b.Tech)
		}
		if len(b.BandwidthsMHz) == 0 {
			t.Errorf("band %s: no bandwidths", b.Name)
		}
		if b.Tech == LTE {
			if b.MaxBandwidthMHz() > 20 {
				t.Errorf("band %s: 4G bandwidth above 20 MHz", b.Name)
			}
			if len(b.SCSKHz) != 1 || b.SCSKHz[0] != 15 {
				t.Errorf("band %s: 4G SCS must be fixed 15 kHz", b.Name)
			}
		}
	}
}

func TestBandByName(t *testing.T) {
	b, err := BandByName("n41")
	if err != nil {
		t.Fatal(err)
	}
	if b.Duplex != TDD || b.FreqMHz != 2500 {
		t.Fatalf("n41 = %+v", b)
	}
	if _, err := BandByName("n999"); err == nil {
		t.Fatal("unknown band did not error")
	}
}

func TestBandClassification(t *testing.T) {
	cases := []struct {
		name  string
		class BandClass
		fr    FreqRange
	}{
		{"n71", LowBand, FR1},
		{"n41", MidBand, FR1},
		{"n77", MidBand, FR1},
		{"n260", HighBand, FR2},
		{"n261", HighBand, FR2},
		{"b12", LowBand, FR1},
		{"b46", MidBand, FR1},
	}
	for _, c := range cases {
		b := MustBand(c.name)
		if b.Class() != c.class {
			t.Errorf("%s class = %s, want %s", c.name, b.Class(), c.class)
		}
		if b.Range() != c.fr {
			t.Errorf("%s range = %s, want %s", c.name, b.Range(), c.fr)
		}
	}
}

func TestDefaultSCS(t *testing.T) {
	if got := MustBand("b2").DefaultSCSKHz(); got != 15 {
		t.Errorf("b2 SCS = %d", got)
	}
	if got := MustBand("n41").DefaultSCSKHz(); got != 30 {
		t.Errorf("n41 SCS = %d", got)
	}
	if got := MustBand("n260").DefaultSCSKHz(); got != 120 {
		t.Errorf("n260 SCS = %d", got)
	}
}

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel("n41", "a", 100, 0); err != nil {
		t.Fatalf("valid channel rejected: %v", err)
	}
	if _, err := NewChannel("n41", "a", 33, 0); err == nil {
		t.Fatal("invalid bandwidth accepted")
	}
	if _, err := NewChannel("nope", "a", 20, 0); err == nil {
		t.Fatal("unknown band accepted")
	}
}

func TestChannelID(t *testing.T) {
	c := MustChannel("n41", "a", 100, 0)
	if c.ID() != "n41^a" {
		t.Fatalf("ID = %q", c.ID())
	}
	c2 := Channel{Band: MustBand("n25"), BandwidthMHz: 20, SCSKHz: 30, CenterMHz: 1900}
	if c2.ID() != "n25" {
		t.Fatalf("ID = %q", c2.ID())
	}
	if !strings.Contains(c.String(), "TDD") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestPlansMatchPaperTable2(t *testing.T) {
	for _, op := range AllOperators() {
		p := PlanFor(op)
		if p.Operator != op {
			t.Fatalf("%s: wrong operator field", op)
		}
		if p.Max4GCCs != 5 {
			t.Errorf("%s: Max4GCCs = %d, want 5", op, p.Max4GCCs)
		}
		for _, c := range p.Channels {
			if err := c.Validate(); err != nil {
				t.Errorf("%s channel %s invalid: %v", op, c.ID(), err)
			}
		}
		if len(p.ChannelsByTech(LTE)) < 4 {
			t.Errorf("%s: needs >=4 4G channels for 5CC CA", op)
		}
	}
	// Operator-specific shape from Table 2(b).
	x, y, z := PlanFor(OpX), PlanFor(OpY), PlanFor(OpZ)
	if x.Max5GFR2CCs != 8 || y.Max5GFR2CCs != 8 {
		t.Error("OpX/OpY must support 8CC mmWave")
	}
	if len(x.ChannelsByRange(FR2)) != 8 || len(y.ChannelsByRange(FR2)) != 8 {
		t.Error("OpX/OpY must deploy 8 mmWave channels")
	}
	if z.Max5GFR2CCs != 0 || len(z.ChannelsByRange(FR2)) != 0 {
		t.Error("OpZ must be FR1-only")
	}
	if z.Max5GFR1CCs != 4 {
		t.Errorf("OpZ Max5GFR1CCs = %d, want 4", z.Max5GFR1CCs)
	}
	// OpZ 4CC n41+n71+n25+n41 must be constructible with 180 MHz.
	combo := Combo{
		mustByID(z, "n41^a"), mustByID(z, "n71^a"),
		mustByID(z, "n25^a"), mustByID(z, "n41^b"),
	}
	if got := combo.AggregateBandwidthMHz(); got != 180 {
		t.Errorf("OpZ 4CC aggregate BW = %.0f, want 180", got)
	}
}

func mustByID(p Plan, id string) Channel {
	for _, c := range p.Channels {
		if c.ID() == id {
			return c
		}
	}
	panic("channel not in plan: " + id)
}

func TestComboKind(t *testing.T) {
	z := PlanFor(OpZ)
	intra := Combo{mustByID(z, "n41^a"), mustByID(z, "n41^b")}
	if k := intra.Kind(); k != IntraBandContiguous && k != IntraBandNonContiguous {
		t.Fatalf("intra-band kind = %s", k)
	}
	inter := Combo{mustByID(z, "n41^a"), mustByID(z, "n25^a")}
	if inter.Kind() != InterBand {
		t.Fatalf("inter kind = %s", inter.Kind())
	}
	single := Combo{mustByID(z, "n41^a")}
	if single.Kind() != SingleCarrier {
		t.Fatalf("single kind = %s", single.Kind())
	}
	// Contiguity: two adjacent channels vs far-separated ones.
	a := MustChannel("n41", "a", 40, 0)
	b := MustChannel("n41", "b", 40, 40)
	far := MustChannel("n41", "c", 40, 200)
	if (Combo{a, b}).Kind() != IntraBandContiguous {
		t.Error("adjacent channels should be contiguous")
	}
	if (Combo{a, far}).Kind() != IntraBandNonContiguous {
		t.Error("separated channels should be non-contiguous")
	}
}

func TestComboMixedDuplexAndLowBandPCell(t *testing.T) {
	z := PlanFor(OpZ)
	fddTdd := Combo{mustByID(z, "n71^a"), mustByID(z, "n41^a")}
	if !fddTdd.MixedDuplex() {
		t.Error("n71+n41 should be mixed duplex")
	}
	if !fddTdd.HasLowBandPCell() {
		t.Error("n71 PCell should be low band")
	}
	tddOnly := Combo{mustByID(z, "n41^a"), mustByID(z, "n41^b")}
	if tddOnly.MixedDuplex() {
		t.Error("n41+n41 is not mixed duplex")
	}
	if tddOnly.HasLowBandPCell() {
		t.Error("n41 PCell is mid band")
	}
}

func TestComboKeys(t *testing.T) {
	z := PlanFor(OpZ)
	c1 := Combo{mustByID(z, "n41^a"), mustByID(z, "n25^a")}
	c2 := Combo{mustByID(z, "n25^a"), mustByID(z, "n41^a")}
	if c1.Key() == c2.Key() {
		t.Error("ordered keys should differ")
	}
	if c1.SetKey() != c2.SetKey() {
		t.Error("set keys should match")
	}
}

func TestComboCensus(t *testing.T) {
	z := PlanFor(OpZ)
	cc := NewComboCensus()
	c1 := Combo{mustByID(z, "n41^a"), mustByID(z, "n25^a")}
	c2 := Combo{mustByID(z, "n25^a"), mustByID(z, "n41^a")}
	cc.Observe(c1)
	cc.Observe(c1)
	cc.Observe(c2)
	if cc.OrderedCount() != 2 {
		t.Fatalf("ordered = %d", cc.OrderedCount())
	}
	if cc.SetCount() != 1 {
		t.Fatalf("sets = %d", cc.SetCount())
	}
	keys := cc.Keys()
	if len(keys) != 2 || cc.Count(keys[0]) != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestStringers(t *testing.T) {
	if FDD.String() != "FDD" || TDD.String() != "TDD" {
		t.Error("duplex strings")
	}
	if LTE.String() != "4G" || NR.String() != "5G" {
		t.Error("tech strings")
	}
	if FR1.String() != "FR1" || FR2.String() != "FR2" {
		t.Error("range strings")
	}
	if LowBand.String() != "low" || MidBand.String() != "mid" || HighBand.String() != "high" {
		t.Error("class strings")
	}
	for _, k := range []ComboKind{SingleCarrier, IntraBandContiguous, IntraBandNonContiguous, InterBand} {
		if k.String() == "" {
			t.Error("empty combo kind string")
		}
	}
}

// TestParseOperator accepts every operator by its exact name and rejects
// anything else with an error naming the accepted values.
func TestParseOperator(t *testing.T) {
	for _, op := range AllOperators() {
		if got, err := ParseOperator(string(op)); got != op || err != nil {
			t.Fatalf("ParseOperator(%q) = %q, %v", op, got, err)
		}
	}
	if _, err := ParseOperator("opz"); err == nil || !strings.Contains(err.Error(), "OpX, OpY or OpZ") {
		t.Fatalf("ParseOperator(\"opz\") error = %v", err)
	}
}
