package spectrum

import (
	"testing"
	"testing/quick"

	"prism5g/internal/rng"
)

// Property: a combo's SetKey is invariant under any permutation of its
// channels, while AggregateBandwidthMHz is always the plain sum.
func TestQuickComboPermutationInvariants(t *testing.T) {
	plan := PlanFor(OpZ)
	nr := plan.ChannelsByTech(NR)
	f := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw)%len(nr) + 1
		combo := make(Combo, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			combo[i] = nr[src.Intn(len(nr))]
			sum += combo[i].BandwidthMHz
		}
		perm := make(Combo, n)
		copy(perm, combo)
		src.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if combo.SetKey() != perm.SetKey() {
			return false
		}
		return combo.AggregateBandwidthMHz() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the census ordered count never falls below the set count and
// both never exceed the number of observations.
func TestQuickCensusBounds(t *testing.T) {
	plan := PlanFor(OpZ)
	nr := plan.ChannelsByTech(NR)
	f := func(seed uint64, obsRaw uint8) bool {
		src := rng.New(seed)
		cc := NewComboCensus()
		obs := int(obsRaw)%30 + 1
		for i := 0; i < obs; i++ {
			n := src.Intn(3) + 1
			combo := make(Combo, n)
			for j := range combo {
				combo[j] = nr[src.Intn(len(nr))]
			}
			cc.Observe(combo)
		}
		return cc.SetCount() <= cc.OrderedCount() && cc.OrderedCount() <= obs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
