package spectrum

import (
	"sort"
	"strings"
)

// Combo is an ordered CA channel combination: element 0 is the PCell, the
// rest are SCells in activation order. The paper counts combos both ordered
// (SCell ordering matters) and as unique channel sets (Table 2(b)/7).
type Combo []Channel

// Key returns the ordered identity of the combo, e.g. "n41^a+n25^a+n41^b".
func (c Combo) Key() string {
	ids := make([]string, len(c))
	for i, ch := range c {
		ids[i] = ch.ID()
	}
	return strings.Join(ids, "+")
}

// SetKey returns the order-independent identity (unique channel set).
func (c Combo) SetKey() string {
	ids := make([]string, len(c))
	for i, ch := range c {
		ids[i] = ch.ID()
	}
	sort.Strings(ids)
	return strings.Join(ids, "+")
}

// AggregateBandwidthMHz returns the summed channel bandwidth.
func (c Combo) AggregateBandwidthMHz() float64 {
	s := 0.0
	for _, ch := range c {
		s += ch.BandwidthMHz
	}
	return s
}

// NumCCs returns the number of component carriers.
func (c Combo) NumCCs() int { return len(c) }

// Kind classifies the combo per §2.1 of the paper.
type ComboKind uint8

const (
	// SingleCarrier means no aggregation (one CC).
	SingleCarrier ComboKind = iota
	// IntraBandContiguous aggregates adjacent channels of one band.
	IntraBandContiguous
	// IntraBandNonContiguous aggregates separated channels of one band.
	IntraBandNonContiguous
	// InterBand aggregates channels from different bands.
	InterBand
)

// String implements fmt.Stringer.
func (k ComboKind) String() string {
	switch k {
	case SingleCarrier:
		return "single-carrier"
	case IntraBandContiguous:
		return "intra-band-contiguous"
	case IntraBandNonContiguous:
		return "intra-band-non-contiguous"
	default:
		return "inter-band"
	}
}

// Kind classifies the combo. Channels of one band are contiguous when each
// adjacent pair (sorted by center frequency) touches within half the summed
// bandwidths plus a small guard.
func (c Combo) Kind() ComboKind {
	if len(c) <= 1 {
		return SingleCarrier
	}
	band := c[0].Band.Name
	for _, ch := range c[1:] {
		if ch.Band.Name != band {
			return InterBand
		}
	}
	// Same band: check contiguity.
	sorted := make([]Channel, len(c))
	copy(sorted, c)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CenterMHz < sorted[j].CenterMHz })
	for i := 1; i < len(sorted); i++ {
		gap := sorted[i].CenterMHz - sorted[i-1].CenterMHz
		touch := (sorted[i].BandwidthMHz+sorted[i-1].BandwidthMHz)/2 + 1 // 1 MHz guard
		if gap > touch {
			return IntraBandNonContiguous
		}
	}
	return IntraBandContiguous
}

// ComboCensus accumulates observed combos, counting ordered combos and
// unique channel sets separately — the "270/162"-style pairs in Table 2(b).
type ComboCensus struct {
	ordered map[string]int
	sets    map[string]int
}

// NewComboCensus returns an empty census.
func NewComboCensus() *ComboCensus {
	return &ComboCensus{ordered: map[string]int{}, sets: map[string]int{}}
}

// Observe records one occurrence of the combo.
func (cc *ComboCensus) Observe(c Combo) { cc.ObserveKeys(c.Key(), c.SetKey()) }

// ObserveKeys records one occurrence of the combo with the given Key and
// SetKey, for callers that keep a combo's keys while it persists.
func (cc *ComboCensus) ObserveKeys(key, setKey string) {
	cc.ordered[key]++
	cc.sets[setKey]++
}

// OrderedCount returns the number of distinct ordered combinations seen.
func (cc *ComboCensus) OrderedCount() int { return len(cc.ordered) }

// SetCount returns the number of distinct unique channel sets seen.
func (cc *ComboCensus) SetCount() int { return len(cc.sets) }

// Keys returns the distinct ordered combo keys, sorted by descending count
// then lexicographically.
func (cc *ComboCensus) Keys() []string {
	keys := make([]string, 0, len(cc.ordered))
	for k := range cc.ordered {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if cc.ordered[keys[i]] != cc.ordered[keys[j]] {
			return cc.ordered[keys[i]] > cc.ordered[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Count returns the occurrence count of an ordered combo key.
func (cc *ComboCensus) Count(key string) int { return cc.ordered[key] }
