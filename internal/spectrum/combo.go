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
