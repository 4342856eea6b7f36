package spectrum

import (
	"fmt"
	"sort"
)

// Channel is one concrete frequency channel: a band plus a distinct spectrum
// position and bandwidth. The paper distinguishes channels of the same band
// with superscripts (n41^a, n41^b, ...); we use Sub for that.
type Channel struct {
	Band Band
	// Sub distinguishes multiple channels of the same band ("a", "b", ...).
	Sub string
	// BandwidthMHz is the channel bandwidth, one of Band.BandwidthsMHz.
	BandwidthMHz float64
	// SCSKHz is the sub-carrier spacing used on this channel.
	SCSKHz int
	// CenterMHz is the exact carrier center frequency; same-band channels
	// occupy different positions.
	CenterMHz float64
	// ExclusiveGroup, when non-empty, marks channels that never co-deploy
	// at one site (spectrum licensed in different markets). At most one
	// channel of a group appears per site.
	ExclusiveGroup string
}

// ID returns the paper-style identifier, e.g. "n41^a" or "b2^c".
func (c Channel) ID() string {
	if c.Sub == "" {
		return c.Band.Name
	}
	return c.Band.Name + "^" + c.Sub
}

// String implements fmt.Stringer with bandwidth detail.
func (c Channel) String() string {
	return fmt.Sprintf("%s(%s,%.0fMHz)", c.ID(), c.Band.Duplex, c.BandwidthMHz)
}

// Validate checks internal consistency against the band catalog.
func (c Channel) Validate() error {
	if _, err := BandByName(c.Band.Name); err != nil {
		return err
	}
	if !c.Band.SupportsBandwidth(c.BandwidthMHz) {
		return fmt.Errorf("spectrum: band %s does not support %.0f MHz channels", c.Band.Name, c.BandwidthMHz)
	}
	ok := false
	for _, scs := range c.Band.SCSKHz {
		if scs == c.SCSKHz {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("spectrum: band %s does not support %d kHz SCS", c.Band.Name, c.SCSKHz)
	}
	return nil
}

// NewChannel builds a validated channel on the named band. offsetMHz shifts
// the carrier center from the band's nominal frequency, modeling distinct
// spectrum positions of same-band channels.
func NewChannel(bandName, sub string, bwMHz float64, offsetMHz float64) (Channel, error) {
	b, err := BandByName(bandName)
	if err != nil {
		return Channel{}, err
	}
	c := Channel{
		Band:         b,
		Sub:          sub,
		BandwidthMHz: bwMHz,
		SCSKHz:       b.DefaultSCSKHz(),
		CenterMHz:    b.FreqMHz + offsetMHz,
	}
	if err := c.Validate(); err != nil {
		return Channel{}, err
	}
	return c, nil
}

// MustChannel is NewChannel panicking on error, for static tables.
func MustChannel(bandName, sub string, bwMHz float64, offsetMHz float64) Channel {
	c, err := NewChannel(bandName, sub, bwMHz, offsetMHz)
	if err != nil {
		panic(err)
	}
	return c
}

// Operator identifies one of the three (anonymized) US operators surveyed.
type Operator string

// Operators surveyed in the paper. OpZ re-farmed aggressively and has the
// most diverse FR1 CA; OpX/OpY rely on C-band 2CC plus mmWave 8CC.
const (
	OpX Operator = "OpX"
	OpY Operator = "OpY"
	OpZ Operator = "OpZ"
)

// AllOperators lists the surveyed operators in the paper's order.
func AllOperators() []Operator { return []Operator{OpX, OpY, OpZ} }

// ParseOperator maps an operator's exact name to the operator.
func ParseOperator(s string) (Operator, error) {
	for _, op := range AllOperators() {
		if string(op) == s {
			return op, nil
		}
	}
	return "", fmt.Errorf("unknown operator %q (want OpX, OpY or OpZ)", s)
}

// Plan is an operator's channel deployment plan: the concrete 4G and 5G
// channels it has in the measured cities (paper Tables 2(a) and 6) and the
// maximum number of CCs it aggregates per technology / frequency range.
type Plan struct {
	Operator Operator
	Channels []Channel
	// Max4GCCs is the deepest observed 4G aggregation (5 for all three).
	Max4GCCs int
	// Max5GFR1CCs is the deepest FR1 5G aggregation (2 for OpX/OpY, 4 OpZ).
	Max5GFR1CCs int
	// Max5GFR2CCs is the deepest mmWave aggregation (8 for OpX/OpY, 0 OpZ).
	Max5GFR2CCs int
}

// ChannelsByTech returns the plan's channels filtered by technology.
func (p Plan) ChannelsByTech(t Tech) []Channel {
	var out []Channel
	for _, c := range p.Channels {
		if c.Band.Tech == t {
			out = append(out, c)
		}
	}
	return out
}

// ChannelsByRange returns the plan's NR channels in the given FR range.
func (p Plan) ChannelsByRange(r FreqRange) []Channel {
	var out []Channel
	for _, c := range p.Channels {
		if c.Band.Tech == NR && c.Band.Range() == r {
			out = append(out, c)
		}
	}
	return out
}

// UniqueBands returns the sorted set of band names present in the plan.
func (p Plan) UniqueBands() []string {
	set := map[string]bool{}
	for _, c := range p.Channels {
		set[c.Band.Name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// exclusive tags a channel with an exclusivity group.
func exclusive(c Channel, group string) Channel {
	c.ExclusiveGroup = group
	return c
}

// PlanFor returns the deployment plan of the given operator, mirroring the
// channel allocations in paper Tables 2(a)/6 (representative subset with the
// same band mix, bandwidths and CA depth).
func PlanFor(op Operator) Plan {
	switch op {
	case OpX:
		return Plan{
			Operator: OpX,
			Channels: []Channel{
				// 4G
				MustChannel("b12", "a", 10, 0),
				MustChannel("b14", "a", 10, 1),
				MustChannel("b29", "a", 5, 2),
				MustChannel("b2", "a", 20, 0),
				MustChannel("b2", "b", 10, 5),
				MustChannel("b66", "a", 20, 0),
				MustChannel("b66", "b", 15, 10),
				MustChannel("b30", "a", 10, 0),
				MustChannel("b46", "a", 20, 0),
				// 5G FR1
				MustChannel("n5", "a", 10, 0),
				MustChannel("n77", "a", 100, 0),
				MustChannel("n77", "b", 40, 60),
				// 5G FR2: eight 100 MHz mmWave channels
				MustChannel("n260", "a", 100, 0),
				MustChannel("n260", "b", 100, 100),
				MustChannel("n260", "c", 100, 200),
				MustChannel("n260", "d", 100, 300),
				MustChannel("n260", "e", 100, 400),
				MustChannel("n260", "f", 100, 500),
				MustChannel("n260", "g", 100, 600),
				MustChannel("n260", "h", 100, 700),
			},
			Max4GCCs:    5,
			Max5GFR1CCs: 2,
			Max5GFR2CCs: 8,
		}
	case OpY:
		return Plan{
			Operator: OpY,
			Channels: []Channel{
				// 4G
				MustChannel("b13", "a", 10, 0),
				MustChannel("b5", "a", 10, 0),
				MustChannel("b4", "a", 20, 0),
				MustChannel("b4", "b", 15, 10),
				MustChannel("b2", "a", 20, 0),
				MustChannel("b66", "a", 20, 0),
				MustChannel("b66", "b", 10, 10),
				MustChannel("b48", "a", 20, 0),
				MustChannel("b46", "a", 20, 0),
				// 5G FR1
				MustChannel("n5", "a", 10, 0),
				MustChannel("n77", "c", 100, 0),
				MustChannel("n77", "d", 60, 80),
				// 5G FR2
				MustChannel("n261", "a", 100, 0),
				MustChannel("n261", "b", 100, 100),
				MustChannel("n261", "c", 100, 200),
				MustChannel("n261", "d", 100, 300),
				MustChannel("n261", "e", 100, 400),
				MustChannel("n261", "f", 100, 500),
				MustChannel("n261", "g", 100, 600),
				MustChannel("n261", "h", 100, 700),
			},
			Max4GCCs:    5,
			Max5GFR1CCs: 2,
			Max5GFR2CCs: 8,
		}
	case OpZ:
		return Plan{
			Operator: OpZ,
			Channels: []Channel{
				// 4G
				MustChannel("b71", "a", 5, 0),
				MustChannel("b4", "a", 20, 0),
				MustChannel("b2", "a", 20, 0),
				MustChannel("b25", "a", 5, 0),
				MustChannel("b66", "a", 20, 0),
				MustChannel("b41", "a", 20, 0),
				MustChannel("b41", "b", 20, 25),
				MustChannel("b46", "a", 20, 0),
				// 5G FR1 (re-farmed, diverse: the paper's primary subject)
				MustChannel("n71", "a", 20, 0),
				MustChannel("n25", "a", 20, 0),
				exclusive(MustChannel("n41", "a", 100, 0), "n41-wide"),
				MustChannel("n41", "b", 40, 110),
				exclusive(MustChannel("n41", "c", 60, 160), "n41-wide"),
				MustChannel("n41", "d", 20, 230),
			},
			Max4GCCs:    5,
			Max5GFR1CCs: 4,
			Max5GFR2CCs: 0,
		}
	default:
		panic(fmt.Sprintf("spectrum: unknown operator %q", op))
	}
}
