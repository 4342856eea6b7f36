package ran

import (
	"fmt"
	"math"

	"prism5g/internal/mobility"
	"prism5g/internal/phy"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// Cell is one deployed channel at one site: the unit that becomes a serving
// cell / component carrier under CA.
type Cell struct {
	// PCI is the physical cell identity (unique per network here).
	PCI int
	// Site indexes into the deployment's site list.
	Site int
	// Pos is the site position.
	Pos mobility.Point
	// Chan is the frequency channel the cell radiates.
	Chan spectrum.Channel
	// MaxRank is the deepest MIMO the cell supports.
	MaxRank int
	// NumRB is the configured downlink resource blocks.
	NumRB int
	// load is the background-traffic process (0..1) of this cell.
	load *rng.OU
	// baseLoad is the scenario/time-of-day mean load.
	baseLoad float64
	// attached counts the simulated UEs whose CA set currently includes
	// this cell. The scheduler splits the cell's RB share across them, so
	// per-UE throughput degrades as co-resident UEs pile on. Single-UE
	// runs keep it at 0 or 1, where the split is inert and the historical
	// numbers are bit-identical.
	attached int
	// popLoad is the population-driven utilization a city of UEs outside
	// the simulated shard puts on the cell, added on top of the background
	// OU process. Zero outside population mode.
	popLoad float64

	// The fields below are fixed when NewNetwork deploys the cell; the
	// per-step path reads them instead of recomputing them.

	// id is ID(); chanID is Chan.ID().
	id, chanID string
	// carrier holds the cell's frequency-dependent link-budget terms.
	carrier phy.Carrier
	// coverageM is CoverageRadiusM(); reachM is the 1.5x radius beyond
	// which the cell's interference is ignored.
	coverageM, reachM float64
	// interferers are the co-channel cells at other sites, in deployment
	// order.
	interferers []*Cell

	// net is the network that deployed the cell: Load follows its load
	// log. loadSteps counts the StepLoads calls the load process has
	// applied, and loadRun indexes the log run holding the last of them.
	net                *Network
	loadRun, loadSteps int
}

// ID returns a human-readable cell identifier.
func (c *Cell) ID() string { return c.id }

// FreqGHz returns the carrier frequency in GHz.
func (c *Cell) FreqGHz() float64 { return c.Chan.CenterMHz / 1000 }

// IsTDD reports whether the cell operates in TDD mode.
func (c *Cell) IsTDD() bool { return c.Chan.Band.Duplex == spectrum.TDD }

// CoverageRadiusM returns the nominal radius within which the cell is a CA
// candidate, derived from its band class.
func (c *Cell) CoverageRadiusM() float64 {
	switch c.Chan.Band.Class() {
	case spectrum.LowBand:
		return 3500
	case spectrum.MidBand:
		if c.Chan.CenterMHz >= 3000 {
			return 900 // C-band
		}
		return 1800
	default:
		return 250 // mmWave
	}
}

// Load returns the cell's current utilization in [0, 1]: the background
// OU process plus (in population mode) the mean-field load of the
// out-of-shard population. Higher load both shrinks the RB share the
// scheduler grants and raises the interference this cell radiates into
// co-channel neighbours — cell breathing emerges from load rather than a
// scripted profile.
//
// Load first applies, in order, the network's StepLoads calls the cell
// has not applied yet, so it advances state: see Network.
func (c *Cell) Load() float64 {
	if c.loadSteps < c.net.loadSteps {
		c.catchUpLoad()
	}
	l := c.load.Value()
	if c.popLoad != 0 {
		l += c.popLoad
	}
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// Attach registers one UE on the cell's schedule (its CA set now includes
// the cell); Detach reverses it. The engine calls these as serving-set
// membership changes, so Attached is live during a step.
func (c *Cell) Attach() { c.attached++ }

// Detach removes one UE from the cell's schedule.
func (c *Cell) Detach() {
	if c.attached > 0 {
		c.attached--
	}
}

// Attached returns the number of UEs currently counting this cell in
// their CA set (configured, not necessarily activated).
func (c *Cell) Attached() int { return c.attached }

// SetPopLoad sets the deterministic out-of-shard population load added on
// top of the cell's background process, clamped to [0, 0.95] so a cell
// never saturates into a zero-throughput singularity. Population shards
// refresh it every step from the rush-hour activity profile.
func (c *Cell) SetPopLoad(v float64) {
	if v < 0 {
		v = 0
	}
	if v > 0.95 {
		v = 0.95
	}
	c.popLoad = v
}

// PopLoad returns the current out-of-shard population load.
func (c *Cell) PopLoad() float64 { return c.popLoad }

// catchUpLoad applies the logged StepLoads calls the load process has not
// applied: per call, the parameters StepLoads logged and one OU step. The
// process draws from its own rng stream, so applying a call late gives
// the bits applying it at once would have given.
func (c *Cell) catchUpLoad() {
	log := c.net.loadLog
	for i := c.loadRun; i < len(log); i++ {
		r := &log[i]
		c.load.Theta, c.load.Sigma, c.load.Mean = r.theta, r.sigma, c.baseLoad*r.tod
		for ; c.loadSteps < r.end; c.loadSteps++ {
			c.load.Step()
		}
	}
	c.loadRun = len(log) - 1
}

// loadTauS is the background-load decorrelation time constant.
const loadTauS = 40.0

// loadStd is the stationary standard deviation of the load process.
const loadStd = 0.06

// Network is an operator's RAN deployed over a scenario: all cells of all
// sites, plus the deployment geometry.
//
// A Network belongs to one goroutine: reading a cell's load advances the
// cell's load process (Cell.Load), so the network, its cells and the
// engines measuring them must not be used concurrently.
type Network struct {
	Operator spectrum.Operator
	Plan     spectrum.Plan
	Scenario mobility.Scenario
	Deploy   *mobility.Deployment
	Cells    []*Cell

	cellsBySite map[int][]*Cell

	// loadLog holds the StepLoads calls as runs of equal parameters and
	// loadSteps counts the calls; each cell applies them when read.
	loadLog   []loadRun
	loadSteps int
}

// loadRun is a run of StepLoads calls with equal parameters: the OU rate
// and noise scale and the time-of-day multiplier. end is the number of
// calls up to and including the run's last.
type loadRun struct {
	theta, sigma, tod float64
	end               int
}

// deployProb returns the probability that a site of the scenario hosts the
// given channel, encoding the paper's coverage findings: 4G everywhere; OpZ
// 5G nearly everywhere (86% urban avg, 75% suburban); OpX/OpY 5G confined to
// urban (24% / 44%-ish), mmWave only in dense urban pockets (6% / 25%).
func deployProb(op spectrum.Operator, sc mobility.Scenario, ch spectrum.Channel) float64 {
	if ch.Band.Tech == spectrum.LTE {
		return 0.96 // 4G CA covers almost the entire area
	}
	fr2 := ch.Band.Range() == spectrum.FR2
	switch op {
	case spectrum.OpX:
		switch sc {
		case mobility.Urban:
			if fr2 {
				return 0.06
			}
			return 0.25
		case mobility.Suburban:
			if fr2 {
				return 0
			}
			return 0.12
		case mobility.Beltway:
			if fr2 {
				return 0
			}
			return 0.10
		default: // Indoor area, served by urban macros
			if fr2 {
				return 0.03
			}
			return 0.25
		}
	case spectrum.OpY:
		switch sc {
		case mobility.Urban:
			if fr2 {
				return 0.25
			}
			return 0.54
		case mobility.Suburban:
			if fr2 {
				return 0
			}
			return 0.25
		case mobility.Beltway:
			if fr2 {
				return 0
			}
			return 0.18
		default:
			if fr2 {
				return 0.08
			}
			return 0.54
		}
	default: // OpZ: aggressive FR1 re-farming
		switch sc {
		case mobility.Urban:
			return 0.92
		case mobility.Suburban:
			return 0.75
		case mobility.Beltway:
			return 0.55
		default:
			return 0.92
		}
	}
}

// baseLoadFor returns the mean background load for a scenario (the paper
// measures mostly at midnight; urban cells still carry more traffic).
func baseLoadFor(sc mobility.Scenario, ch spectrum.Channel) float64 {
	var l float64
	switch sc {
	case mobility.Urban:
		l = 0.35
	case mobility.Suburban:
		l = 0.22
	case mobility.Beltway:
		l = 0.18
	default:
		l = 0.30
	}
	// Wide mid-band capacity layers attract more carried traffic; mmWave
	// carries almost none (few capable UEs in its tiny footprint).
	if ch.Band.Tech == spectrum.NR && ch.Band.Range() == spectrum.FR2 {
		return 0.10
	}
	if ch.Band.Tech == spectrum.NR && ch.BandwidthMHz >= 60 {
		l += 0.08
	}
	return l
}

// NewNetwork deploys the operator's plan across the scenario. Low-band
// channels go on (almost) every site; other channels follow deployProb.
// mmWave channels co-locate: a site either has the full 8-channel cluster or
// none, matching how operators deploy mmWave.
func NewNetwork(op spectrum.Operator, sc mobility.Scenario, src *rng.Source) *Network {
	s := src.Split()
	n := &Network{
		Operator:    op,
		Plan:        spectrum.PlanFor(op),
		Scenario:    sc,
		Deploy:      mobility.NewDeployment(sc, s),
		cellsBySite: map[int][]*Cell{},
	}
	cellsByChan := map[string][]*Cell{}
	pci := 1
	for siteIdx, pos := range n.Deploy.Sites {
		// Decide mmWave cluster presence once per site.
		fr2Prob := 0.0
		for _, ch := range n.Plan.Channels {
			if ch.Band.Tech == spectrum.NR && ch.Band.Range() == spectrum.FR2 {
				fr2Prob = deployProb(op, sc, ch)
				break
			}
		}
		hasFR2 := s.Bool(fr2Prob)
		groupTaken := map[string]bool{}
		for _, ch := range n.Plan.Channels {
			if g := ch.ExclusiveGroup; g != "" && groupTaken[g] {
				continue
			}
			isFR2 := ch.Band.Tech == spectrum.NR && ch.Band.Range() == spectrum.FR2
			var deploy bool
			if isFR2 {
				deploy = hasFR2
			} else if ch.Band.Class() == spectrum.LowBand {
				deploy = s.Bool(0.98) // low band is the coverage layer
			} else {
				deploy = s.Bool(deployProb(op, sc, ch))
			}
			if !deploy {
				continue
			}
			if g := ch.ExclusiveGroup; g != "" {
				groupTaken[g] = true
			}
			nRB, err := phy.NumRB(ch.Band.Tech == spectrum.NR, ch.SCSKHz, ch.BandwidthMHz)
			if err != nil {
				panic(fmt.Sprintf("ran: %s: %v", ch.ID(), err))
			}
			c := &Cell{
				PCI:      pci,
				Site:     siteIdx,
				Pos:      pos,
				Chan:     ch,
				MaxRank:  phy.MaxRankForBand(ch.CenterMHz/1000, ch.Band.Duplex == spectrum.TDD),
				NumRB:    nRB,
				baseLoad: baseLoadFor(sc, ch),
				id:       fmt.Sprintf("%s@%d#%d", ch.ID(), siteIdx, pci),
				chanID:   ch.ID(),
				net:      n,
			}
			c.carrier = phy.NewCarrier(c.FreqGHz(), ch.SCSKHz)
			c.coverageM = c.CoverageRadiusM()
			c.reachM = c.coverageM * 1.5
			c.load = rng.NewOU(s, c.baseLoad, 0.05, loadStd*math.Sqrt(0.05*(2-0.05)))
			n.Cells = append(n.Cells, c)
			n.cellsBySite[siteIdx] = append(n.cellsBySite[siteIdx], c)
			cellsByChan[c.chanID] = append(cellsByChan[c.chanID], c)
			pci++
		}
	}
	for _, c := range n.Cells {
		for _, other := range cellsByChan[c.chanID] {
			if other.Site != c.Site {
				c.interferers = append(c.interferers, other)
			}
		}
	}
	return n
}

// CellsAtSite returns the cells co-located at a site.
func (n *Network) CellsAtSite(site int) []*Cell { return n.cellsBySite[site] }

// CandidateCells appends to dst, in deployment order, the cells of the
// given technology whose coverage radius reaches p, and returns the
// extended slice.
func (n *Network) CandidateCells(dst []*Cell, p mobility.Point, tech spectrum.Tech) []*Cell {
	for _, c := range n.Cells {
		if c.Chan.Band.Tech != tech {
			continue
		}
		if c.Pos.Dist(p) <= c.coverageM {
			dst = append(dst, c)
		}
	}
	return dst
}

// StepLoads advances every cell's background-load process by dt seconds
// and applies the time-of-day multiplier (1.0 at the paper's midnight
// measurement window; rush hour pushes ~1.9x). The process dynamics are
// dt-aware so the same physics holds at 10 ms and 1 s sampling.
//
// The step is logged, not applied: each cell applies it when its load is
// next read, so a cell no UE reads never draws. A call with the
// parameters of the previous one extends its run, so the log stays one
// entry long while dt and the multiplier stay fixed.
func (n *Network) StepLoads(todMultiplier, dt float64) {
	theta := 1 - math.Exp(-dt/loadTauS)
	sigma := loadStd * math.Sqrt(theta*(2-theta))
	n.loadSteps++
	if k := len(n.loadLog) - 1; k >= 0 {
		if r := &n.loadLog[k]; sameBits(r.theta, theta) && sameBits(r.sigma, sigma) && sameBits(r.tod, todMultiplier) {
			r.end = n.loadSteps
			return
		}
	}
	n.loadLog = append(n.loadLog, loadRun{theta: theta, sigma: sigma, tod: todMultiplier, end: n.loadSteps})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
