package ran

import (
	"fmt"
	"slices"
	"sort"

	"prism5g/internal/mobility"
	"prism5g/internal/phy"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// EventType enumerates the RRC carrier-aggregation signaling events the
// paper's predictor consumes (Table 3 "Signaling" features).
type EventType uint8

const (
	// EvSCellAdd configures a new SCell (activation follows after a delay).
	EvSCellAdd EventType = iota
	// EvSCellRemove releases an SCell.
	EvSCellRemove
	// EvSCellActivate marks the SCell starting to carry data.
	EvSCellActivate
	// EvPCellSwitch is a handover / PCell change.
	EvPCellSwitch
	// EvRadioLinkFailure drops the whole connection.
	EvRadioLinkFailure
	// EvReestablish marks the RRC re-establishment completing after a
	// radio link failure (only emitted when ReestablishDelayS > 0).
	EvReestablish
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EvSCellAdd:
		return "scell-add"
	case EvSCellRemove:
		return "scell-remove"
	case EvSCellActivate:
		return "scell-activate"
	case EvPCellSwitch:
		return "pcell-switch"
	case EvReestablish:
		return "reestablish"
	default:
		return "rlf"
	}
}

// Event is one RRC signaling event with its timestamp.
type Event struct {
	Type EventType
	Cell *Cell
	At   float64 // seconds since engine start
}

// String implements fmt.Stringer.
func (e Event) String() string {
	id := "-"
	if e.Cell != nil {
		id = e.Cell.ID()
	}
	return fmt.Sprintf("%.3fs %s %s", e.At, e.Type, id)
}

// ServingCC is one configured component carrier of the UE's CA set.
type ServingCC struct {
	Cell    *Cell
	Link    *phy.Link
	IsPCell bool
	// ConfiguredAt is when the RRC add was signaled.
	ConfiguredAt float64
	// ActiveAt is when the carrier starts carrying data (the activation
	// delay between these two is what gives a CA-aware predictor its
	// lead at transitions).
	ActiveAt float64
	// belowSince counts consecutive below-threshold evaluations.
	belowSince int
}

// Active reports whether the CC carries data at time t.
func (s *ServingCC) Active(t float64) bool { return t >= s.ActiveAt }

// Config tunes the CA engine. Use DefaultConfig.
type Config struct {
	// Tech selects 4G or 5G operation.
	Tech spectrum.Tech
	// ReestablishDelayS is the RRC re-establishment outage after a radio
	// link failure: the UE stays disconnected for this long before it may
	// reattach. Zero (the default) keeps the historical instant-reselect
	// behaviour.
	ReestablishDelayS float64
}

// DefaultConfig returns the engine configuration used across the study.
func DefaultConfig(tech spectrum.Tech) Config {
	return Config{Tech: tech}
}

// The RRC thresholds and timers of the study's CA engine.
const (
	// pcellMinRSRP is the accessibility threshold for PCell selection.
	pcellMinRSRP = -118.0
	// handoverHysteresisDB is the margin a neighbour must exceed.
	handoverHysteresisDB = 9.0
	// handoverTTT is the consecutive evaluations (time-to-trigger).
	handoverTTT = 12
	// scellAddRSRP is the A4-style SCell addition threshold.
	scellAddRSRP = -106.0
	// scellRemoveRSRP is the A2-style SCell release threshold.
	scellRemoveRSRP = -116.0
	// scellRemoveTTT is the consecutive below-threshold evaluations
	// before release.
	scellRemoveTTT = 10
	// activationDelayS is the config-to-traffic SCell activation delay.
	activationDelayS = 0.15
	// addIntervalS is the minimum spacing between successive SCell adds.
	addIntervalS = 1.6
	// evalIntervalS is the measurement/decision cadence.
	evalIntervalS = 0.2
	// midBandPreferenceDB biases PCell choice toward capacity layers
	// when their signal is adequate.
	midBandPreferenceDB = 12.0
)

// Engine is the per-UE RRC carrier-aggregation state machine.
type Engine struct {
	Net *Network
	UE  UE
	Cfg Config

	pcell  *ServingCC
	scells []*ServingCC
	links  map[int]*phy.Link
	sites  map[int]*phy.SiteState
	bands  map[string]*phy.BandState
	src    *rng.Source

	// siteList, bandList and linkList hold the states of the three maps
	// above in creation order, for the per-step Move loops. Each state
	// draws from its own rng stream, so the order changes no value.
	siteList []trackedSite
	bandList []*phy.BandState
	linkList []*phy.Link

	// serving is PCell followed by SCells, and comboKey/comboSetKey the
	// ordered and set keys of its channel combination. All three change
	// only when an evaluation changes the CA set.
	serving               []*ServingCC
	comboKey, comboSetKey string

	// cands, ms and adds are scratch lists of one evaluation, kept to be
	// reused by the next. near holds the terms of one co-channel sum,
	// sized in NewEngine for the longest interferer list.
	cands    []*Cell
	ms, adds []measurement
	near     []nearTerm

	// bandLock restricts usable bands (the paper's [C1] band locking via
	// operator service codes). Empty means unrestricted.
	bandLock map[string]bool
	// chanLock restricts usable channels by channel ID ("n41^a"),
	// the finer-grained lock used for the single-channel experiments.
	chanLock map[string]bool

	now           float64
	sinceEval     float64
	lastAddAt     float64
	lastHOAt      float64
	hoCandidate   int // PCI of pending handover target
	hoStreak      int
	eventBacklog  []Event
	connectedOnce bool
	// rlfBarUntil bars PCell reselection until RRC re-establishment
	// completes after a radio link failure.
	rlfBarUntil float64
	reattaching bool
}

// nearTerm is an interferer in reach whose term is being computed, and
// the term's value so far: the distance, then the exponent, then the
// power over noise.
type nearTerm struct {
	cell *Cell
	x    float64
}

// trackedSite pairs a site's shared propagation state with its position.
type trackedSite struct {
	pos mobility.Point
	st  *phy.SiteState
}

// NewEngine creates a CA engine for the UE on the network.
func NewEngine(net *Network, ue UE, cfg Config, src *rng.Source) *Engine {
	longest := 0
	for _, c := range net.Cells {
		longest = max(longest, len(c.interferers))
	}
	return &Engine{
		Net:       net,
		UE:        ue,
		Cfg:       cfg,
		links:     map[int]*phy.Link{},
		sites:     map[int]*phy.SiteState{},
		bands:     map[string]*phy.BandState{},
		near:      make([]nearTerm, 0, longest),
		src:       src.Split(),
		bandLock:  map[string]bool{},
		chanLock:  map[string]bool{},
		lastAddAt: -1e9,
		lastHOAt:  -1e9,
	}
}

// LockBands restricts the engine to the given band names (e.g. "n41"),
// mirroring the paper's band-locking methodology. Passing none clears the
// lock.
func (e *Engine) LockBands(names ...string) {
	e.bandLock = map[string]bool{}
	for _, n := range names {
		e.bandLock[n] = true
	}
}

// LockChannels restricts the engine to the given channel IDs (e.g.
// "n41^a"), the single-channel variant of band locking. Passing none clears
// the lock.
func (e *Engine) LockChannels(ids ...string) {
	e.chanLock = map[string]bool{}
	for _, id := range ids {
		e.chanLock[id] = true
	}
}

// allowed reports whether the band/channel locks permit the cell.
func (e *Engine) allowed(c *Cell) bool {
	if len(e.chanLock) > 0 && !e.chanLock[c.chanID] {
		return false
	}
	if len(e.bandLock) == 0 {
		return true
	}
	return e.bandLock[c.Chan.Band.Name]
}

// siteState returns (creating lazily) the shared propagation state toward a
// site.
func (e *Engine) siteState(site int, dist float64) *phy.SiteState {
	st, ok := e.sites[site]
	if !ok {
		st = phy.NewSiteState(e.src, dist)
		e.sites[site] = st
		e.siteList = append(e.siteList, trackedSite{pos: e.Net.Deploy.Sites[site], st: st})
	}
	return st
}

// bandState returns (creating lazily) the shared per-(site, band) deviation.
func (e *Engine) bandState(site int, band string) *phy.BandState {
	key := fmt.Sprintf("%d/%s", site, band)
	bs, ok := e.bands[key]
	if !ok {
		bs = phy.NewBandState(e.src)
		e.bands[key] = bs
		e.bandList = append(e.bandList, bs)
	}
	return bs
}

// link returns (creating lazily) the shadowed radio link toward a cell.
func (e *Engine) link(c *Cell, dist float64) *phy.Link {
	l, ok := e.links[c.PCI]
	if !ok {
		l = phy.NewLink(e.src, c.FreqGHz(), c.Chan.SCSKHz,
			e.siteState(c.Site, dist), e.bandState(c.Site, c.Chan.Band.Name))
		e.links[c.PCI] = l
		e.linkList = append(e.linkList, l)
	}
	return l
}

// Now returns the engine clock in seconds.
func (e *Engine) Now() float64 { return e.now }

// PCell returns the current primary cell, or nil when not connected.
func (e *Engine) PCell() *ServingCC { return e.pcell }

// SCells returns the configured secondary cells in activation order.
func (e *Engine) SCells() []*ServingCC { return e.scells }

// Serving returns PCell followed by SCells. The slice belongs to the
// engine: read it, do not modify or keep it across Step calls.
func (e *Engine) Serving() []*ServingCC { return e.serving }

// ComboKeys returns the ordered and the order-independent key (see
// spectrum.Combo Key and SetKey) of the serving channel combination; both
// are empty when not connected.
func (e *Engine) ComboKeys() (ordered, set string) { return e.comboKey, e.comboSetKey }

// syncServing rebuilds the serving list and its combo keys when the PCell
// or the SCell list no longer matches it.
func (e *Engine) syncServing() {
	if e.pcell == nil {
		if len(e.serving) > 0 {
			e.serving = e.serving[:0]
			e.comboKey, e.comboSetKey = "", ""
		}
		return
	}
	if len(e.serving) > 0 && e.serving[0] == e.pcell && slices.Equal(e.serving[1:], e.scells) {
		return
	}
	e.serving = append(append(e.serving[:0], e.pcell), e.scells...)
	combo := make(spectrum.Combo, len(e.serving))
	for i, s := range e.serving {
		combo[i] = s.Cell.Chan
	}
	e.comboKey, e.comboSetKey = combo.Key(), combo.SetKey()
}

// measure returns the RSRP of a cell from position p during an evaluation,
// the one quantity the evaluation decides on. Measuring a cell again
// within an evaluation gives the same bits: nothing moves until the next
// step.
func (e *Engine) measure(c *Cell, p mobility.Point, indoor bool) float64 {
	d := c.Pos.Dist(p)
	return e.link(c, d).RSRP(d, indoor)
}

// coChannelINR returns the interference-to-noise ratio (linear) a UE at p
// sees on c's channel from co-channel cells at other sites (frequency reuse
// 1) within 1.5x their coverage radius: each one's mean (unshadowed) NLOS
// received power over noise, weighted by its load. This is what makes
// urban SINR interference-limited: near the serving site the ratio is
// tiny, at the cell edge it dominates.
//
// The terms are computed in phases, each over every interferer in reach:
// distance and reach, exponent, Pow10, then times load into the sum, in
// list order. Their Log and Exp chains are independent, so the phases let
// the CPU overlap them.
func (e *Engine) coChannelINR(c *Cell, p mobility.Point, indoor bool) float64 {
	near := e.near[:0]
	for _, o := range c.interferers {
		if d := o.Pos.Dist(p); d <= o.reachM {
			near = append(near, nearTerm{o, d})
		}
	}
	for i := range near {
		n := &near[i]
		pl := n.cell.carrier.PathLoss(n.x, false)
		if indoor {
			pl += n.cell.carrier.IndoorDB
		}
		n.x = (n.cell.carrier.TxPerREdBm - pl - n.cell.carrier.NoiseDBm) / 10
	}
	for i := range near {
		near[i].x = phy.Pow10(near[i].x)
	}
	inr := 0.0
	for _, n := range near {
		// The conversion rounds the product, so no compiler fuses it
		// into the sum.
		inr += float64(n.x * n.cell.Load())
	}
	return inr
}

// pcellScore ranks PCell candidates: RSRP plus a capacity-layer preference
// when the mid-band signal is adequate.
func (e *Engine) pcellScore(c *Cell, rsrp float64) float64 {
	score := rsrp
	if c.Chan.Band.Class() == spectrum.MidBand && c.Chan.Band.Range() == spectrum.FR1 && rsrp > -105 {
		score += midBandPreferenceDB
	}
	// mmWave anchors only with a strong beam (then it is strongly
	// preferred, as operators steer capable UEs onto it); otherwise it
	// is avoided entirely.
	if e.isFR2(c) {
		if rsrp > -95 {
			score += 2 * midBandPreferenceDB
		} else {
			score -= 60
		}
	}
	return score
}

// maxCCs returns the CA depth permitted by plan and modem for the carrier
// mix currently in play.
func (e *Engine) maxCCs(fr2 bool) int {
	if e.Cfg.Tech == spectrum.LTE {
		m := e.Net.Plan.Max4GCCs
		if mm := e.UE.Modem.MaxLTECCs(); mm < m {
			m = mm
		}
		return m
	}
	if fr2 {
		m := e.Net.Plan.Max5GFR2CCs
		if mm := e.UE.Modem.MaxNRCCsFR2(); mm < m {
			m = mm
		}
		return m
	}
	m := e.Net.Plan.Max5GFR1CCs
	if mm := e.UE.Modem.MaxNRCCsFR1(); mm < m {
		m = mm
	}
	return m
}

// Step advances the engine by dt seconds with the UE at p having moved
// movedM meters since the last step. It returns the RRC events emitted
// during this step.
func (e *Engine) Step(p mobility.Point, movedM, dt float64, indoor bool) []Event {
	e.now += dt
	e.sinceEval += dt
	// Advance shared per-site shadowing, per-band deviations, then
	// per-carrier deviations.
	for _, s := range e.siteList {
		s.st.Move(movedM, s.pos.Dist(p))
	}
	for _, bs := range e.bandList {
		bs.Move(movedM)
	}
	for _, l := range e.linkList {
		l.Move(movedM)
	}
	if e.sinceEval < evalIntervalS && e.connectedOnce {
		return e.drainEvents()
	}
	e.sinceEval = 0
	e.evaluate(p, indoor)
	e.syncServing()
	return e.drainEvents()
}

func (e *Engine) drainEvents() []Event {
	ev := e.eventBacklog
	e.eventBacklog = nil
	return ev
}

func (e *Engine) emit(t EventType, c *Cell) {
	e.eventBacklog = append(e.eventBacklog, Event{Type: t, Cell: c, At: e.now})
}

// measurement pairs a candidate cell with its measured RSRP.
type measurement struct {
	cell *Cell
	rsrp float64
}

// evaluate runs one RRC measurement/decision round.
func (e *Engine) evaluate(p mobility.Point, indoor bool) {
	e.cands = e.Net.CandidateCells(e.cands[:0], p, e.Cfg.Tech)
	e.ms = e.ms[:0]
	for _, c := range e.cands {
		if !e.allowed(c) {
			continue
		}
		e.ms = append(e.ms, measurement{c, e.measure(c, p, indoor)})
	}
	ms := e.ms
	// --- PCell management ---
	var best *measurement
	bestScore := -1e18
	for i := range ms {
		m := &ms[i]
		if m.rsrp < pcellMinRSRP {
			continue
		}
		if sc := e.pcellScore(m.cell, m.rsrp); sc > bestScore {
			best, bestScore = m, sc
		}
	}
	if e.pcell != nil {
		cur := e.measure(e.pcell.Cell, p, indoor)
		if cur < pcellMinRSRP-4 {
			// Radio link failure: drop everything, reselect below once
			// re-establishment completes.
			e.emit(EvRadioLinkFailure, e.pcell.Cell)
			e.pcell.Cell.Detach()
			for _, s := range e.scells {
				s.Cell.Detach()
			}
			e.pcell = nil
			e.scells = nil
			if e.Cfg.ReestablishDelayS > 0 {
				e.rlfBarUntil = e.now + e.Cfg.ReestablishDelayS
				e.reattaching = true
			}
		} else if best != nil && best.cell != e.pcell.Cell {
			curScore := e.pcellScore(e.pcell.Cell, cur)
			hyst := handoverHysteresisDB
			if best.cell.Site == e.pcell.Cell.Site && cur > -110 {
				// Reshuffling the PCell among co-sited carriers tears
				// down the whole CA set for no coverage gain; require a
				// far larger margin unless the current PCell degrades.
				hyst *= 4
			}
			if bestScore > curScore+hyst {
				if e.hoCandidate == best.cell.PCI {
					e.hoStreak++
				} else {
					e.hoCandidate, e.hoStreak = best.cell.PCI, 1
				}
				if e.hoStreak >= handoverTTT {
					e.handoverTo(best.cell)
					e.hoStreak = 0
				}
			} else {
				e.hoStreak = 0
			}
		} else {
			e.hoStreak = 0
		}
	}
	if e.pcell == nil {
		if best == nil {
			return // out of coverage
		}
		if e.now < e.rlfBarUntil {
			return // still in RRC re-establishment after RLF
		}
		e.pcell = &ServingCC{
			Cell: best.cell, Link: e.links[best.cell.PCI], IsPCell: true,
			ConfiguredAt: e.now, ActiveAt: e.now,
		}
		best.cell.Attach()
		if e.reattaching {
			e.emit(EvReestablish, best.cell)
			e.reattaching = false
		}
		e.emit(EvPCellSwitch, best.cell)
		e.connectedOnce = true
	}
	// --- SCell management ---
	e.manageSCells(p, indoor)
}

// handoverTo switches the PCell, releasing all SCells (as observed: PCell
// change tears down and rebuilds the CA set).
func (e *Engine) handoverTo(c *Cell) {
	for _, s := range e.scells {
		e.emit(EvSCellRemove, s.Cell)
		s.Cell.Detach()
	}
	e.scells = nil
	e.pcell.Cell.Detach()
	e.pcell = &ServingCC{
		Cell: c, Link: e.links[c.PCI], IsPCell: true,
		ConfiguredAt: e.now, ActiveAt: e.now,
	}
	c.Attach()
	e.lastHOAt = e.now
	e.emit(EvPCellSwitch, c)
}

func (e *Engine) manageSCells(p mobility.Point, indoor bool) {
	if e.pcell == nil {
		return
	}
	// Release weak SCells.
	kept := e.scells[:0]
	for _, s := range e.scells {
		if e.measure(s.Cell, p, indoor) < scellRemoveRSRP {
			s.belowSince++
		} else {
			s.belowSince = 0
		}
		if s.belowSince >= scellRemoveTTT {
			e.emit(EvSCellRemove, s.Cell)
			s.Cell.Detach()
			continue
		}
		kept = append(kept, s)
	}
	e.scells = kept

	// Count current FR1/FR2 CCs.
	countFR2, countFR1 := 0, 0
	if e.isFR2(e.pcell.Cell) {
		countFR2++
	} else {
		countFR1++
	}
	for _, s := range e.scells {
		if e.isFR2(s.Cell) {
			countFR2++
		} else {
			countFR1++
		}
	}

	// Right after a handover the RRC reconfiguration sets up the whole
	// CA set at once; otherwise SCells are added one per interval.
	burst := e.now-e.lastHOAt < 1.0
	if !burst && e.now-e.lastAddAt < addIntervalS {
		return
	}
	// Candidate SCells: co-sited with the PCell (standard deployment),
	// above the add threshold, not already serving.
	adds := e.adds[:0]
	for _, m := range e.ms {
		if m.cell.Site != e.pcell.Cell.Site || e.configured(m.cell) {
			continue
		}
		if m.rsrp < scellAddRSRP {
			continue
		}
		adds = append(adds, m)
	}
	e.adds = adds
	if len(adds) == 0 {
		return
	}
	// Operators add the widest adequate carrier first.
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].cell.Chan.BandwidthMHz != adds[j].cell.Chan.BandwidthMHz {
			return adds[i].cell.Chan.BandwidthMHz > adds[j].cell.Chan.BandwidthMHz
		}
		return adds[i].rsrp > adds[j].rsrp
	})
	pcellFR2 := e.isFR2(e.pcell.Cell)
	for _, a := range adds {
		fr2 := e.isFR2(a.cell)
		// SA CA does not mix FR1 and FR2 in one cell group (the paper's
		// 8-CC mmWave combos are pure n260/n261 sets).
		if fr2 != pcellFR2 {
			continue
		}
		if fr2 {
			if countFR2 >= e.maxCCs(true) {
				continue
			}
		} else {
			if countFR1 >= e.maxCCs(false) {
				continue
			}
		}
		s := &ServingCC{
			Cell: a.cell, Link: e.links[a.cell.PCI],
			ConfiguredAt: e.now, ActiveAt: e.now + activationDelayS,
		}
		e.scells = append(e.scells, s)
		a.cell.Attach()
		e.emit(EvSCellAdd, a.cell)
		e.emit(EvSCellActivate, a.cell)
		e.lastAddAt = e.now
		if !burst {
			return // one add per interval
		}
		// burst mode: keep adding eligible SCells this evaluation.
		if e.isFR2(a.cell) {
			countFR2++
		} else {
			countFR1++
		}
	}
}

// configured reports whether the cell is the PCell or an SCell.
func (e *Engine) configured(c *Cell) bool {
	return c == e.pcell.Cell || slices.ContainsFunc(e.scells, func(s *ServingCC) bool { return s.Cell == c })
}

func (e *Engine) isFR2(c *Cell) bool {
	return c.Chan.Band.Tech == spectrum.NR && c.Chan.Band.Range() == spectrum.FR2
}

// MeasureServing returns the current radio state of a serving CC from p,
// its co-channel interference included.
func (e *Engine) MeasureServing(s *ServingCC, p mobility.Point, indoor bool) phy.RadioState {
	d := s.Cell.Pos.Dist(p)
	return s.Link.Evaluate(d, indoor, e.coChannelINR(s.Cell, p, indoor))
}

// Release detaches the engine's serving set from the network's cells.
// Runs that reuse one Network — sequentially across experiment runs, or
// concurrently within a population shard — call it when the UE's campaign
// ends so attach counts never leak into the next run. The engine must not
// be stepped afterwards.
func (e *Engine) Release() {
	if e.pcell != nil {
		e.pcell.Cell.Detach()
		e.pcell = nil
	}
	for _, s := range e.scells {
		s.Cell.Detach()
	}
	e.scells = nil
	e.syncServing()
}
