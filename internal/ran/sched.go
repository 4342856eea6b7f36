package ran

import (
	"math"

	"prism5g/internal/mobility"
	"prism5g/internal/phy"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// CCObservation is one UE-side snapshot of one component carrier: exactly
// the per-CC PHY feature block of paper Tables 3/12, plus the achieved
// throughput.
type CCObservation struct {
	CellID string
	PCI    int
	Chan   spectrum.Channel
	// ChannelID is Chan.ID().
	ChannelID string
	IsPCell   bool
	Active    bool

	RSRPdBm float64
	RSRQdB  float64
	SINRdB  float64
	CQI     int
	BLER    float64
	MCS     int
	Layers  int
	RB      float64

	// TputMbps is the instantaneous downlink goodput of this CC.
	TputMbps float64
}

// Snapshot is the full per-step UE observation: all configured CCs and the
// aggregate throughput, plus the RRC events of the step. CCs is backed by
// the scheduler and only valid until its next observation.
type Snapshot struct {
	At            float64
	CCs           []CCObservation
	AggregateMbps float64
	Events        []Event
	NumActiveCCs  int
}

// Scheduler turns the CA engine's serving set into throughput, applying the
// per-CC power / MIMO / RB policies the paper dissects in §4.3:
//
//   - SCells in deep (≥3 CC) combos on FDD carriers lose PDSCH power and
//     collapse to fewer MIMO layers even though reported (SSB) RSRP and CQI
//     stay put — paper Fig 14.
//   - Once the aggregate bandwidth exceeds a budget, additional SCells are
//     RB-throttled in loaded cells — paper Fig 15.
//   - CQI staleness under mobility raises BLER.
type Scheduler struct {
	src *rng.Source
	// noise holds each carrier's processes, indexed by PCI.
	noise []*ccNoise
	// draws holds each serving CC's draws of the latest step, in serving
	// order; ccs backs the CCs of the latest snapshot.
	draws []ccDraws
	ccs   []CCObservation
	// fadeStep and shareStep are the OU step constants for the sampling
	// interval dt, computed when dt changes. Their zero value is the
	// constants for dt 0.
	dt                  float64
	fadeStep, shareStep ouStep
}

// NewScheduler creates a scheduler with the study's policy.
func NewScheduler(src *rng.Source) *Scheduler {
	return &Scheduler{src: src.Split()}
}

// The scheduler's policy.
const (
	// aggBWBudgetMHz is the aggregate bandwidth beyond which extra
	// SCells get RB-throttled under load.
	aggBWBudgetMHz = 120.0
	// schedulingEfficiency models HARQ round-trips, control gaps and
	// imperfect link adaptation (multiplies goodput).
	schedulingEfficiency = 0.86
	// caOverheadPerCC is the per-additional-CC goodput overhead of
	// splitting one UE's traffic across carriers (MAC multiplexing,
	// per-CC power sharing, transport-layer underfill). This is why the
	// aggregate throughput is less than the sum of the standalone
	// carriers (paper Fig 6 / §4.3).
	caOverheadPerCC = 0.09
	// MinRBShare is the floor of the RB share a carrier grants a UE.
	MinRBShare = 0.08
)

// BaseRBShare is the RB share a carrier at the given background load
// grants a UE before the share jitter, CA throttling and the CA overhead:
// 0.95 − 0.72·load. The scheduler and the population telemetry
// (pop.cell_rb_util) both read it.
func BaseRBShare(load float64) float64 { return 0.95 - 0.72*load }

// fadingTauS and shareTauS are the decorrelation time constants of the
// fast-fading and scheduler-share processes; shareStd is the stationary
// std-dev of the share jitter.
const (
	fadingTauS = 0.06
	shareTauS  = 3.0
	shareStd   = 0.05
)

// ccNoise is one carrier's temporally correlated fast-fading process and
// the jitter of the scheduler's RB share.
type ccNoise struct{ fading, share *rng.OU }

// ccDraws are one step's values of a serving CC's fast fading (dB) and RB
// share jitter.
type ccDraws struct{ fade, share float64 }

// noiseFor returns the PCI's processes, split from the scheduler's stream
// on the carrier's first step. Their parameters are set by ouStep.advance
// before every step.
func (s *Scheduler) noiseFor(pci int) *ccNoise {
	if pci >= len(s.noise) {
		s.noise = append(s.noise, make([]*ccNoise, pci+1-len(s.noise))...)
	}
	n := s.noise[pci]
	if n == nil {
		n = &ccNoise{fading: rng.NewOU(s.src, 0, 0, 0), share: rng.NewOU(s.src, 0, 0, 0)}
		s.noise[pci] = n
	}
	return n
}

// ouStep is the per-step discretization of an OU process with time
// constant tau sampled every dt seconds: the mean-reversion rate theta and
// the factor sqrt(theta*(2-theta)) that turns a stationary std-dev into
// the per-step noise scale.
type ouStep struct{ theta, root float64 }

func newOUStep(tauS, dt float64) ouStep {
	theta := 1 - math.Exp(-dt/tauS)
	return ouStep{theta: theta, root: math.Sqrt(theta * (2 - theta))}
}

// advance steps o with stationary std-dev std.
func (k ouStep) advance(o *rng.OU, std float64) float64 {
	o.Theta = k.theta
	o.Sigma = std * k.root
	return o.Step()
}

// fadingSigma returns the fast-fading std-dev (dB) for a mobility pattern
// and carrier: faster UEs and mmWave carriers see deeper swings.
func fadingSigma(pat mobility.Mobility, fr2 bool) float64 {
	var sigma float64
	switch pat {
	case mobility.Stationary:
		sigma = 0.9
	case mobility.Walking:
		sigma = 1.7
	default:
		sigma = 2.6
	}
	if fr2 {
		sigma += 1.5
	}
	return sigma
}

// cqiLag returns the CQI-staleness penalty (dB) for a mobility pattern.
func cqiLag(pat mobility.Mobility) float64 {
	switch pat {
	case mobility.Stationary:
		return 0
	case mobility.Walking:
		return 1.0
	default:
		return 2.2
	}
}

// ULConfig models the asymmetric uplink schedule the UL-prediction
// literature measures (Rahman et al.): operators aggregate far fewer
// carriers on the uplink, TDD frames reserve most slots for downlink, and
// the UE's transmit power budget — not the gNB's — bounds link adaptation.
// Only the grant ratio is settable; the rest of the schedule is fixed
// (ulMaxCC, ulPowerOffsetDB, ulMaxRank).
type ULConfig struct {
	// GrantRatio is the fraction of schedulable uplink opportunities the
	// cell grants this UE, the monotone UL:DL asymmetry knob: granted UL
	// RBs and UL goodput scale proportionally with it. Zero means
	// defaultGrantRatio; a negative ratio grants nothing.
	GrantRatio float64
}

const (
	// defaultGrantRatio is the study's uplink grant ratio.
	defaultGrantRatio = 0.35
	// ulMaxCC bounds the carriers aggregated on the uplink (typically 2
	// vs 4 on the downlink).
	ulMaxCC = 2
	// ulPowerOffsetDB is the effective SINR deficit of the UE's transmit
	// chain against the downlink (class-3 UE vs macro gNB).
	ulPowerOffsetDB = -6
	// ulMaxRank caps UL MIMO layers (UL-MIMO rarely exceeds 2).
	ulMaxRank = 2
)

// withDefaults resolves the grant ratio: defaultGrantRatio for zero,
// clamped to [0, 1].
func (u ULConfig) withDefaults() ULConfig {
	if u.GrantRatio == 0 {
		u.GrantRatio = defaultGrantRatio
	}
	u.GrantRatio = clamp(u.GrantRatio, 0, 1)
	return u
}

// Observe computes the per-CC observations and aggregate throughput for the
// engine's current serving set with the UE at p, for a sampling interval of
// dt seconds.
func (s *Scheduler) Observe(e *Engine, p mobility.Point, pat mobility.Mobility, indoor bool, events []Event, dt float64) Snapshot {
	return s.observe(e, p, pat, indoor, events, dt, nil)
}

// ObserveUL is Observe for the uplink: the radio measurements, fading and
// scheduler-share processes are drawn exactly as on the downlink (one rng
// sequence per campaign, whichever direction is recorded), but goodput
// follows the asymmetric UL schedule — at most ulMaxCC carriers aggregate,
// each granted GrantRatio of its schedulable UL opportunities, with link
// adaptation run at the UE-power-limited SINR.
func (s *Scheduler) ObserveUL(e *Engine, p mobility.Point, pat mobility.Mobility, indoor bool, events []Event, dt float64, ul ULConfig) Snapshot {
	u := ul.withDefaults()
	return s.observe(e, p, pat, indoor, events, dt, &u)
}

// Advance is the state phase of an observation: it creates each serving
// CC's noise processes on the CC's first step, in serving order, and steps
// its fading and RB-share processes, keeping the draws for the measurement
// phase. Observe and ObserveUL run it first. A step nobody observes runs
// it alone, and the steps after it observe what they would have after an
// observation. It reads no load and no link.
func (s *Scheduler) Advance(e *Engine, pat mobility.Mobility, dt float64) {
	s.draws = s.draws[:0]
	if len(e.serving) == 0 {
		return
	}
	if dt != s.dt {
		s.dt, s.fadeStep, s.shareStep = dt, newOUStep(fadingTauS, dt), newOUStep(shareTauS, dt)
	}
	for _, sc := range e.serving {
		noise := s.noiseFor(sc.Cell.PCI)
		s.draws = append(s.draws, ccDraws{
			fade:  s.fadeStep.advance(noise.fading, fadingSigma(pat, e.isFR2(sc.Cell))),
			share: s.shareStep.advance(noise.share, shareStd),
		})
	}
}

// ActiveCCs returns the NumActiveCCs an observation of the engine's serving
// set would report now, without measuring it: the CCs carrying data, at
// most ulMaxCC of them on the uplink.
func ActiveCCs(e *Engine, uplink bool) int {
	n := 0
	for _, sc := range e.serving {
		if sc.Active(e.now) {
			n++
		}
	}
	if uplink {
		n = min(n, ulMaxCC)
	}
	return n
}

// observe runs the state phase (Advance), then the measurement phase:
// each serving CC's radio state, link adaptation, RB share and goodput.
func (s *Scheduler) observe(e *Engine, p mobility.Point, pat mobility.Mobility, indoor bool, events []Event, dt float64, ul *ULConfig) Snapshot {
	s.Advance(e, pat, dt)
	serving := e.Serving()
	snap := Snapshot{At: e.Now(), Events: events}
	if len(serving) == 0 {
		return snap
	}
	numCCs := len(serving)
	lag := cqiLag(pat)
	snap.CCs = s.ccs[:0]
	// Aggregate bandwidth in activation order, to find throttled SCells.
	cumBW := 0.0
	ulCCs := 0
	for i, sc := range serving {
		cell := sc.Cell
		rs := e.MeasureServing(sc, p, indoor)
		fr2 := e.isFR2(cell)
		draw := s.draws[i]

		// Reported quantities come from SSB measurements: unaffected by
		// PDSCH power policy.
		reportedSINR := rs.SINRdB + draw.fade

		// Link adaptation, once for the recorded direction. Downlink:
		// PDSCH conditioning under CA (paper Fig 14): deep combos reduce
		// SCell transmit power on FDD carriers, and the rank collapses to
		// one layer whatever the SINR, while the SSB-derived RSRP/CQI stay
		// put. Uplink: the UE-power-limited SINR, at most ulMaxRank
		// layers.
		var la phy.LinkAdaptation
		if ul == nil {
			maxRank := cell.MaxRank
			if !sc.IsPCell && numCCs >= 3 && cell.Chan.Band.Duplex == spectrum.FDD {
				maxRank = 1
			}
			la = phy.Adapt(reportedSINR, maxRank, lag)
		} else {
			la = phy.Adapt(reportedSINR+ulPowerOffsetDB, min(cell.MaxRank, ulMaxRank), lag)
		}

		// RB share: background load plus CA throttling (paper Fig 15).
		load := cell.Load()
		share := BaseRBShare(load) + draw.share
		if !fr2 {
			// The FR1 bandwidth budget: once the aggregate exceeds it,
			// further SCells are deprioritized, increasingly so when
			// the cell is busy. mmWave carriers have their own radio
			// and do not count against it.
			cumBW += cell.Chan.BandwidthMHz
			if !sc.IsPCell && cumBW > aggBWBudgetMHz {
				share *= 0.55 - 0.45*load
			}
		}
		// Splitting one UE across CCs costs goodput: the PCell pays a
		// small cross-carrier coordination cost, SCells a larger one
		// (buffer splitting, per-CC HARQ). Both saturate so that adding
		// a carrier is always net-positive — operators would not enable
		// it otherwise — while the aggregate stays below the sum of the
		// standalone carriers (paper Fig 6).
		if numCCs > 1 {
			rate := caOverheadPerCC
			floor := 0.72
			if sc.IsPCell {
				rate *= 0.4
				floor = 0.88
			}
			oh := 1 - rate*float64(numCCs-1)
			if oh < floor {
				oh = floor
			}
			share *= oh
		}
		share = clamp(share, MinRBShare, 1.0)
		// Multi-UE contention: the cell's scheduler round-robins its RBs
		// across every attached UE — an equal split, the long-run
		// proportional-fair average under symmetric demand. With a single
		// attached UE (every historical run) this divides by nothing and
		// the trace is bit-identical.
		if n := cell.Attached(); n > 1 {
			share /= float64(n)
		}
		rb := share * float64(cell.NumRB)

		active := sc.Active(e.Now())
		slotFrac := 1.0
		if cell.IsTDD() {
			slotFrac = phy.TDDDownlinkFraction
		}
		if ul != nil {
			// Uplink: at most ulMaxCC active carriers aggregate (UL CA
			// is far shallower than DL CA), and the granted RBs scale
			// with the grant ratio — the monotone UL:DL asymmetry knob.
			if active {
				if ulCCs >= ulMaxCC {
					active = false
				} else {
					ulCCs++
				}
			}
			rb *= ul.GrantRatio
			if cell.IsTDD() {
				slotFrac = 1 - phy.TDDDownlinkFraction
			}
		}
		tput := 0.0
		if active {
			nRE := phy.NumRE(int(rb), phy.SymbolsPerSlot-1)
			bitsPerSlot := phy.TBS(nRE, la.MCS, la.Layers)
			slots := float64(phy.SlotsPerSecond(cell.Chan.SCSKHz)) * slotFrac
			tput = float64(bitsPerSlot) * slots * (1 - la.BLER) * schedulingEfficiency / 1e6
		}
		obs := CCObservation{
			CellID:    cell.ID(),
			PCI:       cell.PCI,
			Chan:      cell.Chan,
			ChannelID: cell.chanID,
			IsPCell:   sc.IsPCell,
			Active:    active,
			RSRPdBm:   rs.RSRPdBm,
			RSRQdB:    rs.RSRQdB,
			SINRdB:    reportedSINR,
			CQI:       la.CQI,
			BLER:      la.BLER,
			MCS:       la.MCS.Index,
			Layers:    la.Layers,
			RB:        rb,
			TputMbps:  tput,
		}
		snap.CCs = append(snap.CCs, obs)
		snap.AggregateMbps += tput
		if active {
			snap.NumActiveCCs++
		}
	}
	s.ccs = snap.CCs
	return snap
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
