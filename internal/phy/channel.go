package phy

import (
	"math"

	"prism5g/internal/rng"
)

// Propagation constants for the TR 38.901 UMa-style model.
const (
	// noiseFigureDB is the assumed UE receiver noise figure.
	noiseFigureDB = 7.0
	// thermalNoiseDBmPerHz is kTB at 290 K.
	thermalNoiseDBmPerHz = -174.0
	// shadowDecorrelationM is the shadow-fading decorrelation distance.
	shadowDecorrelationM = 37.0
)

// Carrier holds the frequency-dependent terms of one carrier's link
// budget. They cannot change while a UE moves, so a cell or link computes
// them once, at creation, and the per-step path only adds what depends on
// the distance.
type Carrier struct {
	FreqGHz float64
	SCSKHz  int
	// freqDB is the 20*log10(f) term both UMa path-loss formulas share.
	freqDB float64
	// IndoorDB is the building-entry loss at this frequency.
	IndoorDB float64
	// NoiseDBm is the thermal noise over one resource element.
	NoiseDBm float64
	// TxPerREdBm is the per-RE transmit power.
	TxPerREdBm float64
}

// NewCarrier computes the link-budget constants of a carrier at frequency
// f (GHz) with the given sub-carrier spacing.
func NewCarrier(fGHz float64, scsKHz int) Carrier {
	return Carrier{
		FreqGHz:    fGHz,
		SCSKHz:     scsKHz,
		freqDB:     20.0 * math.Log10(fGHz),
		IndoorDB:   IndoorPenetrationDB(fGHz),
		NoiseDBm:   NoiseDBm(scsKHz),
		TxPerREdBm: TxPowerPerREdBm(fGHz),
	}
}

// PathLoss returns the UMa path loss in dB at 3D distance d (meters, below
// 1 m clamped to 1 m), per TR 38.901 Table 7.4.1-1 (pre-breakpoint form).
// The LOS loss is 28 + 22*log10(d) + 20*log10(f); the NLOS loss is the
// maximum of the LOS loss and 13.54 + 39.08*log10(d) + 20*log10(f) (UE
// height 1.5 m).
func (c *Carrier) PathLoss(dM float64, los bool) float64 {
	if dM < 1 {
		dM = 1
	}
	logD := math.Log10(dM)
	pl := 28.0 + 22.0*logD + c.freqDB
	if los {
		return pl
	}
	return math.Max(pl, 13.54+39.08*logD+c.freqDB)
}

// LOSProbability returns the UMa probability that a link of 2D distance d
// (meters) is line-of-sight (TR 38.901 Table 7.4.2-1, simplified).
func LOSProbability(dM float64) float64 {
	if dM <= 18 {
		return 1
	}
	p := 18/dM + math.Exp(-dM/63)*(1-18/dM)
	if p > 1 {
		p = 1
	}
	return p
}

// IndoorPenetrationDB returns the building-entry loss in dB at frequency f
// (GHz), increasing with frequency (low band penetrates far better — the
// effect behind paper Fig 28's FDD low-band PCell indoors).
func IndoorPenetrationDB(fGHz float64) float64 {
	// O2I model between the 38.901 low- and high-loss variants: strongly
	// frequency-dependent, so low band keeps indoor coverage while
	// mid-band collapses (paper Fig 28).
	l := 15 + 8*math.Log10(fGHz) + 3*fGHz
	if l < 10 {
		l = 10
	}
	if l > 45 {
		l = 45
	}
	return l
}

// NoiseDBm returns the thermal noise power over one resource element of the
// given sub-carrier spacing, including the receiver noise figure.
func NoiseDBm(scsKHz int) float64 {
	return thermalNoiseDBmPerHz + 10*math.Log10(float64(scsKHz)*1e3) + noiseFigureDB
}

// TxPowerPerREdBm returns the modeled base-station EIRP per resource
// element for a carrier at frequency f (GHz). mmWave carriers get a
// beamforming bonus but will still lose on path loss; low-band carriers run
// hotter per RE because they carry fewer RBs.
func TxPowerPerREdBm(fGHz float64) float64 {
	switch {
	case fGHz >= 24: // mmWave with beamforming gain
		return 33
	case fGHz < 1: // low band
		return 21
	default: // mid band
		return 18
	}
}

// SiteState is the propagation state shared by every carrier radiated from
// one site toward one UE: the line-of-sight condition and the dominant
// shadow-fading process. Carriers of one site must share these — LOS and
// large-scale obstruction are properties of the site-UE geometry, not of the
// carrier frequency.
type SiteState struct {
	// LOS is the sticky line-of-sight state, re-drawn as the UE moves.
	LOS bool
	// shadow is the correlated shadow-fading process in dB.
	shadow *rng.OU
	// losSrc draws LOS transitions.
	losSrc *rng.Source
	// sinceLOSCheckM accumulates distance since the last LOS re-draw.
	sinceLOSCheckM float64
	// pendingSteps accumulates fractional shadowing-process steps so that
	// fine-grained sampling (10 ms) does not over-decorrelate shadowing.
	pendingSteps float64
}

// NewSiteState creates the shared propagation state for a site at initial
// 2D distance d0 (meters).
func NewSiteState(src *rng.Source, d0 float64) *SiteState {
	st := &SiteState{losSrc: src.Split()}
	st.LOS = st.losSrc.Bool(LOSProbability(d0))
	// Shadow sigma between the LOS (4 dB) and NLOS (6 dB) spec values.
	st.shadow = rng.NewOU(src, 0, 0.15, 5*math.Sqrt(0.15*(2-0.15)))
	return st
}

// Move advances the site state by the given travelled distance in meters,
// evolving shadow fading and occasionally re-drawing the LOS state.
func (st *SiteState) Move(distM, cellDistM float64) {
	if distM <= 0 {
		// Stationary UEs still see slow shadowing drift (people,
		// vehicles): advance a token amount.
		distM = 0.05
	}
	st.pendingSteps += distM / shadowDecorrelationM / 0.15
	for st.pendingSteps >= 1 {
		st.shadow.Step()
		st.pendingSteps--
	}
	st.sinceLOSCheckM += distM
	if st.sinceLOSCheckM > shadowDecorrelationM {
		st.sinceLOSCheckM = 0
		st.LOS = st.losSrc.Bool(LOSProbability(cellDistM))
	}
}

// Shadow returns the current shadow-fading value in dB.
func (st *SiteState) Shadow() float64 { return st.shadow.Value() }

// BandState is the per-(site, band) component of shadowing: different
// frequency bands from one site see substantially different obstruction and
// multipath, which is why the paper's inter-band RSRPs decorrelate
// (Fig 13b) while intra-band RSRPs track each other.
type BandState struct {
	dev          *rng.OU
	pendingSteps float64
}

// NewBandState creates the shared per-band deviation process.
func NewBandState(src *rng.Source) *BandState {
	return &BandState{dev: rng.NewOU(src, 0, 0.12, 4*math.Sqrt(0.12*(2-0.12)))}
}

// Move advances the band deviation by travelled distance.
func (bs *BandState) Move(distM float64) {
	if distM <= 0 {
		distM = 0.05
	}
	bs.pendingSteps += distM / shadowDecorrelationM / 0.12
	for bs.pendingSteps >= 1 {
		bs.dev.Step()
		bs.pendingSteps--
	}
}

// Value returns the current deviation in dB.
func (bs *BandState) Value() float64 { return bs.dev.Value() }

// Link models one carrier-to-UE radio link. It shares the site's LOS and
// shadowing, the band's deviation, and adds a small per-carrier deviation
// (frequency-selective large-scale effects).
type Link struct {
	Carrier
	// Site is the shared per-site propagation state.
	Site *SiteState
	// Band is the shared per-(site, band) deviation.
	Band *BandState
	// dev is the small per-carrier shadowing deviation in dB.
	dev *rng.OU
	// pendingSteps accumulates fractional deviation-process steps.
	pendingSteps float64
}

// NewLink creates a carrier link bound to its site's and band's shared
// state.
func NewLink(src *rng.Source, fGHz float64, scsKHz int, site *SiteState, band *BandState) *Link {
	return &Link{
		Carrier: NewCarrier(fGHz, scsKHz),
		Site:    site,
		Band:    band,
		dev:     rng.NewOU(src, 0, 0.1, 1.2*math.Sqrt(0.1*(2-0.1))),
	}
}

// Move advances the per-carrier deviation; the shared site state is moved
// separately (once per site per step) by the caller.
func (l *Link) Move(distM float64) {
	if distM <= 0 {
		distM = 0.05
	}
	// Deviation decorrelates on the same spatial scale as shadowing.
	l.pendingSteps += distM / shadowDecorrelationM / 0.1
	for l.pendingSteps >= 1 {
		l.dev.Step()
		l.pendingSteps--
	}
}

// RadioState is the UE-side radio measurement of one link, the per-CC PHY
// feature block of paper Table 3/12.
type RadioState struct {
	RSRPdBm float64
	RSRQdB  float64
	SINRdB  float64
}

// RSRP returns the link's reference signal received power (dBm) at 2D
// distance d (meters); indoor adds building-entry loss. It reads no
// interference, so it is Evaluate's RSRPdBm for any loadINR.
func (l *Link) RSRP(dM float64, indoor bool) float64 {
	pl := l.PathLoss(dM, l.Site.LOS)
	if indoor {
		pl += l.IndoorDB
	}
	rsrp := l.TxPerREdBm - pl + l.Site.Shadow() + l.Band.Value() + l.dev.Value()
	if rsrp > -44 {
		rsrp = -44 // RSRP report ceiling
	}
	if rsrp < -140 {
		rsrp = -140 // detection floor
	}
	return rsrp
}

// Evaluate computes the link's radio state at 2D distance d (meters).
// indoor adds building-entry loss; loadINR is the interference-to-noise
// ratio (linear) from neighbour-cell load.
func (l *Link) Evaluate(dM float64, indoor bool, loadINR float64) RadioState {
	rsrp := l.RSRP(dM, indoor)
	intfDB := 10 * math.Log10(1+loadINR)
	sinr := rsrp - l.NoiseDBm - intfDB
	if sinr > 32 {
		sinr = 32 // practical ceiling: EVM, pilot contamination
	}
	if sinr < -10 {
		sinr = -10
	}
	// RSRQ = 10log10(N) + RSRP - RSSI; with RSSI dominated by serving
	// power plus interference this reduces to roughly -10.8 dB minus the
	// interference-plus-noise excess.
	snrLin := Pow10(sinr / 10)
	rsrq := -10.8 - intfDB - 10*math.Log10(1+3/math.Max(snrLin, 0.1))/3
	if rsrq < -19.5 {
		rsrq = -19.5
	}
	if rsrq > -3 {
		rsrq = -3
	}
	return RadioState{RSRPdBm: rsrp, RSRQdB: rsrq, SINRdB: sinr}
}
