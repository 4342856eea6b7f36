package phy

import "math"

// attenuationDB converts SINR to an effective link-level spectral efficiency
// using the attenuated Shannon bound common in system-level simulators:
// eff = alpha * log2(1 + SINR), capped at the top CQI efficiency.
const shannonAlpha = 0.75

// EffectiveEfficiency maps SINR (dB) to achievable bits/s/Hz.
func EffectiveEfficiency(sinrDB float64) float64 {
	lin := Pow10(sinrDB / 10)
	eff := shannonAlpha * math.Log2(1+lin)
	maxEff := CQITable256QAM[len(CQITable256QAM)-1].Efficiency
	if eff > maxEff {
		eff = maxEff
	}
	return eff
}

// CQIFromSINR returns the CQI a UE would report for the given SINR.
func CQIFromSINR(sinrDB float64) int {
	return CQIFromEfficiency(EffectiveEfficiency(sinrDB))
}

// sinrForCQITable holds SINRForCQI per CQI index (entry 0 is out of
// range), computed once from the CQI table.
var sinrForCQITable = func() (t [MaxCQI + 1]float64) {
	t[0] = -10
	for cqi := 1; cqi <= MaxCQI; cqi++ {
		eff := CQITable256QAM[cqi-1].Efficiency
		lin := math.Pow(2, eff/shannonAlpha) - 1
		t[cqi] = 10 * math.Log10(lin)
	}
	return t
}()

// SINRForCQI returns the approximate SINR (dB) at which a given CQI
// becomes reportable — the inverse of CQIFromSINR at the table boundary,
// i.e. the SINR the CQI's efficiency requires under the attenuated
// Shannon map.
func SINRForCQI(cqi int) float64 {
	if cqi <= 0 {
		return sinrForCQITable[0]
	}
	if cqi > MaxCQI {
		cqi = MaxCQI
	}
	return sinrForCQITable[cqi]
}

// BLER models the residual block-error rate after link adaptation. The
// scheduler targets 10%; when the channel is better than the MCS needs, the
// BLER falls off; when it is worse (outdated CQI under mobility), it grows.
// marginDB is actual SINR minus the SINR the chosen MCS requires.
func BLER(marginDB float64) float64 {
	// Logistic falling from ~0.5 (deep negative margin) through 0.10 at
	// zero margin toward a 0.005 floor.
	b := 0.10 * Pow10(-marginDB/8)
	if b > 0.5 {
		b = 0.5
	}
	if b < 0.005 {
		b = 0.005
	}
	return b
}

// RankFromSINR returns the number of MIMO layers rank adaptation selects
// given a SINR, clamped to maxRank. The thresholds follow typical
// rank-switching points in commercial schedulers.
func RankFromSINR(sinrDB float64, maxRank int) int {
	rank := 1
	switch {
	case sinrDB >= 23:
		rank = 4
	case sinrDB >= 16:
		rank = 3
	case sinrDB >= 8:
		rank = 2
	}
	if rank > maxRank {
		rank = maxRank
	}
	if rank < 1 {
		rank = 1
	}
	return rank
}

// MaxRankForBand returns the maximum MIMO rank a band class commonly runs:
// 4 layers on mid-band TDD (sounding-based precoding), 2 on FDD low-band
// (limited antennas at 600-900 MHz) and 2 on mmWave.
func MaxRankForBand(fGHz float64, tdd bool) int {
	switch {
	case fGHz >= 24:
		return 2
	case fGHz < 1:
		return 2
	case tdd:
		return 4
	default:
		return 4
	}
}

// LinkAdaptation is the outcome of the per-CC adaptation loop.
type LinkAdaptation struct {
	CQI    int
	MCS    MCS
	Layers int
	BLER   float64
}

// Adapt runs CQI selection, MCS selection, rank adaptation and BLER
// estimation for one CC. cqiLagDB models CQI staleness under mobility
// (positive = channel got worse since the report, raising BLER).
func Adapt(sinrDB float64, maxRank int, cqiLagDB float64) LinkAdaptation {
	cqi := CQIFromSINR(sinrDB)
	mcs := MCSFromCQI(cqi)
	layers := RankFromSINR(sinrDB, maxRank)
	margin := sinrDB - SINRForCQI(cqi) - cqiLagDB
	return LinkAdaptation{CQI: cqi, MCS: mcs, Layers: layers, BLER: BLER(margin)}
}
