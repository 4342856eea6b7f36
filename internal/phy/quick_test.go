package phy

import (
	"testing"
	"testing/quick"
)

// Property: every TBS above the small-block table is byte-aligned after
// adding the 24-bit CRC, per the 38.214 quantizer.
func TestQuickTBSQuantization(t *testing.T) {
	f := func(reRaw uint16, mcsRaw, layersRaw uint8) bool {
		nRE := int(reRaw)%40000 + 1
		mcs := MCSTable256QAM[int(mcsRaw)%len(MCSTable256QAM)]
		layers := int(layersRaw)%4 + 1
		tbs := TBS(nRE, mcs, layers)
		if tbs < 0 {
			return false
		}
		if tbs > 3824 && (tbs+24)%8 != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CQI->MCS->efficiency never exceeds the CQI's own efficiency by
// more than the MCS-0 floor case, and CQI from any SINR is within range.
func TestQuickLinkAdaptationBounds(t *testing.T) {
	f := func(sinrRaw int16, rankRaw uint8) bool {
		sinr := float64(sinrRaw%60) - 15
		maxRank := int(rankRaw)%4 + 1
		la := Adapt(sinr, maxRank, 0)
		if la.CQI < 0 || la.CQI > MaxCQI {
			return false
		}
		if la.Layers < 1 || la.Layers > maxRank {
			return false
		}
		if la.BLER < 0.005-1e-12 || la.BLER > 0.5+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: path loss is monotone non-decreasing in distance at any
// frequency used in the study.
func TestQuickPathLossMonotone(t *testing.T) {
	f := func(d1Raw, d2Raw uint16, fRaw uint8) bool {
		d1 := float64(d1Raw%5000) + 1
		d2 := float64(d2Raw%5000) + 1
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		c := NewCarrier([]float64{0.6, 0.85, 1.9, 2.5, 3.7, 28, 39}[int(fRaw)%7], 30)
		return c.PathLoss(d1, true) <= c.PathLoss(d2, true) &&
			c.PathLoss(d1, false) <= c.PathLoss(d2, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
