// Package faults is the deterministic fault-injection layer of the
// measurement substrate. Real campaigns — the paper's drive tests over
// commercial networks — are never clean: radio link failures tear the whole
// CA set down until RRC re-establishment completes, SCell activations and
// PCell switches (handovers) fail, the XCAL logger drops spans of samples,
// sensor fields stick or read back NaN, and log timestamps jitter. The
// simulator in internal/sim produces idealized traces; this package
// degrades them the way the field degrades real ones, so the learning
// stack can be trained and evaluated against the conditions it will meet
// in production.
//
// A FaultPlan composes independent injectors. Every injector draws from
// its own rng stream derived from (seed ^ injector-salt), so toggling one
// fault type never perturbs the draws of another, and the same
// (plan, seed) pair always produces byte-identical degraded traces.
// Injectors run in a fixed order: connection-level faults first (RLF,
// PCell-switch failure, SCell-activation failure), then sensor-level
// corruption (stuck fields, NaN fields), then logger-level damage
// (timestamp jitter, dropouts). Dropouts run last because they delete
// samples and would otherwise shift the time base under the other
// injectors.
package faults

import (
	"fmt"
	"math"
	"strings"

	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// Per-injector rng salts: each injector owns a private stream so fault
// types are independently toggleable without changing each other's draws.
const (
	saltRLF    = 0x52_4c_46 // "RLF"
	saltPCell  = 0x50_43_46 // "PCF"
	saltSCell  = 0x53_43_46 // "SCF"
	saltStuck  = 0x53_54_4b // "STK"
	saltNaN    = 0x4e_41_4e // "NAN"
	saltJitter = 0x4a_49_54 // "JIT"
	saltDrop   = 0x44_52_50 // "DRP"
)

// RLFFault models radio link failures: the connection drops entirely and
// the UE spends an RRC re-establishment outage with zero throughput and no
// active carriers before service resumes.
type RLFFault struct {
	// RatePerMin is the Poisson arrival rate of failures (0 disables).
	RatePerMin float64
	// OutageS is the re-establishment outage duration in seconds.
	OutageS float64
}

// PCellSwitchFault makes a fraction of PCell switches (handovers) fail,
// each causing a short re-establishment outage — the paper's handover
// failure mode.
type PCellSwitchFault struct {
	// FailProb is the per-switch failure probability (0 disables).
	FailProb float64
	// OutageS is the outage duration after a failed switch.
	OutageS float64
}

// SCellActivationFault makes a fraction of SCell activations fail: the
// carrier is signaled but never carries data for a hold period, and its
// contribution is removed from the aggregate.
type SCellActivationFault struct {
	// FailProb is the per-activation failure probability (0 disables).
	FailProb float64
	// HoldS is how long the failed carrier stays dark.
	HoldS float64
}

// StuckSensorFault freezes a measurement field at its last value for a
// stretch of samples — a stuck chipset-diagnostics register.
type StuckSensorFault struct {
	// RatePerMin is the Poisson arrival rate of stuck episodes per trace.
	RatePerMin float64
	// DurationS is how long a field stays stuck.
	DurationS float64
}

// NaNFieldFault corrupts individual sensor readings to NaN — failed
// diagnostic reads that real XCAL logs contain.
type NaNFieldFault struct {
	// Prob is the per-sample probability that one radio field of one
	// present carrier reads back NaN (0 disables).
	Prob float64
}

// TimeJitterFault perturbs log timestamps with Gaussian noise, modeling
// logger scheduling jitter. Large sigmas can locally break monotonicity,
// which the trace validation layer detects and repairs.
type TimeJitterFault struct {
	// SigmaS is the jitter standard deviation in seconds (0 disables).
	SigmaS float64
}

// DropoutFault deletes spans of samples — XCAL-style logging gaps. The
// resulting trace has timestamp discontinuities that trace.FindGaps
// detects and the imputation policies can refill.
type DropoutFault struct {
	// RatePerMin is the Poisson arrival rate of gaps (0 disables).
	RatePerMin float64
	// MinS and MaxS bound the (uniform) gap length in seconds.
	MinS, MaxS float64
}

// FaultPlan composes the injectors. The zero value injects nothing.
type FaultPlan struct {
	RLF         RLFFault
	PCellSwitch PCellSwitchFault
	SCellAct    SCellActivationFault
	Stuck       StuckSensorFault
	NaN         NaNFieldFault
	Jitter      TimeJitterFault
	Dropout     DropoutFault
}

// Enabled reports whether any injector is active.
func (p *FaultPlan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.RLF.RatePerMin > 0 || p.PCellSwitch.FailProb > 0 ||
		p.SCellAct.FailProb > 0 || p.Stuck.RatePerMin > 0 ||
		p.NaN.Prob > 0 || p.Jitter.SigmaS > 0 || p.Dropout.RatePerMin > 0
}

// Report counts what a plan injected into one trace or dataset.
type Report struct {
	RLFs             int
	PCellSwitchFails int
	SCellActFails    int
	StuckEpisodes    int
	NaNFields        int
	JitteredSamples  int
	Gaps             int
	DroppedSamples   int
}

// Add accumulates another report (used when applying to a dataset).
func (r *Report) Add(o Report) {
	r.RLFs += o.RLFs
	r.PCellSwitchFails += o.PCellSwitchFails
	r.SCellActFails += o.SCellActFails
	r.StuckEpisodes += o.StuckEpisodes
	r.NaNFields += o.NaNFields
	r.JitteredSamples += o.JitteredSamples
	r.Gaps += o.Gaps
	r.DroppedSamples += o.DroppedSamples
}

// Total returns the number of injected fault events (not corrupted
// samples: an RLF spanning 40 samples counts once).
func (r Report) Total() int {
	return r.RLFs + r.PCellSwitchFails + r.SCellActFails +
		r.StuckEpisodes + r.NaNFields + r.Gaps
}

// String implements fmt.Stringer.
func (r Report) String() string {
	var parts []string
	add := func(n int, label string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, n))
		}
	}
	add(r.RLFs, "rlf")
	add(r.PCellSwitchFails, "pcell-fail")
	add(r.SCellActFails, "scell-fail")
	add(r.StuckEpisodes, "stuck")
	add(r.NaNFields, "nan")
	add(r.JitteredSamples, "jitter")
	add(r.Gaps, "gaps")
	add(r.DroppedSamples, "dropped")
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, " ")
}

// PlanAtSeverity maps a severity in [0, 1] to a full-spectrum plan: 0 is
// clean, 1 is a heavily degraded campaign (multiple RLFs per minute, most
// handovers and activations failing, pervasive sensor corruption and log
// gaps). Intermediate severities interpolate linearly, which gives the
// robustness sweep a single-knob x-axis.
func PlanAtSeverity(s float64) FaultPlan {
	if s <= 0 {
		return FaultPlan{}
	}
	if s > 1 {
		s = 1
	}
	return FaultPlan{
		RLF:         RLFFault{RatePerMin: 2 * s, OutageS: 0.5 + 1.5*s},
		PCellSwitch: PCellSwitchFault{FailProb: 0.5 * s, OutageS: 0.3 + 0.7*s},
		SCellAct:    SCellActivationFault{FailProb: 0.6 * s, HoldS: 1 + 2*s},
		Stuck:       StuckSensorFault{RatePerMin: 3 * s, DurationS: 1 + 2*s},
		NaN:         NaNFieldFault{Prob: 0.05 * s},
		Jitter:      TimeJitterFault{SigmaS: 0.1 * s},
		Dropout:     DropoutFault{RatePerMin: 2 * s, MinS: 0.2, MaxS: 0.2 + 1.8*s},
	}
}

// Apply degrades one trace in place, deterministically from seed, and
// reports what was injected. Passing the same (plan, seed, trace) always
// yields byte-identical output.
func (p *FaultPlan) Apply(tr *trace.Trace, seed uint64) Report {
	var rep Report
	if p == nil || !p.Enabled() || len(tr.Samples) == 0 {
		return rep
	}
	p.applyRLF(tr, seed, &rep)
	p.applyPCellSwitch(tr, seed, &rep)
	p.applySCellAct(tr, seed, &rep)
	p.applyStuck(tr, seed, &rep)
	p.applyNaN(tr, seed, &rep)
	p.applyJitter(tr, seed, &rep)
	p.applyDropout(tr, seed, &rep)
	return rep
}

// outage zeroes the connection over samples [from, to): no throughput, no
// active carriers, SCell slots released, a -1 signaling mark at onset.
// This is what an RRC re-establishment window looks like in a trace.
func outage(tr *trace.Trace, from, to int) {
	for i := from; i < to && i < len(tr.Samples); i++ {
		s := &tr.Samples[i]
		s.AggTput = 0
		s.NumActiveCCs = 0
		for c := range s.CCs {
			cc := &s.CCs[c]
			if !cc.Present {
				continue
			}
			if !cc.IsPCell {
				// SCells are released on connection loss.
				*cc = trace.CC{}
				continue
			}
			cc.Vec[trace.FActive] = 0
			cc.Vec[trace.FTput] = 0
			cc.Vec[trace.FRB] = 0
			cc.Vec[trace.FMCS] = 0
			cc.Vec[trace.FLayers] = 0
			cc.Vec[trace.FCQI] = 0
			if i == from {
				cc.Vec[trace.FEvent] = -1
			} else {
				cc.Vec[trace.FEvent] = 0
			}
		}
	}
}

// poissonArrivals returns the sample indices of Poisson arrivals at
// ratePerMin over the trace, using src.
func poissonArrivals(tr *trace.Trace, ratePerMin float64, src *rng.Source) []int {
	if ratePerMin <= 0 || tr.StepS <= 0 {
		return nil
	}
	var out []int
	ratePerSec := ratePerMin / 60
	t := src.Exp(ratePerSec)
	horizon := float64(len(tr.Samples)) * tr.StepS
	for t < horizon {
		out = append(out, int(t/tr.StepS))
		t += src.Exp(ratePerSec)
	}
	return out
}

func (p *FaultPlan) applyRLF(tr *trace.Trace, seed uint64, rep *Report) {
	if p.RLF.RatePerMin <= 0 {
		return
	}
	src := rng.New(seed ^ saltRLF)
	span := int(math.Ceil(p.RLF.OutageS / tr.StepS))
	if span < 1 {
		span = 1
	}
	for _, at := range poissonArrivals(tr, p.RLF.RatePerMin, src) {
		if at >= len(tr.Samples) {
			continue
		}
		outage(tr, at, at+span)
		rep.RLFs++
	}
}

func (p *FaultPlan) applyPCellSwitch(tr *trace.Trace, seed uint64, rep *Report) {
	if p.PCellSwitch.FailProb <= 0 {
		return
	}
	src := rng.New(seed ^ saltPCell)
	span := int(math.Ceil(p.PCellSwitch.OutageS / tr.StepS))
	if span < 1 {
		span = 1
	}
	prev := pcellID(&tr.Samples[0])
	for i := 1; i < len(tr.Samples); i++ {
		cur := pcellID(&tr.Samples[i])
		switched := cur != "" && prev != "" && cur != prev
		if cur != "" {
			prev = cur
		}
		if !switched || !src.Bool(p.PCellSwitch.FailProb) {
			continue
		}
		outage(tr, i, i+span)
		rep.PCellSwitchFails++
		i += span // one failure per outage window
		if i < len(tr.Samples) {
			prev = pcellID(&tr.Samples[i])
		}
	}
}

func pcellID(s *trace.Sample) string {
	for c := range s.CCs {
		if s.CCs[c].Present && s.CCs[c].IsPCell {
			return s.CCs[c].ChannelID
		}
	}
	return ""
}

func (p *FaultPlan) applySCellAct(tr *trace.Trace, seed uint64, rep *Report) {
	if p.SCellAct.FailProb <= 0 {
		return
	}
	src := rng.New(seed ^ saltSCell)
	span := int(math.Ceil(p.SCellAct.HoldS / tr.StepS))
	if span < 1 {
		span = 1
	}
	// suppressedUntil[c] > i means slot c is currently held dark.
	var suppressedUntil [trace.MaxCC]int
	for i := 0; i < len(tr.Samples); i++ {
		s := &tr.Samples[i]
		for c := range s.CCs {
			cc := &s.CCs[c]
			if !cc.Present || cc.IsPCell {
				continue
			}
			if i < suppressedUntil[c] {
				darkenSCell(s, c)
				continue
			}
			// An activation is the first active sample of a slot that was
			// inactive (or absent) in the previous sample.
			if cc.Vec[trace.FActive] != 1 {
				continue
			}
			wasActive := i > 0 &&
				tr.Samples[i-1].CCs[c].Present &&
				tr.Samples[i-1].CCs[c].Vec[trace.FActive] == 1
			if wasActive {
				continue
			}
			if !src.Bool(p.SCellAct.FailProb) {
				continue
			}
			suppressedUntil[c] = i + span
			darkenSCell(s, c)
			rep.SCellActFails++
		}
	}
}

// darkenSCell removes slot c's data contribution from sample s: the
// carrier stays configured (Present) but never activates.
func darkenSCell(s *trace.Sample, c int) {
	cc := &s.CCs[c]
	if !cc.Present {
		return
	}
	if cc.Vec[trace.FActive] == 1 {
		s.AggTput -= cc.Vec[trace.FTput]
		if s.AggTput < 0 {
			s.AggTput = 0
		}
		if s.NumActiveCCs > 0 {
			s.NumActiveCCs--
		}
	}
	cc.Vec[trace.FActive] = 0
	cc.Vec[trace.FTput] = 0
	cc.Vec[trace.FRB] = 0
	cc.Vec[trace.FEvent] = -1
}

// stuckable lists the radio-measurement fields a stuck register affects.
var stuckable = []int{trace.FRSRP, trace.FRSRQ, trace.FSINR, trace.FCQI}

func (p *FaultPlan) applyStuck(tr *trace.Trace, seed uint64, rep *Report) {
	if p.Stuck.RatePerMin <= 0 {
		return
	}
	src := rng.New(seed ^ saltStuck)
	span := int(math.Ceil(p.Stuck.DurationS / tr.StepS))
	if span < 1 {
		span = 1
	}
	for _, at := range poissonArrivals(tr, p.Stuck.RatePerMin, src) {
		if at >= len(tr.Samples) {
			continue
		}
		slot := src.Intn(trace.MaxCC)
		field := stuckable[src.Intn(len(stuckable))]
		if !tr.Samples[at].CCs[slot].Present {
			continue
		}
		frozen := tr.Samples[at].CCs[slot].Vec[field]
		for i := at; i < at+span && i < len(tr.Samples); i++ {
			if tr.Samples[i].CCs[slot].Present {
				tr.Samples[i].CCs[slot].Vec[field] = frozen
			}
		}
		rep.StuckEpisodes++
	}
}

// nanable lists the fields a failed diagnostic read can corrupt.
var nanable = []int{
	trace.FRSRP, trace.FRSRQ, trace.FSINR, trace.FCQI,
	trace.FBLER, trace.FRB, trace.FMCS, trace.FTput,
}

func (p *FaultPlan) applyNaN(tr *trace.Trace, seed uint64, rep *Report) {
	if p.NaN.Prob <= 0 {
		return
	}
	src := rng.New(seed ^ saltNaN)
	for i := range tr.Samples {
		if !src.Bool(p.NaN.Prob) {
			continue
		}
		s := &tr.Samples[i]
		var present []int
		for c := range s.CCs {
			if s.CCs[c].Present {
				present = append(present, c)
			}
		}
		if len(present) == 0 {
			continue
		}
		slot := present[src.Intn(len(present))]
		field := nanable[src.Intn(len(nanable))]
		s.CCs[slot].Vec[field] = math.NaN()
		rep.NaNFields++
	}
}

func (p *FaultPlan) applyJitter(tr *trace.Trace, seed uint64, rep *Report) {
	if p.Jitter.SigmaS <= 0 {
		return
	}
	src := rng.New(seed ^ saltJitter)
	for i := range tr.Samples {
		d := src.NormMS(0, p.Jitter.SigmaS)
		if d == 0 {
			continue
		}
		tr.Samples[i].T += d
		rep.JitteredSamples++
	}
}

func (p *FaultPlan) applyDropout(tr *trace.Trace, seed uint64, rep *Report) {
	if p.Dropout.RatePerMin <= 0 {
		return
	}
	src := rng.New(seed ^ saltDrop)
	minS, maxS := p.Dropout.MinS, p.Dropout.MaxS
	if minS <= 0 {
		minS = tr.StepS
	}
	if maxS < minS {
		maxS = minS
	}
	drop := make([]bool, len(tr.Samples))
	for _, at := range poissonArrivals(tr, p.Dropout.RatePerMin, src) {
		gapS := src.Range(minS, maxS)
		span := int(math.Ceil(gapS / tr.StepS))
		if span < 1 {
			span = 1
		}
		if at >= len(tr.Samples) {
			continue
		}
		// Never drop the very first sample: a trace keeps its origin.
		if at == 0 {
			at = 1
		}
		marked := false
		for i := at; i < at+span && i < len(tr.Samples); i++ {
			if !drop[i] {
				drop[i] = true
				rep.DroppedSamples++
				marked = true
			}
		}
		if marked {
			rep.Gaps++
		}
	}
	if rep.DroppedSamples == 0 {
		return
	}
	kept := tr.Samples[:0]
	for i, s := range tr.Samples {
		if !drop[i] {
			kept = append(kept, s)
		}
	}
	tr.Samples = kept
}
