package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"prism5g/internal/obs"
)

// ErrKind classifies validation failures. Field measurements are never
// clean — XCAL-style logs contain NaN reads, clock jitter, missing spans
// and inconsistent CA masks — so the learning stack validates ingested
// data instead of assuming it.
type ErrKind uint8

const (
	// ErrShape is structural damage: missing samples, non-positive step,
	// malformed rows.
	ErrShape ErrKind = iota
	// ErrNonFinite is a NaN or Inf numeric field.
	ErrNonFinite
	// ErrTimestamps is a non-monotonic timestamp sequence.
	ErrTimestamps
	// ErrGap is a timestamp discontinuity (a logging dropout).
	ErrGap
	// ErrCCMask is an inconsistency between NumActiveCCs and the per-slot
	// activation mask.
	ErrCCMask
	// ErrRange is a value outside its physical range (negative
	// throughput, BLER beyond [0,1], absurd CC counts).
	ErrRange
)

// String implements fmt.Stringer.
func (k ErrKind) String() string {
	switch k {
	case ErrShape:
		return "shape"
	case ErrNonFinite:
		return "non-finite"
	case ErrTimestamps:
		return "timestamps"
	case ErrGap:
		return "gap"
	case ErrCCMask:
		return "cc-mask"
	case ErrRange:
		return "range"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// ValidationError is one typed validation finding. TraceIdx and SampleIdx
// are -1 when the finding is not tied to a trace or sample.
type ValidationError struct {
	Kind      ErrKind
	TraceIdx  int
	SampleIdx int
	Field     string
	Msg       string
}

// Error implements error.
func (e *ValidationError) Error() string {
	loc := ""
	if e.TraceIdx >= 0 {
		loc = fmt.Sprintf(" trace=%d", e.TraceIdx)
	}
	if e.SampleIdx >= 0 {
		loc += fmt.Sprintf(" sample=%d", e.SampleIdx)
	}
	f := ""
	if e.Field != "" {
		f = " field=" + e.Field
	}
	return fmt.Sprintf("trace: %s%s%s: %s", e.Kind, loc, f, e.Msg)
}

// maxValidationErrors bounds a report so a fully corrupted multi-megabyte
// dataset cannot blow memory collecting findings.
const maxValidationErrors = 1000

// ValidationReport aggregates the findings of one Validate pass.
type ValidationReport struct {
	Errors []*ValidationError
	// Truncated reports that findings beyond maxValidationErrors were
	// dropped.
	Truncated bool
}

// OK reports a clean pass.
func (r *ValidationReport) OK() bool { return len(r.Errors) == 0 }

// Count returns the number of findings of one kind.
func (r *ValidationReport) Count(k ErrKind) int {
	n := 0
	for _, e := range r.Errors {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Err returns nil for a clean report, or the first finding (a typed
// *ValidationError) for a dirty one.
func (r *ValidationReport) Err() error {
	if r.OK() {
		return nil
	}
	return r.Errors[0]
}

// String summarizes findings per kind.
func (r *ValidationReport) String() string {
	if r.OK() {
		return "valid"
	}
	counts := map[ErrKind]int{}
	var order []ErrKind
	for _, e := range r.Errors {
		if counts[e.Kind] == 0 {
			order = append(order, e.Kind)
		}
		counts[e.Kind]++
	}
	var parts []string
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	if r.Truncated {
		parts = append(parts, "(truncated)")
	}
	return strings.Join(parts, " ")
}

func (r *ValidationReport) add(e *ValidationError) {
	if len(r.Errors) >= maxValidationErrors {
		r.Truncated = true
		return
	}
	r.Errors = append(r.Errors, e)
}

// DefaultGapFactor flags a timestamp delta as a gap when it exceeds this
// multiple of the nominal step.
const DefaultGapFactor = 1.5

// maxGapFill caps the samples Repair inserts into one gap, so one corrupt
// timestamp cannot balloon a trace.
const maxGapFill = 120

// MaxActiveCCs bounds NumActiveCCs wherever samples enter: the deepest
// combos in the study are 8CC mmWave (more than the MaxCC feature slots,
// which hold the top carriers); anything past 16 is corrupt data, not
// carrier aggregation.
const MaxActiveCCs = 16

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the dataset's structural and numeric integrity and
// returns every finding as a typed error: shape damage, non-finite fields,
// non-monotonic timestamps, logging gaps, CA-mask inconsistencies and
// out-of-range values. It never panics and never mutates the dataset; use
// Repair to fix what it finds.
func (d *Dataset) Validate() *ValidationReport {
	rep := &ValidationReport{}
	if d.StepS <= 0 && len(d.Traces) > 0 {
		rep.add(&ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: -1,
			Field: "StepS", Msg: fmt.Sprintf("non-positive dataset step %v", d.StepS)})
	}
	for ti := range d.Traces {
		validateTrace(&d.Traces[ti], ti, rep)
	}
	observeValidation(rep)
	return rep
}

// Validate checks one trace; see Dataset.Validate.
func (t *Trace) Validate() *ValidationReport {
	rep := &ValidationReport{}
	validateTrace(t, -1, rep)
	observeValidation(rep)
	return rep
}

// observeValidation records a finished Validate pass on the telemetry
// registry (a no-op unless a CLI enabled it).
func observeValidation(rep *ValidationReport) {
	r := obs.Default()
	if !r.Enabled() {
		return
	}
	r.Add("trace.validations", 1)
	r.Add("trace.validate_findings", int64(len(rep.Errors)))
	if !rep.OK() {
		r.Emit("trace.validate", map[string]any{
			"findings": len(rep.Errors), "summary": rep.String(),
		})
	}
}

func validateTrace(t *Trace, ti int, rep *ValidationReport) {
	if len(t.Samples) == 0 {
		rep.add(&ValidationError{Kind: ErrShape, TraceIdx: ti, SampleIdx: -1,
			Msg: "trace has no samples"})
		return
	}
	if t.StepS <= 0 {
		rep.add(&ValidationError{Kind: ErrShape, TraceIdx: ti, SampleIdx: -1,
			Field: "StepS", Msg: fmt.Sprintf("non-positive step %v", t.StepS)})
	}
	prevT := math.Inf(-1)
	for i := range t.Samples {
		s := &t.Samples[i]
		if !finite(s.T) {
			rep.add(&ValidationError{Kind: ErrNonFinite, TraceIdx: ti, SampleIdx: i,
				Field: "T", Msg: fmt.Sprintf("timestamp %v", s.T)})
		} else {
			if s.T <= prevT {
				rep.add(&ValidationError{Kind: ErrTimestamps, TraceIdx: ti, SampleIdx: i,
					Field: "T", Msg: fmt.Sprintf("timestamp %v after %v", s.T, prevT)})
			} else if t.StepS > 0 && prevT > math.Inf(-1) && s.T-prevT > DefaultGapFactor*t.StepS {
				rep.add(&ValidationError{Kind: ErrGap, TraceIdx: ti, SampleIdx: i,
					Field: "T", Msg: fmt.Sprintf("gap of %.3fs (step %.3fs)", s.T-prevT, t.StepS)})
			}
			prevT = s.T
		}
		if !finite(s.AggTput) {
			rep.add(&ValidationError{Kind: ErrNonFinite, TraceIdx: ti, SampleIdx: i,
				Field: "AggTput", Msg: fmt.Sprintf("aggregate throughput %v", s.AggTput)})
		} else if s.AggTput < 0 {
			rep.add(&ValidationError{Kind: ErrRange, TraceIdx: ti, SampleIdx: i,
				Field: "AggTput", Msg: fmt.Sprintf("negative aggregate throughput %v", s.AggTput)})
		}
		if s.NumActiveCCs < 0 || s.NumActiveCCs > MaxActiveCCs {
			rep.add(&ValidationError{Kind: ErrRange, TraceIdx: ti, SampleIdx: i,
				Field: "NumActiveCCs", Msg: fmt.Sprintf("out of range: %d", s.NumActiveCCs)})
		}
		activeSlots := 0
		for c := range s.CCs {
			cc := &s.CCs[c]
			if !cc.Present {
				continue
			}
			for f := 0; f < NumCCFeatures; f++ {
				if !finite(cc.Vec[f]) {
					rep.add(&ValidationError{Kind: ErrNonFinite, TraceIdx: ti, SampleIdx: i,
						Field: fmt.Sprintf("cc%d.%s", c, CCFeatureNames[f]),
						Msg:   fmt.Sprintf("value %v", cc.Vec[f])})
				}
			}
			if a := cc.Vec[FActive]; finite(a) && a != 0 && a != 1 {
				rep.add(&ValidationError{Kind: ErrRange, TraceIdx: ti, SampleIdx: i,
					Field: fmt.Sprintf("cc%d.active", c), Msg: fmt.Sprintf("mask value %v not in {0,1}", a)})
			}
			if b := cc.Vec[FBLER]; finite(b) && (b < 0 || b > 1) {
				rep.add(&ValidationError{Kind: ErrRange, TraceIdx: ti, SampleIdx: i,
					Field: fmt.Sprintf("cc%d.BLER", c), Msg: fmt.Sprintf("BLER %v outside [0,1]", b)})
			}
			if tp := cc.Vec[FTput]; finite(tp) && tp < 0 {
				rep.add(&ValidationError{Kind: ErrRange, TraceIdx: ti, SampleIdx: i,
					Field: fmt.Sprintf("cc%d.HisTput", c), Msg: fmt.Sprintf("negative throughput %v", tp)})
			}
			if cc.Vec[FActive] == 1 {
				activeSlots++
			}
		}
		// NumActiveCCs may exceed the slot count (combos deeper than
		// MaxCC fold into the aggregate) but never undercut it.
		if s.NumActiveCCs >= 0 && s.NumActiveCCs < activeSlots {
			rep.add(&ValidationError{Kind: ErrCCMask, TraceIdx: ti, SampleIdx: i,
				Field: "NumActiveCCs",
				Msg:   fmt.Sprintf("%d active CCs reported but %d slots active", s.NumActiveCCs, activeSlots)})
		}
	}
}

// RepairReport counts what Repair changed.
type RepairReport struct {
	// NonFinite is the count of NaN/Inf fields imputed.
	NonFinite int
	// Timestamps is the count of samples re-ordered or de-duplicated.
	Timestamps int
	// Masks is the count of NumActiveCCs fixes.
	Masks int
	// Ranges is the count of clamped out-of-range values.
	Ranges int
	// GapsFilled / Inserted count refilled dropouts and the samples
	// inserted into them.
	GapsFilled int
	Inserted   int
	// Dropped is the count of irreparable samples removed (non-finite
	// timestamps).
	Dropped int
}

// Total returns the number of individual fixes applied.
func (r RepairReport) Total() int {
	return r.NonFinite + r.Timestamps + r.Masks + r.Ranges + r.GapsFilled + r.Inserted + r.Dropped
}

// Add accumulates another report.
func (r *RepairReport) Add(o RepairReport) {
	r.NonFinite += o.NonFinite
	r.Timestamps += o.Timestamps
	r.Masks += o.Masks
	r.Ranges += o.Ranges
	r.GapsFilled += o.GapsFilled
	r.Inserted += o.Inserted
	r.Dropped += o.Dropped
}

// String implements fmt.Stringer.
func (r RepairReport) String() string {
	if r.Total() == 0 {
		return "clean"
	}
	var parts []string
	add := func(n int, label string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, n))
		}
	}
	add(r.NonFinite, "non-finite")
	add(r.Timestamps, "timestamps")
	add(r.Masks, "masks")
	add(r.Ranges, "ranges")
	add(r.GapsFilled, "gaps")
	add(r.Inserted, "inserted")
	add(r.Dropped, "dropped")
	return strings.Join(parts, " ")
}

// Repair fixes what Validate finds, in place: drops samples with
// non-finite timestamps, restores timestamp monotonicity, imputes
// non-finite fields, clamps out-of-range values, reconciles the CA mask and
// refills logging gaps of up to maxGapFill samples. Imputation holds the
// last valid value, the XCAL practice for missing diagnostics rows. Clean
// data passes through untouched, so repairing is safe to do
// unconditionally on ingest.
func (d *Dataset) Repair() RepairReport {
	var rep RepairReport
	for ti := range d.Traces {
		rep.Add(d.Traces[ti].Repair())
	}
	return rep
}

// Repair fixes one trace; see Dataset.Repair.
func (t *Trace) Repair() RepairReport {
	var rep RepairReport
	if len(t.Samples) == 0 {
		return rep
	}
	t.dropBadTimestamps(&rep)
	t.fixTimestampOrder(&rep)
	t.fixValues(&rep)
	t.fillGaps(&rep)
	observeRepair(rep)
	return rep
}

// observeRepair records one Trace.Repair pass: per-action counters (what
// the ingest pipeline actually fixed) and a journal event for dirty
// traces. Dataset.Repair aggregates through here, once per trace.
func observeRepair(rep RepairReport) {
	r := obs.Default()
	if !r.Enabled() {
		return
	}
	r.Add("trace.repairs", 1)
	r.Add("trace.repair_actions", int64(rep.Total()))
	r.Add("trace.imputed_fields", int64(rep.NonFinite))
	r.Add("trace.repair_timestamps", int64(rep.Timestamps))
	r.Add("trace.repair_masks", int64(rep.Masks))
	r.Add("trace.repair_ranges", int64(rep.Ranges))
	r.Add("trace.gaps_filled", int64(rep.GapsFilled))
	r.Add("trace.gap_samples_inserted", int64(rep.Inserted))
	r.Add("trace.samples_dropped", int64(rep.Dropped))
	if rep.Total() > 0 {
		r.Emit("trace.repair", map[string]any{
			"actions": rep.Total(), "summary": rep.String(),
		})
	}
}

func (t *Trace) dropBadTimestamps(rep *RepairReport) {
	kept := t.Samples[:0]
	for _, s := range t.Samples {
		if finite(s.T) {
			kept = append(kept, s)
		} else {
			rep.Dropped++
		}
	}
	t.Samples = kept
}

func (t *Trace) fixTimestampOrder(rep *RepairReport) {
	mono := true
	for i := 1; i < len(t.Samples); i++ {
		if t.Samples[i].T <= t.Samples[i-1].T {
			mono = false
			break
		}
	}
	if mono {
		return
	}
	sort.SliceStable(t.Samples, func(i, j int) bool {
		return t.Samples[i].T < t.Samples[j].T
	})
	rep.Timestamps++
	// Separate exact duplicates so downstream deltas stay positive.
	eps := t.StepS * 1e-3
	if eps <= 0 {
		eps = 1e-6
	}
	for i := 1; i < len(t.Samples); i++ {
		if t.Samples[i].T <= t.Samples[i-1].T {
			t.Samples[i].T = t.Samples[i-1].T + eps
			rep.Timestamps++
		}
	}
}

// fixValues repairs per-sample numeric damage: non-finite fields are
// imputed, out-of-range values clamped and the CA mask reconciled.
func (t *Trace) fixValues(rep *RepairReport) {
	for i := range t.Samples {
		s := &t.Samples[i]
		if !finite(s.AggTput) {
			s.AggTput = t.imputeAgg(i)
			rep.NonFinite++
		}
		if s.AggTput < 0 {
			s.AggTput = 0
			rep.Ranges++
		}
		if s.NumActiveCCs < 0 {
			s.NumActiveCCs = 0
			rep.Masks++
		} else if s.NumActiveCCs > MaxActiveCCs {
			s.NumActiveCCs = MaxActiveCCs
			rep.Ranges++
		}
		activeSlots := 0
		for c := range s.CCs {
			cc := &s.CCs[c]
			if !cc.Present {
				continue
			}
			for f := 0; f < NumCCFeatures; f++ {
				if finite(cc.Vec[f]) {
					continue
				}
				cc.Vec[f] = t.imputeField(i, c, f)
				rep.NonFinite++
			}
			if a := cc.Vec[FActive]; a != 0 && a != 1 {
				if a > 0.5 {
					cc.Vec[FActive] = 1
				} else {
					cc.Vec[FActive] = 0
				}
				rep.Ranges++
			}
			if cc.Vec[FBLER] < 0 {
				cc.Vec[FBLER] = 0
				rep.Ranges++
			} else if cc.Vec[FBLER] > 1 {
				cc.Vec[FBLER] = 1
				rep.Ranges++
			}
			if cc.Vec[FTput] < 0 {
				cc.Vec[FTput] = 0
				rep.Ranges++
			}
			if cc.Vec[FActive] == 1 {
				activeSlots++
			}
		}
		if s.NumActiveCCs < activeSlots {
			s.NumActiveCCs = activeSlots
			rep.Masks++
		}
	}
}

// imputeAgg holds the last finite aggregate throughput before sample i,
// or 0 when there is none.
func (t *Trace) imputeAgg(i int) float64 {
	for j := i - 1; j >= 0; j-- {
		if v := t.Samples[j].AggTput; finite(v) {
			return v
		}
	}
	return 0
}

// imputeField holds the last finite value of field f in slot c before
// sample i, within the same configured carrier, or 0 when there is none.
func (t *Trace) imputeField(i, c, f int) float64 {
	for j := i - 1; j >= 0; j-- {
		cc := &t.Samples[j].CCs[c]
		if !cc.Present {
			return 0
		}
		if finite(cc.Vec[f]) {
			return cc.Vec[f]
		}
	}
	return 0
}

// fillGaps re-inserts samples into logging dropouts so windowing sees a
// contiguous series again.
func (t *Trace) fillGaps(rep *RepairReport) {
	if t.StepS <= 0 || len(t.Samples) < 2 {
		return
	}
	var out []Sample
	for i := 0; i < len(t.Samples); i++ {
		if i == 0 {
			out = append(out, t.Samples[0])
			continue
		}
		left := &t.Samples[i-1]
		right := &t.Samples[i]
		dt := right.T - left.T
		if dt > DefaultGapFactor*t.StepS {
			missing := int(math.Round(dt/t.StepS)) - 1
			if missing < 1 {
				missing = 1
			}
			n := missing
			if n > maxGapFill {
				n = maxGapFill
			}
			for k := 1; k <= n; k++ {
				frac := float64(k) / float64(missing+1)
				out = append(out, imputedSample(left, right, frac))
				rep.Inserted++
			}
			rep.GapsFilled++
		}
		out = append(out, *right)
	}
	t.Samples = out
}

// imputedSample synthesizes one gap-filling sample at fractional position
// frac between left and right: left's values held, no signaling events.
func imputedSample(left, right *Sample, frac float64) Sample {
	s := *left // copy, including CC slots
	s.T = left.T + frac*(right.T-left.T)
	for c := range s.CCs {
		if s.CCs[c].Present {
			s.CCs[c].Vec[FEvent] = 0
		}
	}
	return s
}

// ValidateAndRepair validates, then repairs a dataset that needs it: the
// returned ValidationReport describes the data as ingested, the
// RepairReport what was fixed. A gap wider than maxGapFill samples is
// only partly refilled, so Validate may still report it.
func (d *Dataset) ValidateAndRepair() (*ValidationReport, RepairReport) {
	vrep := d.Validate()
	if vrep.OK() {
		return vrep, RepairReport{}
	}
	return vrep, d.Repair()
}
