// Package trace defines the measurement-trace data model shared by the
// simulator and the learning stack: per-step samples with per-CC feature
// blocks (paper Tables 3/12), traces, datasets (paper Table 11), sliding
// windows for sequence learning, min-max scaling and train/val/test splits.
package trace

import (
	"encoding/json"
	"fmt"
	"math"

	"prism5g/internal/obs"
	"prism5g/internal/rng"
)

// MaxCC is the number of component-carrier slots a sample carries. Four
// covers every FR1 combo in the study; deeper mmWave combos are folded into
// the top slots by aggregate contribution.
const MaxCC = 4

// Per-CC feature indices within CCFeatures.Vec (paper Table 12). FBWMHz and
// FFreqGHz encode the "Band Info" of Table 12 as physical quantities rather
// than a one-hot, which generalizes across channels of one band.
const (
	FActive  = iota // carrier activation mask (binary)
	FEvent          // signaling event: +1 add/activate, -1 remove, 0 none
	FBWMHz          // channel bandwidth [MHz] (band info)
	FFreqGHz        // carrier frequency [GHz] (band info)
	FRSRP           // ss-RSRP [dBm]
	FRSRQ           // ss-RSRQ [dB]
	FSINR           // SINR [dB]
	FCQI            // channel quality indicator
	FBLER           // block error rate [0..1]
	FRB             // allocated resource blocks
	FLayers         // MIMO layers
	FMCS            // modulation and coding scheme index
	FTput           // historical per-CC throughput [Mbps]
	NumCCFeatures
)

// CCFeatureNames labels the per-CC feature vector entries, index-aligned
// with the F* constants.
var CCFeatureNames = [NumCCFeatures]string{
	"active", "event", "bwMHz", "freqGHz", "ssRSRP", "ssRSRQ", "SINR", "CQI", "BLER", "#RB", "#Layer", "MCS", "HisTput",
}

// CC is one component-carrier slot of a sample.
type CC struct {
	// Present reports whether a carrier is configured in this slot.
	Present bool
	// BandName is the 3GPP band of the carrier ("n41"), empty if absent.
	BandName string
	// ChannelID is the full channel identity ("n41^a").
	ChannelID string
	// IsPCell flags the primary cell.
	IsPCell bool
	// Vec is the numeric feature vector, indexed by the F* constants.
	Vec [NumCCFeatures]float64
}

// ccJSON mirrors CC with the feature vector as nullable floats so that
// corrupted (NaN/Inf) sensor readings survive a JSON round-trip: non-finite
// values encode as null and nulls decode back to NaN. encoding/json would
// otherwise refuse to serialize a degraded trace at all. It defines the
// CC's wire form: AppendCC writes the bytes json.Marshal(ccJSON) would,
// and UnmarshalJSON decodes through it whatever WireScanner declines.
type ccJSON struct {
	Present   bool
	BandName  string
	ChannelID string
	IsPCell   bool
	Vec       [NumCCFeatures]*float64
}

// MarshalJSON implements json.Marshaler with AppendCC.
func (c CC) MarshalJSON() ([]byte, error) {
	return AppendCC(make([]byte, 0, 256), &c), nil
}

// UnmarshalJSON implements json.Unmarshaler. The canonical form goes
// through WireScanner; anything it declines decodes through ccJSON.
func (c *CC) UnmarshalJSON(b []byte) error {
	sc := NewWireScanner(b)
	var fast CC
	if sc.CC(&fast); sc.Done() {
		*c = fast
		return nil
	}
	var in ccJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	c.Present, c.BandName, c.ChannelID, c.IsPCell = in.Present, in.BandName, in.ChannelID, in.IsPCell
	for i := range in.Vec {
		if in.Vec[i] == nil {
			c.Vec[i] = math.NaN()
		} else {
			c.Vec[i] = *in.Vec[i]
		}
	}
	return nil
}

// Sample is one time step of a trace.
type Sample struct {
	// T is the timestamp in seconds from trace start.
	T float64
	// AggTput is the aggregate downlink throughput in Mbps.
	AggTput float64
	// NumActiveCCs is the number of carriers actually carrying data.
	NumActiveCCs int
	// CCs are the per-carrier feature slots.
	CCs [MaxCC]CC
}

// Trace is one continuous measurement run.
type Trace struct {
	// Meta describes the run.
	Meta Meta
	// StepS is the sample interval in seconds (0.01 or 1 in the paper).
	StepS float64
	// Samples in time order.
	Samples []Sample
}

// Direction labels which link a trace measures. The historical datasets
// are all downlink; the zero value keeps their JSON encoding (and the
// committed golden hashes) byte-identical.
const (
	// DirectionDL is the downlink (the empty string, for fixture
	// compatibility: every pre-direction trace is a downlink trace).
	DirectionDL = ""
	// DirectionUL marks an uplink trace: throughput fields carry UL
	// goodput under the asymmetric UL grant schedule.
	DirectionUL = "ul"
)

// Meta identifies the conditions of a trace / dataset (paper Table 11).
type Meta struct {
	Operator string
	Scenario string
	Mobility string
	Modem    string
	// Direction is DirectionUL for uplink traces; empty means downlink
	// (omitted from JSON so historical fixtures keep their bytes).
	Direction string `json:",omitempty"`
	// Route distinguishes different routes; Run distinguishes repeated
	// runs of one route (used by the generalizability splits).
	Route int
	Run   int
}

// String implements fmt.Stringer.
func (m Meta) String() string {
	return fmt.Sprintf("%s/%s/%s route=%d run=%d", m.Operator, m.Scenario, m.Mobility, m.Route, m.Run)
}

// Dataset is a set of traces sharing a sampling granularity.
type Dataset struct {
	Name   string
	StepS  float64
	Traces []Trace
}

// NumSamples returns the total sample count across traces.
func (d *Dataset) NumSamples() int {
	n := 0
	for _, t := range d.Traces {
		n += len(t.Samples)
	}
	return n
}

// AggSeries returns the aggregate-throughput series of trace i.
func (t *Trace) AggSeries() []float64 {
	out := make([]float64, len(t.Samples))
	for i, s := range t.Samples {
		out[i] = s.AggTput
	}
	return out
}

// Window is one supervised learning example: T history steps and H future
// steps, in *scaled* units (see Scaler).
type Window struct {
	// X is the per-CC feature tensor [MaxCC][T][NumCCFeatures].
	X [][][]float64
	// Mask is the CA activation mask [MaxCC][T] (the paper's I vector).
	Mask [][]float64
	// AggHist is the scaled aggregate throughput history [T].
	AggHist []float64
	// Y is the scaled future aggregate throughput [H] (the target).
	Y []float64
	// YPerCC is the scaled future per-CC throughput [MaxCC][H].
	YPerCC [][]float64
	// TraceIdx locates the window's source trace within its dataset.
	TraceIdx int
	// Start is the index of the first history sample in the trace.
	Start int
}

// Scaler is a min-max scaler fit on training data only; throughput targets
// and the per-CC throughput feature share one scale so predictions can be
// inverted back to Mbps.
type Scaler struct {
	// FeatMin/FeatMax per CC-feature dimension.
	FeatMin, FeatMax [NumCCFeatures]float64
	// TputMin/TputMax scale aggregate and per-CC throughput.
	TputMin, TputMax float64
	fitted           bool
}

// Fit computes scaling ranges from the samples of the given traces.
func (sc *Scaler) Fit(traces []Trace) {
	sc.BeginFit()
	for _, tr := range traces {
		sc.ObserveTrace(&tr)
	}
	sc.FinishFit()
}

// BeginFit starts an incremental fit: ObserveTrace folds traces into the
// running ranges one at a time, FinishFit applies the degenerate guards
// and marks the scaler fitted. BeginFit/ObserveTrace*/FinishFit over a
// trace stream produces exactly the ranges Fit computes on the
// materialized slice — that is how population-scale datasets fit their
// scaler in one constant-memory pass.
func (sc *Scaler) BeginFit() {
	for i := range sc.FeatMin {
		sc.FeatMin[i] = math.Inf(1)
		sc.FeatMax[i] = math.Inf(-1)
	}
	sc.TputMin, sc.TputMax = math.Inf(1), math.Inf(-1)
	sc.fitted = false
}

// ObserveTrace folds one trace's samples into the running fit ranges.
func (sc *Scaler) ObserveTrace(tr *Trace) {
	for _, s := range tr.Samples {
		// Non-finite samples (corrupted sensor reads) must not poison
		// the ranges: an Inf min/max would scale every feature to
		// 0 or NaN.
		if finite(s.AggTput) {
			if s.AggTput < sc.TputMin {
				sc.TputMin = s.AggTput
			}
			if s.AggTput > sc.TputMax {
				sc.TputMax = s.AggTput
			}
		}
		for _, cc := range s.CCs {
			if !cc.Present {
				continue
			}
			for f := 0; f < NumCCFeatures; f++ {
				v := cc.Vec[f]
				if !finite(v) {
					continue
				}
				if v < sc.FeatMin[f] {
					sc.FeatMin[f] = v
				}
				if v > sc.FeatMax[f] {
					sc.FeatMax[f] = v
				}
			}
		}
	}
}

// FinishFit applies the degenerate-range guards and marks the scaler
// fitted.
func (sc *Scaler) FinishFit() {
	if math.IsInf(sc.TputMin, 1) {
		sc.TputMin, sc.TputMax = 0, 1
	}
	if sc.TputMax <= sc.TputMin {
		sc.TputMax = sc.TputMin + 1
	}
	for f := 0; f < NumCCFeatures; f++ {
		if math.IsInf(sc.FeatMin[f], 1) {
			sc.FeatMin[f], sc.FeatMax[f] = 0, 1
		}
		if sc.FeatMax[f] <= sc.FeatMin[f] {
			sc.FeatMax[f] = sc.FeatMin[f] + 1
		}
	}
	// Per-CC throughput shares the aggregate scale.
	sc.FeatMin[FTput], sc.FeatMax[FTput] = sc.TputMin, sc.TputMax
	sc.fitted = true
}

// ScaleFeature scales one feature value to [0, 1] (clipped mildly beyond:
// the result is bounded to [-0.5, 1.5], so a serving-time input far outside
// the fitted range degrades gracefully instead of dominating the model
// input). Values within the fitted range are returned exactly as scaled;
// NaN passes through so poisoned samples stay detectable downstream.
func (sc *Scaler) ScaleFeature(f int, v float64) float64 {
	s := (v - sc.FeatMin[f]) / (sc.FeatMax[f] - sc.FeatMin[f])
	if s < -0.5 {
		return -0.5
	}
	if s > 1.5 {
		return 1.5
	}
	return s
}

// ScaleTput scales a throughput in Mbps to the unit range. It deliberately
// does NOT clip (unlike ScaleFeature): predictions are inverted back to
// Mbps via InvertTput, and clipping the target scale would silently bias
// the loss and break the ScaleTput/InvertTput round-trip that downstream
// consumers (MPC, the serving layer) rely on.
func (sc *Scaler) ScaleTput(v float64) float64 {
	return (v - sc.TputMin) / (sc.TputMax - sc.TputMin)
}

// InvertTput maps a scaled prediction back to Mbps.
func (sc *Scaler) InvertTput(v float64) float64 {
	return v*(sc.TputMax-sc.TputMin) + sc.TputMin
}

// Fitted reports whether Fit has been called.
func (sc *Scaler) Fitted() bool { return sc.fitted }

// WindowOpts configures window extraction.
type WindowOpts struct {
	// History is the input sequence length T (10 in the paper).
	History int
	// Horizon is the output sequence length H (10 in the paper).
	Horizon int
	// Stride between consecutive window starts (1 = dense).
	Stride int
}

// DefaultWindowOpts mirrors the paper: input and output length 10.
func DefaultWindowOpts() WindowOpts { return WindowOpts{History: 10, Horizon: 10, Stride: 1} }

// Per-window slab sizes: every window's float64 payload, slice headers and
// X spines are carved out of three bulk allocations instead of the
// MaxCC*(T+2)+4 small makes the naive layout needs.
func slabSizes(opts WindowOpts) (floats, rows, outers int) {
	T, H := opts.History, opts.Horizon
	floats = MaxCC*T*NumCCFeatures + MaxCC*T + T + H + MaxCC*H
	rows = MaxCC*T + 2*MaxCC
	outers = MaxCC
	return
}

// Windows extracts supervised windows from every trace of the dataset,
// scaled by sc (which must be fitted). All windows are zero-copy views
// over three preallocated backing slabs (values, slice headers, X spines),
// sized by a counting pre-pass.
func Windows(d *Dataset, sc *Scaler, opts WindowOpts) []Window {
	if !sc.Fitted() {
		panic("trace: scaler not fitted")
	}
	if opts.Stride <= 0 {
		opts.Stride = 1
	}
	span := opts.History + opts.Horizon
	total := 0
	for ti := range d.Traces {
		if n := len(d.Traces[ti].Samples); n >= span {
			total += (n-span)/opts.Stride + 1
		}
	}
	fPer, rPer, oPer := slabSizes(opts)
	floats := make([]float64, total*fPer)
	rows := make([][]float64, total*rPer)
	outers := make([][][]float64, total*oPer)
	out := make([]Window, 0, total)
	for ti := range d.Traces {
		tr := &d.Traces[ti]
		n := len(tr.Samples)
		for start := 0; start+span <= n; start += opts.Stride {
			wi := len(out)
			out = append(out, buildWindow(tr, ti, start, sc, opts,
				floats[wi*fPer:(wi+1)*fPer],
				rows[wi*rPer:(wi+1)*rPer],
				outers[wi*oPer:(wi+1)*oPer]))
		}
	}
	obs.Add("trace.windows_built", int64(len(out)))
	return out
}

// MakeWindow extracts the single window of tr whose history begins at
// sample index start, scaled by sc. Callers must ensure
// start+History+Horizon <= len(tr.Samples); the future part is only
// meaningful when it exists, but online consumers (the QoE applications)
// may pass a start whose horizon exceeds the trace, in which case the
// missing future samples are zero.
func MakeWindow(tr *Trace, ti, start int, sc *Scaler, opts WindowOpts) Window {
	fPer, rPer, oPer := slabSizes(opts)
	return buildWindow(tr, ti, start, sc, opts,
		make([]float64, fPer), make([][]float64, rPer), make([][][]float64, oPer))
}

// buildWindow fills one window from caller-provided zeroed slabs: floats
// holds every float64 value, rows every inner slice header, outers the
// per-CC X spines. Each leaf slice is capped at its own length so an
// append by a consumer can never bleed into a neighbouring window.
func buildWindow(tr *Trace, ti, start int, sc *Scaler, opts WindowOpts,
	floats []float64, rows [][]float64, outers [][][]float64) Window {
	T, H := opts.History, opts.Horizon
	F := NumCCFeatures
	xFlat := floats[:MaxCC*T*F]
	maskFlat := floats[MaxCC*T*F : MaxCC*T*F+MaxCC*T]
	off := MaxCC*T*F + MaxCC*T
	aggHist := floats[off : off+T : off+T]
	y := floats[off+T : off+T+H : off+T+H]
	ypccFlat := floats[off+T+H : off+T+H+MaxCC*H]
	xRows := rows[:MaxCC*T]
	maskRows := rows[MaxCC*T : MaxCC*T+MaxCC : MaxCC*T+MaxCC]
	ypccRows := rows[MaxCC*T+MaxCC : MaxCC*T+2*MaxCC : MaxCC*T+2*MaxCC]
	w := Window{
		X:        outers[:MaxCC:MaxCC],
		Mask:     maskRows,
		AggHist:  aggHist,
		Y:        y,
		YPerCC:   ypccRows,
		TraceIdx: ti,
		Start:    start,
	}
	for c := 0; c < MaxCC; c++ {
		w.X[c] = xRows[c*T : (c+1)*T : (c+1)*T]
		w.Mask[c] = maskFlat[c*T : (c+1)*T : (c+1)*T]
		w.YPerCC[c] = ypccFlat[c*H : (c+1)*H : (c+1)*H]
		for t := 0; t < T; t++ {
			s := &tr.Samples[start+t]
			vec := xFlat[(c*T+t)*F : (c*T+t+1)*F : (c*T+t+1)*F]
			cc := &s.CCs[c]
			if cc.Present {
				vec[FActive] = cc.Vec[FActive]
				vec[FEvent] = cc.Vec[FEvent]
				for f := FBWMHz; f < NumCCFeatures; f++ {
					vec[f] = sc.ScaleFeature(f, cc.Vec[f])
				}
			}
			w.X[c][t] = vec
			w.Mask[c][t] = vec[FActive]
		}
		for h := 0; h < H; h++ {
			if start+T+h >= len(tr.Samples) {
				break
			}
			s := &tr.Samples[start+T+h]
			if s.CCs[c].Present {
				w.YPerCC[c][h] = sc.ScaleTput(s.CCs[c].Vec[FTput])
			}
		}
	}
	for t := 0; t < T; t++ {
		aggHist[t] = sc.ScaleTput(tr.Samples[start+t].AggTput)
	}
	for h := 0; h < H; h++ {
		if start+T+h >= len(tr.Samples) {
			break
		}
		y[h] = sc.ScaleTput(tr.Samples[start+T+h].AggTput)
	}
	return w
}

// Split partitions windows into train/validation/test sets with the given
// ratios (paper: 0.5/0.2/0.3), shuffled deterministically by src. The two
// boundaries are rounded cumulatively (round-half-to-even), so each set's
// size is within one window of its exact fraction — truncating both
// fractions independently used to starve the middle (validation) set on
// small N, e.g. 9 windows at 0.5/0.2 came out 4/1/4 instead of 4/2/3.
func Split(ws []Window, trainFrac, valFrac float64, src *rng.Source) (train, val, test []Window) {
	idx := src.Perm(len(ws))
	n := float64(len(ws))
	b1 := int(math.RoundToEven(trainFrac * n))
	b2 := int(math.RoundToEven((trainFrac + valFrac) * n))
	if b1 > len(ws) {
		b1 = len(ws)
	}
	if b2 > len(ws) {
		b2 = len(ws)
	}
	if b2 < b1 {
		b2 = b1
	}
	for i, j := range idx {
		switch {
		case i < b1:
			train = append(train, ws[j])
		case i < b2:
			val = append(val, ws[j])
		default:
			test = append(test, ws[j])
		}
	}
	return train, val, test
}

// SplitByTrace partitions windows so that whole traces land in one side —
// the paper's generalizability protocol ("same route, different runs").
// Traces whose index satisfies isTest go to test.
func SplitByTrace(ws []Window, isTest func(traceIdx int) bool) (train, test []Window) {
	for _, w := range ws {
		if isTest(w.TraceIdx) {
			test = append(test, w)
		} else {
			train = append(train, w)
		}
	}
	return train, test
}
