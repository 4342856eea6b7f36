// Package trace defines the measurement-trace data model shared by the
// simulator and the learning stack: per-step samples with per-CC feature
// blocks (paper Tables 3/12), traces, datasets (paper Table 11), sliding
// windows for sequence learning, min-max scaling and train/val/test splits.
package trace

import (
	"encoding/json"
	"fmt"
	"math"

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

// Window is one supervised learning example: History steps of per-CC
// features and aggregate throughput, then Horizon steps of future aggregate
// and per-CC throughput, in *scaled* units (see Scaler). It is a read-only
// view into one scaled copy of its trace, shared by every window over that
// trace; each accessor returns a slice of that copy capped at its own
// length, so an append never writes into another window.
type Window struct {
	// TraceIdx locates the window's source trace within its dataset.
	TraceIdx int
	// Start is the index of the first history sample in the trace.
	Start int

	s   *scaled
	off int // index of the first history sample within s
}

// Feat returns carrier c's scaled feature row at history step t,
// NumCCFeatures values indexed by the F* constants (all zero when the
// carrier is absent). FActive is the CA activation mask.
func (w Window) Feat(c, t int) []float64 {
	if uint(c) >= MaxCC || uint(t) >= uint(w.s.hist) {
		panic("trace: window feature index out of range")
	}
	i := ((w.off+t)*MaxCC + c) * NumCCFeatures
	return w.s.feat[i : i+NumCCFeatures : i+NumCCFeatures]
}

// AggHist returns the scaled aggregate throughput history [History].
func (w Window) AggHist() []float64 {
	return w.s.agg[w.off : w.off+w.s.hist : w.off+w.s.hist]
}

// Y returns the scaled future aggregate throughput [Horizon], the target.
func (w Window) Y() []float64 {
	i := w.off + w.s.hist
	return w.s.agg[i : i+w.s.horizon : i+w.s.horizon]
}

// YPerCC returns carrier c's scaled future throughput [Horizon] (zero
// where the carrier is absent).
func (w Window) YPerCC(c int) []float64 {
	i := c*len(w.s.agg) + w.off + w.s.hist
	return w.s.perCC[i : i+w.s.horizon : i+w.s.horizon]
}

// NewWindow returns a zeroed window of history and horizon steps over
// storage of its own, for callers that build examples by hand: unlike the
// windows Windows and MakeWindow produce, its accessors' slices are the
// caller's to fill.
func NewWindow(history, horizon int) Window {
	return Window{s: scale(&Trace{}, 0, history+horizon, nil, WindowOpts{History: history, Horizon: horizon})}
}

// scaled is consecutive samples of a trace, each scaled once for windows
// of hist history and horizon future steps. agg holds every sample's
// aggregate throughput; perCC every sample's per-CC throughput, carrier by
// carrier, so one carrier's future targets are contiguous; feat the
// feature rows of all but the last horizon samples (the only ones a
// history covers), sample by sample with one sample's carriers adjacent.
type scaled struct {
	hist, horizon    int
	feat, agg, perCC []float64
}

// scale copies samples lo..lo+n-1 of tr into a new scaled copy: each
// present carrier's FActive and FEvent as they are, its other features
// through ScaleFeature, and every throughput through ScaleTput. Absent
// carriers and samples past the trace's end stay zero.
func scale(tr *Trace, lo, n int, sc *Scaler, opts WindowOpts) *scaled {
	rows := n - opts.Horizon
	m := rows * MaxCC * NumCCFeatures
	buf := make([]float64, m+n+MaxCC*n)
	s := &scaled{hist: opts.History, horizon: opts.Horizon,
		feat: buf[:m:m], agg: buf[m : m+n : m+n], perCC: buf[m+n:]}
	for i := 0; i < n && lo+i < len(tr.Samples); i++ {
		smp := &tr.Samples[lo+i]
		s.agg[i] = sc.ScaleTput(smp.AggTput)
		for c := range smp.CCs {
			cc := &smp.CCs[c]
			if !cc.Present {
				continue
			}
			s.perCC[c*n+i] = sc.ScaleTput(cc.Vec[FTput])
			if i >= rows {
				continue
			}
			row := s.feat[(i*MaxCC+c)*NumCCFeatures : (i*MaxCC+c+1)*NumCCFeatures]
			row[FActive] = cc.Vec[FActive]
			row[FEvent] = cc.Vec[FEvent]
			for f := FBWMHz; f < NumCCFeatures; f++ {
				row[f] = sc.ScaleFeature(f, cc.Vec[f])
			}
		}
	}
	return s
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

// Windows extracts supervised windows from every trace of the dataset,
// scaled by sc (which must be fitted): one whole pass of StreamWindows.
func Windows(d *Dataset, sc *Scaler, opts WindowOpts) []Window {
	ws, _ := StreamWindows(NewDatasetSource(d), sc, opts).Next(math.MaxInt) // a DatasetSource never fails
	return ws
}

// MakeWindow extracts the single window of tr whose history begins at
// sample index start, scaled by sc. It scales only the samples the window
// covers. The history must lie within the trace; future samples past the
// trace's end read zero, which lets online consumers (the QoE
// applications, the serving layer) forecast from the latest history.
func MakeWindow(tr *Trace, ti, start int, sc *Scaler, opts WindowOpts) Window {
	if start < 0 || start+opts.History > len(tr.Samples) {
		panic("trace: window history outside the trace")
	}
	s := scale(tr, start, opts.History+opts.Horizon, sc, opts)
	return Window{TraceIdx: ti, Start: start, s: s}
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
