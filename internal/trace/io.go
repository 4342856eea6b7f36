package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteCSV streams a trace as CSV: one row per sample with aggregate fields
// followed by the per-CC feature blocks. The layout matches what the paper's
// published artifact exports from XCAL logs.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return err
	}
	row := make([]string, 0, len(csvHeader()))
	for _, s := range t.Samples {
		row = row[:0]
		row = append(row,
			strconv.FormatFloat(s.T, 'f', 3, 64),
			strconv.FormatFloat(s.AggTput, 'f', 3, 64),
			strconv.Itoa(s.NumActiveCCs))
		for c := 0; c < MaxCC; c++ {
			cc := s.CCs[c]
			row = append(row, cc.ChannelID, strconv.FormatBool(cc.IsPCell))
			for f := 0; f < NumCCFeatures; f++ {
				row = append(row, strconv.FormatFloat(cc.Vec[f], 'f', 4, 64))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func csvHeader() []string {
	header := []string{"t", "agg_tput_mbps", "num_active_ccs"}
	for c := 0; c < MaxCC; c++ {
		header = append(header,
			fmt.Sprintf("cc%d_channel", c),
			fmt.Sprintf("cc%d_pcell", c))
		for f := 0; f < NumCCFeatures; f++ {
			header = append(header, fmt.Sprintf("cc%d_%s", c, CCFeatureNames[f]))
		}
	}
	return header
}

// ReadCSV parses a trace previously written by WriteCSV (or an external
// XCAL-style export with the same layout). Structural damage — a missing
// or alien header, truncated rows, unparseable numerics — surfaces as a
// typed *ValidationError; it never panics. Value-level corruption (NaN
// fields, out-of-range masks) is preserved in the returned trace for
// Validate/Repair to handle, mirroring how a real log is ingested first
// and sanitized second. StepS is inferred from the median positive
// timestamp delta; a CSV too degenerate to infer from — at most one row, or
// not a single increasing timestamp pair — returns a typed
// *ValidationError instead of a trace with a zero step.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // row widths are checked by hand for typed errors
	want := csvHeader()
	header, err := cr.Read()
	if err != nil {
		return nil, &ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: -1,
			Msg: fmt.Sprintf("read header: %v", err)}
	}
	if len(header) != len(want) || header[0] != want[0] {
		return nil, &ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: -1,
			Msg: fmt.Sprintf("unexpected header: %d columns (want %d)", len(header), len(want))}
	}
	tr := &Trace{}
	for i := 0; ; i++ {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, &ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: i,
				Msg: fmt.Sprintf("read row: %v", err)}
		}
		if len(row) != len(want) {
			return nil, &ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: i,
				Msg: fmt.Sprintf("truncated row: %d fields (want %d)", len(row), len(want))}
		}
		s, err := parseCSVRow(row, i)
		if err != nil {
			return nil, err
		}
		tr.Samples = append(tr.Samples, s)
	}
	step, err := inferStep(tr.Samples)
	if err != nil {
		return nil, err
	}
	tr.StepS = step
	return tr, nil
}

func parseCSVRow(row []string, idx int) (Sample, error) {
	var s Sample
	badField := func(name, val string, err error) error {
		return &ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: idx,
			Field: name, Msg: fmt.Sprintf("parse %q: %v", val, err)}
	}
	var err error
	if s.T, err = strconv.ParseFloat(row[0], 64); err != nil {
		return s, badField("t", row[0], err)
	}
	if s.AggTput, err = strconv.ParseFloat(row[1], 64); err != nil {
		return s, badField("agg_tput_mbps", row[1], err)
	}
	if s.NumActiveCCs, err = strconv.Atoi(row[2]); err != nil {
		return s, badField("num_active_ccs", row[2], err)
	}
	col := 3
	for c := 0; c < MaxCC; c++ {
		cc := &s.CCs[c]
		cc.ChannelID = row[col]
		if i := strings.IndexByte(cc.ChannelID, '^'); i > 0 {
			cc.BandName = cc.ChannelID[:i]
		}
		col++
		if cc.IsPCell, err = strconv.ParseBool(row[col]); err != nil {
			return s, badField(fmt.Sprintf("cc%d_pcell", c), row[col], err)
		}
		col++
		for f := 0; f < NumCCFeatures; f++ {
			if cc.Vec[f], err = strconv.ParseFloat(row[col], 64); err != nil {
				return s, badField(fmt.Sprintf("cc%d_%s", c, CCFeatureNames[f]), row[col], err)
			}
			col++
		}
		cc.Present = cc.ChannelID != ""
	}
	return s, nil
}

// inferStep estimates the sampling interval as the median positive finite
// timestamp delta. Degenerate inputs surface as typed errors instead of a
// zero or NaN step: fewer than two samples is ErrShape (no delta exists at
// all), while two or more samples without a single positive finite delta
// (all-identical or corrupted timestamps) is ErrTimestamps. An even-count
// delta list takes the true median — the mean of the two middle deltas —
// rather than the upper-middle element.
func inferStep(samples []Sample) (float64, error) {
	if len(samples) < 2 {
		return 0, &ValidationError{Kind: ErrShape, TraceIdx: -1, SampleIdx: -1,
			Msg: fmt.Sprintf("cannot infer step from %d sample(s)", len(samples))}
	}
	var deltas []float64
	for i := 1; i < len(samples); i++ {
		if d := samples[i].T - samples[i-1].T; finite(d) && d > 0 {
			deltas = append(deltas, d)
		}
	}
	if len(deltas) == 0 {
		return 0, &ValidationError{Kind: ErrTimestamps, TraceIdx: -1, SampleIdx: -1,
			Msg: "cannot infer step: no positive finite timestamp delta"}
	}
	sort.Float64s(deltas)
	mid := len(deltas) / 2
	if len(deltas)%2 == 0 {
		return (deltas[mid-1] + deltas[mid]) / 2, nil
	}
	return deltas[mid], nil
}

// WriteJSON encodes the dataset as JSON. Non-finite feature values encode
// as null (see CC.MarshalJSON), so degraded traces serialize losslessly.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// ReadJSON decodes a dataset previously written by WriteJSON, then
// validates and repairs it (see Dataset.Repair): corrupted fields are
// imputed, timestamps re-monotonized and logging gaps refilled instead of
// silently poisoning the scaler and the training windows.
// Decode failures return a wrapped error; use ReadJSONReport to inspect
// what validation found and repair fixed.
func ReadJSON(r io.Reader) (*Dataset, error) {
	d, _, _, err := ReadJSONReport(r)
	return d, err
}

// ReadJSONRaw decodes without validation or repair — the historical
// behaviour, for callers that want the bytes as stored.
func ReadJSONRaw(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: decode dataset: %w", err)
	}
	return &d, nil
}

// ReadJSONReport decodes, validates and repairs, returning both the
// as-ingested validation findings and the applied fixes.
func ReadJSONReport(r io.Reader) (*Dataset, *ValidationReport, RepairReport, error) {
	d, err := ReadJSONRaw(r)
	if err != nil {
		return nil, nil, RepairReport{}, err
	}
	// A dataset missing its step cannot be gap-checked; infer it from the
	// traces before validating. Traces too degraded to infer from are
	// skipped here — validation reports them below.
	if d.StepS <= 0 {
		for i := range d.Traces {
			if s, err := inferStep(d.Traces[i].Samples); err == nil && s > 0 {
				d.StepS = s
				break
			}
		}
	}
	for i := range d.Traces {
		if d.Traces[i].StepS <= 0 {
			d.Traces[i].StepS = d.StepS
		}
	}
	vrep, rrep := d.ValidateAndRepair()
	return d, vrep, rrep, nil
}
