// Package grid is the declarative scenario-grid engine: a JSON config
// enumerates axis values — operator, mobility, granularity, band combo,
// fault severity, predictor, QoE app, link direction, seed × repeats — and
// the runner expands the cross-product into cells, fans them out on the
// deterministic par pool and writes one JSON result per cell plus a grouped
// summary. Runs are resumable: a manifest records the config hash and a
// checksum per completed cell, so a killed run picks up where it stopped and
// the merged output is byte-identical to an uninterrupted one (the grid
// determinism contract, DESIGN.md §15).
package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

// ParseError wraps a syntactic failure of the config JSON (malformed
// document, unknown field, trailing garbage).
type ParseError struct {
	Err error
}

// Error implements error.
func (e *ParseError) Error() string { return "grid: bad config: " + e.Err.Error() }

// Unwrap exposes the underlying decoder error.
func (e *ParseError) Unwrap() error { return e.Err }

// ValidationError reports a well-formed config whose values cannot expand
// into a runnable grid.
type ValidationError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *ValidationError) Error() string { return "grid: invalid config: " + e.Field + ": " + e.Msg }

// MLParams sizes the learning protocol of prediction cells; zero fields
// take the QuickMLConfig defaults.
type MLParams struct {
	Traces          int `json:"traces,omitempty"`
	SamplesPerTrace int `json:"samples_per_trace,omitempty"`
	Stride          int `json:"stride,omitempty"`
	Hidden          int `json:"hidden,omitempty"`
	Epochs          int `json:"epochs,omitempty"`
	Patience        int `json:"patience,omitempty"`
}

// Axes enumerates the grid's axis values. A nil axis takes its single
// default value; an explicitly empty axis is an error (it would silently
// nullify the whole grid).
type Axes struct {
	// Operators: OpX / OpY / OpZ (default OpZ).
	Operators []string `json:"operators,omitempty"`
	// Mobilities: stationary / walking / driving (default walking).
	Mobilities []string `json:"mobilities,omitempty"`
	// Granularities: short / long (default long).
	Granularities []string `json:"granularities,omitempty"`
	// Bands are band-combo locks, one list per combo; an empty inner list
	// (or the default single combo) leaves band selection free.
	Bands [][]string `json:"bands,omitempty"`
	// Severities are fault-plan severities in [0, 1] (default 0 = clean).
	Severities []float64 `json:"severities,omitempty"`
	// Predictors: Table 4 model names when the app is "predict", stock
	// estimator names (Ideal / MovingMean / HarmonicMean) for QoE apps.
	Predictors []string `json:"predictors,omitempty"`
	// Apps: predict / vivo / abr / cloudgaming (default predict).
	Apps []string `json:"apps,omitempty"`
	// Directions: dl / ul (default dl).
	Directions []string `json:"directions,omitempty"`
}

// Config is one declarative scenario grid.
type Config struct {
	// Name labels the run in summaries and obs events.
	Name string `json:"name,omitempty"`
	// Seed is the base seed; repeat 0 uses it directly, so a one-repeat
	// grid reproduces the hard-coded experiments at that seed bit-exactly.
	Seed uint64 `json:"seed,omitempty"`
	// Seeds optionally replaces the derived seed axis with explicit values
	// (mutually exclusive with Repeats > 1; duplicates are an error).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Repeats is the number of seeds per axis point (default 1); repeats
	// beyond the first draw their seeds from the base seed's root stream.
	Repeats int `json:"repeats,omitempty"`
	// Workers bounds the cell worker pool (0 = one per CPU). Cell outputs
	// are byte-identical at any setting.
	Workers int `json:"workers,omitempty"`
	// ULGrantRatio tunes the asymmetric uplink schedule of ul-direction
	// cells (0 = the default ratio, 0.35).
	ULGrantRatio float64 `json:"ul_grant_ratio,omitempty"`
	// ML sizes the learning protocol of prediction cells.
	ML MLParams `json:"ml,omitempty"`
	// Axes enumerates the cross-product.
	Axes Axes `json:"axes,omitempty"`
}

// Parse decodes and validates a config document. Unknown fields, trailing
// data and malformed JSON return *ParseError; structurally valid configs
// with bad values return *ValidationError. Parse never panics, whatever the
// input (the FuzzGridConfig contract).
func Parse(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	cfg := &Config{}
	if err := dec.Decode(cfg); err != nil {
		return nil, &ParseError{Err: err}
	}
	if dec.More() {
		return nil, &ParseError{Err: errors.New("trailing data after config document")}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// defaultAxis fills a nil axis with its default single value.
func defaultAxis[T any](vals []T, def T) []T {
	if vals == nil {
		return []T{def}
	}
	return vals
}

// Normalize applies defaults in place: nil axes become their single default
// value, zero ML fields take the QuickMLConfig sizes, zero repeats becomes
// one. Validate normalizes first, so parsed configs are always normalized;
// the config hash is computed over the normalized form, meaning a config
// edit that only spells out a default does not invalidate cached cells.
func (c *Config) Normalize() {
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	q := experiments.QuickMLConfig(0)
	if c.ML.Traces == 0 {
		c.ML.Traces = q.Traces
	}
	if c.ML.SamplesPerTrace == 0 {
		c.ML.SamplesPerTrace = q.SamplesPerTrace
	}
	if c.ML.Stride == 0 {
		c.ML.Stride = q.Stride
	}
	if c.ML.Hidden == 0 {
		c.ML.Hidden = q.Hidden
	}
	if c.ML.Epochs == 0 {
		c.ML.Epochs = q.Epochs
	}
	if c.ML.Patience == 0 {
		c.ML.Patience = q.Patience
	}
	c.Axes.Operators = defaultAxis(c.Axes.Operators, string(spectrum.OpZ))
	c.Axes.Mobilities = defaultAxis(c.Axes.Mobilities, mobility.Walking.String())
	c.Axes.Granularities = defaultAxis(c.Axes.Granularities, sim.Long.String())
	c.Axes.Bands = defaultAxis(c.Axes.Bands, nil)
	c.Axes.Severities = defaultAxis(c.Axes.Severities, 0)
	c.Axes.Predictors = defaultAxis(c.Axes.Predictors, "Prism5G")
	c.Axes.Apps = defaultAxis(c.Axes.Apps, AppPredict)
	c.Axes.Directions = defaultAxis(c.Axes.Directions, DirDL)
}

// AppPredict is the prediction workload (train + evaluate one model); the
// QoE workloads are the experiments.QoEApps names.
const AppPredict = "predict"

// Direction axis values.
const (
	DirDL = "dl"
	DirUL = "ul"
)

// parses turns an axis value parser into checkAxis's known-value test.
func parses[V any](parse func(string) (V, error)) func(string) bool {
	return func(s string) bool {
		_, err := parse(s)
		return err == nil
	}
}

// checkAxis rejects explicitly empty and duplicated axis values.
func checkAxis[T comparable](field string, vals []T, known func(T) bool, what string) error {
	if vals != nil && len(vals) == 0 {
		return &ValidationError{Field: field, Msg: "axis is empty; omit it to use the default"}
	}
	seen := map[T]bool{}
	for _, v := range vals {
		if known != nil && !known(v) {
			return &ValidationError{Field: field, Msg: fmt.Sprintf("unknown %s %v", what, v)}
		}
		if seen[v] {
			return &ValidationError{Field: field, Msg: fmt.Sprintf("duplicate %s %v", what, v)}
		}
		seen[v] = true
	}
	return nil
}

// Validate normalizes the config and reports the first invalid value as a
// *ValidationError.
func (c *Config) Validate() error {
	if c.Repeats < 0 {
		return &ValidationError{Field: "repeats", Msg: fmt.Sprintf("must be >= 0, got %d", c.Repeats)}
	}
	if len(c.Seeds) > 0 && c.Repeats > 1 {
		return &ValidationError{Field: "seeds", Msg: "explicit seeds and repeats > 1 are mutually exclusive"}
	}
	if len(c.Seeds) > 0 && c.Seed != 0 {
		return &ValidationError{Field: "seeds", Msg: "set either seed or seeds, not both"}
	}
	if err := checkAxis("seeds", c.Seeds, nil, "seed"); err != nil {
		return err
	}
	if c.Workers < 0 {
		return &ValidationError{Field: "workers", Msg: fmt.Sprintf("must be >= 0, got %d", c.Workers)}
	}
	if math.IsNaN(c.ULGrantRatio) || math.IsInf(c.ULGrantRatio, 0) || c.ULGrantRatio < 0 || c.ULGrantRatio > 1 {
		return &ValidationError{Field: "ul_grant_ratio", Msg: fmt.Sprintf("must be in [0, 1], got %v", c.ULGrantRatio)}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ml.traces", c.ML.Traces}, {"ml.samples_per_trace", c.ML.SamplesPerTrace},
		{"ml.stride", c.ML.Stride}, {"ml.hidden", c.ML.Hidden},
		{"ml.epochs", c.ML.Epochs}, {"ml.patience", c.ML.Patience},
	} {
		if f.v < 0 {
			return &ValidationError{Field: f.name, Msg: fmt.Sprintf("must be >= 0, got %d", f.v)}
		}
	}
	c.Normalize()
	if err := checkAxis("axes.operators", c.Axes.Operators, parses(spectrum.ParseOperator), "operator"); err != nil {
		return err
	}
	if err := checkAxis("axes.mobilities", c.Axes.Mobilities, parses(mobility.ParseMobility), "mobility"); err != nil {
		return err
	}
	if err := checkAxis("axes.granularities", c.Axes.Granularities, parses(sim.ParseGranularity), "granularity"); err != nil {
		return err
	}
	if c.Axes.Bands != nil && len(c.Axes.Bands) == 0 {
		return &ValidationError{Field: "axes.bands", Msg: "axis is empty; omit it to use the default"}
	}
	if err := checkAxis("axes.bands", bandKeys(c.Axes.Bands), nil, "band combo"); err != nil {
		return err
	}
	for i, sev := range c.Axes.Severities {
		if math.IsNaN(sev) || math.IsInf(sev, 0) {
			return &ValidationError{Field: "axes.severities", Msg: fmt.Sprintf("severity %d is not finite", i)}
		}
		if sev < 0 || sev > 1 {
			return &ValidationError{Field: "axes.severities", Msg: fmt.Sprintf("severity %v outside [0, 1]", sev)}
		}
	}
	if err := checkAxis("axes.severities", c.Axes.Severities, nil, "severity"); err != nil {
		return err
	}
	if err := checkAxis("axes.apps", c.Axes.Apps, func(s string) bool {
		return s == AppPredict || experiments.IsQoEApp(s)
	}, "app"); err != nil {
		return err
	}
	if err := checkAxis("axes.directions", c.Axes.Directions, func(s string) bool {
		return s == DirDL || s == DirUL
	}, "direction"); err != nil {
		return err
	}
	if err := checkAxis("axes.predictors", c.Axes.Predictors, nil, "predictor"); err != nil {
		return err
	}
	// Predictor validity depends on the workload: prediction cells train
	// Table 4 models, QoE cells stream with stock estimators. A config
	// mixing the two kinds would expand into unrunnable combinations, so
	// it is rejected here — split it into one grid per workload kind.
	for _, app := range c.Axes.Apps {
		for _, p := range c.Axes.Predictors {
			if app == AppPredict && !experiments.IsKnownModel(p) {
				return &ValidationError{Field: "axes.predictors",
					Msg: fmt.Sprintf("%q is not a Table 4 model (required by app %q)", p, app)}
			}
			if app != AppPredict && !experiments.IsQoEEstimator(p) {
				return &ValidationError{Field: "axes.predictors",
					Msg: fmt.Sprintf("%q is not a stock estimator (required by app %q); use one of %v", p, app, experiments.QoEEstimators())}
			}
		}
	}
	return nil
}

// bandKeys canonicalizes band combos for duplicate detection and cell keys.
func bandKeys(bands [][]string) []string {
	out := make([]string, len(bands))
	for i, b := range bands {
		out[i] = bandKey(b)
	}
	return out
}

// bandKey names one band combo: "free" when unlocked, else "n41+n25".
func bandKey(b []string) string {
	if len(b) == 0 {
		return "free"
	}
	key := b[0]
	for _, s := range b[1:] {
		key += "+" + s
	}
	return key
}

// mlConfig builds the per-cell learning configuration. Cells are the unit
// of grid parallelism, so everything inside one runs serially.
func (c *Config) mlConfig(seed uint64, model string) experiments.MLConfig {
	return experiments.MLConfig{
		Traces: c.ML.Traces, SamplesPerTrace: c.ML.SamplesPerTrace,
		Stride: c.ML.Stride, Hidden: c.ML.Hidden,
		Epochs: c.ML.Epochs, Patience: c.ML.Patience,
		Seed: seed, Models: []string{model}, Workers: 1,
	}
}

// direction maps an axis value to the trace-level direction tag.
func direction(axis string) string {
	if axis == DirUL {
		return trace.DirectionUL
	}
	return trace.DirectionDL
}
