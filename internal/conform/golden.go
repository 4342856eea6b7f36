package conform

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"prism5g/internal/stats"
)

// embeddedGoldens carries the committed fixtures into the prismconform
// binary, so the CLI compares against them from any working directory.
//
//go:embed testdata/golden
var embeddedGoldens embed.FS

// maxDiffs caps the violations reported per golden: enough to see the shape
// of a drift without drowning the report.
const maxDiffs = 20

// fig7Digest summarizes the Fig 7 trace: the full trace is too large to
// commit, so the fixture pins its headline statistics plus a content hash.
type fig7Digest struct {
	Samples      int     `json:"samples"`
	Events       int     `json:"events"`
	CCChanges    int     `json:"cc_changes"`
	MaxStepRatio float64 `json:"max_step_ratio"`
	MeanAggMbps  float64 `json:"mean_agg_mbps"`
	TraceSHA256  string  `json:"trace_sha256"`
}

// fig17Digest summarizes the prediction replay: series lengths, transition
// markers, per-model RMSE and the first few values of each series.
type fig17Digest struct {
	Dataset       string               `json:"dataset"`
	Points        int                  `json:"points"`
	TransitionIdx []int                `json:"transition_idx"`
	FirstReal     []float64            `json:"first_real"`
	RMSE          map[string]float64   `json:"rmse"`
	FirstPred     map[string][]float64 `json:"first_pred"`
}

// table4Row is a Table 4 cell with the wall-clock field stripped
// (TrainTime is the one nondeterministic output of the learning stack).
type table4Row struct {
	Dataset string  `json:"dataset"`
	Model   string  `json:"model"`
	RMSE    float64 `json:"rmse"`
	Epochs  int     `json:"epochs"`
}

// simReportDigest pins a BuildReport dataset: summary statistics plus a
// content hash of the canonical JSON encoding.
type simReportDigest struct {
	Name          string  `json:"name"`
	Traces        int     `json:"traces"`
	Samples       int     `json:"samples"`
	StepS         float64 `json:"step_s"`
	MeanAggMbps   float64 `json:"mean_agg_mbps"`
	PeakAggMbps   float64 `json:"peak_agg_mbps"`
	DatasetSHA256 string  `json:"dataset_sha256"`
	FaultsTotal   int     `json:"faults_total"`
}

// goldenProducers maps fixture names to the value they pin. Digest
// producers compress megabyte-scale outputs; the rest commit the full
// experiment result.
func goldenProducers() map[string]func(*Ctx) any {
	return map[string]func(*Ctx) any{
		"fig1":     func(c *Ctx) any { return c.Fig1() },
		"table2":   func(c *Ctx) any { return c.Table2() },
		"fig5":     func(c *Ctx) any { return c.Fig5() },
		"fig9":     func(c *Ctx) any { return c.Fig9() },
		"fig10":    func(c *Ctx) any { return c.Fig10() },
		"fig11_13": func(c *Ctx) any { return c.Fig11to13() },
		"fig14":    func(c *Ctx) any { return c.Fig14() },
		"fig15":    func(c *Ctx) any { return c.Fig15() },
		"table8":   func(c *Ctx) any { return c.Table8() },
		"fig7": func(c *Ctx) any {
			res := c.Fig7()
			return fig7Digest{
				Samples:      len(res.Trace.Samples),
				Events:       len(res.Events),
				CCChanges:    res.CCChanges,
				MaxStepRatio: res.MaxStepRatio,
				MeanAggMbps:  stats.Mean(res.Trace.AggSeries()),
				TraceSHA256:  sha256JSON(res.Trace),
			}
		},
		"table4": func(c *Ctx) any {
			var rows []table4Row
			for _, cell := range c.Table4() {
				rows = append(rows, table4Row{
					Dataset: cell.Dataset, Model: cell.Model,
					RMSE: cell.RMSE, Epochs: cell.Epochs,
				})
			}
			return rows
		},
		"fig17": func(c *Ctx) any {
			res := c.Fig17()
			d := fig17Digest{
				Dataset:       res.Dataset,
				Points:        len(res.Real),
				TransitionIdx: res.TransitionIdx,
				FirstReal:     head(res.Real, 5),
				RMSE:          map[string]float64{},
				FirstPred:     map[string][]float64{},
			}
			for name, pred := range res.Pred {
				d.RMSE[name] = stats.RMSE(pred, res.Real)
				d.FirstPred[name] = head(pred, 5)
			}
			return d
		},
		"sim_report": func(c *Ctx) any { return digestSimReport(c.SimReport()) },
		"sim_short":  func(c *Ctx) any { return digestSimReport(c.SimShort()) },
	}
}

// digestSimReport compresses a built dataset into its golden digest.
func digestSimReport(sr simReport) simReportDigest {
	d := simReportDigest{
		Name:          sr.DS.Name,
		Traces:        len(sr.DS.Traces),
		StepS:         sr.DS.StepS,
		DatasetSHA256: sha256JSON(sr.DS),
		FaultsTotal:   sr.Faults.Total(),
	}
	var agg []float64
	for i := range sr.DS.Traces {
		d.Samples += len(sr.DS.Traces[i].Samples)
		agg = append(agg, sr.DS.Traces[i].AggSeries()...)
	}
	d.MeanAggMbps = stats.Mean(agg)
	for _, v := range agg {
		if v > d.PeakAggMbps {
			d.PeakAggMbps = v
		}
	}
	return d
}

// GoldenNames lists every fixture in a stable order.
func GoldenNames() []string {
	names := make([]string, 0, len(goldenProducers()))
	for n := range goldenProducers() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MarshalGolden produces the canonical fixture bytes for one golden.
func MarshalGolden(c *Ctx, name string) ([]byte, error) {
	produce, ok := goldenProducers()[name]
	if !ok {
		return nil, fmt.Errorf("conform: unknown golden %q", name)
	}
	return canonicalJSON(produce(c))
}

// CompareGolden checks one golden against the embedded fixture.
func CompareGolden(c *Ctx, name string) []Violation {
	fixture, err := embeddedGoldens.ReadFile("testdata/golden/" + name + ".json")
	if err != nil {
		return []Violation{{Check: "golden/" + name,
			Msg: fmt.Sprintf("missing embedded fixture (run tests with -update): %v", err)}}
	}
	return CompareGoldenAgainst(c, name, fixture)
}

// CompareGoldenAgainst diffs the freshly produced golden against fixture
// bytes, reporting JSON-path-addressed mismatches.
func CompareGoldenAgainst(c *Ctx, name string, fixture []byte) []Violation {
	check := "golden/" + name
	got, err := MarshalGolden(c, name)
	if err != nil {
		return []Violation{{Check: check, Msg: err.Error()}}
	}
	if string(got) == string(fixture) {
		return nil
	}
	var wantV, gotV any
	if err := json.Unmarshal(fixture, &wantV); err != nil {
		return []Violation{{Check: check, Msg: fmt.Sprintf("corrupt fixture: %v", err)}}
	}
	if err := json.Unmarshal(got, &gotV); err != nil {
		return []Violation{{Check: check, Msg: fmt.Sprintf("corrupt output: %v", err)}}
	}
	var out []Violation
	diffJSON(check, "$", wantV, gotV, &out)
	if len(out) == 0 {
		// Byte difference without a semantic one (e.g. whitespace): still a
		// drift worth flagging, since fixtures must regenerate byte-identically.
		out = append(out, Violation{Check: check, Path: "$",
			Msg: "fixture bytes differ but values match; regenerate with -update"})
	}
	return out
}

// diffJSON walks two parsed JSON trees and records every mismatch with its
// path, old value and new value, up to maxDiffs entries.
func diffJSON(check, path string, want, got any, out *[]Violation) {
	if len(*out) >= maxDiffs {
		return
	}
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			*out = append(*out, violate(check, path, "type changed", typeName(got), "object"))
			return
		}
		keys := map[string]bool{}
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			wv, inW := w[k]
			gv, inG := g[k]
			sub := path + "." + k
			switch {
			case !inW:
				*out = append(*out, violate(check, sub, "unexpected new field", gv, "<absent>"))
			case !inG:
				*out = append(*out, violate(check, sub, "field disappeared", "<absent>", wv))
			default:
				diffJSON(check, sub, wv, gv, out)
			}
			if len(*out) >= maxDiffs {
				return
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			*out = append(*out, violate(check, path, "type changed", typeName(got), "array"))
			return
		}
		if len(w) != len(g) {
			*out = append(*out, violate(check, path+".length", "array length changed", len(g), len(w)))
		}
		n := len(w)
		if len(g) < n {
			n = len(g)
		}
		for i := 0; i < n; i++ {
			diffJSON(check, fmt.Sprintf("%s[%d]", path, i), w[i], g[i], out)
			if len(*out) >= maxDiffs {
				return
			}
		}
	default:
		if want != got {
			*out = append(*out, violate(check, path, "value changed", jsonScalar(got), jsonScalar(want)))
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func jsonScalar(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// canonicalJSON is the fixture encoding: indented, key-sorted (Go's
// encoder sorts map keys), trailing newline.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sha256JSON hashes the compact JSON encoding of a value.
func sha256JSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "marshal-error:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// head returns the first n elements (copied) of xs.
func head(xs []float64, n int) []float64 {
	if len(xs) < n {
		n = len(xs)
	}
	return append([]float64(nil), xs[:n]...)
}
