package grid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"prism5g/internal/experiments"
	"prism5g/internal/mobility"
	"prism5g/internal/obs"
	"prism5g/internal/par"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/stats"
)

// ErrAborted is returned when RunOpts.AbortAfterCells stopped the run. The
// run directory is left in a valid resumable state: every finished cell is
// on disk with its manifest entry, and a later Run picks up from there.
var ErrAborted = errors.New("grid: run aborted by abort hook")

// RunOpts tunes one Run invocation without affecting cell bytes.
type RunOpts struct {
	// Workers bounds the cell pool (0 = config's setting, which defaults
	// to one per CPU). Outputs are byte-identical at any value.
	Workers int
	// AbortAfterCells stops the run with ErrAborted once that many cells
	// have been computed in this invocation (cached cells don't count);
	// 0 runs to completion. This is the crash hook the resume tests and
	// the CI smoke script kill the run with — deterministic, unlike a
	// signal.
	AbortAfterCells int
}

// CellOutcome is one cell's serialized result: the cell identity plus the
// workload-specific numbers. Exactly one of Predict / QoE is set.
type CellOutcome struct {
	Cell    Cell                           `json:"cell"`
	Predict *experiments.PredictCellResult `json:"predict,omitempty"`
	QoE     *experiments.QoECellResult     `json:"qoe,omitempty"`
}

// SummaryRow aggregates one scenario group (all axes except the seed) over
// its repeats.
type SummaryRow struct {
	Group     string  `json:"group"`
	App       string  `json:"app"`
	Predictor string  `json:"predictor"`
	Severity  float64 `json:"severity"`
	Direction string  `json:"direction"`
	Cells     int     `json:"cells"`
	// RMSEMean / RMSEStd aggregate prediction cells; the QoE means
	// aggregate streaming cells. Unused metrics stay zero.
	RMSEMean    float64 `json:"rmse_mean,omitempty"`
	RMSEStd     float64 `json:"rmse_std,omitempty"`
	QualityMean float64 `json:"quality_mean,omitempty"`
	StallMean   float64 `json:"stall_mean,omitempty"`
	MissMean    float64 `json:"miss_mean,omitempty"`
}

// Report is the in-memory outcome of a Run. Only Outcomes and Summary are
// deterministic; the counters and timings describe this invocation.
type Report struct {
	Name       string
	ConfigHash string
	Cells      int
	Computed   int
	Cached     int
	WallS      float64
	Outcomes   []CellOutcome
	Summary    []SummaryRow
}

// SummaryLine is the one-line cells/s digest the CLI prints and obs records.
func (r *Report) SummaryLine() string {
	rate := 0.0
	if r.WallS > 0 {
		rate = float64(r.Cells) / r.WallS
	}
	name := r.Name
	if name == "" {
		name = "grid"
	}
	return fmt.Sprintf("%s: %d cells (%d computed, %d cached) in %.1fs — %.1f cells/s",
		name, r.Cells, r.Computed, r.Cached, r.WallS, rate)
}

// produced carries one cell's result from the worker pool to the in-order
// consumer.
type produced struct {
	data    []byte
	outcome CellOutcome
	cached  bool
}

// Run executes (or resumes) the grid in dir. The determinism contract:
// every cell file, the manifest and the summary are byte-identical whatever
// the worker count and however many times the run was interrupted and
// resumed — cells derive everything from their pre-drawn seed, files are
// written atomically in index order, and nothing time-varying is
// serialized. A partial run (crash, ErrAborted) leaves a manifest from
// which the next Run recomputes only the missing or invalid cells.
func Run(ctx context.Context, cfg *Config, dir string, opts RunOpts) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("grid.run")
	t0 := time.Now()
	cells := Expand(cfg)
	hash := configHash(cfg)
	rep := &Report{Name: cfg.Name, ConfigHash: hash, Cells: len(cells),
		Outcomes: make([]CellOutcome, len(cells))}

	old, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if old == nil || old.Version != manifestVersion || old.ConfigHash != hash {
		// Fresh run, layout bump or edited config: every cell is stale.
		old = &Manifest{Version: manifestVersion, ConfigHash: hash}
	}
	// The new manifest starts from the old entries that still name the
	// same cells; computed cells overwrite theirs, and entries whose files
	// turn out corrupt are refreshed when the cell recomputes.
	entries := map[int]ManifestCell{}
	for _, mc := range old.Cells {
		if mc.Index >= 0 && mc.Index < len(cells) && mc.Key == cells[mc.Index].Key() {
			entries[mc.Index] = mc
		}
	}
	saveManifest := func() error {
		m := &Manifest{Version: manifestVersion, ConfigHash: hash}
		for _, mc := range entries {
			m.Cells = append(m.Cells, mc)
		}
		return m.save(dir)
	}

	workers := opts.Workers
	if workers == 0 {
		workers = cfg.Workers
	}
	runErr := par.OrderedStream(ctx, len(cells), workers,
		func(i int) (produced, error) {
			c := cells[i]
			if data, ok := old.cached(dir, c); ok {
				var oc CellOutcome
				if err := json.Unmarshal(data, &oc); err == nil {
					return produced{data: data, outcome: oc, cached: true}, nil
				}
			}
			csp := obs.StartSpan("grid.cell")
			oc := runCell(cfg, c)
			data, err := json.MarshalIndent(oc, "", "  ")
			if err != nil {
				panic(err) // outcomes are plain data
			}
			data = append(data, '\n')
			csp.EndWith(map[string]any{"key": c.Key(), "app": c.App})
			return produced{data: data, outcome: oc}, nil
		},
		func(i int, p produced) error {
			rep.Outcomes[i] = p.outcome
			if p.cached {
				rep.Cached++
				obs.Add("grid.cells_cached", 1)
				emitGridProgress(cfg.Name, rep, len(cells), t0)
				return nil
			}
			file := cells[i].Key() + ".json"
			if err := atomicWrite(filepath.Join(dir, file), p.data); err != nil {
				return err
			}
			entries[i] = ManifestCell{Index: i, Key: cells[i].Key(), File: file, SHA256: hashBytes(p.data)}
			if err := saveManifest(); err != nil {
				return err
			}
			rep.Computed++
			obs.Add("grid.cells_computed", 1)
			emitGridProgress(cfg.Name, rep, len(cells), t0)
			if opts.AbortAfterCells > 0 && rep.Computed >= opts.AbortAfterCells {
				return ErrAborted
			}
			return nil
		})
	rep.WallS = time.Since(t0).Seconds()
	if runErr != nil {
		sp.EndWith(map[string]any{"grid": cfg.Name, "cells": rep.Cells,
			"computed": rep.Computed, "cached": rep.Cached, "aborted": true})
		return rep, runErr
	}

	rep.Summary = summarize(rep.Outcomes)
	if err := writeSummaries(dir, rep.Summary); err != nil {
		return rep, err
	}
	obs.Emit("grid.run", map[string]any{
		"grid": cfg.Name, "cells": rep.Cells, "computed": rep.Computed,
		"cached": rep.Cached, "wall_s": rep.WallS,
	})
	sp.EndWith(map[string]any{"grid": cfg.Name, "cells": rep.Cells,
		"computed": rep.Computed, "cached": rep.Cached})
	return rep, nil
}

// emitGridProgress journals one per-cell progress event — done/total plus
// an ETA extrapolated from the computed (not cached, those are ~free)
// cells so far — which `prismobs tail` renders live. Journal-only and
// wall-clock based: progress never touches cell bytes.
func emitGridProgress(name string, rep *Report, total int, t0 time.Time) {
	if !obs.Enabled() {
		return
	}
	done := rep.Computed + rep.Cached
	var eta float64
	if rep.Computed > 0 {
		eta = time.Since(t0).Seconds() / float64(rep.Computed) * float64(total-done)
	}
	obs.Emit("grid.progress", map[string]any{
		"grid": name, "done": done, "total": total,
		"cached": rep.Cached, "eta_s": eta,
	})
}

// runCell executes one cell's workload.
func runCell(cfg *Config, c Cell) CellOutcome {
	op, _ := spectrum.ParseOperator(c.Operator)
	mob, _ := mobility.ParseMobility(c.Mobility)
	gran, _ := sim.ParseGranularity(c.Gran)
	spec := sim.SubDatasetSpec{Operator: op, Mobility: mob, Gran: gran}
	ax := experiments.CellAxes{
		Severity: c.Severity, Direction: direction(c.Direction), BandLock: c.Bands,
	}
	if c.Direction == DirUL && cfg.ULGrantRatio > 0 {
		ax.UL = ran.ULConfig{GrantRatio: cfg.ULGrantRatio}
	}
	ml := cfg.mlConfig(c.Seed, c.Predictor)
	oc := CellOutcome{Cell: c}
	if c.App == AppPredict {
		r := experiments.PredictCell(spec, c.Predictor, ml, ax)
		oc.Predict = &r
	} else {
		r := experiments.QoECell(spec, c.App, c.Predictor, ml, ax)
		oc.QoE = &r
	}
	return oc
}

// summarize groups outcomes by everything but the seed, in first-appearance
// (cell index) order, and aggregates each group's repeats.
func summarize(outcomes []CellOutcome) []SummaryRow {
	type agg struct {
		row                  *SummaryRow
		rmse                 stats.Welford
		quality, stall, miss stats.Welford
		hasPredict, hasQoE   bool
	}
	byGroup := map[string]*agg{}
	var order []string
	for _, oc := range outcomes {
		g := oc.Cell.GroupKey()
		a := byGroup[g]
		if a == nil {
			a = &agg{row: &SummaryRow{
				Group: g, App: oc.Cell.App, Predictor: oc.Cell.Predictor,
				Severity: oc.Cell.Severity, Direction: oc.Cell.Direction,
			}}
			byGroup[g] = a
			order = append(order, g)
		}
		a.row.Cells++
		if oc.Predict != nil {
			a.rmse.Add(oc.Predict.RMSE)
			a.hasPredict = true
		}
		if oc.QoE != nil {
			a.quality.Add(oc.QoE.Quality)
			a.stall.Add(oc.QoE.StallS)
			a.miss.Add(oc.QoE.MissRate)
			a.hasQoE = true
		}
	}
	rows := make([]SummaryRow, 0, len(order))
	for _, g := range order {
		a := byGroup[g]
		if a.hasPredict {
			a.row.RMSEMean = a.rmse.Mean()
			a.row.RMSEStd = a.rmse.StdDev()
		}
		if a.hasQoE {
			a.row.QualityMean = a.quality.Mean()
			a.row.StallMean = a.stall.Mean()
			a.row.MissMean = a.miss.Mean()
		}
		rows = append(rows, *a.row)
	}
	return rows
}

// writeSummaries writes summary.json and summary.csv atomically. Both are
// derived from deterministic outcomes only, so a resumed run reproduces
// them byte-for-byte.
func writeSummaries(dir string, rows []SummaryRow) error {
	jb, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := atomicWrite(filepath.Join(dir, "summary.json"), append(jb, '\n')); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("group,app,predictor,severity,direction,cells,rmse_mean,rmse_std,quality_mean,stall_mean,miss_mean\n")
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%d,%s,%s,%s,%s,%s\n",
			r.Group, r.App, r.Predictor, f(r.Severity), r.Direction, r.Cells,
			f(r.RMSEMean), f(r.RMSEStd), f(r.QualityMean), f(r.StallMean), f(r.MissMean))
	}
	return atomicWrite(filepath.Join(dir, "summary.csv"), []byte(b.String()))
}
