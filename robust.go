// Robustness facade: degraded-data generation, validation/repair and
// crash-contained training. Real measurement campaigns are not clean — the
// paper's XCAL logs carry radio link failures, activation failures, NaN
// sensor reads and logging dropouts — so the pipeline must survive all of
// them end to end. See DESIGN.md, "Fault model and resilience".
package prism5g

import (
	"prism5g/internal/faults"
	"prism5g/internal/predictors"
	"prism5g/internal/sim"
	"prism5g/internal/trace"
)

// Re-exported fault-layer and repair types.
type (
	// FaultPlan composes the fault injectors applied to generated traces.
	FaultPlan = faults.FaultPlan
	// FaultReport counts what a plan injected.
	FaultReport = faults.Report
	// ValidationReport lists the typed findings of a validation pass.
	ValidationReport = trace.ValidationReport
	// ValidationError is one typed validation finding.
	ValidationError = trace.ValidationError
	// RepairReport counts what a repair pass fixed.
	RepairReport = trace.RepairReport
	// TrainReport summarizes a training run, including divergence
	// retries and fallback demotion.
	TrainReport = predictors.TrainReport
)

// FaultPlanAtSeverity maps a severity in [0, 1] to a full fault plan; 0
// disables every injector, 1 is a heavily degraded campaign.
func FaultPlanAtSeverity(severity float64) FaultPlan {
	return faults.PlanAtSeverity(severity)
}

// GenerateFaultyDataset is GenerateDataset degraded by a fault plan: radio
// link failures, PCell-switch and SCell-activation failures, stuck and NaN
// sensor fields, timestamp jitter and measurement dropouts. The same seed
// with a nil plan yields the identical campaign, clean — so clean and
// degraded results are directly comparable.
func GenerateFaultyDataset(op Operator, mob Mobility, gran Granularity, seed uint64, plan *FaultPlan) (*Dataset, FaultReport) {
	opts := sim.DefaultBuildOpts(seed)
	opts.Faults = plan
	return sim.BuildReport(sim.SubDatasetSpec{Operator: op, Mobility: mob, Gran: gran}, opts)
}

// RepairDataset validates ds and repairs what it finds in place:
// non-finite fields imputed by holding the last valid value, timestamps
// re-monotonized, CA masks reconciled, logging gaps refilled. The
// ValidationReport describes the data as it arrived, the RepairReport what
// was fixed.
func RepairDataset(ds *Dataset) (*ValidationReport, RepairReport) {
	return ds.ValidateAndRepair()
}

// RobustResult is TrainRobust's outcome: the guarded predictor plus the
// resilience counters the acceptance pipeline reports.
type RobustResult struct {
	// Predictor is the crash-contained predictor; use it in place of the
	// wrapped one.
	Predictor Predictor
	// Report is the training summary (Retries counts divergence
	// recoveries, Fallback flags demotion).
	Report TrainReport
	// SkippedWindows counts training/validation windows rejected for
	// non-finite inputs or targets.
	SkippedWindows int
	// Demoted reports that a training crash demoted the predictor to the
	// harmonic-mean fallback.
	Demoted bool
}

// TrainRobust trains p inside a crash-contained wrapper: windows with
// non-finite values are skipped, training divergence rolls back and
// retries at a backed-off learning rate (see TrainReport.Retries), and a
// panic demotes to the harmonic-mean fallback instead of killing the run.
// The returned predictor also sanitizes its own forecasts, so downstream
// QoE consumers never see NaN bandwidth estimates.
func TrainRobust(p Predictor, b *Bundle) RobustResult {
	horizon := trace.DefaultWindowOpts().Horizon
	r := predictors.NewResilient(p, horizon)
	train, skippedTrain := predictors.FilterValid(b.Train)
	val, skippedVal := predictors.FilterValid(b.Val)
	rep := r.Train(train, val)
	return RobustResult{
		Predictor:      r,
		Report:         rep,
		SkippedWindows: skippedTrain + skippedVal,
		Demoted:        r.Demoted(),
	}
}
