// Package conform is the paper-conformance harness: it pins what the
// simulator's numbers *mean*, not just that the code runs. Three pillars
// back every claim the repo makes about the source paper:
//
//   - Golden regression (golden.go): committed JSON fixtures for the
//     deterministic seed-42 outputs of the measurement and learning
//     experiments. A fixture catches any byte-level drift; failures report
//     the JSON path and both values.
//   - Statistical invariants (invariants.go): the paper's qualitative laws
//     with tolerance bands — TBS monotonicity, spectral-efficiency
//     ordering, the FDD-SCell MIMO collapse, RB throttling, the intra- vs
//     inter-band correlation structure, RRC events leading throughput.
//     These hold at any seed, so refactors can re-seed without rewriting
//     the suite.
//   - Metamorphic properties (metamorphic.go): relations between runs —
//     fault severity 0 is a no-op, repairing clean data changes nothing,
//     seed shifts move statistics only within bounds, the harmonic-mean
//     baseline is scale-homogeneous.
//
// The cmd/prismconform CLI and the package tests share this code; the CLI
// embeds the fixtures so it can run from any working directory.
package conform

import (
	"fmt"
	"sync"
	"time"
)

// DefaultSeed is the seed the committed golden fixtures were generated at.
// Invariant and metamorphic checks run at any seed; golden comparison is
// only meaningful at this one.
const DefaultSeed = 42

// Config parameterizes a conformance run.
type Config struct {
	// Seed drives every experiment the harness executes.
	Seed uint64
	// Workers bounds the fan-out of the underlying experiments (0 = one
	// per CPU). Results are identical at any setting.
	Workers int
}

// TestHooks deliberately corrupts the values the harness observes, so the
// negative self-tests (and `prismconform -perturb`) can prove the suite is
// able to fail. All hooks are inert at their zero values.
type TestHooks struct {
	// TBSDelta is added to one middle entry of the Fig 9 TBS table,
	// breaking monotonicity and the fig9 golden.
	TBSDelta int
	// CorrFlip negates the intra-band RSRP cross-correlation of the
	// Fig 11-13 result, inverting the paper's ordering.
	CorrFlip bool
}

// Hooks is consulted by the Ctx accessors that feed the checks. It exists
// only for self-testing; production runs leave it zero.
var Hooks TestHooks

// Violation is one conformance failure, locatable enough to act on.
type Violation struct {
	// Check is the name of the check (or golden) that produced it.
	Check string `json:"check"`
	// Path locates the offending value (JSON path for goldens, a
	// human-readable locator for invariants).
	Path string `json:"path,omitempty"`
	// Got and Want are the observed and expected values, stringified.
	Got  string `json:"got,omitempty"`
	Want string `json:"want,omitempty"`
	// Msg states the violated law in one sentence.
	Msg string `json:"msg"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	s := v.Check
	if v.Path != "" {
		s += " at " + v.Path
	}
	s += ": " + v.Msg
	if v.Got != "" || v.Want != "" {
		s += fmt.Sprintf(" (got %s, want %s)", v.Got, v.Want)
	}
	return s
}

// violate builds a Violation with formatted got/want values.
func violate(check, path, msg string, got, want any) Violation {
	return Violation{Check: check, Path: path, Msg: msg,
		Got: fmt.Sprint(got), Want: fmt.Sprint(want)}
}

// Check is one named statistical or metamorphic law.
type Check struct {
	// Name identifies the check in reports ("tbs-monotone").
	Name string
	// Figs cites the paper artifact the law comes from ("Fig 9").
	Figs string
	// Run evaluates the law and returns every violation found.
	Run func(*Ctx) []Violation
}

// CheckResult is the outcome of one check.
type CheckResult struct {
	Name       string        `json:"name"`
	Figs       string        `json:"figs,omitempty"`
	Violations []Violation   `json:"violations,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// OK reports whether the check passed.
func (r CheckResult) OK() bool { return len(r.Violations) == 0 }

// Report is the machine-readable outcome of a full conformance run.
type Report struct {
	Seed uint64 `json:"seed"`
	// GoldensSkipped is set when the run seed differs from DefaultSeed,
	// making fixture comparison meaningless.
	GoldensSkipped bool          `json:"goldens_skipped,omitempty"`
	Goldens        []CheckResult `json:"goldens,omitempty"`
	Checks         []CheckResult `json:"checks"`
}

// OK reports whether every golden and check passed.
func (r *Report) OK() bool {
	for _, g := range r.Goldens {
		if !g.OK() {
			return false
		}
	}
	for _, c := range r.Checks {
		if !c.OK() {
			return false
		}
	}
	return true
}

// Ctx owns the expensive experiment artifacts a conformance run needs.
// Accessors memoize, so the golden comparison, the invariant checks and the
// CLI all share one simulation per artifact regardless of evaluation order.
type Ctx struct {
	Cfg Config

	mu   sync.Mutex
	memo map[string]any
}

// NewCtx creates a context for one conformance run.
func NewCtx(cfg Config) *Ctx {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	return &Ctx{Cfg: cfg, memo: map[string]any{}}
}

// memoized returns the cached artifact under key, computing it on first
// use. Producers must not call memoized themselves (the lock is held).
func memoized[T any](c *Ctx, key string, produce func() T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.memo[key]; ok {
		return v.(T)
	}
	v := produce()
	c.memo[key] = v
	return v
}

// Checks returns every statistical invariant and metamorphic law the
// harness knows, in report order.
func Checks() []Check {
	cs := append(invariantChecks(), metamorphicChecks()...)
	cs = append(cs, servingChecks()...)
	cs = append(cs, populationChecks()...)
	return append(cs, gridChecks()...)
}

// RunAll executes the full conformance suite: golden comparison (when the
// seed matches the fixtures) followed by every check.
func RunAll(c *Ctx) *Report {
	rep := &Report{Seed: c.Cfg.Seed}
	if c.Cfg.Seed == DefaultSeed {
		for _, g := range GoldenNames() {
			t0 := time.Now()
			vs := CompareGolden(c, g)
			rep.Goldens = append(rep.Goldens, CheckResult{
				Name: "golden/" + g, Violations: vs, Elapsed: time.Since(t0)})
		}
	} else {
		rep.GoldensSkipped = true
	}
	for _, ch := range Checks() {
		t0 := time.Now()
		vs := ch.Run(c)
		rep.Checks = append(rep.Checks, CheckResult{
			Name: ch.Name, Figs: ch.Figs, Violations: vs, Elapsed: time.Since(t0)})
	}
	return rep
}
