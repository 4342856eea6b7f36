// Command perfbench is the repository benchmark. It runs one workload from
// a seed, checks the outputs and prints every metric by name with its unit;
// the last line of standard output is the machine-readable result:
//
//	perfbench --workload train-long|sim-short|serve-prism5g --seed N --seconds S --trace 0|1
//	perfbench compare -base DIR -head DIR [-bench BENCHMARK.json]
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the run records spans around each layer call and the result
// carries the per-layer metrics plus the tracing overhead. Every run also
// writes a result file (metrics, host metadata, spans) under -out, which the
// compare mode reads. See README.md for the workloads and the metric map.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

//go:embed config.json
var configJSON []byte

// config holds the benchmark constants that BENCHMARK.json has no key for.
type config struct {
	// DefaultSeed is the seed whose sim-short digest is pinned.
	DefaultSeed uint64 `json:"default_seed"`
	// SimShortSHA256 is the digest of the sim-short datasets at DefaultSeed.
	SimShortSHA256 string `json:"sim_short_sha256"`
	// OpenLoopRatePerS is serve-prism5g's offered rate in phase b.
	OpenLoopRatePerS float64 `json:"open_loop_rate_per_s"`
	// SLOMs is the per-request latency limit: the paper's 10 ms sampling
	// interval.
	SLOMs float64 `json:"slo_ms"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("config.json: %w", err)
	}
	return c, nil
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	cfg      config
}

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload returns: operation counts, failed checks and
// its metrics. End-to-end metrics come from untraced work; per-layer
// metrics only exist in a traced run. Extra values are printed and written
// to the result file but are not part of BENCHMARK.json (they can be 0).
type report struct {
	attempted, failed int
	checks            []string
	e2e, layer        map[string]metric
	extra             map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, extra: map[string]float64{}}
}

// fail records a failed output check; it counts as a failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

type workloadFunc func(o options, tr *tracer) (*report, error)

var workloads = map[string]workloadFunc{
	"train-long":    runTrainLong,
	"sim-short":     runSimShort,
	"serve-prism5g": runServe,
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is the record written under -out for the compare mode.
type resultFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Result   result             `json:"result"`
	E2E      map[string]metric  `json:"end_to_end"`
	Layer    map[string]metric  `json:"per_layer,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Checks   []string           `json:"failed_checks,omitempty"`
	Host     host               `json:"host"`
	RunID    string             `json:"run_id,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// host is the machine metadata stored with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// hostInfo reads nothing outside the checkout: the CPU model and commit
// come from the environment of whoever runs the benchmark.
func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		CPUModel: os.Getenv("PERFBENCH_CPU_MODEL"), Commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	if h.CPUModel == "" {
		h.CPUModel = "unrecorded"
	}
	if h.Commit == "" {
		h.Commit = "unrecorded"
	}
	return h
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: train-long, sim-short or serve-prism5g")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/results", "directory for the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, out: *out, cfg: cfg}
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	}
	rep, err := wf(o, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.e2e["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	if o.trace {
		if err := probeOtherLayers(o, tr, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	for _, ms := range []map[string]metric{rep.e2e, rep.layer} {
		for k, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				rep.fail("metric %s is %v", k, m.Value)
				ms[k] = metric{0, m.Unit}
			}
		}
	}
	rep.extra["fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	printMetrics(stdout, "end-to-end", rep.e2e)
	if o.trace {
		printMetrics(stdout, "per-layer", rep.layer)
	}
	extras := make([]string, 0, len(rep.extra))
	for k := range rep.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(stdout, "extra %-34s %.6g\n", k, rep.extra[k])
	}
	for _, c := range rep.checks {
		fmt.Fprintln(stdout, "CHECK FAILED:", c)
	}

	res := result{Correct: len(rep.checks) == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: rep.e2e}
	if o.trace {
		res.Metrics = rep.layer
	}
	rf := resultFile{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Result: res, E2E: rep.e2e, Layer: rep.layer, Extra: rep.extra, Checks: rep.checks,
		Host: hostInfo(),
	}
	if tr != nil {
		rf.RunID, rf.Spans = tr.run, tr.snapshot()
	}
	if err := writeResultFile(o.out, rf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-10s %-34s %14.6g %s\n", kind, k, ms[k].Value, ms[k].Unit)
	}
}

func writeResultFile(dir string, rf resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rf.Workload, rf.Seed, b2i(rf.Trace))
	b, err := json.Marshal(rf)
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuMask is a Linux CPU affinity mask (up to 1024 CPUs).
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// onEachCPU calls f once for every CPU the process may use, with the
// calling goroutine locked to a thread pinned to that CPU, then restores
// the thread's affinity. Set-up is one thread, and on a host whose CPUs
// run at different speeds (a busy hyperthread sibling on one of them) the
// CPU it landed on decided the figure; one set-up per CPU makes the median
// cover all of them.
func onEachCPU(f func()) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &all); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	defer schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &all)
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		var one cpuMask
		one[cpu/64] = 1 << (cpu % 64)
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
			return fmt.Errorf("sched_setaffinity: %w", err)
		}
		f()
	}
	return nil
}

// probeSeconds is the length of the short traced pass of each workload
// that a traced run adds for the layers its own workload does not use. At
// 4 s the serve-prism5g open loop still gets the thousand non-warmup
// answers a p99 needs.
const probeSeconds = 4

// probeOtherLayers gives a traced run every per-layer metric: each other
// workload runs a short traced pass under the same tracer, and its layer
// metrics fill the names the run's own workload did not measure. Its
// operations and checks count like the run's own.
func probeOtherLayers(o options, tr *tracer, rep *report) error {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == o.workload {
			continue
		}
		po := o
		po.workload, po.seconds = name, probeSeconds
		pr, err := workloads[name](po, tr)
		if err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		rep.attempted += pr.attempted
		rep.failed += pr.failed
		rep.checks = append(rep.checks, pr.checks...)
		for k, m := range pr.layer {
			if _, ok := rep.layer[k]; !ok {
				rep.layer[k] = m
			}
		}
	}
	return nil
}
