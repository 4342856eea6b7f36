package obs

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLILifecycle drives the full flag path: parse, start, record, close,
// then check the metrics snapshot and journal landed on disk and the
// default registry is disabled again.
func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	journal := filepath.Join(dir, "j.jsonl")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse([]string{"-metrics", metrics, "-journal", journal}); err != nil {
		t.Fatal(err)
	}
	cli, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !cli.Active() {
		t.Fatal("CLI must be active when flags are set")
	}
	if !Enabled() {
		t.Fatal("Start must enable the default registry")
	}
	Add("sim.traces_built", 4)
	Add("trace.windows_built", 40)
	Emit("test.ev", map[string]any{"k": 1})
	sum := cli.Summary()
	if !strings.Contains(sum, "traces/s") || !strings.Contains(sum, "MiB") {
		t.Fatalf("summary missing rates or memory: %q", sum)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("Close must disable the default registry")
	}

	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics file must be a valid snapshot: %v", err)
	}
	if snap.Counters["sim.traces_built"] != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	evs, err := ReadEvents(jf)
	if err != nil || len(evs) != 1 || evs[0].Name != "test.ev" {
		t.Fatalf("journal = %v, %v", evs, err)
	}
}

// TestCLINoFlagsIsInert pins the default: no flags, no telemetry, nil CLI
// that is safe to use.
func TestCLINoFlagsIsInert(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cli, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if cli.Active() {
		t.Fatal("CLI must be inert without flags")
	}
	if Enabled() {
		t.Fatal("registry must stay disabled without flags")
	}
	if err := cli.Close(); err != nil { // nil receiver path
		t.Fatal(err)
	}
	if s := cli.Summary(); s != "" {
		t.Fatalf("inert summary = %q", s)
	}
}

// TestCLIJournalBudget drives the -journal-max-mb flag end to end: a noisy
// run against a 1 MiB budget must stop with a journal.truncated sentinel
// and still close cleanly with a parseable journal on disk.
func TestCLIJournalBudget(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse([]string{"-journal", journal, "-journal-max-mb", "1"}); err != nil {
		t.Fatal(err)
	}
	cli, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 100)
	for i := 0; i < 12000; i++ { // ~1.4 MiB of events against a 1 MiB budget
		Emit("noise", map[string]any{"i": i, "pad": pad})
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	evs, err := ReadEvents(jf)
	if err != nil {
		t.Fatalf("truncated journal must stay parseable: %v", err)
	}
	if len(evs) == 0 || evs[len(evs)-1].Name != "journal.truncated" {
		t.Fatalf("last of %d events is %q, want journal.truncated",
			len(evs), evs[len(evs)-1].Name)
	}
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > (1<<20)+1024 {
		t.Fatalf("journal is %d bytes, far past its 1 MiB budget", fi.Size())
	}
}

// TestCLISummarySubsystems covers Summary's conditional lines: the
// population and spilling-sink digests appear only when those counters
// fired.
func TestCLISummarySubsystems(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	metrics := filepath.Join(t.TempDir(), "m.json")
	if err := fs.Parse([]string{"-metrics", metrics}); err != nil {
		t.Fatal(err)
	}
	cli, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if s := cli.Summary(); strings.Contains(s, "population:") || strings.Contains(s, "sink:") {
		t.Fatalf("quiet run must not mention population or sink: %q", s)
	}
	Add("pop.ues_built", 100)
	Default().Set("pop.ues_per_s", 50)
	Add("sink.spill_traces", 3)
	Add("sink.spill_bytes", 1<<20)
	Default().Observe("sink.emit_wait_s", 0.25)
	s := cli.Summary()
	if !strings.Contains(s, "population: 100 UEs") {
		t.Errorf("summary missing population line: %q", s)
	}
	if !strings.Contains(s, "sink: spilled 3 traces") {
		t.Errorf("summary missing sink line: %q", s)
	}
}

// TestCLIPprof starts the profiling server on an ephemeral port and fetches
// an index page from it.
func TestCLIPprof(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	cli, err := f.Start()
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	defer cli.Close()
	addr := cli.PprofAddr()
	if addr == "" {
		t.Fatal("pprof address must be reported")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof fetch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}
