package experiments

import (
	"testing"

	"prism5g/internal/sim"
)

// stripTimes zeroes the wall-clock fields so cells compare on the
// deterministic payload only.
func stripTimes(cells []CellResult) []CellResult {
	out := append([]CellResult(nil), cells...)
	for i := range out {
		out[i].TrainTime = 0
	}
	return out
}

// TestTable4DeterminismAcrossWorkers pins the experiment-level determinism
// contract: the full model x sub-dataset grid returns identical cells (in
// identical order) whether the fan-out runs serially or on a pool.
func TestTable4DeterminismAcrossWorkers(t *testing.T) {
	cfg := MLConfig{
		Traces: 3, SamplesPerTrace: 100, Stride: 4,
		Hidden: 8, Epochs: 4, Patience: 2, Seed: 21,
		Models: []string{"LSTM"},
	}
	run := func(workers int) []CellResult {
		c := cfg
		c.Workers = workers
		return stripTimes(Table4(sim.Long, c).Cells)
	}
	serial := run(1)
	if len(serial) != len(sim.AllSubDatasets(sim.Long)) {
		t.Fatalf("serial run produced %d cells", len(serial))
	}
	for _, w := range []int{4, 8} {
		got := run(w)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d cells, want %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d cell %d differs:\n got %+v\nwant %+v", w, i, got[i], serial[i])
			}
		}
	}
}
