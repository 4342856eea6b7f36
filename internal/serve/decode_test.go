package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"prism5g/internal/mobility"
	"prism5g/internal/ran"
	"prism5g/internal/sim"
	"prism5g/internal/spectrum"
	"prism5g/internal/trace"
)

func TestDecodeRequestValid(t *testing.T) {
	body, err := json.Marshal(Request{Session: "ue-1", Samples: mkSamples(3, 50)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(body, 64)
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if req.Session != "ue-1" || len(req.Samples) != 3 {
		t.Fatalf("decoded %q/%d samples", req.Session, len(req.Samples))
	}
}

func TestDecodeRequestNaNFeatureRoundTrip(t *testing.T) {
	// A NaN per-CC sensor reading encodes as null (the trace JSON
	// convention) and must decode back to NaN without being rejected —
	// the serving path degrades such windows, the boundary accepts them.
	samples := mkSamples(1, 50)
	samples[0].CCs[0].Vec[trace.FSINR] = math.NaN()
	body, err := json.Marshal(Request{Session: "ue", Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "null") {
		t.Fatalf("NaN did not encode as null: %s", body)
	}
	req, err := DecodeRequest(body, 64)
	if err != nil {
		t.Fatalf("NaN-bearing payload rejected: %v", err)
	}
	if !math.IsNaN(req.Samples[0].CCs[0].Vec[trace.FSINR]) {
		t.Fatal("null did not decode back to NaN")
	}
}

// TestDecodeRequestDeepCA: the simulator records up to 8 active carriers
// for OpX mmWave, and trace.Validate accepts them, so the API boundary
// must too (only the top MaxCC carriers carry feature slots).
func TestDecodeRequestDeepCA(t *testing.T) {
	ds := sim.Build(sim.SubDatasetSpec{Operator: spectrum.OpX, Mobility: mobility.Driving, Gran: sim.Short},
		sim.BuildOpts{Traces: 3, SamplesPerTrace: 240, Seed: 53, Modem: ran.ModemX70, Workers: 1})
	if rep := ds.Validate(); !rep.OK() {
		t.Fatalf("simulated OpX dataset fails validation: %v", rep.Err())
	}
	var deep *trace.Sample
	for ti := range ds.Traces {
		for i := range ds.Traces[ti].Samples {
			if s := &ds.Traces[ti].Samples[i]; s.NumActiveCCs == 8 {
				deep = s
			}
		}
	}
	if deep == nil {
		t.Fatal("no 8-CC sample in the OpX driving build")
	}
	body, err := json.Marshal(Request{Session: "ue-mmw", Samples: []trace.Sample{*deep}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(body, 64)
	if err != nil {
		t.Fatalf("8-CC OpX sample rejected: %v", err)
	}
	if got := req.Samples[0].NumActiveCCs; got != 8 {
		t.Fatalf("decoded %d active CCs, want 8", got)
	}
}

func TestDecodeRequestRejections(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"truncated", `{"session":"x","samples":[{"T":0`},
		{"array", `[]`},
		{"no-session", `{"samples":[{"T":0,"AggTput":1}]}`},
		{"blank-session", `{"session":"","samples":[{"T":0,"AggTput":1}]}`},
		{"no-samples", `{"session":"x","samples":[]}`},
		{"too-many-samples", func() string {
			b, _ := json.Marshal(Request{Session: "x", Samples: mkSamples(65, 1)})
			return string(b)
		}()},
		{"overflow-tput", `{"session":"x","samples":[{"T":0,"AggTput":1e999}]}`},
		{"negative-tput", `{"session":"x","samples":[{"T":0,"AggTput":-1}]}`},
		{"overflow-time", `{"session":"x","samples":[{"T":1e999,"AggTput":1}]}`},
		{"cc-count-high", `{"session":"x","samples":[{"T":0,"AggTput":1,"NumActiveCCs":17}]}`},
		{"cc-count-negative", `{"session":"x","samples":[{"T":0,"AggTput":1,"NumActiveCCs":-1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest([]byte(tc.body), 64)
			if err == nil {
				t.Fatalf("payload accepted: %s", tc.body)
			}
			var re *RequestError
			if !asRequestError(err, &re) {
				t.Fatalf("error is not a RequestError: %v", err)
			}
			if re.Status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", re.Status)
			}
		})
	}
}

func asRequestError(err error, target **RequestError) bool {
	re, ok := err.(*RequestError)
	if ok {
		*target = re
	}
	return ok
}
