package serve

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeRequest hammers the API boundary with arbitrary bytes. The
// decoder must never panic; its fast path must decline or return exactly
// what the reflection reference decodes, float bits included, and
// encoding/json's decode of a Request must agree with the reference too.
// When it accepts a payload, the boundary invariants must hold (the
// handler relies on them without re-checking): non-empty bounded session
// ID, bounded sample count, finite timestamps and non-negative finite
// aggregate throughputs.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"session":"ue-1","samples":[{"T":0,"AggTput":100,"NumActiveCCs":1}]}`))
	f.Add([]byte(`{"session":"ue-2","samples":[{"T":1.5,"AggTput":0,"CCs":[{"Present":true,"Vec":[1,0,100,2.5,null,-11,15,11,0.05,150,2,20,80]}]}]}`))
	f.Add([]byte(`{"session":"","samples":[]}`))
	f.Add([]byte(`{"session":"x","samples":[{"T":1e999}]}`))
	f.Add([]byte(`[{"not":"an object"}]`))
	f.Add([]byte(`{{{{`))
	f.Add([]byte(``))
	f.Add([]byte(oneSampleBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEquivalence(t, data)
		const maxSamples = 16
		req, err := DecodeRequest(data, maxSamples)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if req.Session == "" || len(req.Session) > maxSessionIDLen || !utf8.ValidString(req.Session) {
			t.Fatalf("accepted bad session ID %q", req.Session)
		}
		if len(req.Samples) == 0 || len(req.Samples) > maxSamples {
			t.Fatalf("accepted %d samples", len(req.Samples))
		}
		for i, s := range req.Samples {
			if math.IsNaN(s.T) || math.IsInf(s.T, 0) {
				t.Fatalf("samples[%d]: non-finite T %v accepted", i, s.T)
			}
			if math.IsNaN(s.AggTput) || math.IsInf(s.AggTput, 0) || s.AggTput < 0 {
				t.Fatalf("samples[%d]: bad AggTput %v accepted", i, s.AggTput)
			}
		}
		// Accepted payloads must survive the NaN-safe re-encode (the
		// journal and any proxy tier serialize them again).
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
	})
}
