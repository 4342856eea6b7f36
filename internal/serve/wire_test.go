package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// oneSampleBody is a canonical one-sample forecast request: sample 20 of a
// simulated OpZ driving trace with four present carriers, as the load
// generators send it.
const oneSampleBody = `{"session":"a0-1","samples":[{"T":21,"AggTput":139.56934319588848,"NumActiveCCs":4,"CCs":[` +
	`{"Present":true,"BandName":"n71","ChannelID":"n71^a","IsPCell":true,"Vec":[1,0,20,0.6,-69.06103842697144,-19.5,9.738118272354921,6,0.1595358237119737,33.66120010249356,2,9,31.849423579001808]},` +
	`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1,0,100,2.5,-83.0918109680469,-19.5,10.17734837738939,6,0.14059000807809224,104.57024859651747,2,9,76.21120753190273]},` +
	`{"Present":true,"BandName":"n41","ChannelID":"n41^b","IsPCell":false,"Vec":[1,0,40,2.61,-83.1801550305632,-19.5,13.426253988428112,8,0.1728937713765739,25.838656747923523,2,13,24.255148211525302]},` +
	`{"Present":true,"BandName":"n25","ChannelID":"n25^a","IsPCell":false,"Vec":[1,0,20,1.9,-79.50242693719017,-19.5,13.801116016369958,8,0.15521067737931538,11.426893709033031,1,13,7.253563873458627]}]}]}`

// refCC decodes a CC the way the reflection codec always has: through a
// struct of nullable floats, nulls to NaN. It keeps the decode oracle
// independent of trace.WireScanner.
type refCC trace.CC

func (c *refCC) UnmarshalJSON(b []byte) error {
	var in struct {
		Present             bool
		BandName, ChannelID string
		IsPCell             bool
		Vec                 [trace.NumCCFeatures]*float64
	}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*c = refCC{Present: in.Present, BandName: in.BandName, ChannelID: in.ChannelID, IsPCell: in.IsPCell}
	for i, p := range in.Vec {
		c.Vec[i] = math.NaN()
		if p != nil {
			c.Vec[i] = *p
		}
	}
	return nil
}

// refRequest mirrors Request for the reflection-only decode.
type refRequest struct {
	Session string `json:"session"`
	Samples []struct {
		T, AggTput   float64
		NumActiveCCs int
		CCs          [trace.MaxCC]refCC
	} `json:"samples"`
}

// refDecode decodes body by reflection alone, the reference for both of
// DecodeRequest's paths.
func refDecode(body []byte) (*Request, error) {
	var ref refRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		return nil, err
	}
	req := &Request{Session: ref.Session}
	if ref.Samples != nil {
		req.Samples = make([]trace.Sample, len(ref.Samples))
	}
	for i, s := range ref.Samples {
		req.Samples[i] = trace.Sample{T: s.T, AggTput: s.AggTput, NumActiveCCs: s.NumActiveCCs}
		for c := range s.CCs {
			req.Samples[i].CCs[c] = trace.CC(s.CCs[c])
		}
	}
	return req, nil
}

// sameRequest compares two requests field by field, floats by bits.
func sameRequest(a, b *Request) bool {
	if a.Session != b.Session || len(a.Samples) != len(b.Samples) || (a.Samples == nil) != (b.Samples == nil) {
		return false
	}
	bits := math.Float64bits
	for i := range a.Samples {
		x, y := &a.Samples[i], &b.Samples[i]
		if bits(x.T) != bits(y.T) || bits(x.AggTput) != bits(y.AggTput) || x.NumActiveCCs != y.NumActiveCCs {
			return false
		}
		for c := range x.CCs {
			p, q := &x.CCs[c], &y.CCs[c]
			if p.Present != q.Present || p.BandName != q.BandName || p.ChannelID != q.ChannelID || p.IsPCell != q.IsPCell {
				return false
			}
			for f := range p.Vec {
				if bits(p.Vec[f]) != bits(q.Vec[f]) {
					return false
				}
			}
		}
	}
	return true
}

// checkDecodeEquivalence asserts the decode law on one body: the fast path
// declines or returns the reference decode, and encoding/json's own decode
// of a Request accepts and decodes exactly as the reference does.
func checkDecodeEquivalence(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	ref, rerr := refDecode(body)
	var full Request
	ferr := json.Unmarshal(body, &full)
	if (ferr == nil) != (rerr == nil) || (ferr == nil && !sameRequest(&full, ref)) {
		t.Fatalf("json.Unmarshal(Request) = %v; reflection reference = %v\nbody %q", ferr, rerr, body)
	}
	got, ok := scanRequest(body)
	if ok && (rerr != nil || !sameRequest(got, ref)) {
		t.Fatalf("fast path accepted a body the reference decodes differently (%v)\nbody %q", rerr, body)
	}
	return ok
}

func TestScanRequestMatchesReflection(t *testing.T) {
	if !checkDecodeEquivalence(t, []byte(oneSampleBody)) {
		t.Fatal("fast path declined the canonical one-sample body")
	}
	src := rng.New(7)
	for n := 0; n < 500; n++ {
		samples := mkSamples(1+src.Intn(4), 10*src.Float64())
		for i := range samples {
			s := &samples[i]
			s.T = src.NormMS(0, 1e3)
			s.NumActiveCCs = src.Intn(trace.MaxCC + 1)
			for c := 1; c < trace.MaxCC; c++ {
				s.CCs[c] = s.CCs[0]
				s.CCs[c].Present = src.Bool(0.5)
				s.CCs[c].ChannelID = []string{"", "n25^a", "n260^b", "<x>", "é"}[src.Intn(5)]
				for f := range s.CCs[c].Vec {
					s.CCs[c].Vec[f] = []float64{src.NormMS(0, 100), math.NaN(), math.Inf(-1), 1e-9, 3e22, 0}[src.Intn(6)]
				}
			}
		}
		body, err := json.Marshal(Request{Session: "ue-" + string(rune('a'+n%26)), Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		fast := checkDecodeEquivalence(t, body)
		plain := !bytes.ContainsFunc(body, func(r rune) bool { return r == '\\' || r >= 0x80 })
		if plain && !fast {
			t.Fatalf("fast path declined a canonical body: %s", body)
		}
	}
}

// TestScanRequestDeclines: near-canonical bodies the fast path must leave
// to encoding/json, which rejects them or decodes them another way.
func TestScanRequestDeclines(t *testing.T) {
	for _, edit := range [][2]string{
		{`"session":"a0-1"`, "\"session\":\"a0\xff\""},                                // invalid UTF-8 decodes to U+FFFD
		{`"session":"a0-1"`, `"session":"a0\u00e9"`},                                  // an escape
		{`"session":"a0-1"`, `"Session":"a0-1"`},                                      // a case-folded key
		{`"NumActiveCCs":4`, `"NumActiveCCs":4.5`},                                    // not an int
		{`"NumActiveCCs":4`, `"NumActiveCCs":4e0`},                                    // not an int literal
		{`"NumActiveCCs":4`, `"NumActiveCCs":99999999999999999999`},                   // overflows an int
		{`"T":21`, `"T":null`},                                                        // null leaves a float64 at 0
		{`"T":21`, `"T":1e999`},                                                       // out of range
		{`"T":21`, `"T": 21`},                                                         // whitespace
		{`"T":21`, `"T":021`},                                                         // not JSON
		{`"IsPCell":true`, `"IsPCell":null`},                                          // null leaves a bool alone
		{`"NumActiveCCs":4`, `"NumActiveCCs":4,"Extra":1`},                            // an unknown field
		{`"Vec":[1,0,20,`, `"Vec":[1,0,`},                                             // a short vector
		{`{"Present":true,"BandName":"n71"`, `null,{"Present":true,"BandName":"n71"`}, // a null CC
	} {
		body := strings.Replace(oneSampleBody, edit[0], edit[1], 1)
		if body == oneSampleBody {
			t.Fatalf("edit %q does not apply", edit[0])
		}
		if checkDecodeEquivalence(t, []byte(body)) {
			t.Errorf("fast path accepted the edit %q", edit[1])
		}
	}
}

// TestDecodeRequestAllocs caps the fast path's allocations: the request,
// its samples slice and its strings. A scanner that declined every body
// would pass the equality tests; it would not pass this one.
func TestDecodeRequestAllocs(t *testing.T) {
	body := []byte(oneSampleBody)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeRequest(body, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("DecodeRequest of a canonical one-sample body: %v allocations, want at most 12", allocs)
	}
}

func TestResponseEncodingMatchesEncoder(t *testing.T) {
	cases := []*Response{
		{Session: "ue-1", Model: "Prism5G", Warmup: true, Need: 9},
		{Session: `ue-<1>&"q"\`, Model: "é ", ForecastMbps: []float64{1, 2.5, 1e-7, 1e21, math.Copysign(0, -1), 123.456}, QueueWaitMs: 0.0123, InferMs: 0.456},
		{Session: "x", Model: "m", ForecastMbps: []float64{}, Degraded: true, Reason: "timeout", Need: -1},
		{Session: "", Model: "", ForecastMbps: []float64{math.NaN()}},
		{Session: "x", Model: "m", InferMs: math.Inf(1)},
	}
	src := rng.New(3)
	for n := 0; n < 200; n++ {
		r := &Response{Session: "s", Model: "Prism5G", QueueWaitMs: src.Float64() * 1e-3, InferMs: src.Float64()}
		for h := 0; h < 10; h++ {
			r.ForecastMbps = append(r.ForecastMbps, src.NormMS(150, 80))
		}
		cases = append(cases, r)
	}
	for _, r := range cases {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(r) //nolint:errcheck // a refused value writes nothing, which is the reference too
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, r)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("writeJSON wrote\n%q\njson.Encoder writes\n%q", rec.Body.Bytes(), want.Bytes())
		}
	}
}
