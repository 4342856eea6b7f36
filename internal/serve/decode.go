package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"unicode/utf8"

	"prism5g/internal/trace"
)

// Request is the wire form of a forecast call: a session ID plus the new
// samples to append to that session's sliding window. Samples use the
// trace package's NaN-safe JSON convention — non-finite per-CC sensor
// readings travel as null and decode back to NaN, exactly like degraded
// traces on disk — so a field handset can relay raw modem diagnostics
// without pre-cleaning them.
type Request struct {
	Session string         `json:"session"`
	Samples []trace.Sample `json:"samples"`
}

// maxSessionIDLen bounds the session key so the session map cannot be
// ballooned by megabyte-long IDs.
const maxSessionIDLen = 128

// RequestError is a typed decode/validation failure carrying the HTTP
// status the API boundary should answer with.
type RequestError struct {
	Status int
	Msg    string
}

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// DecodeRequest parses and validates one forecast request body. The
// guards mirror internal/trace's ingestion discipline at the API boundary:
// non-finite timestamps or aggregate throughputs are rejected (they would
// poison the scaled window), sample counts are bounded, and session IDs
// must be non-empty, valid UTF-8 and short. Per-CC feature NaNs (the null
// convention) are legal degraded input — the serving path degrades those
// windows to the fallback forecast instead of refusing them.
func DecodeRequest(body []byte, maxSamples int) (*Request, error) {
	if maxSamples <= 0 {
		maxSamples = 64
	}
	req, ok := scanRequest(body)
	if !ok {
		req = new(Request)
		if err := json.Unmarshal(body, req); err != nil {
			return nil, badRequest("malformed request: %v", err)
		}
	}
	if req.Session == "" {
		return nil, badRequest("missing session ID")
	}
	if len(req.Session) > maxSessionIDLen {
		return nil, badRequest("session ID longer than %d bytes", maxSessionIDLen)
	}
	if !utf8.ValidString(req.Session) {
		return nil, badRequest("session ID is not valid UTF-8")
	}
	if len(req.Samples) == 0 {
		return nil, badRequest("no samples")
	}
	if len(req.Samples) > maxSamples {
		return nil, badRequest("%d samples exceeds the per-request limit of %d", len(req.Samples), maxSamples)
	}
	for i, s := range req.Samples {
		if math.IsNaN(s.T) || math.IsInf(s.T, 0) {
			return nil, badRequest("samples[%d]: non-finite timestamp", i)
		}
		if math.IsNaN(s.AggTput) || math.IsInf(s.AggTput, 0) {
			return nil, badRequest("samples[%d]: non-finite aggregate throughput", i)
		}
		if s.AggTput < 0 {
			return nil, badRequest("samples[%d]: negative aggregate throughput %g", i, s.AggTput)
		}
		if s.NumActiveCCs < 0 || s.NumActiveCCs > trace.MaxActiveCCs {
			return nil, badRequest("samples[%d]: active CC count %d outside [0, %d]", i, s.NumActiveCCs, trace.MaxActiveCCs)
		}
	}
	return req, nil
}

// scanRequest decodes a body in the canonical wire form, the bytes
// json.Marshal writes for a Request, with trace.WireScanner. It declines
// (false) on anything else, which DecodeRequest hands to encoding/json, so
// a request decodes to the same value, bit for bit, on either path.
func scanRequest(body []byte) (*Request, bool) {
	sc := trace.NewWireScanner(body)
	req := new(Request)
	sc.Lit(`{"session":`)
	req.Session = sc.String()
	sc.Lit(`,"samples":[`)
	for more := true; more; more = sc.Next(',') {
		req.Samples = append(req.Samples, trace.Sample{})
		sc.Sample(&req.Samples[len(req.Samples)-1])
	}
	sc.Lit("]}")
	return req, sc.Done()
}
