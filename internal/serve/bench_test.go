package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"prism5g/internal/core"
)

func BenchmarkDecodeRequest(b *testing.B) {
	body := []byte(oneSampleBody)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(body, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalRequest(b *testing.B) {
	req, err := DecodeRequest([]byte(oneSampleBody), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandleForecast times one forecast through the handler in
// process, the way the load generators send it: a one-sample body with its
// Content-Length, for a warm session of a default-width Prism5G server
// (untrained; training changes the weights, not the work). Each op
// includes httptest's request and recorder.
func BenchmarkHandleForecast(b *testing.B) {
	s := New("Prism5G", core.New(core.DefaultOptions(), 10), mkScaler(), Config{})
	h := s.Handler()
	body := []byte(oneSampleBody)
	post := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body)))
		return rec.Code
	}
	for i := 0; i < s.cfg.History; i++ { // the session's warmup
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}
