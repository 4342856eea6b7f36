package serve

import (
	"encoding/json"
	"testing"
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
