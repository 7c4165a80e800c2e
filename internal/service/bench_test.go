package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pnm"
)

// BenchmarkServiceLabelJSON drives Handler.ServeHTTP end to end — bytes in,
// bytes out, as ccserve serves them with default flags — with a 2048²
// LandCover P4 body to /v1/label?components=true and JSON out: once under
// the default algorithm (bit-packed ingest, statistics folded from runs, no
// label map) and once pinned to the paper's PAREMSP (byte raster, label
// map, per-row statistics fold).
func BenchmarkServiceLabelJSON(b *testing.B) {
	var body bytes.Buffer
	if err := pnm.EncodePBM(&body, dataset.LandCover(2048, 2048, 32, 0.5, 1), true); err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(Config{})
	defer eng.Close()
	h := NewHandler(eng, HandlerConfig{})
	for _, c := range []struct{ name, query string }{
		{"default", "?components=true"},
		{"alg=paremsp", "?components=true&alg=paremsp"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/label"+c.query, bytes.NewReader(body.Bytes()))
				req.Header.Set("Content-Type", ctPBM)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
