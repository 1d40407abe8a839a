package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveFuzz sends one request to the handler and fails the fuzz input if
// the daemon answers with a 5xx or counts a server error: every byte a
// client controls is client input, and malformed client input is a 4xx.
func serveFuzz(t *testing.T, s *Server, h http.Handler, req *http.Request) {
	t.Helper()
	before := s.errs.Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= http.StatusInternalServerError {
		t.Fatalf("%s %s = %d: %s", req.Method, req.URL, rec.Code, rec.Body.Bytes())
	}
	if after := s.errs.Value(); after != before {
		t.Fatalf("%s %s moved serve.errors %d -> %d (status %d)", req.Method, req.URL, before, after, rec.Code)
	}
}

// FuzzRunQuery throws arbitrary query strings at /v1/run on a stub lab:
// ids, machines, seeds, quick flags, formats and timeouts, well-formed or
// not, percent-encoded or raw. The raw query bypasses URL validation, so
// it reaches the handler exactly as fuzzed. The seed corpus in
// testdata/fuzz/FuzzRunQuery covers every parameter's parse error, an
// unknown id and each renderer.
func FuzzRunQuery(f *testing.F) {
	s := New(&stubLab{}, Options{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
		req.URL.RawQuery = query
		serveFuzz(t, s, h, req)
	})
}

// FuzzDiagnoseBody throws arbitrary bodies at /v1/diagnose: malformed JSON,
// wrong types, unknown categories, negative, huge and out-of-range
// seconds, and tuned requests for known and unknown machines. The seed corpus in
// testdata/fuzz/FuzzDiagnoseBody covers each of those 400s and the 200s.
func FuzzDiagnoseBody(f *testing.F) {
	s := New(&stubLab{}, Options{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", strings.NewReader(body))
		serveFuzz(t, s, h, req)
	})
}
