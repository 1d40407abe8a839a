package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveFuzz sends one request to the handler and fails the fuzz input if
// the daemon answers with a 5xx or counts a server error: every byte a
// client controls is client input, and malformed client input is a 4xx.
func serveFuzz(t *testing.T, s *Server, h http.Handler, req *http.Request) *httptest.ResponseRecorder {
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
	return rec
}

// FuzzRunQuery throws arbitrary query strings at /v1/run on a stub lab:
// ids, machines, seeds, quick flags, formats and timeouts, well-formed or
// not, percent-encoded or raw. The raw query bypasses URL validation, so
// it reaches the handler exactly as fuzzed. Each query is sent twice: a
// JSON miss must be followed by a hit with the same ETag whose body is the
// miss's with "cached": true. The seed corpus in
// testdata/fuzz/FuzzRunQuery covers every parameter's parse error, an
// unknown id, each renderer, and misses with and without the omitted seed
// and quick fields.
func FuzzRunQuery(f *testing.F) {
	s := New(&stubLab{}, Options{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
		req.URL.RawQuery = query
		first := serveFuzz(t, s, h, req)
		again := serveFuzz(t, s, h, req)
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" ||
			first.Header().Get("Content-Type") != "application/json" {
			return
		}
		want := bytes.Replace(first.Body.Bytes(), []byte(`"cached": false`), []byte(`"cached": true`), 1)
		if again.Code != http.StatusOK || again.Header().Get("X-Cache") != "hit" ||
			again.Header().Get("ETag") != first.Header().Get("ETag") || !bytes.Equal(again.Body.Bytes(), want) {
			t.Fatalf("%s: repeat of a miss = %d X-Cache %q ETag %s (miss ETag %s)\n%s\nwant:\n%s", query,
				again.Code, again.Header().Get("X-Cache"), again.Header().Get("ETag"), first.Header().Get("ETag"),
				again.Body.Bytes(), want)
		}
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
