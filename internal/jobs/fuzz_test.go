package jobs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// FuzzSubmitBody posts arbitrary bytes to POST /v1/jobs. Whatever the body,
// the server answers with a typed status — accepted, bad spec, duplicate,
// too large, over quota or queue full — and never a 500 or a panic.
func FuzzSubmitBody(f *testing.F) {
	// A valid spec, a truncated one, an unknown field, trailing data, a NaN
	// budget and a negative sample timeout.
	for _, seed := range []string{`{"name":"j","program":"tune","seed":1}`, `{"name":"j","prog`,
		`{"name":"j","program":"tune","bogus":1}`, `{"name":"j","program":"tune"} {}`,
		`{"name":"j","program":"tune","budget":NaN}`, `{"name":"j","program":"tune","fault":{"sample_timeout":-1}}`} {
		f.Add([]byte(seed))
	}
	release := make(chan struct{})
	m := NewManager(Options{
		Runtime:    core.NewRuntime(core.RuntimeOptions{MaxPool: 2}),
		Programs:   testRegistry(release),
		MaxRunning: 1,
		MaxQueued:  2,
		Quotas:     map[string]TenantQuota{"capped": {RatePerSec: 0.001, Burst: 1}},
	})
	f.Cleanup(func() {
		close(release)
		m.Close()
	})
	srv := NewServer(m, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
