package dist

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// failingBody yields the start of a JSON object, then a read error: a
// client that hangs up mid-body.
type failingBody struct{ sent bool }

func (b *failingBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, `{"worker_id":`), nil
	}
	return 0, errors.New("connection reset mid-body")
}

// TestBodyReadErrorStatus: a body that fails mid-read is the client's
// fault (400) on every POST route; only a body over the size cap is 413.
func TestBodyReadErrorStatus(t *testing.T) {
	h := NewCoordinator(Config{}).Handler()
	for _, path := range []string{
		"/v1/dist/campaigns", "/v1/dist/lease", "/v1/dist/lease/progress",
		"/v1/dist/lease/complete",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, &failingBody{}))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: failed read answered %d, want 400; body %s", path, rec.Code, rec.Body)
		}
	}

	huge := strings.NewReader(strings.Repeat(" ", maxDistBodyBytes+1))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dist/lease", huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body answered %d, want 413", rec.Code)
	}
}
