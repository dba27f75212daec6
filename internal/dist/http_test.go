package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safesense/internal/campaign"
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

// TestCompleteRefusesUnfinalizablePartial: a completion whose partial
// cannot finalize to a finite, non-negative aggregate is a 400 and
// leaves the lease open. An RMSE sum of 1.7e308 twice would make the
// mean +Inf, which no status or stream payload can encode; a sample
// list, the earlier wire form, no longer decodes. The honest completion
// then closes the campaign with an encodable summary.
func TestCompleteRefusesUnfinalizablePartial(t *testing.T) {
	c := NewCoordinator(Config{LeaseJobs: 2})
	h := c.Handler()
	spec := campaign.Spec{Steps: 50, Attacks: []string{campaign.AttackDoS}, Onsets: []int{15}, Replicates: 2}
	sub, err := c.Submit(SubmitRequest{Spec: spec}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	lease, ok := c.Acquire("w1")
	if !ok {
		t.Fatal("no lease granted")
	}
	post := func(partial string) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"lease_id":%q,"worker_id":"w1","partial":{"jobs":2,"attacked":2,`+
			`"estimated_runs":2,"worst_min_gap_m":3,%s}}`, lease.LeaseID, partial)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dist/lease/complete", strings.NewReader(body)))
		return rec
	}
	for name, partial := range map[string]string{
		"overflowing RMSE sum": `"worst_dist_err_m":1,"dist_rmse":[1.7e308,1.7e308],"vel_rmse":[0.5]`,
		"negative RMSE sum":    `"worst_dist_err_m":1,"dist_rmse":[-1],"vel_rmse":[0.5]`,
		"negative worst error": `"worst_dist_err_m":-1,"dist_rmse":[0.5],"vel_rmse":[0.5]`,
		"sample lists": `"worst_dist_err_m":1,"dist_rmse":[{"i":0,"v":1.7e308},{"i":1,"v":1.7e308}],` +
			`"vel_rmse":[{"i":0,"v":0.5},{"i":1,"v":0.5}]`,
	} {
		if rec := post(partial); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: completion answered %d, want 400; body %s", name, rec.Code, rec.Body)
		}
	}
	if st, _ := c.CampaignStatus(sub.ID); st.DoneLeases != 0 {
		t.Fatalf("a refused completion closed %d leases", st.DoneLeases)
	}

	honest, err := json.Marshal(runShard(t, lease))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dist/lease/complete", strings.NewReader(string(honest))))
	if rec.Code != http.StatusOK {
		t.Fatalf("honest completion answered %d: %s", rec.Code, rec.Body)
	}
	st, _ := c.CampaignStatus(sub.ID)
	if _, err := json.Marshal(st); err != nil || st.Summary == nil {
		t.Fatalf("summary %v does not encode: %v", st.Summary, err)
	}
}
