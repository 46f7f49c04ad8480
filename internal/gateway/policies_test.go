package gateway

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/hier"
	"repro/internal/service"
)

// TestGatewayServesPoliciesLocally checks the gateway answers GET
// /v1/policies from its own compiled-in policy table — the fake backend has
// no such route, so any attempt to proxy would fail, and the answer must
// stay available even with zero healthy nodes.
func TestGatewayServesPoliciesLocally(t *testing.T) {
	b := newFakeBackend(t, "b1")
	b.ready.Store(http.StatusServiceUnavailable) // nothing healthy to proxy to
	_, ts, _ := testGateway(t, Config{}, b)

	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got service.PolicyList
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	names := hier.PolicyNames()
	if len(got.Policies) != len(names) {
		t.Fatalf("served %d policies, table has %d", len(got.Policies), len(names))
	}
	for i, pv := range got.Policies {
		if pv.Name != names[i] {
			t.Errorf("policy[%d] = %q, want %q", i, pv.Name, names[i])
		}
	}
}
