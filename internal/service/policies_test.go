package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/hier"
)

// TestPoliciesEndpoint checks GET /v1/policies serves the policy table:
// one entry per policy, in table order, with the capability bits the
// descriptors declare — so clients can discover valid -policy values
// without a baked-in list.
func TestPoliciesEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{}, nil)
	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got PolicyList
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
		k, err := hier.ParsePolicy(pv.Name)
		if err != nil {
			t.Errorf("served name %q does not parse: %v", pv.Name, err)
			continue
		}
		d := k.Descriptor()
		if pv.UsesMetadata != d.UsesMetadata || pv.UniformLatency != d.UniformLatency ||
			pv.SLIPMachinery != d.SLIPMachinery || pv.AllowABP != d.AllowABP {
			t.Errorf("%s: served bits diverge from descriptor", pv.Name)
		}
		if pv.Doc == "" {
			t.Errorf("%s: served with no doc line", pv.Name)
		}
		for _, a := range pv.Aliases {
			ak, err := hier.ParsePolicy(a)
			if err != nil || ak != k {
				t.Errorf("%s: served alias %q does not resolve back to it", pv.Name, a)
			}
		}
	}
}
