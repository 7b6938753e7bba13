package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postPolicyJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// TestPolicyAPILifecycle drives the /v1/policies CRUD surface with a
// manual policy: create, list, fetch, delete, and the error paths.
func TestPolicyAPILifecycle(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})

	resp, raw := postPolicyJSON(t, srv, "/v1/policies",
		`{"provider":"cc1","rules":[{"pattern":"/proc/timer_list","action":"deny","channel":"timer interrupts"}]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/policies status = %d, body %s; want 201", resp.StatusCode, raw)
	}
	var rec PolicyRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode policy record from %s: %v", raw, err)
	}
	if rec.ID == "" || rec.Source != "manual" || rec.Report != nil {
		t.Fatalf("record = %+v; want an ID, manual source, no report", rec)
	}
	if len(rec.Policy.Rules) != 1 || rec.Policy.Rules[0].Pattern != "/proc/timer_list" {
		t.Fatalf("stored rules = %+v; want the submitted deny rule", rec.Policy.Rules)
	}
	if rec.Policy.Seed == 0 {
		t.Fatalf("manual policy seed not defaulted: %+v", rec.Policy)
	}

	// The record shows up in the list and is fetchable by id.
	lresp, err := http.Get(srv.URL + "/v1/policies")
	if err != nil {
		t.Fatalf("GET /v1/policies: %v", err)
	}
	var list struct {
		Policies []PolicyRecord `json:"policies"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode policy list: %v", err)
	}
	lresp.Body.Close()
	if len(list.Policies) != 1 || list.Policies[0].ID != rec.ID {
		t.Fatalf("list = %+v; want exactly the created policy", list.Policies)
	}
	gresp, err := http.Get(srv.URL + "/v1/policies/" + rec.ID)
	if err != nil {
		t.Fatalf("GET /v1/policies/%s: %v", rec.ID, err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/policies/%s status = %d; want 200", rec.ID, gresp.StatusCode)
	}
	if v := metricValue(t, scrape(t, srv), "leaksd_policies"); v != 1 {
		t.Fatalf("leaksd_policies = %v; want 1", v)
	}

	// Error paths: unknown id, missing/unknown provider, bad rules, and a
	// rollout query before any rollout ran.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/policies/no-such-id", "", http.StatusNotFound},
		{"DELETE", "/v1/policies/no-such-id", "", http.StatusNotFound},
		{"GET", "/v1/policies/" + rec.ID + "/rollout", "", http.StatusNotFound},
		{"POST", "/v1/policies", `{"rules":[]}`, http.StatusBadRequest},
		{"POST", "/v1/policies", `{"provider":"nope"}`, http.StatusNotFound},
		{"POST", "/v1/policies", `{"provider":"cc1","rules":[{"pattern":"","action":"deny"}]}`, http.StatusBadRequest},
		{"POST", "/v1/policies", `{"provider":"cc1","rules":[{"pattern":"/proc/stat","action":"shred"}]}`, http.StatusBadRequest},
		{"POST", "/v1/policies", `{"provider":"cc1","bogus":1}`, http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if tc.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s status = %d, body %s; want %d", tc.method, tc.path, resp.StatusCode, raw, tc.want)
		}
	}

	// Delete is idempotent in outcome: 204 once, 404 after.
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/policies/"+rec.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d; want 204", dresp.StatusCode)
	}
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("second DELETE: %v", err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status = %d; want 404", dresp2.StatusCode)
	}
	if v := metricValue(t, scrape(t, srv), "leaksd_policies"); v != 0 {
		t.Fatalf("leaksd_policies after delete = %v; want 0", v)
	}
}

// TestPolicySynthesizeAndRolloutAPI exercises the happy path end to end:
// synthesize a policy for cc1 over HTTP, confirm the verification report,
// then roll it out and watch it promote.
func TestPolicySynthesizeAndRolloutAPI(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})

	resp, raw := postPolicyJSON(t, srv, "/v1/policies", `{"provider":"cc1"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("synthesize status = %d, body %s; want 201", resp.StatusCode, raw)
	}
	var rec PolicyRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode record: %v", err)
	}
	if rec.Source != "synthesized" || rec.Report == nil {
		t.Fatalf("record = %+v; want synthesized source with a report", rec)
	}
	if rec.Report.Closure < 0.9 {
		t.Fatalf("closure = %v; want >= 0.9", rec.Report.Closure)
	}
	if len(rec.Report.BenignFailures) != 0 {
		t.Fatalf("benign failures = %v; want none", rec.Report.BenignFailures)
	}
	if len(rec.Policy.Rules) == 0 {
		t.Fatalf("synthesized policy has no rules")
	}
	sc := scrape(t, srv)
	if v := metricValue(t, sc, `leaksd_policy_syntheses_total{provider="cc1"}`); v != 1 {
		t.Fatalf("syntheses counter = %v; want 1", v)
	}

	rresp, rraw := postPolicyJSON(t, srv, "/v1/policies/"+rec.ID+"/rollout", `{"fleet":3}`)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("rollout status = %d, body %s; want 200", rresp.StatusCode, rraw)
	}
	var st RolloutStatus
	if err := json.Unmarshal(rraw, &st); err != nil {
		t.Fatalf("decode rollout status: %v", err)
	}
	if string(st.Result.Phase) != "done" {
		t.Fatalf("rollout result = %+v; want phase done", st.Result)
	}
	if st.Result.ChannelsClosed == 0 || st.Result.FleetSize != 3 {
		t.Fatalf("rollout result = %+v; want closures over a 3-container fleet", st.Result)
	}

	// The outcome is queryable and visible in the metric families.
	gresp, err := http.Get(srv.URL + "/v1/policies/" + rec.ID + "/rollout")
	if err != nil {
		t.Fatalf("GET rollout: %v", err)
	}
	var got RolloutStatus
	if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
		t.Fatalf("decode stored rollout: %v", err)
	}
	gresp.Body.Close()
	if got.Result.Phase != st.Result.Phase || got.Policy != rec.ID {
		t.Fatalf("stored rollout = %+v; want the POST response persisted", got)
	}
	sc = scrape(t, srv)
	if v := metricValue(t, sc, `leaksd_policy_rollouts_total{provider="cc1",phase="done"}`); v != 1 {
		t.Fatalf("rollouts{done} = %v; want 1", v)
	}
	if v := metricValue(t, sc, `leaksd_policy_channels_closed{provider="cc1"}`); v == 0 {
		t.Fatalf("channels_closed gauge = %v; want > 0", v)
	}
	if v := metricValue(t, sc, `leaksd_policy_rollbacks_total{provider="cc1"}`); v != 0 {
		t.Fatalf("rollbacks = %v; want 0 on a clean promotion", v)
	}
}

// TestPolicyRolloutAPIRollback injects a benign-breaking manual policy and
// confirms the canary controller's auto-rollback is visible in the HTTP
// response, the stored record, the leaksd_policy_* metrics, and the event
// stream.
func TestPolicyRolloutAPIRollback(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})
	events, stop := sseClient(t, srv)
	defer stop()

	_, raw := postPolicyJSON(t, srv, "/v1/policies",
		`{"provider":"cc1","rules":[{"pattern":"/proc/cpuinfo","action":"deny","channel":"injected breakage"}]}`)
	var rec PolicyRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode record from %s: %v", raw, err)
	}

	rresp, rraw := postPolicyJSON(t, srv, "/v1/policies/"+rec.ID+"/rollout", `{"fleet":4,"canary_percent":25}`)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("rollout status = %d, body %s; want 200", rresp.StatusCode, rraw)
	}
	var st RolloutStatus
	if err := json.Unmarshal(rraw, &st); err != nil {
		t.Fatalf("decode rollout status: %v", err)
	}
	if string(st.Result.Phase) != "rolled_back" {
		t.Fatalf("result = %+v; want rolled_back", st.Result)
	}
	if len(st.Result.BenignFailures) == 0 || st.Result.BenignFailures[0] != "/proc/cpuinfo" {
		t.Fatalf("benign failures = %v; want the denied /proc/cpuinfo", st.Result.BenignFailures)
	}
	if st.Result.Reason == "" {
		t.Fatalf("rolled-back result carries no reason: %+v", st.Result)
	}

	// The rollback is an alerting signal: counter families move, and the
	// canary gauge records the set that was reverted.
	sc := scrape(t, srv)
	if v := metricValue(t, sc, `leaksd_policy_rollbacks_total{provider="cc1"}`); v != 1 {
		t.Fatalf("rollbacks = %v; want 1", v)
	}
	if v := metricValue(t, sc, `leaksd_policy_benign_failures_total{provider="cc1"}`); v < 1 {
		t.Fatalf("benign failures counter = %v; want >= 1", v)
	}
	if v := metricValue(t, sc, `leaksd_policy_rollouts_total{provider="cc1",phase="rolled_back"}`); v != 1 {
		t.Fatalf("rollouts{rolled_back} = %v; want 1", v)
	}
	if v := metricValue(t, sc, `leaksd_policy_canary_containers{provider="cc1"}`); v != 1 {
		t.Fatalf("canary gauge = %v; want the 1-container canary set", v)
	}

	// The event stream carried the rollout: a canary phase event and the
	// terminal rolled_back event, all tagged with the policy id, provider,
	// and world epoch.
	var sawCanary, sawRollback bool
	deadline := time.After(10 * time.Second)
	for !(sawCanary && sawRollback) {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream closed before rollout events (canary=%v rollback=%v)", sawCanary, sawRollback)
			}
			if ev.Policy != rec.ID {
				continue
			}
			if ev.Provider != "cc1" {
				t.Fatalf("policy event without provider: %+v", ev)
			}
			switch {
			case ev.Type == EventPolicy && ev.Phase == "canary":
				sawCanary = true
			case ev.Type == EventPolicy && ev.Phase == "rolled_back":
				if ev.Reason == "" {
					t.Fatalf("rolled_back event without reason: %+v", ev)
				}
				sawRollback = true
			}
		case <-deadline:
			t.Fatalf("timed out waiting for rollout events (canary=%v rollback=%v)", sawCanary, sawRollback)
		}
	}
}

// TestScanVerdictEventsCarryProviderAndEpoch runs one real inspection scan
// and checks the enriched verdict events: every verdict frame names its
// provider and the engine epoch it was observed at.
func TestScanVerdictEventsCarryProviderAndEpoch(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, nil)
	events, stop := sseClient(t, srv)
	defer stop()

	resp, job := postScanJSON(t, srv, `{"kind":"inspect","provider":"cc1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d; want 202", resp.StatusCode)
	}
	pollScanDone(t, srv, job.ID)

	deadline := time.After(30 * time.Second)
	verdicts := 0
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream closed after %d verdicts", verdicts)
			}
			switch ev.Type {
			case EventVerdict:
				if ev.Provider != "cc1" {
					t.Fatalf("verdict event without provider: %+v", ev)
				}
				if ev.Epoch == 0 {
					t.Fatalf("verdict event without engine epoch: %+v", ev)
				}
				verdicts++
			case EventScanDone:
				if verdicts == 0 {
					t.Fatalf("scan_done before any verdict event")
				}
				if ev.Provider != "cc1" || ev.Epoch == 0 {
					t.Fatalf("scan_done missing provider/epoch: %+v", ev)
				}
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for scan events (%d verdicts so far)", verdicts)
		}
	}
}

// TestPolicyRolloutRejectsOversizedFleet checks that a rollout asking for
// more than MaxRolloutFleet containers is refused and records no status.
func TestPolicyRolloutRejectsOversizedFleet(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})
	_, raw := postPolicyJSON(t, srv, "/v1/policies",
		`{"provider":"cc1","rules":[{"pattern":"/proc/timer_list","action":"deny"}]}`)
	var rec PolicyRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode record from %s: %v", raw, err)
	}
	path := "/v1/policies/" + rec.ID + "/rollout"
	resp, body := postPolicyJSON(t, srv, path, fmt.Sprintf(`{"fleet":%d}`, MaxRolloutFleet+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized fleet: status = %d, body %s; want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds the maximum") {
		t.Fatalf("oversized fleet: body %s does not name the bound", body)
	}
	if gresp, err := http.Get(srv.URL + path); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	} else if gresp.Body.Close(); gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("a refused rollout left a status: GET %s = %d; want 404", path, gresp.StatusCode)
	}
}
