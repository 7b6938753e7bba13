package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/policy"
)

// PolicyRequest is the POST /v1/policies body. Without Rules the service
// synthesizes a policy from the provider's mined benign surface and
// verifies it; with Rules the policy is stored as-is ("manual" source) —
// the path operators use for hand-written hardening and the rollback tests
// use for injected breakage.
type PolicyRequest struct {
	Provider string `json:"provider"`
	// Seed selects the mining/verification world (0 = the canonical
	// inspection seed).
	Seed int64 `json:"seed,omitempty"`
	// Workers / Containers tune the miner (0 = defaults).
	Workers    int `json:"workers,omitempty"`
	Containers int `json:"containers,omitempty"`
	// ChaosRate / ChaosSeed arm fault injection on the mining world.
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	ChaosSeed int64   `json:"chaos_seed,omitempty"`
	// Rules bypasses synthesis with a hand-written rule list.
	Rules []policy.Rule `json:"rules,omitempty"`
}

// RolloutRequest is the POST /v1/policies/{id}/rollout body. Zero values
// select the canary controller's defaults (20% canary, 3 healthy epochs,
// 5 ticks per epoch) and a 5-container fleet; Fleet may not exceed
// MaxRolloutFleet.
type RolloutRequest struct {
	Fleet         int     `json:"fleet,omitempty"`
	CanaryPercent int     `json:"canary_percent,omitempty"`
	HealthyEpochs int     `json:"healthy_epochs,omitempty"`
	TicksPerEpoch int     `json:"ticks_per_epoch,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	ChaosRate     float64 `json:"chaos_rate,omitempty"`
	ChaosSeed     int64   `json:"chaos_seed,omitempty"`
}

// MaxRolloutFleet bounds RolloutRequest.Fleet. A rollout fleet runs on one
// server sized to it, and every server shape keeps a pseudo-file layout
// for the life of the process, so the bound also bounds those layouts.
const MaxRolloutFleet = 32

// RolloutStatus is the recorded outcome of a policy's latest rollout —
// what GET /v1/policies/{id}/rollout serves.
type RolloutStatus struct {
	Policy     string        `json:"policy"`
	Provider   string        `json:"provider"`
	Fleet      int           `json:"fleet"`
	StartedAt  time.Time     `json:"started_at"`
	FinishedAt time.Time     `json:"finished_at"`
	Result     policy.Result `json:"result"`
}

// PolicyRecord is one stored policy with its provenance, verification
// report (synthesized policies only), and latest rollout.
type PolicyRecord struct {
	ID        string         `json:"id"`
	Source    string         `json:"source"` // "synthesized" | "manual"
	CreatedAt time.Time      `json:"created_at"`
	Policy    policy.Policy  `json:"policy"`
	Report    *policy.Report `json:"report,omitempty"`
	Rollout   *RolloutStatus `json:"rollout,omitempty"`
}

// policyManager is the in-memory policy store. Records are snapshots on
// the way out, so handlers never leak the guarded pointers.
type policyManager struct {
	mu    sync.Mutex
	seq   int
	order []string
	recs  map[string]*PolicyRecord
}

func newPolicyManager() *policyManager {
	return &policyManager{recs: make(map[string]*PolicyRecord)}
}

func (m *policyManager) add(rec PolicyRecord) PolicyRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	rec.ID = fmt.Sprintf("pol-%06d", m.seq)
	m.recs[rec.ID] = &rec
	m.order = append(m.order, rec.ID)
	return rec
}

func (m *policyManager) get(id string) (PolicyRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return PolicyRecord{}, false
	}
	return *rec, true
}

func (m *policyManager) list() []PolicyRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PolicyRecord, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, *m.recs[id])
	}
	return out
}

func (m *policyManager) delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.recs[id]; !ok {
		return false
	}
	delete(m.recs, id)
	for i, x := range m.order {
		if x == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return true
}

func (m *policyManager) setRollout(id string, st RolloutStatus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec, ok := m.recs[id]; ok {
		rec.Rollout = &st
	}
}

func (m *policyManager) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// chaosSpec mirrors ScanRequest.Normalize's chaos handling: rate 0 is
// chaos-off, rate > 0 defaults the seed to 1 like the CLI flag.
func chaosSpec(rate float64, seed int64) chaos.Spec {
	if rate <= 0 {
		return chaos.Spec{}
	}
	if seed == 0 {
		seed = 1
	}
	return chaos.Spec{Rate: rate, Seed: seed}
}

// postPoliciesV1 creates a policy: synthesized from the provider's benign
// trace by default, stored verbatim when the body carries explicit rules.
func (a *api) postPoliciesV1(w http.ResponseWriter, r *http.Request) {
	var req PolicyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Provider == "" {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest,
			"provider is required (one of %v)", ProviderNames())
		return
	}
	profile, ok := ProviderByName(req.Provider)
	if !ok {
		writeErrorV1(w, http.StatusNotFound, codeNotFound,
			"unknown provider %q (one of %v)", req.Provider, ProviderNames())
		return
	}
	opts := policy.Options{
		Containers: req.Containers,
		Workers:    req.Workers,
		Chaos:      chaosSpec(req.ChaosRate, req.ChaosSeed),
	}
	rec := PolicyRecord{CreatedAt: a.cfg.Now()}
	if len(req.Rules) > 0 {
		seed := req.Seed
		if seed == 0 {
			seed = policy.DefaultSeed
		}
		pol := policy.Policy{Provider: req.Provider, Seed: seed, Rules: req.Rules}
		if _, err := pol.PseudoRules(); err != nil {
			writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		rec.Source = "manual"
		rec.Policy = pol
	} else {
		pol, rep, err := policy.Generate(profile, req.Seed, opts)
		if err != nil {
			writeErrorV1(w, http.StatusInternalServerError, codeInternal, "%v", err)
			return
		}
		rec.Source = "synthesized"
		rec.Policy = pol
		rec.Report = &rep
		a.sched.Metrics().PolicySyntheses.With(req.Provider).Inc()
	}
	rec = a.policies.add(rec)
	a.sched.Metrics().Policies.With().Set(float64(a.policies.len()))
	writeJSON(w, http.StatusCreated, rec)
}

func (a *api) getPoliciesV1(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Policies []PolicyRecord `json:"policies"`
	}{Policies: a.policies.list()})
}

func (a *api) getPolicyV1(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := a.policies.get(id)
	if !ok {
		writeErrorV1(w, http.StatusNotFound, codeNotFound, "no such policy %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (a *api) deletePolicyV1(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !a.policies.delete(id) {
		writeErrorV1(w, http.StatusNotFound, codeNotFound, "no such policy %q", id)
		return
	}
	a.sched.Metrics().Policies.With().Set(float64(a.policies.len()))
	w.WriteHeader(http.StatusNoContent)
}

// postPolicyRolloutV1 runs the staged canary rollout for one stored policy
// against a fresh fleet of the policy's provider, streaming phase and
// verdict events onto the /v1/events feed as the controller observes them.
// The call is synchronous: the response is the terminal RolloutStatus.
func (a *api) postPolicyRolloutV1(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := a.policies.get(id)
	if !ok {
		writeErrorV1(w, http.StatusNotFound, codeNotFound, "no such policy %q", id)
		return
	}
	var req RolloutRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Fleet > MaxRolloutFleet {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest,
			"fleet %d exceeds the maximum of %d", req.Fleet, MaxRolloutFleet)
		return
	}
	profile, ok := ProviderByName(rec.Policy.Provider)
	if !ok {
		writeErrorV1(w, http.StatusInternalServerError, codeInternal,
			"policy %s references unknown provider %q", id, rec.Policy.Provider)
		return
	}
	fleetSize := req.Fleet
	if fleetSize <= 0 {
		fleetSize = 5
	}
	fleet, err := policy.NewFleet(profile, chaosSpec(req.ChaosRate, req.ChaosSeed),
		rec.Policy.Seed, fleetSize)
	if err != nil {
		writeErrorV1(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	cfg := policy.RolloutConfig{
		CanaryPercent: req.CanaryPercent,
		HealthyEpochs: req.HealthyEpochs,
		TicksPerEpoch: req.TicksPerEpoch,
		Workers:       req.Workers,
	}
	provider := rec.Policy.Provider
	started := a.cfg.Now()
	res, err := fleet.Rollout(rec.Policy, cfg, func(e policy.Event) {
		ev := Event{
			Provider: provider,
			Epoch:    e.Epoch,
			Policy:   id,
			Phase:    string(e.Phase),
		}
		if e.Channel == "" {
			ev.Type = EventPolicy
			ev.Reason = e.Reason
		} else {
			ev.Type = EventVerdict
			ev.Channel = e.Channel
			ev.Availability = e.Availability
			ev.Changed = e.Changed
			ev.Previous = e.Previous
		}
		a.sched.publish(ev)
	})
	if err != nil {
		writeErrorV1(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}

	met := a.sched.Metrics()
	met.PolicyRollouts.With(provider, string(res.Phase)).Inc()
	met.PolicyCanaryContainers.With(provider).Set(float64(res.CanarySize))
	met.PolicyChannelsClosed.With(provider).Set(float64(res.ChannelsClosed))
	if res.Phase == policy.PhaseRolledBack {
		met.PolicyRollbacks.With(provider).Inc()
		met.PolicyBenignFailures.With(provider).Add(float64(len(res.BenignFailures)))
	}
	st := RolloutStatus{
		Policy:     id,
		Provider:   provider,
		Fleet:      fleetSize,
		StartedAt:  started,
		FinishedAt: a.cfg.Now(),
		Result:     res,
	}
	a.policies.setRollout(id, st)
	writeJSON(w, http.StatusOK, st)
}

func (a *api) getPolicyRolloutV1(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := a.policies.get(id)
	if !ok {
		writeErrorV1(w, http.StatusNotFound, codeNotFound, "no such policy %q", id)
		return
	}
	if rec.Rollout == nil {
		writeErrorV1(w, http.StatusNotFound, codeNotFound, "policy %q has no rollout yet", id)
		return
	}
	writeJSON(w, http.StatusOK, rec.Rollout)
}
