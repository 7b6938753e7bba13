package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cluster"
)

// codeWrongRole rejects cluster requests sent to a node of the wrong
// role: a shard POSTed to a coordinator, a fleet scan POSTed to a worker.
// 409 rather than 404 — the route exists, the node's state conflicts.
const codeWrongRole = "wrong_role"

// clusterScanResponse is the coordinator's fleet-scan summary envelope.
// Raw findings stay inside the cluster (they are per-container slices of
// the deterministic world, reproducible from the spec); the HTTP surface
// serves the per-shard status map and the per-container leak counts.
type clusterScanResponse struct {
	Spec       cluster.Spec `json:"spec"`
	Generation uint64       `json:"generation"`
	Partial    bool         `json:"partial"`
	// DurationSeconds is the wall time of the whole partitioned scan.
	DurationSeconds float64 `json:"duration_seconds"`
	// Leaking counts Identical/Partial findings per fleet container
	// (-1 = the container's shard failed and degraded out of the result).
	Leaking []int                 `json:"leaking"`
	Shards  []cluster.ShardStatus `json:"shards"`
}

// requireRole gates a cluster endpoint on the node's role.
func (a *api) requireRole(w http.ResponseWriter, want cluster.Role) bool {
	if got := a.cfg.Cluster.Role(); got != want {
		writeErrorV1(w, http.StatusConflict, codeWrongRole,
			"node role is %q; this endpoint requires %q", got, want)
		return false
	}
	return true
}

// getClusterV1 serves GET /v1/cluster: the node's role envelope — worker
// heartbeat counters, or the coordinator's membership/shard/requeue view.
func (a *api) getClusterV1(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.cfg.Cluster.Status())
}

// postClusterScanV1 serves POST /v1/cluster/scans (coordinator only): one
// partitioned fleet scan, synchronous, degraded shards reported per shard.
func (a *api) postClusterScanV1(w http.ResponseWriter, r *http.Request) {
	if !a.requireRole(w, cluster.RoleCoordinator) {
		return
	}
	var spec cluster.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	res, err := a.cfg.Cluster.Coordinator().Scan(r.Context(), spec)
	if err != nil && res == nil {
		writeErrorV1(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	// A partial result (some shards failed terminally, including the
	// all-failed case) still serves the envelope: graceful degradation is
	// visible per shard, not hidden behind an opaque 500.
	writeJSON(w, http.StatusOK, clusterScanResponse{
		Spec:            res.Spec,
		Generation:      res.Generation,
		Partial:         res.Partial,
		DurationSeconds: res.Duration.Seconds(),
		Leaking:         res.LeakingPerContainer(),
		Shards:          res.Shards,
	})
}

// postClusterShardV1 serves POST /v1/cluster/shards (worker only): execute
// one shard of a partitioned fleet scan and return its findings in the
// binary shard-result encoding (cluster.AppendShardResult) — the endpoint
// cluster.HTTPTransport calls. Error replies stay JSON envelopes.
func (a *api) postClusterShardV1(w http.ResponseWriter, r *http.Request) {
	if !a.requireRole(w, cluster.RoleWorker) {
		return
	}
	var req cluster.ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, cluster.MaxMessageBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	res, err := a.cfg.Cluster.Worker().ExecShard(r.Context(), &req)
	if err != nil {
		status, code := http.StatusInternalServerError, codeInternal
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusServiceUnavailable, codeDraining
		}
		writeErrorV1(w, status, code, "%v", err)
		return
	}
	buf := shardBufPool.Get().(*[]byte)
	b := cluster.AppendShardResult((*buf)[:0], res)
	w.Header().Set("Content-Type", cluster.ShardResultMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*buf = b
	shardBufPool.Put(buf)
}

// shardBufPool recycles shard-result encode buffers across requests.
var shardBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getClusterPingV1 serves GET /v1/cluster/ping (worker only): the liveness
// probe the coordinator's heartbeat loop hits.
func (a *api) getClusterPingV1(w http.ResponseWriter, _ *http.Request) {
	if !a.requireRole(w, cluster.RoleWorker) {
		return
	}
	writeJSON(w, http.StatusOK, a.cfg.Cluster.Worker().Heartbeat())
}
