package cluster

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
)

// ShardRequest is one unit of partitioned fleet work: validate the listed
// fleet containers of the spec's world at the spec's tick. It carries the
// world *description*, never world state — the worker reconstructs (or
// delta-advances) its own deterministic replica.
type ShardRequest struct {
	// ScanID tags all shards of one coordinator scan (logs and status).
	ScanID string `json:"scan_id"`
	// Shard is the shard's index within its scan.
	Shard int `json:"shard"`
	// Spec describes the fleet world.
	Spec Spec `json:"spec"`
	// Containers are the fleet indices this shard validates.
	Containers []int `json:"containers"`
	// Workers bounds the worker-local engine fan-out for this shard
	// (0 = serial).
	Workers int `json:"workers,omitempty"`
}

// ShardResult is a shard's findings plus the convergence proof. Over HTTP
// it travels in the binary encoding of wire.go (AppendShardResult /
// DecodeShardResult), not JSON.
type ShardResult struct {
	WorkerID string
	Shard    int
	// Generation is the replica kernel's total subsystem bump count at the
	// observation tick. Replicas of one spec at one tick always agree; the
	// coordinator rejects a shard whose generation diverges from the
	// scan's, because it would have been rendered against a different
	// world.
	Generation uint64
	// Findings holds one finding slice per requested container, in request
	// order, each in path order — the same bytes the container's slice of a
	// single-node FleetValidate would hold.
	Findings [][]core.Finding
}

// Heartbeat is a worker's liveness reply.
type Heartbeat struct {
	WorkerID string `json:"worker_id"`
	// Shards counts shard executions since the worker started.
	Shards uint64 `json:"shards"`
	// Worlds counts cached fleet replicas (LocalWorlds only; 0 for shared).
	Worlds int `json:"worlds"`
}

// Worker executes shards against locally resolved fleet replicas. It is
// the same object whether it runs inside a leaksd -role=worker daemon
// (reached over HTTP) or inside an in-process cluster (reached directly).
// ExecShard is idempotent and safe for concurrent use: validation is a
// pure read of a frozen world, so duplicated deliveries — the chaos
// layer's Dup fault and a retried lost-reply — return identical bytes.
type Worker struct {
	id     string
	worlds Worlds
	shards atomic.Uint64
}

// NewWorker builds a worker with the given identity and world source.
func NewWorker(id string, worlds Worlds) *Worker {
	return &Worker{id: id, worlds: worlds}
}

// ID returns the worker's cluster identity.
func (w *Worker) ID() string { return w.id }

// ExecShard resolves the replica, advances it to the requested tick when
// behind (the epoch delta), and validates the shard's containers.
func (w *Worker) ExecShard(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := req.Spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fw, err := w.worlds.Fleet(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	findings, gen, err := fw.Pass(spec.Tick, req.Containers, req.Workers)
	if err != nil {
		return nil, err
	}
	w.shards.Add(1)
	return &ShardResult{
		WorkerID:   w.id,
		Shard:      req.Shard,
		Generation: gen,
		Findings:   findings,
	}, nil
}

// Heartbeat reports liveness and counters.
func (w *Worker) Heartbeat() *Heartbeat {
	hb := &Heartbeat{WorkerID: w.id, Shards: w.shards.Load()}
	if lw, ok := w.worlds.(*LocalWorlds); ok {
		hb.Worlds = lw.Len()
	}
	return hb
}
