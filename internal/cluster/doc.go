// Package cluster turns leaksd's single-node fleet scans into a
// fault-tolerant coordinator/worker cluster. The paper's threat model is
// cloud scale — five commercial providers, thousands of co-resident
// containers per datacenter — and engine.FleetValidate batches a fleet
// pass on one node; this package partitions that pass across N worker
// daemons and keeps the engine's byte-identity guarantee across the
// partition boundary: the merged cluster result is byte-identical to the
// uninterrupted single-node scan, at every worker count, under every
// partition layout, and across worker loss mid-scan.
//
// The design rests on the substrate's determinism contract (ARCHITECTURE.md):
// a fleet world is a pure function of its Spec (provider, seed, container
// count, observation tick), so the coordinator never ships worlds — it
// ships the Spec plus the target tick, and each worker advances its own
// deterministic replica by the *delta* (internal/kernel generation
// counters confirm convergence: every shard result carries the replica's
// generation, and the coordinator rejects divergent shards). Within a
// replica, the incremental engine re-renders only the paths whose
// subsystem epochs moved, exactly as on a single node.
//
// Partitioning is consistent hashing on (container mount name, provider):
// each container hashes to a point on a ring of virtual worker nodes, the
// per-worker batches are chunked into bounded shards, and every shard
// carries a deterministic failover sequence (the ring walk from its hash
// point). Robustness is by construction:
//
//   - workers heartbeat; the coordinator marks a worker dead when its last
//     beat is older than the deadline (DeadAfter) and routes around it;
//   - a failed or timed-out shard call is requeued with exponential
//     backoff to the next live worker on its ring walk (a reassignment);
//   - retries are bounded by attempts *and* a deadline-aware retry budget,
//     so a permanently failing shard terminates instead of retrying
//     forever — the scan degrades gracefully to a partial result with
//     per-shard status in the response envelope;
//   - shard execution is idempotent (validating a frozen world is a pure
//     read), so duplicated deliveries and lost replies — the one-way
//     partition halves — are harmless.
//
// Inter-node links are fault-injected through chaos.Net (message drop,
// delay/jitter, duplication, one-way partitions) from seeded split RNG
// streams, so every failure scenario is deterministic and replayable; see
// WithChaos.
//
// Two transports: InProc wires coordinator and workers in one process
// (tests, benchmarks, and the scaling harness), HTTPTransport drives the
// /v1/cluster/shards and /v1/cluster/ping endpoints of remote leaksd
// worker daemons (leaksd -role=worker).
//
// Over HTTP, shard requests and heartbeats are JSON; shard results use
// the binary encoding of wire.go (AppendShardResult, DecodeShardResult):
// a version byte (WireVersion), the worker ID, shard and generation, a
// path table written once per shard in first-use order, then per
// container a present/nil flag, a finding count, and per finding a
// varint path index, a status byte and the 8 IEEE-754 bits of Overlap.
// The coordinator reads at most MaxMessageBytes of a reply, and any
// read or decode failure is ErrWorkerDown, so the shard is retried or
// reassigned. There is no negotiation or JSON fallback: coordinator and
// workers ship from one binary and upgrade together, and a layout change
// bumps WireVersion.
package cluster
