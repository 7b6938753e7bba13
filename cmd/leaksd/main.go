// Command leaksd is the long-running leakage-monitoring service: the
// paper's one-shot detection framework (Fig. 1) turned into a daemon that
// schedules scans, caches results, streams verdict changes, and exposes
// operational metrics — the shape a container-cloud operator actually
// deploys to watch a fleet's leakage posture over time.
//
// API (JSON unless noted; full schema in docs/openapi.yaml):
//
//	POST /v1/scans        submit {"kind":"table1"|"inspect"|"discovery"|"matrix"|"fig3"|"fig8"|"chaossweep", ...}
//	GET  /v1/scans        list jobs (?limit=&offset=&provider=&runtime=&verdict=)
//	GET  /v1/scans/{id}   poll one job (result embedded when done)
//	GET  /v1/results      latest verdicts per provider (?limit=&offset=&provider=&runtime=&verdict=)
//	GET  /v1/matrix       channels x targets availability matrix (clouds + sandboxed runtimes)
//	GET  /v1/channels     the Table I channel registry
//	GET  /v1/providers    inspectable provider profiles
//	GET  /v1/runtimes     inspectable sandboxed-runtime profiles (gvisor, kata, rootless, podman)
//	GET  /v1/engine       incremental-engine cache + epoch stats
//	GET  /v1/events       Server-Sent Events: verdicts + scan lifecycle + policy rollouts
//	POST /v1/policies     synthesize (or store) a mask policy for a provider
//	GET  /v1/policies     list stored policies
//	GET  /v1/policies/{id}          one policy with report + latest rollout
//	DELETE /v1/policies/{id}        remove a stored policy
//	POST /v1/policies/{id}/rollout  staged canary rollout over a fresh fleet
//	GET  /v1/policies/{id}/rollout  latest rollout outcome
//	GET  /v1/cluster      cluster role + membership/heartbeat status
//	POST /v1/cluster/scans   coordinator: partitioned fleet scan
//	POST /v1/cluster/shards  worker: execute one fleet shard
//	GET  /v1/cluster/ping    worker: liveness probe
//	GET  /v1/metrics      Prometheus text format
//	GET  /v1/healthz      liveness, uptime, drain state
//	GET  /v1/version      build info
//
// /v1 errors carry the structured envelope {"error":{"code","message"}}.
// The pre-versioning routes (POST /scans, GET /results, …) remain as
// byte-identical deprecated aliases — they answer with a Deprecation
// header and a Link to their /v1 successor (policy in ARCHITECTURE.md).
//
// The /v1 read endpoints serve through an epoch-keyed response cache
// (-respcache, default on): bodies render once per state epoch and replay
// allocation-free, every 200 carries a strong ETag, and If-None-Match
// clients get 304s until the underlying state actually changes. The full
// serving contract — and the leaksload harness that measures it — is
// documented in docs/SERVING.md.
//
// Usage:
//
//	leaksd                          # serve on :8077
//	leaksd -addr :9000 -workers 4   # bigger scan pool
//	leaksd -scan-every 10m          # recurring full Table I scans
//	leaksd -matrix-every 15m        # recurring runtime-matrix scans
//	leaksd -sessions 32             # bigger incremental-session pool
//	leaksd -version                 # print build info and exit
//
// Clustered deployment (fault-tolerant partitioned fleet scans; design in
// ARCHITECTURE.md):
//
//	leaksd -role=worker -addr :8081                        # shard executor
//	leaksd -role=worker -addr :8082
//	leaksd -role=coordinator -peers localhost:8081,localhost:8082
//
// The coordinator partitions fleet scans across workers by consistent
// hashing, heartbeats them (-heartbeat), and requeues shards from dead
// workers; merged output is byte-identical to a single-node scan. Workers
// cache -worlds fleet replicas and advance them by epoch deltas.
//
// Identical scan configs (kind, provider, seed, chaos spec — the worker
// count is excluded, because output is byte-identical at any count) are
// served from an in-memory TTL+LRU result store instead of recomputed.
// Chaos-free table1/inspect/discovery scans that do run reuse pooled
// incremental-engine sessions (see internal/engine): a recurring scan's
// later ticks re-validate only pseudo-files whose kernel subsystems
// changed, with byte-identical output to a cold scan. With default seeds,
// API-returned renders are byte-identical to the corresponding CLI output
// (`leakscan -table1` etc.).
//
// The /v1/policies surface closes the loop from detection to defense:
// POST with just a provider mines the benign pseudo-file read surface,
// synthesizes a minimal deny/empty masking policy that closes the leaking
// Table I channels without breaking any benign read, and verifies closure
// by re-running the detector under the policy. A rollout stages the policy
// onto a ring-hash-ranked canary subset of a fresh fleet, watches benign
// reads across health epochs, then promotes — or auto-reverts on the first
// broken read. Phases and verdict flips stream on /v1/events; outcomes
// land in the leaksd_policy_* metric families. ARCHITECTURE.md documents
// the state machine; defensebench -policy replays stored policies offline.
//
// On SIGINT/SIGTERM the daemon drains: submissions are refused with 503,
// queued and in-flight scans finish (their results land in the store and
// on the event stream), SSE streams close, and only then does the HTTP
// listener stop. A second deadline (-drain-timeout) force-cancels
// in-flight scans through their contexts if the drain stalls.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/profiling"
	"repro/internal/service"
)

// splitPeers parses the -peers flag: comma-separated worker base URLs,
// empty elements dropped so trailing commas are harmless.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run wires flags → scheduler → HTTP server. ready, when non-nil, receives
// the bound address once the listener is up (tests use it; production
// passes nil).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("leaksd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8077", "listen address")
	workers := fs.Int("workers", 2, "concurrent scan executors")
	queueCap := fs.Int("queue", 64, "bounded scan queue capacity")
	storeCap := fs.Int("store", 128, "result store capacity (LRU beyond)")
	storeTTL := fs.Duration("ttl", 15*time.Minute, "result store TTL")
	sessions := fs.Int("sessions", 16, "incremental-engine session pool capacity (LRU beyond)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-scan deadline")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline (non-streaming endpoints)")
	retries := fs.Int("retries", 3, "max attempts per scan")
	scanEvery := fs.Duration("scan-every", 0, "run a recurring full Table I scan at this interval (0 = off)")
	matrixEvery := fs.Duration("matrix-every", 0, "run a recurring runtime-matrix scan at this interval (0 = off)")
	respCache := fs.Bool("respcache", true, "serve /v1 reads through the epoch-keyed response cache (ETag/304)")
	role := fs.String("role", "standalone", "cluster role: standalone, coordinator, or worker")
	peers := fs.String("peers", "", "coordinator: comma-separated worker base URLs (host:port or http://…)")
	workerID := fs.String("worker-id", "", "worker: cluster identity (default: the listen address)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "coordinator: worker liveness probe interval")
	worlds := fs.Int("worlds", 4, "worker: cached fleet replicas (LRU beyond)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain deadline")
	prof := profiling.Register(fs)
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("leaksd"))
		return 0
	}
	// Profiles cover the daemon's whole lifetime: start before the
	// scheduler spins up, write on the drain path after serving stops.
	if err := prof.Start(); err != nil {
		fmt.Fprintf(stderr, "leaksd: %v\n", err)
		return 1
	}
	defer prof.Stop(func(format string, args ...any) { fmt.Fprintf(stderr, format, args...) })
	sched := service.New(service.Config{
		QueueCap:    *queueCap,
		Workers:     *workers,
		JobTimeout:  *jobTimeout,
		MaxAttempts: *retries,
		StoreCap:    *storeCap,
		StoreTTL:    *storeTTL,
		SessionCap:  *sessions,
	}, nil)
	sched.Start()
	if *scanEvery > 0 {
		stop, err := sched.Every("table1-recurring", *scanEvery, service.ScanRequest{Kind: service.KindTable1})
		if err != nil {
			fmt.Fprintf(stderr, "leaksd: -scan-every: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *matrixEvery > 0 {
		stop, err := sched.Every("matrix-recurring", *matrixEvery, service.ScanRequest{Kind: service.KindMatrix})
		if err != nil {
			fmt.Fprintf(stderr, "leaksd: -matrix-every: %v\n", err)
			return 1
		}
		defer stop()
	}

	// Cluster wiring: a worker executes shards against locally cached fleet
	// replicas; a coordinator partitions fleet scans across its peers over
	// HTTP with heartbeat-driven failure detection. Metrics land on the
	// scheduler's registry so one /v1/metrics scrape covers both.
	var node *cluster.Node
	var coord *cluster.Coordinator
	switch *role {
	case "standalone", "":
		node = cluster.NewStandaloneNode()
	case "worker":
		id := *workerID
		if id == "" {
			id = *addr
		}
		node = cluster.NewWorkerNode(cluster.NewWorker(id, cluster.NewLocalWorlds(*worlds)))
	case "coordinator":
		tr := cluster.NewHTTPTransport(splitPeers(*peers), nil)
		ids := tr.Workers()
		if len(ids) == 0 {
			fmt.Fprintln(stderr, "leaksd: -role=coordinator requires -peers")
			return 2
		}
		met := cluster.NewMetrics(sched.Metrics().Registry)
		coord = cluster.NewCoordinator(cluster.Config{HeartbeatEvery: *heartbeat}, tr, ids, met)
		coord.Start()
		defer coord.Stop()
		node = cluster.NewCoordinatorNode(coord)
	default:
		fmt.Fprintf(stderr, "leaksd: unknown -role %q (standalone, coordinator, worker)\n", *role)
		return 2
	}

	handler := service.NewHandler(service.APIConfig{
		Scheduler:            sched,
		Version:              buildinfo.String("leaksd"),
		RequestTimeout:       *reqTimeout,
		Cluster:              node,
		DisableResponseCache: !*respCache,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		ln, err := net.Listen("tcp", srv.Addr)
		if err != nil {
			errCh <- err
			return
		}
		if ready != nil {
			ready <- ln.Addr().String()
		}
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "leaksd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "leaksd: draining (queued and in-flight scans will finish)")
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer drainCancel()
	if err := sched.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "leaksd: drain: %v (in-flight scans were cancelled)\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "leaksd: http shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "leaksd: stopped")
	return 0
}
