package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// startWorkerServers starts n leaksd worker handlers on httptest servers,
// each with its own replica cache, and returns their base URLs — the
// worker IDs an HTTPTransport is built over.
func startWorkerServers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + srv.Listener.Addr().String()
		sched := New(Config{}, nil) // never started: workers only serve shards
		srv.Config.Handler = NewHandler(APIConfig{
			Scheduler: sched,
			Cluster:   cluster.NewWorkerNode(cluster.NewWorker(urls[i], cluster.NewLocalWorlds(2))),
		})
		srv.Start()
		t.Cleanup(func() {
			srv.Close()
			_ = sched.Shutdown(context.Background())
		})
	}
	return urls
}

// newHTTPCoordinator builds a fast-retry coordinator over an
// HTTPTransport whose client uses rt.
func newHTTPCoordinator(urls []string, rt http.RoundTripper) *cluster.Coordinator {
	tr := cluster.NewHTTPTransport(urls, &http.Client{Transport: rt, Timeout: time.Minute})
	return cluster.NewCoordinator(cluster.Config{
		ShardSize:    2,
		MaxAttempts:  4,
		RetryBackoff: time.Millisecond,
		Sleep:        func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	}, tr, urls, nil)
}

// findingsJSON serializes findings for byte-level comparison.
func findingsJSON(t *testing.T, f [][]core.Finding) []byte {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal findings: %v", err)
	}
	return b
}

// TestClusterHTTPMatchesSingleNode is the differential test of the HTTP
// wire path: a coordinator over HTTPTransport, against real worker
// handlers, merges findings byte-identical to cluster.SingleNode at 2 and
// 3 workers and at several ticks (each worker delta-advances its replica
// between scans).
func TestClusterHTTPMatchesSingleNode(t *testing.T) {
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			urls := startWorkerServers(t, workers)
			coord := newHTTPCoordinator(urls, http.DefaultTransport)
			for _, tick := range []float64{cluster.DefaultTick, 31, 45} {
				spec := cluster.Spec{Provider: "local", Containers: 7, Tick: tick}
				want, wantGen, err := cluster.SingleNode(spec, 0)
				if err != nil {
					t.Fatalf("single-node scan: %v", err)
				}
				res, err := coord.Scan(context.Background(), spec)
				if err != nil {
					t.Fatalf("tick %g: scan: %v", tick, err)
				}
				if res.Partial {
					t.Fatalf("tick %g: healthy HTTP cluster returned a partial result: %+v", tick, res.Shards)
				}
				if got, exp := findingsJSON(t, res.Findings), findingsJSON(t, want); !bytes.Equal(got, exp) {
					t.Fatalf("tick %g: HTTP cluster findings differ from single node\n got: %.200s\nwant: %.200s", tick, got, exp)
				}
				if res.Generation != wantGen {
					t.Fatalf("tick %g: generation %d, single node %d", tick, res.Generation, wantGen)
				}
			}
			if rq := coord.Status().Requeues; rq != 0 {
				t.Fatalf("healthy HTTP cluster requeued %d shards", rq)
			}
		})
	}
}

// corruptingTransport rewrites the bodies of successful shard replies
// for which hit returns true; every other request passes through.
type corruptingTransport struct {
	mangle func([]byte) []byte
	hit    func(*http.Request) bool
	hits   atomic.Int64
}

func (c *corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/cluster/shards" || resp.StatusCode != http.StatusOK || !c.hit(req) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.hits.Add(1)
	body = c.mangle(body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}

// TestClusterHTTPCorruptReplies: shard replies that are truncated, carry
// another wire version, or have bytes appended fail as a worker fault.
// The shard is requeued (or, when every reply is bad, the scan degrades
// to a partial result); the coordinator never merges wrong findings.
func TestClusterHTTPCorruptReplies(t *testing.T) {
	mangles := map[string]func([]byte) []byte{
		"truncate":       func(b []byte) []byte { return b[:len(b)-1] },
		"truncate-half":  func(b []byte) []byte { return b[:len(b)/2] },
		"flip-version":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"append-trailer": func(b []byte) []byte { return append(b, 0) },
	}
	spec := cluster.Spec{Provider: "local", Containers: 6}
	want, _, err := cluster.SingleNode(spec, 0)
	if err != nil {
		t.Fatalf("single-node scan: %v", err)
	}
	wantJSON := findingsJSON(t, want)

	for name, mangle := range mangles {
		t.Run(name+"/one-worker", func(t *testing.T) {
			urls := startWorkerServers(t, 2)
			// The bad worker is the first to answer a shard, so it surely
			// owns one whatever ports the ring hashed.
			var bad atomic.Pointer[string]
			rt := &corruptingTransport{mangle: mangle, hit: func(r *http.Request) bool {
				host := r.URL.Host
				bad.CompareAndSwap(nil, &host)
				return *bad.Load() == host
			}}
			coord := newHTTPCoordinator(urls, rt)
			res, err := coord.Scan(context.Background(), spec)
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if res.Partial {
				t.Fatalf("one corrupting worker of two degraded the scan: %+v", res.Shards)
			}
			if got := findingsJSON(t, res.Findings); !bytes.Equal(got, wantJSON) {
				t.Fatalf("findings differ from single node after requeues")
			}
			if rt.hits.Load() == 0 || coord.Status().Requeues == 0 {
				t.Fatalf("corrupted %d replies, requeued %d shards; want both > 0",
					rt.hits.Load(), coord.Status().Requeues)
			}
		})
		t.Run(name+"/every-worker", func(t *testing.T) {
			urls := startWorkerServers(t, 2)
			rt := &corruptingTransport{mangle: mangle, hit: func(*http.Request) bool { return true }}
			coord := newHTTPCoordinator(urls, rt)
			res, err := coord.Scan(context.Background(), spec)
			if err == nil {
				t.Fatal("scan with every reply corrupted succeeded")
			}
			if res == nil || !res.Partial {
				t.Fatalf("scan with every reply corrupted = %+v; want a partial result", res)
			}
			for i, f := range res.Findings {
				if f != nil {
					t.Fatalf("container %d has findings although every reply was corrupt", i)
				}
			}
			for _, sh := range res.Shards {
				if sh.Status != cluster.ShardFailed {
					t.Fatalf("shard %d = %s; want failed", sh.Shard, sh.Status)
				}
			}
		})
	}
}
