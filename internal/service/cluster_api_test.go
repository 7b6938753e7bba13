package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// newClusterAPI builds an httptest server whose handler carries the given
// cluster node (nil = standalone, the production default).
func newClusterAPI(t *testing.T, node *cluster.Node) *httptest.Server {
	t.Helper()
	s := New(Config{}, nil)
	s.SetRunner(fakeInspectRunner)
	s.Start()
	srv := httptest.NewServer(NewHandler(APIConfig{
		Scheduler: s,
		Version:   "leaksd test (rev deadbeef)",
		Cluster:   node,
	}))
	t.Cleanup(func() {
		_ = s.Shutdown(t.Context())
		srv.Close()
	})
	return srv
}

// post mirrors the get helper for JSON POST bodies.
func post(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// TestClusterStatusStandalone: a daemon with no cluster config (nil node)
// still answers GET /v1/cluster — as a standalone.
func TestClusterStatusStandalone(t *testing.T) {
	srv := newClusterAPI(t, nil)
	resp, body := get(t, srv, "/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; want 200 (%s)", resp.StatusCode, body)
	}
	var st cluster.NodeStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if st.Role != cluster.RoleStandalone || st.Worker != nil || st.Cluster != nil {
		t.Fatalf("standalone status = %+v", st)
	}
}

// TestClusterRoleGating: each cluster endpoint 409s with wrong_role when
// the node cannot serve it.
func TestClusterRoleGating(t *testing.T) {
	worker := cluster.NewWorkerNode(cluster.NewWorker("w1", cluster.NewLocalWorlds(1)))
	standalone := cluster.NewStandaloneNode()

	cases := []struct {
		name   string
		node   *cluster.Node
		method string
		path   string
	}{
		{"scan on worker", worker, http.MethodPost, "/v1/cluster/scans"},
		{"scan on standalone", standalone, http.MethodPost, "/v1/cluster/scans"},
		{"shard on standalone", standalone, http.MethodPost, "/v1/cluster/shards"},
		{"ping on standalone", standalone, http.MethodGet, "/v1/cluster/ping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newClusterAPI(t, tc.node)
			var resp *http.Response
			var body []byte
			if tc.method == http.MethodGet {
				resp, body = get(t, srv, tc.path)
			} else {
				resp, body = post(t, srv, tc.path, `{"spec":{"containers":2}}`)
			}
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("status = %d; want 409 (%s)", resp.StatusCode, body)
			}
			envelope(t, body, "wrong_role")
		})
	}
}

// TestClusterWorkerShardRoundTrip drives a worker node's HTTP surface the
// way a coordinator's HTTPTransport does: ping, then a shard execution.
func TestClusterWorkerShardRoundTrip(t *testing.T) {
	node := cluster.NewWorkerNode(cluster.NewWorker("w1", cluster.NewLocalWorlds(1)))
	srv := newClusterAPI(t, node)

	resp, body := get(t, srv, "/v1/cluster/ping")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping status = %d (%s)", resp.StatusCode, body)
	}
	var hb cluster.Heartbeat
	if err := json.Unmarshal(body, &hb); err != nil {
		t.Fatalf("decode heartbeat: %v", err)
	}
	if hb.WorkerID != "w1" || hb.Shards != 0 {
		t.Fatalf("fresh heartbeat = %+v", hb)
	}

	resp, body = post(t, srv, "/v1/cluster/shards",
		`{"scan_id":"s1","shard":0,"spec":{"provider":"local","containers":3},"containers":[0,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard status = %d (%s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != cluster.ShardResultMediaType {
		t.Fatalf("shard Content-Type = %q; want %q", ct, cluster.ShardResultMediaType)
	}
	res, err := cluster.DecodeShardResult(body)
	if err != nil {
		t.Fatalf("decode shard result: %v", err)
	}
	if res.WorkerID != "w1" || res.Generation == 0 || len(res.Findings) != 2 {
		t.Fatalf("shard result = worker %q gen %d findings %d; want w1, >0, 2",
			res.WorkerID, res.Generation, len(res.Findings))
	}
	for i, fs := range res.Findings {
		if len(fs) == 0 {
			t.Fatalf("container slot %d has no findings", i)
		}
	}

	// The heartbeat now accounts for the executed shard and cached world.
	_, body = get(t, srv, "/v1/cluster/ping")
	if err := json.Unmarshal(body, &hb); err != nil {
		t.Fatalf("decode heartbeat: %v", err)
	}
	if hb.Shards != 1 || hb.Worlds != 1 {
		t.Fatalf("post-shard heartbeat = %+v; want 1 shard, 1 world", hb)
	}

	// Malformed and invalid bodies are client errors, not 500s.
	resp, body = post(t, srv, "/v1/cluster/shards", `{"spec":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON status = %d (%s)", resp.StatusCode, body)
	}
	envelope(t, body, "bad_request")
	resp, body = post(t, srv, "/v1/cluster/shards", `{"spec":{"provider":"nope","containers":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad provider status = %d (%s)", resp.StatusCode, body)
	}
	envelope(t, body, "bad_request")
}

// TestClusterCoordinatorScanViaAPI runs a partitioned scan through
// POST /v1/cluster/scans against an in-process worker pair and checks the
// summary envelope.
func TestClusterCoordinatorScanViaAPI(t *testing.T) {
	w1 := cluster.NewWorker("w1", cluster.NewLocalWorlds(1))
	w2 := cluster.NewWorker("w2", cluster.NewLocalWorlds(1))
	tr := cluster.NewInProc(w1, w2)
	coord := cluster.NewCoordinator(cluster.Config{ShardSize: 2}, tr,
		[]string{"w1", "w2"}, cluster.NewMetrics(nil))
	srv := newClusterAPI(t, cluster.NewCoordinatorNode(coord))

	resp, body := post(t, srv, "/v1/cluster/scans", `{"provider":"local","containers":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d (%s)", resp.StatusCode, body)
	}
	var scan struct {
		Spec       cluster.Spec          `json:"spec"`
		Generation uint64                `json:"generation"`
		Partial    bool                  `json:"partial"`
		Duration   float64               `json:"duration_seconds"`
		Leaking    []int                 `json:"leaking"`
		Shards     []cluster.ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &scan); err != nil {
		t.Fatalf("decode scan: %v (%s)", err, body)
	}
	if scan.Partial || scan.Generation == 0 || len(scan.Leaking) != 5 || len(scan.Shards) == 0 {
		t.Fatalf("scan = %+v; want complete 5-container result", scan)
	}
	for i, n := range scan.Leaking {
		if n < 0 {
			t.Fatalf("container %d degraded in a healthy scan", i)
		}
	}
	for _, sh := range scan.Shards {
		if sh.Status != cluster.ShardDone {
			t.Fatalf("shard %d = %s; want done", sh.Shard, sh.Status)
		}
	}

	// Spec validation failures surface as 400s before any dispatch.
	resp, body = post(t, srv, "/v1/cluster/scans", `{"containers":0}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty fleet status = %d (%s)", resp.StatusCode, body)
	}
	envelope(t, body, "bad_request")

	// Coordinator status reflects the finished scan.
	resp, body = get(t, srv, "/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var st cluster.NodeStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Role != cluster.RoleCoordinator || st.Cluster == nil || st.Cluster.Scans != 1 {
		t.Fatalf("coordinator status = %+v; want 1 scan recorded", st)
	}
}
