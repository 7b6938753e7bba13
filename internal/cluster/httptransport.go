package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTPTransport reaches worker daemons over their /v1/cluster endpoints:
// POST {base}/v1/cluster/shards executes a shard, GET {base}/v1/cluster/ping
// probes liveness. Worker IDs are their base URLs (scheme optional;
// "host:port" gets "http://"), so the peer list handed to leaksd
// -role=coordinator doubles as the membership. Any transport-level
// failure, non-2xx status, reply over MaxMessageBytes or undecodable
// reply wraps ErrWorkerDown — to the coordinator an unreachable worker, a
// crashed one and one speaking another wire version are the same thing,
// and the shard goes through the usual retry/requeue path.
type HTTPTransport struct {
	client *http.Client
	peers  map[string]string // workerID -> base URL
}

// NewHTTPTransport builds a transport over the peer base URLs. client may
// be nil (a default with a 2-minute overall timeout is used; per-call
// deadlines come from the coordinator's contexts).
func NewHTTPTransport(peers []string, client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	t := &HTTPTransport{client: client, peers: make(map[string]string, len(peers))}
	for _, p := range peers {
		t.peers[p] = normalizeBaseURL(p)
	}
	return t
}

// Workers returns the configured worker IDs (unsorted; NewRing sorts).
func (t *HTTPTransport) Workers() []string {
	out := make([]string, 0, len(t.peers))
	for id := range t.peers {
		out = append(out, id)
	}
	return out
}

// normalizeBaseURL accepts "host:port" and full URLs; trailing slashes are
// trimmed so path joins stay clean.
func normalizeBaseURL(p string) string {
	p = strings.TrimRight(p, "/")
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	return p
}

func (t *HTTPTransport) base(workerID string) (string, error) {
	b, ok := t.peers[workerID]
	if !ok {
		return "", fmt.Errorf("%w: %s (not a configured peer)", ErrWorkerDown, workerID)
	}
	return b, nil
}

// MaxMessageBytes caps one cluster message body: a shard request a worker
// reads, and a reply the coordinator reads. A longer reply fails the call
// as ErrWorkerDown instead of being buffered.
const MaxMessageBytes = 8 << 20

// do runs one request with an optional JSON body and hands the 2xx reply
// body to decode, folding every failure mode into ErrWorkerDown.
func (t *HTTPTransport) do(ctx context.Context, workerID, method, path string, body any, decode func([]byte) error) error {
	base, err := t.base(workerID)
	if err != nil {
		return err
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: encode %s: %w", path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return fmt.Errorf("cluster: build %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrWorkerDown, workerID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: %s: %s %s: %s", ErrWorkerDown, workerID, path,
			resp.Status, strings.TrimSpace(string(msg)))
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxMessageBytes+1))
	if err != nil {
		return fmt.Errorf("%w: %s: read %s: %v", ErrWorkerDown, workerID, path, err)
	}
	if len(b) > MaxMessageBytes {
		return fmt.Errorf("%w: %s: %s reply exceeds %d bytes", ErrWorkerDown, workerID, path, MaxMessageBytes)
	}
	if err := decode(b); err != nil {
		return fmt.Errorf("%w: %s: decode %s: %v", ErrWorkerDown, workerID, path, err)
	}
	return nil
}

// ExecShard implements Transport. The request is JSON; the reply is the
// binary shard-result encoding (wire.go).
func (t *HTTPTransport) ExecShard(ctx context.Context, workerID string, req *ShardRequest) (*ShardResult, error) {
	var res *ShardResult
	err := t.do(ctx, workerID, http.MethodPost, "/v1/cluster/shards", req, func(b []byte) error {
		var err error
		res, err = DecodeShardResult(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Ping implements Transport.
func (t *HTTPTransport) Ping(ctx context.Context, workerID string) (*Heartbeat, error) {
	var hb Heartbeat
	err := t.do(ctx, workerID, http.MethodGet, "/v1/cluster/ping", nil, func(b []byte) error {
		return json.Unmarshal(b, &hb)
	})
	if err != nil {
		return nil, err
	}
	return &hb, nil
}
