package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestHTTPTransportBoundsReplies: a worker reply longer than
// MaxMessageBytes fails as ErrWorkerDown whether or not it declares its
// length, and a reply that is not the binary encoding fails the same way.
func TestHTTPTransportBoundsReplies(t *testing.T) {
	huge := make([]byte, MaxMessageBytes+1)
	huge[0] = WireVersion
	cases := map[string]http.HandlerFunc{
		"declared length": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(huge)))
			_, _ = w.Write(huge)
		},
		"chunked": func(w http.ResponseWriter, _ *http.Request) {
			for off := 0; off < len(huge); off += 1 << 20 {
				_, _ = w.Write(huge[off:min(off+1<<20, len(huge))])
				w.(http.Flusher).Flush()
			}
		},
		"json": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"worker_id":"w","shard":0,"generation":1,"findings":[[]]}`))
		},
	}
	for name, h := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(h)
			defer srv.Close()
			tr := NewHTTPTransport([]string{srv.URL}, srv.Client())
			res, err := tr.ExecShard(context.Background(), srv.URL, &ShardRequest{Spec: Spec{Containers: 1}, Containers: []int{0}})
			if !errors.Is(err, ErrWorkerDown) {
				t.Fatalf("ExecShard = %+v, %v; want ErrWorkerDown", res, err)
			}
			if name != "json" && !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("error %q does not name the limit", err)
			}
		})
	}
}

// replyFunc is an http.RoundTripper that answers every request with the
// body and declared length its function returns (length -1: undeclared).
type replyFunc func() (body []byte, length int64)

func (f replyFunc) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	body, n := f()
	return &http.Response{
		StatusCode:    http.StatusOK,
		Status:        "200 OK",
		Header:        http.Header{"Content-Type": {ShardResultMediaType}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: n,
		Request:       req,
	}, nil
}

// execReply runs one ExecShard through a transport whose only reply is rt's.
func execReply(rt http.RoundTripper) (*ShardResult, error) {
	const peer = "http://worker-0:8080"
	tr := NewHTTPTransport([]string{peer}, &http.Client{Transport: rt})
	return tr.ExecShard(context.Background(), peer, &ShardRequest{Spec: Spec{Containers: 1}, Containers: []int{0}})
}

// TestHTTPTransportChecksContentLength: a reply longer or shorter than the
// Content-Length it declares fails as ErrWorkerDown, even when the bytes
// that were read decode.
func TestHTTPTransportChecksContentLength(t *testing.T) {
	_, enc := encodedShard(t, Spec{Provider: "local", Containers: 2}, []int{0, 1})
	cases := map[string]replyFunc{
		"longer":        func() ([]byte, int64) { return append(append([]byte(nil), enc...), 0), int64(len(enc)) },
		"shorter":       func() ([]byte, int64) { return enc[:len(enc)-1], int64(len(enc)) },
		"empty":         func() ([]byte, int64) { return nil, int64(len(enc)) },
		"declared zero": func() ([]byte, int64) { return enc, 0 },
	}
	for name, rt := range cases {
		if res, err := execReply(rt); !errors.Is(err, ErrWorkerDown) {
			t.Errorf("%s: ExecShard returned a result (%v) and error %v; want ErrWorkerDown", name, res != nil, err)
		}
	}
	if _, err := execReply(replyFunc(func() ([]byte, int64) { return enc, int64(len(enc)) })); err != nil {
		t.Fatalf("exact length: %v", err)
	}
}

// TestHTTPTransportPooledReplies: back-to-back replies of different sizes,
// declared and undeclared, each decode to exactly what was encoded, so a
// pooled buffer never leaks a longer earlier reply into a shorter one.
func TestHTTPTransportPooledReplies(t *testing.T) {
	var want []*ShardResult
	var encs [][]byte
	for _, n := range []int{8, 1, 3, 8, 1} {
		res, enc := encodedShard(t, Spec{Provider: "local", Containers: n}, allContainers(n))
		want, encs = append(want, res), append(encs, enc)
	}
	empty := &ShardResult{WorkerID: "w", Findings: [][]core.Finding{}}
	want, encs = append(want, empty), append(encs, AppendShardResult(nil, empty))
	for _, declared := range []bool{true, false} {
		for i, enc := range encs {
			n := int64(len(enc))
			if !declared {
				n = -1
			}
			got, err := execReply(replyFunc(func() ([]byte, int64) { return enc, n }))
			if err != nil {
				t.Fatalf("declared=%v reply %d: %v", declared, i, err)
			}
			if !sameShardResult(got, want[i]) {
				t.Fatalf("declared=%v reply %d (%d bytes) decoded to a different result", declared, i, len(enc))
			}
		}
	}
}
