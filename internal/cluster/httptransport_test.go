package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
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
