package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cloud"
)

// FuzzShardRequest decodes a shard request body with DecodeShardRequest,
// as the worker's POST /v1/cluster/shards handler does (strict JSON,
// unknown fields and trailing data rejected), then validates its spec.
// Invariants: no panic; Normalize is idempotent; specs that differ only in
// Tick name the same world replica; a spec that passes Validate has at
// least one container and a known provider; an accepted body followed by
// a second value is rejected; an accepted body re-encodes to a request
// that decodes to the same value.
func FuzzShardRequest(f *testing.F) {
	f.Add([]byte(`{"scan_id":"s1","shard":0,"spec":{"provider":"local","containers":4,"tick":31},"containers":[0,1,2,3],"workers":2}`))
	f.Add([]byte(`{"spec":{"provider":"cc5","seed":-7,"containers":1},"containers":[0]}`))
	f.Add([]byte(`{"spec":{"containers":0,"tick":-3}}`))
	f.Add([]byte(`{"spec":{"provider":"nope","containers":2}}`))
	f.Add([]byte(`{"spec":{"containers":2},"extra":true}`))
	f.Add([]byte(`{"spec":{"containers":1}}{"spec":{"containers":2}}`))
	f.Add([]byte(`{"spec":{"containers":1e400}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeShardRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if _, err := DecodeShardRequest(bytes.NewReader(append(body[:len(body):len(body)], "{}"...))); err == nil {
			t.Fatalf("body followed by a second value accepted")
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode accepted request: %v", err)
		}
		again, err := DecodeShardRequest(bytes.NewReader(enc))
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encoded request %s decodes to %+v, %v; want %+v", enc, again, err, req)
		}
		valid := req.Spec.Validate() == nil

		n := req.Spec.Normalize()
		if again := n.Normalize(); again != n {
			t.Fatalf("Normalize not idempotent: %+v then %+v", n, again)
		}
		key := req.Spec.worldKey()
		for _, tick := range []float64{0, -1, n.Tick + 1} {
			other := req.Spec
			other.Tick = tick
			if got := other.worldKey(); got != key {
				t.Fatalf("tick %g changed the world key: %+v vs %+v", tick, got, key)
			}
		}
		if valid {
			if n.Containers <= 0 {
				t.Fatalf("valid spec with %d containers", n.Containers)
			}
			if !cloud.IsProvider(n.Provider) {
				t.Fatalf("valid spec with unknown provider %q", n.Provider)
			}
		}
	})
}
