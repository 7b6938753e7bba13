package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cloud"
)

// FuzzShardRequest decodes a shard request body the way the worker's
// POST /v1/cluster/shards handler does (strict JSON, unknown fields
// rejected), then validates its spec. Invariants: no panic; Normalize is
// idempotent; specs that differ only in Tick name the same world replica;
// a spec that passes Validate has at least one container and a known
// provider.
func FuzzShardRequest(f *testing.F) {
	f.Add([]byte(`{"scan_id":"s1","shard":0,"spec":{"provider":"local","containers":4,"tick":31},"containers":[0,1,2,3],"workers":2}`))
	f.Add([]byte(`{"spec":{"provider":"cc5","seed":-7,"containers":1},"containers":[0]}`))
	f.Add([]byte(`{"spec":{"containers":0,"tick":-3}}`))
	f.Add([]byte(`{"spec":{"provider":"nope","containers":2}}`))
	f.Add([]byte(`{"spec":{"containers":2},"extra":true}`))
	f.Add([]byte(`{"spec":{"containers":1e400}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req ShardRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
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
