package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzScanRequestKey decodes two scan bodies the way POST /v1/scans does
// (strict JSON, unknown fields rejected). For requests that pass Validate
// it checks the invariants the result store's dedup rests on: Normalize is
// idempotent, a normalized request still validates, and two requests share
// a Key exactly when their normalized forms are equal once Workers (which
// never changes output) is zeroed.
func FuzzScanRequestKey(f *testing.F) {
	f.Add([]byte(`{"kind":"table1"}`), []byte(`{"kind":"table1","seed":0,"workers":4}`))
	f.Add([]byte(`{"kind":"inspect","provider":"cc1","limit":50,"offset":3}`), []byte(`{"kind":"inspect","provider":"cc1"}`))
	f.Add([]byte(`{"kind":"inspect","runtime":"gvisor","seed":7}`), []byte(`{"kind":"inspect","provider":"local","seed":7}`))
	f.Add([]byte(`{"kind":"fig3","seed":9,"provider":"cc2"}`), []byte(`{"kind":"fig3"}`))
	f.Add([]byte(`{"kind":"matrix","chaos_rate":0.02}`), []byte(`{"kind":"matrix","chaos_rate":0.02,"chaos_seed":1}`))
	f.Add([]byte(`{"kind":"discovery","chaos_seed":5}`), []byte(`{"kind":"discovery","chaos_rate":0}`))
	f.Add([]byte(`{"kind":"chaossweep","chaos_rate":1e-300}`), []byte(`{"kind":"chaossweep","chaos_rate":-0}`))
	f.Add([]byte(`{"kind":"fig8","extra":true}`), []byte(`[]`))

	decode := func(body []byte) (ScanRequest, bool) {
		var req ScanRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil {
			return ScanRequest{}, false
		}
		return req, true
	}
	f.Fuzz(func(t *testing.T, bodyA, bodyB []byte) {
		a, okA := decode(bodyA)
		b, okB := decode(bodyB)
		if !okA || !okB {
			return
		}
		for _, r := range []ScanRequest{a, b} {
			n := r.Normalize()
			if again := n.Normalize(); again != n {
				t.Fatalf("Normalize not idempotent: %+v then %+v", n, again)
			}
			if err := n.Validate(); err != nil {
				t.Fatalf("normalized %+v no longer validates: %v", n, err)
			}
		}
		na, nb := a.Normalize(), b.Normalize()
		na.Workers, nb.Workers = 0, 0
		if sameKey, same := a.Key() == b.Key(), na == nb; sameKey != same {
			t.Fatalf("key equality %v but normalized equality %v:\n a %+v\n b %+v", sameKey, same, na, nb)
		}
	})
}
