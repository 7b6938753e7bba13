package policy

import (
	"bytes"
	"testing"
)

// FuzzPolicyDecode feeds arbitrary bytes to Decode, the parser behind
// defensebench -policy and POST /v1/policies. Decode must never panic, and
// for every policy it accepts: PseudoRules succeeds, the encoding decodes
// again, and Encode is a fixed point of that round trip. The check
// compares bytes, not structs, because omitempty encodes an empty
// BenignPaths as absent and it decodes back as nil.
func FuzzPolicyDecode(f *testing.F) {
	f.Add([]byte(`{"provider":"cc1","seed":0,"rules":[{"pattern":"/proc/sched_debug","action":"deny","channel":"/proc/sched_debug","subsystems":"sched"}]}`))
	f.Add([]byte(`{"provider":"cc2","seed":-9,"rules":[{"pattern":"/sys/class/powercap/**","action":"empty"},{"pattern":"/proc/*/stat","action":"deny"}],"benign_paths":["/proc/cpuinfo","/proc/meminfo"]}`))
	f.Add([]byte(`{"provider":"x","rules":[],"benign_paths":[]}`))
	f.Add([]byte(`{"provider":"<&> ","seed":9007199254740993,"rules":null}`))
	f.Add([]byte(`{"provider":"x","rules":[{"pattern":"/proc/stat","action":"explode"}]}`))
	f.Add([]byte(`{"provider":"x","bogus":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"PROVIDER":"\xff","Rules":[{"Pattern":"/proc/**","Action":"deny"}]} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if _, err := p.PseudoRules(); err != nil {
			t.Fatalf("accepted policy has no pseudofs rules: %v\n%s", err, data)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted policy does not encode: %v\n%s", err, data)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoding of an accepted policy does not decode: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("re-decoded policy does not encode: %v\n%s", err, enc)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("Encode is not a fixed point under Decode:\nfirst  %s\nsecond %s", enc, again)
		}
	})
}
