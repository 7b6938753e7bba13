package respcache

import (
	"strings"
	"testing"
)

// FuzzParseQuery parses arbitrary raw query strings the way the /v1 list
// endpoints do and checks the invariants the response cache keys rest on:
// ParseQuery never panics, and a parsed query whose string fields hold
// none of the separator or escape bytes (& = % +) survives a round trip
// through its Canonical spelling, which is therefore a fixed point under
// re-parsing.
//
// Canonical does not escape its values, so neither property holds for
// fields holding those bytes (reachable through escaped input): the
// fields of "provider=%2B" and "provider=0%26" re-parse as something
// else, and "provider=a%26runtime%3Db" and "provider=a&runtime=b" parse to
// two different queries with one Canonical spelling.
func FuzzParseQuery(f *testing.F) {
	for _, raw := range []string{
		"", "limit=&offset=0", "provider=cc1&limit=50", "limit=50&provider=cc1&limit=7",
		"verdict=available", "verdict=%E2%97%8F", "verdict=◐", "runtime=gvisor&offset=3",
		"provider=a%26runtime%3Db", "limit=-1", "offset=x", "provider=a=b", "provider=a+b",
		"limit=007&offset=0010", "verdict=bogus", "&&=&provider",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := ParseQuery(raw)
		if err != nil {
			return
		}
		if strings.ContainsAny(q.Provider+q.Runtime+q.Verdict, "&=%+") {
			return
		}
		canon := q.Canonical()
		again, err := ParseQuery(canon)
		if err != nil || again != q {
			t.Fatalf("ParseQuery(%q) = %+v, but its canonical %q re-parses to %+v, %v", raw, q, canon, again, err)
		}
		if again.Canonical() != canon {
			t.Fatalf("canonical %q of %q re-canonicalizes to %q", canon, raw, again.Canonical())
		}
	})
}
