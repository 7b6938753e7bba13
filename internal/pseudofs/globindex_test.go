package pseudofs

import (
	"testing"

	"repro/internal/kernel"
)

// BenchmarkDepLookup resolves the dependency tag of every tree path, as
// a layout does once per key, through the compiled index and through the
// linear table scan it replaced.
func BenchmarkDepLookup(b *testing.B) {
	k := kernel.New(kernel.Options{Hostname: "bench", Seed: 1})
	paths := Build(k, DefaultHardware()).Paths()
	for _, bc := range []struct {
		name   string
		lookup func(string) Dep
	}{{"index", lookupDep}, {"linear", linearDep}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range paths {
					_ = bc.lookup(p)
				}
			}
		})
	}
}
