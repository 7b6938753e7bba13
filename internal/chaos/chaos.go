// Package chaos is a deterministic, seeded fault-injection layer for the
// simulated observation surface. The paper's systems run against real
// procfs/sysfs on commercial clouds, where reads race, sensors glitch, RAPL
// counters reset across power events, and providers flip AppArmor masks
// under a live tenant. The clean simulated substrate never does any of
// that, so every consumer (the cross-validation detector, the attack
// monitors, the powerns calibration loop) would be silently brittle in the
// field. This package injects that hostility on purpose — and, unlike the
// field, reproducibly.
//
// Faults are drawn from per-path (and per-counter-key) split RNGs: each
// path's fault stream depends only on (seed, path) and on how many times
// that path has been read, never on cross-path interleaving. Because the
// experiment harnesses validate each path/key inside a single work item,
// fault sequences — and therefore rendered reports — are byte-identical at
// any worker count, preserving the determinism contract of
// ARCHITECTURE.md.
//
// The fault taxonomy, modeled on field failure modes of /proc and /sys:
//
//   - transient EIO / EAGAIN: the read fails this once; retry may succeed.
//     Both wrap pseudofs.ErrTransient so consumers classify them with
//     errors.Is without importing this package.
//   - sticky EIO: a small fraction of EIO faults latch — the path fails
//     forever after, like a dead sensor node.
//   - torn read: the reader races a writer and sees a truncated render.
//   - stale read: a cached previous render is served instead of fresh
//     content.
//   - mask flap: the path turns denied (wrapping pseudofs.ErrDenied) for a
//     few consecutive reads, like a provider rolling out an AppArmor
//     profile under a live tenant.
//   - counter reset: an energy counter restarts from zero mid-run (power
//     event, PMU re-init).
//   - quantization: counters are floored to a quantum, modeling coarse
//     field-sampled readings; monotone, so it never fabricates
//     regressions.
//   - DTS quantization + stuck sensor: temperatures floor to 1 °C and
//     occasionally repeat their previous reading.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/fastrand"
	"repro/internal/power"
	"repro/internal/pseudofs"
)

// Spec is the user-facing knob pair: one overall fault rate and one seed.
// The zero Spec disables injection entirely (and is what every default
// code path uses — chaos off must be a zero-cost no-op).
type Spec struct {
	// Rate is the overall fault intensity in [0,1]: the probability that
	// any given pseudo-file read is perturbed. Individual fault kinds get
	// fixed shares of it (see Config).
	Rate float64
	// Seed selects the fault stream. Same (Rate, Seed) ⇒ same faults,
	// byte-identical reports, at any worker count.
	Seed int64
}

// Enabled reports whether the spec injects anything.
func (s Spec) Enabled() bool { return s.Rate > 0 }

// String renders the spec for experiment headers.
func (s Spec) String() string {
	if !s.Enabled() {
		return "chaos off"
	}
	return fmt.Sprintf("chaos rate=%g seed=%d", s.Rate, s.Seed)
}

// Config expands a Spec into per-fault-kind rates. The shares are fixed so
// that a single -chaos flag spans the whole taxonomy; tests that need a
// single isolated fault kind construct a Config directly.
type Config struct {
	Seed int64

	EIORate    float64 // transient EIO per read
	EAgainRate float64 // transient EAGAIN per read
	TornRate   float64 // truncated render per read
	StaleRate  float64 // previous render served per read
	FlapRate   float64 // mask-flap episode starts per read
	FlapReads  int     // consecutive denied reads per flap episode
	StickyFrac float64 // fraction of EIO faults that latch forever

	ResetRate float64 // counter reset per observation
	JitterUJ  uint64  // counter quantization quantum, µJ (0 = none)
}

// Config derives the per-kind rates from the single overall rate: 30% of
// faulted reads are EIO, 15% EAGAIN, 10% torn, 20% stale, 5% flap starts,
// and counters independently reset on 10% · Rate of observations.
func (s Spec) Config() Config {
	r := s.Rate
	return Config{
		Seed:       s.Seed,
		EIORate:    0.30 * r,
		EAgainRate: 0.15 * r,
		TornRate:   0.10 * r,
		StaleRate:  0.20 * r,
		FlapRate:   0.05 * r,
		FlapReads:  3,
		StickyFrac: 0.01,
		ResetRate:  0.10 * r,
		JitterUJ:   50_000, // 50 mJ — ~0.05% of a one-second 100 W delta
	}
}

// Injected error values. Both transient kinds wrap pseudofs.ErrTransient;
// flap errors wrap pseudofs.ErrDenied so a flapped path is
// indistinguishable from a genuinely masked one on a single read — which
// is exactly the ambiguity the detector's quorum protocol exists to
// resolve.
var (
	ErrIO    = fmt.Errorf("%w: injected EIO", pseudofs.ErrTransient)
	ErrAgain = fmt.Errorf("%w: injected EAGAIN", pseudofs.ErrTransient)
	errFlap  = fmt.Errorf("%w: injected mask flap", pseudofs.ErrDenied)
)

// Split derives a child seed from (seed, kind, name) via FNV-64a. Every
// independent fault stream — one per path, per counter key, per host —
// gets its own Split seed, which is what makes fault sequences independent
// of cross-stream interleaving.
func Split(seed int64, kind, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, kind, name)
	return int64(h.Sum64())
}

// pathState is the per-path fault stream: its RNG plus latched state.
type pathState struct {
	rng      fastrand.Rand
	sticky   bool   // latched EIO
	flapLeft int    // remaining denied reads in the current flap episode
	last     string // previous full render, for stale reads
	haveLast bool
}

// Injector perturbs Mount reads. It implements pseudofs.Injector. Safe for
// concurrent use; per-path fault sequences do not depend on how reads of
// *different* paths interleave.
type Injector struct {
	cfg   Config
	mu    sync.Mutex
	paths map[string]*pathState
}

// NewInjector returns an injector drawing faults from cfg.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, paths: make(map[string]*pathState)}
}

func (in *Injector) state(path string) *pathState {
	st, ok := in.paths[path]
	if !ok {
		st = &pathState{rng: *fastrand.New(Split(in.cfg.Seed, "fs", path))}
		in.paths[path] = st
	}
	return st
}

// Read implements pseudofs.Injector: it decides this read's fate from the
// path's own fault stream, then either fails, serves stale/torn content,
// or performs the genuine read (caching the render for future stale
// serves).
func (in *Injector) Read(path string, read func() (string, error)) (string, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.state(path)

	if st.sticky {
		return "", fmt.Errorf("%w (sticky): %s", ErrIO, path)
	}
	if st.flapLeft > 0 {
		st.flapLeft--
		return "", fmt.Errorf("%w: %s", errFlap, path)
	}

	// One roll decides the read's fate via a subtractive threshold walk.
	p := st.rng.Float64()
	if p -= in.cfg.EIORate; p < 0 {
		if st.rng.Float64() < in.cfg.StickyFrac {
			st.sticky = true
		}
		return "", fmt.Errorf("%w: %s", ErrIO, path)
	}
	if p -= in.cfg.EAgainRate; p < 0 {
		return "", fmt.Errorf("%w: %s", ErrAgain, path)
	}
	if p -= in.cfg.FlapRate; p < 0 {
		st.flapLeft = in.cfg.FlapReads - 1
		return "", fmt.Errorf("%w: %s", errFlap, path)
	}
	if p -= in.cfg.StaleRate; p < 0 {
		if st.haveLast {
			return st.last, nil
		}
		// Nothing cached yet: degrade to a clean read.
		return st.clean(read)
	}
	if p -= in.cfg.TornRate; p < 0 {
		content, err := read()
		if err != nil {
			return content, err
		}
		// Cache the *full* render (the file's true content did not
		// change; only this read was torn), return a truncated prefix.
		st.last, st.haveLast = content, true
		if len(content) > 1 {
			cut := 1 + st.rng.Intn(len(content)-1)
			return content[:cut], nil
		}
		return content, nil
	}
	return st.clean(read)
}

// clean performs the genuine read and caches a successful render.
func (st *pathState) clean(read func() (string, error)) (string, error) {
	content, err := read()
	if err != nil {
		return content, err
	}
	st.last, st.haveLast = content, true
	return content, nil
}

// counterState is one counter key's fault stream: its RNG plus the base
// the (virtual) counter restarted from at its most recent injected reset.
type counterState struct {
	rng  fastrand.Rand
	base uint64
}

// Counters perturbs wrapping energy-counter observations: injected
// resets-to-zero plus floor quantization. Keys identify independent
// counters ("<host>/energy/package", a training-kernel domain, …); each
// key's stream is interleaving-independent, like Injector paths.
type Counters struct {
	cfg  Config
	mu   sync.Mutex
	keys map[string]*counterState
}

// NewCounters returns a counter perturber drawing from cfg.
func NewCounters(cfg Config) *Counters {
	return &Counters{cfg: cfg, keys: make(map[string]*counterState)}
}

// Observe maps a raw counter reading to the perturbed reading a consumer
// sees. An injected reset moves the base to the current raw value, so the
// observed counter restarts from zero — exactly the cur << prev transition
// power.CounterDeltaKind classifies as DeltaReset. Between resets the
// observed value advances monotonically (modulo genuine wraps), floored to
// the configured quantum.
func (c *Counters) Observe(key string, raw, maxRange uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.keys[key]
	if !ok {
		st = &counterState{rng: *fastrand.New(Split(c.cfg.Seed, "ctr", key))}
		c.keys[key] = st
	}
	if st.rng.Float64() < c.cfg.ResetRate {
		st.base = raw // the counter restarts from zero, here, now
	}
	v := raw
	if maxRange > 0 {
		v = (raw + maxRange - st.base%maxRange) % maxRange
	} else if raw >= st.base {
		v = raw - st.base
	}
	if q := c.cfg.JitterUJ; q > 0 {
		v -= v % q
	}
	return v
}

// Energy wraps an EnergyProvider with counter chaos. It stacks on top of
// whatever provider is installed — raw host counters or the defended
// powerns provider — so faults perturb exactly what a tenant would read.
type Energy struct {
	inner    pseudofs.EnergyProvider
	ctr      *Counters
	salt     string
	maxRange uint64
}

// NewEnergy wraps inner; salt namespaces this host's counter keys.
func NewEnergy(inner pseudofs.EnergyProvider, ctr *Counters, salt string, maxRange uint64) *Energy {
	return &Energy{inner: inner, ctr: ctr, salt: salt, maxRange: maxRange}
}

// EnergyUJ implements pseudofs.EnergyProvider.
func (e *Energy) EnergyUJ(v pseudofs.View, d power.Domain) (uint64, error) {
	raw, err := e.inner.EnergyUJ(v, d)
	if err != nil {
		return 0, err
	}
	return e.ctr.Observe(e.salt+"/energy/"+d.String(), raw, e.maxRange), nil
}

// dtsState is one core sensor's fault stream.
type dtsState struct {
	rng  fastrand.Rand
	last float64
	have bool
}

// Thermal wraps a ThermalProvider with sensor chaos: 1 °C floor
// quantization (real DTS resolution) and occasional stuck readings that
// repeat the previous value. Streams are per-core so read interleavings
// across cores cannot perturb each other.
type Thermal struct {
	inner pseudofs.ThermalProvider
	cfg   Config
	salt  string
	mu    sync.Mutex
	cores map[int]*dtsState
}

// NewThermal wraps inner; salt namespaces this host's sensor streams.
func NewThermal(inner pseudofs.ThermalProvider, cfg Config, salt string) *Thermal {
	return &Thermal{inner: inner, cfg: cfg, salt: salt, cores: make(map[int]*dtsState)}
}

// CoreTempC implements pseudofs.ThermalProvider.
func (t *Thermal) CoreTempC(v pseudofs.View, core int) (float64, error) {
	cur, err := t.inner.CoreTempC(v, core)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.cores[core]
	if !ok {
		seed := Split(t.cfg.Seed, "dts", fmt.Sprintf("%s/%d", t.salt, core))
		st = &dtsState{rng: *fastrand.New(seed)}
		t.cores[core] = st
	}
	if st.have && st.rng.Float64() < t.cfg.ResetRate {
		return st.last, nil // stuck sensor: repeat the previous reading
	}
	q := math.Floor(cur) // 1 °C DTS quantization
	st.last, st.have = q, true
	return q, nil
}

// WrapRawSource wraps a raw per-domain counter source (e.g. the powerns
// calibration loop's direct meter reads) with counter chaos, keyed under
// salt.
func WrapRawSource(read func(power.Domain) uint64, ctr *Counters, salt string, maxRange uint64) func(power.Domain) uint64 {
	return func(d power.Domain) uint64 {
		return ctr.Observe(salt+"/"+d.String(), read(d), maxRange)
	}
}

// Install arms one host's pseudo-filesystem with the full fault taxonomy:
// a read injector plus chaotic energy and thermal providers stacked on the
// currently installed ones. hostSalt (typically the hostname) decorrelates
// fault streams across hosts sharing a seed. A disabled spec is a no-op.
// Call Install *after* any defended provider (powerns) is installed so the
// faults perturb what the tenant actually reads.
func Install(fs *pseudofs.FS, spec Spec, hostSalt string) *Injector {
	if !spec.Enabled() {
		return nil
	}
	cfg := spec.Config()
	cfg.Seed = Split(cfg.Seed, "host", hostSalt)
	inj := NewInjector(cfg)
	fs.SetInjector(inj)
	ctr := NewCounters(cfg)
	maxR := fs.Kernel().Meter().MaxEnergyRangeUJ()
	fs.SetEnergyProvider(NewEnergy(fs.EnergyProvider(), ctr, hostSalt, maxR))
	fs.SetThermalProvider(NewThermal(fs.ThermalProvider(), cfg, hostSalt))
	return inj
}
