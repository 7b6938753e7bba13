package cloud

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

func TestBreakerMagneticTrip(t *testing.T) {
	b := NewBreaker(1000)
	if b.Observe(1400, 1) || b.Tripped() {
		t.Fatal("below magnetic threshold should not trip instantly (thermal needs time)")
	}
	b.Reset()
	if !b.Observe(1500, 0.5) {
		t.Fatal("1.5x overload should trip magnetically")
	}
	if !b.Tripped() {
		t.Fatal("tripped flag not set")
	}
	// Observe after trip returns false (reports only once).
	if b.Observe(2000, 1) {
		t.Fatal("already-tripped breaker reported again")
	}
}

func TestBreakerThermalTrip(t *testing.T) {
	b := NewBreaker(1000)
	// 30% sustained overload: ratio²-1 = 0.69 per second, capacity 28 →
	// trips in ~41 s.
	var tripped bool
	var at float64
	for i := 0; i < 120 && !tripped; i++ {
		tripped = b.Observe(1300, 1)
		at = float64(i)
	}
	if !tripped {
		t.Fatal("sustained overload never tripped")
	}
	if at < 25 || at > 70 {
		t.Fatalf("thermal trip after %g s, want ≈ 40 s", at)
	}
}

func TestBreakerCoolsDown(t *testing.T) {
	b := NewBreaker(1000)
	for i := 0; i < 20; i++ {
		b.Observe(1200, 1) // heat for 20 s (not enough to trip)
	}
	for i := 0; i < 120; i++ {
		b.Observe(500, 1) // long cool-down
	}
	// Now the accumulator must be drained: another 20 s at 1.2x must not
	// trip (it would if heat persisted).
	for i := 0; i < 20; i++ {
		if b.Observe(1200, 1) {
			t.Fatal("breaker retained heat after cool-down")
		}
	}
}

func TestBreakerHeadroom(t *testing.T) {
	b := NewBreaker(1000)
	if h := b.Headroom(450); h != 1000 {
		t.Fatalf("headroom = %g, want 1000", h)
	}
	if h := b.Headroom(2000); h != 0 {
		t.Fatalf("headroom = %g, want 0", h)
	}
}

func TestDatacenterConstruction(t *testing.T) {
	dc := New(Config{Racks: 2, ServersPerRack: 4, Seed: 1})
	if len(dc.Racks) != 2 || len(dc.Servers()) != 8 {
		t.Fatalf("racks=%d servers=%d", len(dc.Racks), len(dc.Servers()))
	}
	// Same-rack servers boot close together; different racks days apart.
	r0 := dc.Racks[0].Servers
	r1 := dc.Racks[1].Servers
	d0 := r0[1].Kernel.Options().BootWallClock - r0[0].Kernel.Options().BootWallClock
	dAcross := r1[0].Kernel.Options().BootWallClock - r0[0].Kernel.Options().BootWallClock
	if d0 < 0 {
		d0 = -d0
	}
	if d0 > 3600 {
		t.Fatalf("same-rack boot gap %d s too large", d0)
	}
	if dAcross < 86400 {
		t.Fatalf("cross-rack boot gap %d s too small", dAcross)
	}
}

func TestBenignLoadDiurnalSwing(t *testing.T) {
	// One server, three simulated days at 30 s steps: aggregate power must
	// show a Fig. 2-like swing (paper: 34.7% over a week for 8 servers).
	dc := New(Config{Racks: 1, ServersPerRack: 8, Seed: 2})
	var series []float64
	day := 24 * 3600.0
	for now := 30.0; now <= 3*day; now += 30 {
		dc.Clock.Advance(30)
		var w float64
		for _, s := range dc.Servers() {
			w += s.Kernel.Meter().WallPower()
		}
		series = append(series, w)
	}
	sum := stats.Summarize(series)
	swing := (sum.Max - sum.Min) / sum.Max
	if swing < 0.20 {
		t.Fatalf("aggregate power swing %.1f%%, want ≥ 20%%", swing*100)
	}
	if sum.Min < 400 || sum.Max > 2000 {
		t.Fatalf("8-server power band [%0.f, %0.f] W implausible", sum.Min, sum.Max)
	}
}

func TestBenignLoadDeterministic(t *testing.T) {
	run := func() float64 {
		dc := New(Config{Racks: 1, ServersPerRack: 2, Seed: 3})
		dc.Clock.Run(3600, 30)
		return dc.Racks[0].Power()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %g vs %g", a, b)
	}
}

func TestLaunchPlacesWithCapacity(t *testing.T) {
	dc := New(Config{Racks: 1, ServersPerRack: 2, CoresPerServer: 4, Seed: 4})
	placed := map[string]int{}
	var containers int
	for i := 0; i < 100; i++ {
		s, c, err := dc.Launch("tenant-a", "probe", 1)
		if errors.Is(err, ErrNoCapacity) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		placed[s.Name]++
		containers++
		_ = c
	}
	if containers == 0 || containers > 8 {
		t.Fatalf("placed %d containers on 2×4 cores", containers)
	}
	if len(placed) < 2 {
		t.Fatalf("placement never spread: %v", placed)
	}
}

func TestTerminateFreesCapacity(t *testing.T) {
	dc := New(Config{Racks: 1, ServersPerRack: 1, CoresPerServer: 4, Seed: 5})
	s, c, err := dc.Launch("t", "a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dc.Launch("t", "b", 4); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("expected no capacity, got %v", err)
	}
	if err := dc.Terminate(s, c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dc.Launch("t", "b", 4); err != nil {
		t.Fatalf("capacity not freed: %v", err)
	}
}

func TestLaunchAppliesProviderMasks(t *testing.T) {
	p := CC1()
	dc := New(Config{Racks: 1, ServersPerRack: 1, Seed: 6, Provider: &p})
	_, c, err := dc.Launch("t", "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("/proc/sched_debug"); err == nil {
		t.Fatal("CC1 should mask sched_debug")
	}
	if _, err := c.ReadFile("/proc/timer_list"); err != nil {
		t.Fatalf("CC1 should leave timer_list open: %v", err)
	}
}

func TestCC4LacksRAPL(t *testing.T) {
	p := CC4()
	dc := New(Config{Racks: 1, ServersPerRack: 1, Seed: 7, Provider: &p})
	_, c, err := dc.Launch("t", "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("/sys/class/powercap/intel-rapl:0/energy_uj"); err == nil {
		t.Fatal("CC4 fleet has no RAPL; energy_uj must be unavailable")
	}
}

func TestCC5PartialFilter(t *testing.T) {
	p := CC5()
	dc := New(Config{Racks: 1, ServersPerRack: 1, Seed: 8, Provider: &p})
	srv, c, err := dc.Launch("t", "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	dc.Clock.Advance(1)
	got, err := c.ReadFile("/proc/meminfo")
	if err != nil {
		t.Fatal(err)
	}
	full, err := pseudoHostRead(srv, "/proc/meminfo")
	if err != nil {
		t.Fatal(err)
	}
	if got == "" || got == full {
		t.Fatalf("CC5 meminfo should be partial: got %d bytes vs host %d", len(got), len(full))
	}
	if !strings.HasPrefix(full, got) {
		t.Fatal("partial view should be a prefix slice of host content")
	}
}

// pseudoHostRead reads a path from the host (unmasked) view of a server.
func pseudoHostRead(s *Server, path string) (string, error) {
	return s.HostMount().Read(path)
}

func TestBreakerTripsTakeRackDown(t *testing.T) {
	dc := New(Config{Racks: 1, ServersPerRack: 8, Seed: 9, BreakerRatedW: 300}) // absurdly tight
	// Saturate every server.
	for _, s := range dc.Servers() {
		c := s.Runtime.Create("attack")
		c.Run(workload.Prime, 8)
	}
	dc.Clock.Run(600, 1)
	if !dc.Racks[0].Breaker.Tripped() {
		t.Fatal("overloaded breaker never tripped")
	}
	for _, s := range dc.Servers() {
		if !s.Down {
			t.Fatal("server survived a tripped breaker")
		}
	}
	// Down servers stop contributing power.
	if p := dc.Racks[0].Power(); p != 0 {
		t.Fatalf("rack power after outage = %g", p)
	}
}

func TestBillingMetersUsage(t *testing.T) {
	b := NewBilling(DefaultPricing())
	b.Open("mallory", "c1", 4)
	b.ChargeCPU("c1", 3600*4) // 4 core-hours
	b.Close("c1", 7200)       // 2 instance-hours
	bill := b.TenantBill("mallory")
	want := 2*0.004 + 4*0.0145
	if diff := bill - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("bill = %g, want %g", bill, want)
	}
	if b.TenantBill("innocent") != 0 {
		t.Fatal("wrong tenant billed")
	}
	if b.String() == "" {
		t.Fatal("String empty")
	}
}

func TestBillingOpenMeterAccruesWithAdvance(t *testing.T) {
	b := NewBilling(DefaultPricing())
	b.Open("t", "c1", 1)
	b.Advance(3600)
	if bill := b.TenantBill("t"); bill <= 0 {
		t.Fatalf("open meter accrued nothing: %g", bill)
	}
}

func TestProviderListComplete(t *testing.T) {
	ccs := CommercialClouds()
	if len(ccs) != 5 {
		t.Fatalf("clouds = %d", len(ccs))
	}
	names := map[string]bool{}
	for _, p := range ccs {
		names[p.Name] = true
	}
	for _, want := range []string{"cc1", "cc2", "cc3", "cc4", "cc5"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestSharedFlashSynchronizesServers(t *testing.T) {
	dc := New(Config{Racks: 1, ServersPerRack: 4, Seed: 12,
		Benign: BenignConfig{FlashCrowdPerDay: 400, FlashMinS: 120, FlashMaxS: 240, SharedFlash: true}})
	// Find a moment with an active shared flash; all servers' demand jumps
	// together.
	var maxCorrDemand float64
	for i := 0; i < 1200; i++ {
		dc.Clock.Advance(1)
		d0 := dc.Racks[0].Servers[0].Benign.Demand()
		d1 := dc.Racks[0].Servers[1].Benign.Demand()
		if d0 > maxCorrDemand {
			maxCorrDemand = d0
		}
		// When one server flashes, siblings must not be at baseline: the
		// boost is shared. Allow noise; check only at clear flash moments.
		if d0 > 4.5 && d1 < 2.0 {
			t.Fatalf("t=%d: server0 demand %.1f but server1 %.1f — flash not shared", i, d0, d1)
		}
	}
	if maxCorrDemand < 4.0 {
		t.Fatal("no flash event observed in 20 minutes at 400/day")
	}
}

func TestBenignDemandAccessor(t *testing.T) {
	dc := New(Config{Racks: 1, ServersPerRack: 1, Seed: 13})
	dc.Clock.Advance(1)
	if d := dc.Racks[0].Servers[0].Benign.Demand(); d <= 0 {
		t.Fatalf("demand = %g", d)
	}
}

func TestDatacenterBillingAccessor(t *testing.T) {
	dc := New(Config{Racks: 1, ServersPerRack: 1, Seed: 14})
	if dc.Billing() == nil {
		t.Fatal("billing engine missing")
	}
	_, c, err := dc.Launch("t", "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	dc.Billing().ChargeCPU(c.ID, 3600)
	if bill := dc.Billing().TenantBill("t"); bill <= 0 {
		t.Fatalf("bill = %g", bill)
	}
}

// TestProviderByName checks the name switch against the constructors: every
// inspectable provider resolves to its own profile, and nothing else does.
func TestProviderByName(t *testing.T) {
	all := append([]ProviderProfile{LocalTestbed(), LocalLXC()}, CommercialClouds()...)
	for _, want := range all {
		got, ok := ProviderByName(want.Name)
		if !ok || !IsProvider(want.Name) {
			t.Fatalf("provider %q not resolved", want.Name)
		}
		if got.Name != want.Name || got.Runtime.Engine != want.Runtime.Engine ||
			got.Hardware != want.Hardware || len(got.ExtraRules) != len(want.ExtraRules) {
			t.Errorf("ProviderByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	for _, name := range []string{"", "gvisor", "CC1", "local "} {
		if _, ok := ProviderByName(name); ok || IsProvider(name) {
			t.Errorf("%q resolved as a provider", name)
		}
	}
}

func TestLocalLXCProfile(t *testing.T) {
	p := LocalLXC()
	dc := New(Config{Racks: 1, ServersPerRack: 1, Seed: 15, Provider: &p})
	_, c, err := dc.Launch("t", "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	// LXC masks nothing: every Table I channel file readable.
	if _, err := c.ReadFile("/proc/sched_debug"); err != nil {
		t.Fatalf("lxc masked sched_debug: %v", err)
	}
}
