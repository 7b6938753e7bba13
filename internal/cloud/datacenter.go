// Package cloud simulates a multi-tenancy container cloud at datacenter
// scale: racks of servers behind shared branch circuit breakers, a
// placement scheduler, utilization-based billing, benign tenant load with
// the diurnal swings of Fig. 2, and the five commercial provider profiles
// (CC1–CC5) whose differing channel-masking policies produce Table I.
package cloud

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/container"
	"repro/internal/defense"
	"repro/internal/fastrand"
	"repro/internal/kernel"
	"repro/internal/powerns"
	"repro/internal/pseudofs"
	"repro/internal/simclock"
)

// ErrNoCapacity is returned when placement cannot find a server with spare
// cores.
var ErrNoCapacity = errors.New("cloud: no server with spare capacity")

// Config sizes a datacenter.
type Config struct {
	Racks          int
	ServersPerRack int
	CoresPerServer int
	Seed           int64

	// BreakerRatedW is the continuous rating of each rack's branch
	// breaker. Power oversubscription means this is well below the sum of
	// the servers' peak draw.
	BreakerRatedW float64

	// Provider selects the masking/hardware profile (see providers.go);
	// nil means the unhardened local-testbed profile.
	Provider *ProviderProfile

	// Benign controls the background tenant load; zero values select
	// defaults that reproduce Fig. 2's ~35% swing.
	Benign BenignConfig

	// Defended deploys the paper's stage-2 defense on every server:
	// namespace fixes for the leaky handlers plus a power-based namespace
	// (trained once, installed per host) that registers each tenant
	// container at launch.
	Defended bool

	// Chaos arms every server's observation surface with the deterministic
	// fault-injection layer (internal/chaos): flaky pseudo-file reads,
	// counter resets, sensor glitches. The zero Spec (the default) injects
	// nothing and adds no read-path cost.
	Chaos chaos.Spec
}

func (c *Config) fillDefaults() {
	if c.Racks == 0 {
		c.Racks = 1
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 8
	}
	if c.CoresPerServer == 0 {
		c.CoresPerServer = 8
	}
	if c.BreakerRatedW == 0 {
		c.BreakerRatedW = 1250
	}
	if c.Provider == nil {
		p := LocalTestbed()
		c.Provider = &p
	}
}

// Datacenter is the top-level simulation object.
type Datacenter struct {
	Clock *simclock.Clock
	Racks []*Rack

	cfg     Config
	billing *Billing
	flash   *FlashDriver // non-nil when cfg.Benign.SharedFlash

	datacenterState
}

// datacenterState is a Datacenter's own mutable state: the placement RNG
// and the container id sequence.
type datacenterState struct {
	rng     fastrand.Rand
	nextCID int
}

// Rack groups servers behind one breaker.
type Rack struct {
	Name    string
	Servers []*Server
	Breaker *Breaker
}

// Power returns the rack's current wall power (sum over servers), which is
// what the PDU meters and the breaker sees.
func (r *Rack) Power() float64 {
	var w float64
	for _, s := range r.Servers {
		if !s.Down {
			w += s.Kernel.Meter().WallPower()
		}
	}
	return w
}

// Server is one physical host.
type Server struct {
	Name    string
	Rack    *Rack
	Kernel  *kernel.Kernel
	FS      *pseudofs.FS
	Runtime *container.Runtime
	Benign  *BenignLoad

	// PowerNS is the server's power-based namespace when the datacenter
	// is Defended, nil otherwise.
	PowerNS *powerns.Namespace

	serverState
}

// serverState is a Server's own mutable state; its components (kernel, FS,
// runtime, benign load, power namespace) carry their own.
type serverState struct {
	// Down is set when the rack breaker trips (forced shutdown).
	Down bool

	// reservations maps container ID → reserved cores; the scheduler
	// admits by reservation, not instantaneous load.
	reservations map[string]float64
}

// ReservedCores returns the total cores reserved by placed containers.
func (s *Server) ReservedCores() float64 {
	var sum float64
	for _, c := range s.reservations {
		sum += c
	}
	return sum
}

// HostMount returns an unmasked host-context mount of the server's pseudo
// filesystems — the reference side of the detector's cross-validation.
func (s *Server) HostMount() *pseudofs.Mount {
	return pseudofs.NewMount(s.FS, pseudofs.HostView(s.Kernel), pseudofs.Policy{})
}

// New builds a datacenter and registers everything on a fresh simulation
// clock.
//
// Tick pipeline (see ARCHITECTURE.md, "tick pipeline"): the shared
// flash-crowd driver runs in the serial pre-phase; each server's
// Benign→Kernel pair is registered on its own clock shard (server state —
// kernel, RNG streams, power meter, chaos injectors — is disjoint per
// host); shards tick in server order, and each rack's breaker runs in the
// serial post-phase, reading rack.Power() over fully-ticked servers in
// fixed rack order.
func New(cfg Config) *Datacenter {
	cfg.fillDefaults()
	dc := &Datacenter{Clock: simclock.New(), cfg: cfg, billing: NewBilling(DefaultPricing())}
	dc.rng = *fastrand.New(cfg.Seed)
	var flash *FlashDriver
	if cfg.Benign.SharedFlash {
		flash = NewFlashDriver(cfg.Benign, cfg.Seed+99)
		dc.Clock.OnTick(flash)
		dc.flash = flash
	}
	// Defended fleets train the power model once (identical physics on
	// every server) and deploy per host below.
	var model *powerns.Model
	if cfg.Defended {
		var err error
		model, _, err = powerns.Train(powerns.TrainOptions{Seed: cfg.Seed + 7})
		if err != nil {
			// Training is deterministic over a fixed benchmark set; a
			// failure is a programming error, not an operational state.
			panic(fmt.Sprintf("cloud: defense training failed: %v", err))
		}
	}
	for r := 0; r < cfg.Racks; r++ {
		rack := &Rack{
			Name:    fmt.Sprintf("rack-%d", r),
			Breaker: NewBreaker(cfg.BreakerRatedW),
		}
		// Servers in one rack were racked and powered on together, so
		// their boot wall-clocks cluster — the /proc/uptime proximity
		// signal of Section IV-C.
		rackEpoch := int64(1478649600 + r*86400*3)
		for s := 0; s < cfg.ServersPerRack; s++ {
			seed := cfg.Seed*1000 + int64(r*100+s)
			k := kernel.New(kernel.Options{
				Hostname:      fmt.Sprintf("node-%d-%d", r, s),
				Cores:         cfg.CoresPerServer,
				Seed:          seed,
				BootWallClock: rackEpoch + int64(s)*90, // ~sequential power-on
			})
			fs := pseudofs.Build(k, cfg.Provider.Hardware)
			srv := &Server{
				Name:        k.Options().Hostname,
				Rack:        rack,
				Kernel:      k,
				FS:          fs,
				Runtime:     container.NewRuntime(k, fs, cfg.Provider.Runtime),
				serverState: serverState{reservations: make(map[string]float64)},
			}
			if cfg.Defended {
				defense.ApplyNamespaceFixes(fs)
				srv.PowerNS = powerns.New(k, model)
				srv.PowerNS.Install(fs)
			}
			// Chaos arms last so faults perturb whatever provider —
			// raw or defended — the tenant actually reads.
			chaos.Install(fs, cfg.Chaos, k.Options().Hostname)
			srv.Benign = NewBenignLoad(srv, cfg.Benign, seed+7)
			if flash != nil {
				srv.Benign.SetSharedFlash(flash)
			}
			rack.Servers = append(rack.Servers, srv)

			// Order matters within a server: benign load updates demand,
			// then the kernel integrates. Each server gets its own shard;
			// nothing a shard touches is reachable from another shard.
			shard := r*cfg.ServersPerRack + s
			dc.Clock.OnShardTick(shard, srv.Benign)
			dc.Clock.OnShardTick(shard, k)
		}
		dc.Racks = append(dc.Racks, rack)
		// The breaker is a cross-server reader: it must observe every
		// server of its rack fully ticked, in fixed order, so it runs in
		// the serial post-phase.
		dc.Clock.OnPostTick(simclock.TickerFunc(func(now, dt float64) {
			if rack.Breaker.Observe(rack.Power(), dt) {
				for _, s := range rack.Servers {
					s.Down = true
				}
			}
		}))
	}
	return dc
}

// Billing returns the datacenter's metering engine.
func (dc *Datacenter) Billing() *Billing { return dc.billing }

// Servers returns every server in rack order.
func (dc *Datacenter) Servers() []*Server {
	var out []*Server
	for _, r := range dc.Racks {
		out = append(out, r.Servers...)
	}
	return out
}

// Launch places a container for the tenant somewhere with spare capacity,
// like a cloud scheduler: candidates are servers whose current demand
// leaves room, picked pseudo-randomly (tenants cannot choose placement —
// that is exactly why the attack needs co-residence detection).
func (dc *Datacenter) Launch(tenant, name string, cores float64) (*Server, *container.Container, error) {
	servers := dc.Servers()
	// Random starting point, first fit.
	start := dc.rng.Intn(len(servers))
	for i := 0; i < len(servers); i++ {
		s := servers[(start+i)%len(servers)]
		if s.Down {
			continue
		}
		if s.ReservedCores()+cores <= float64(s.Kernel.Options().Cores) {
			dc.nextCID++
			c := s.Runtime.Create(fmt.Sprintf("%s-%s-%d", tenant, name, dc.nextCID),
				dc.cfg.Provider.ExtraRules...)
			s.reservations[c.ID] = cores
			if s.PowerNS != nil {
				s.PowerNS.Register(c.CgroupPath)
			}
			dc.billing.Open(tenant, c.ID, cores)
			return s, c, nil
		}
	}
	return nil, nil, ErrNoCapacity
}

// Terminate destroys a container, frees its reservation, and closes its
// billing meter.
func (dc *Datacenter) Terminate(s *Server, c *container.Container) error {
	delete(s.reservations, c.ID)
	if s.PowerNS != nil {
		s.PowerNS.Unregister(c.CgroupPath)
	}
	dc.billing.Close(c.ID, dc.Clock.Now())
	return s.Runtime.Destroy(c.ID)
}

// Breaker models a thermal-magnetic branch circuit breaker: an
// instantaneous magnetic trip at a large overload and an I²t thermal
// accumulator for sustained smaller overloads.
type Breaker struct {
	RatedW float64
	// MagneticFactor trips instantly at RatedW×factor.
	MagneticFactor float64
	// ThermalCapacity is the I²t budget in (overload ratio²)·seconds.
	ThermalCapacity float64

	breakerState
}

// breakerState is a Breaker's mutable state.
type breakerState struct {
	accum   float64
	tripped bool
}

// NewBreaker returns a breaker with typical trip characteristics: instant
// trip at 1.45× rating, and e.g. a 30% sustained overload trips in ~40 s.
func NewBreaker(ratedW float64) *Breaker {
	return &Breaker{RatedW: ratedW, MagneticFactor: 1.45, ThermalCapacity: 28}
}

// Observe feeds one interval of load; it returns true exactly once, at the
// moment the breaker trips.
func (b *Breaker) Observe(powerW, dt float64) bool {
	if b.tripped {
		return false
	}
	ratio := powerW / b.RatedW
	if ratio >= b.MagneticFactor {
		b.tripped = true
		return true
	}
	if ratio > 1 {
		b.accum += (ratio*ratio - 1) * dt
		if b.accum >= b.ThermalCapacity {
			b.tripped = true
			return true
		}
	} else {
		// Cool down at half the heating rate.
		b.accum -= (1 - ratio*ratio) * dt * 0.5
		if b.accum < 0 {
			b.accum = 0
		}
	}
	return false
}

// Tripped reports whether the breaker has opened.
func (b *Breaker) Tripped() bool { return b.tripped }

// Reset closes the breaker again (maintenance action in tests/ablations).
func (b *Breaker) Reset() {
	b.tripped = false
	b.accum = 0
}

// Headroom returns how many Watts of margin remain before the magnetic
// threshold.
func (b *Breaker) Headroom(currentW float64) float64 {
	return math.Max(0, b.RatedW*b.MagneticFactor-currentW)
}
