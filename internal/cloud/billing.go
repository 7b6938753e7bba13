package cloud

import "fmt"

// Pricing is a utilization-based billing model, mirroring the metered
// container offerings (ElasticHosts-style CPU metering, burstable
// instances) that Section IV-B argues make continuous power attacks
// expensive.
type Pricing struct {
	// PerInstanceHour is the flat charge for a running container.
	PerInstanceHour float64
	// PerCoreHour is the charge per core-hour of actual CPU use.
	PerCoreHour float64
}

// DefaultPricing reflects the paper's VMware OnDemand data point: a mostly
// idle instance costs a few dollars a month, a fully-busy one two orders of
// magnitude more — so cost is dominated by the metered core-hours.
func DefaultPricing() Pricing {
	return Pricing{PerInstanceHour: 0.004, PerCoreHour: 0.0145}
}

type meter struct {
	tenant    string
	openedAt  float64
	closedAt  float64
	open      bool
	coreHours float64
}

// Billing meters per-tenant instance-hours and core-hours.
type Billing struct {
	pricing Pricing
	billingState
}

// billingState is a Billing's mutable state.
type billingState struct {
	meters map[string]*meter
	now    float64
}

// NewBilling returns an empty billing engine.
func NewBilling(p Pricing) *Billing {
	return &Billing{pricing: p, billingState: billingState{meters: make(map[string]*meter)}}
}

// Open starts metering a container for the tenant.
func (b *Billing) Open(tenant, containerID string, cores float64) {
	b.meters[containerID] = &meter{tenant: tenant, openedAt: b.now, open: true}
	_ = cores // capacity is free; only usage is metered
}

// Close stops metering a container at the given simulated time.
func (b *Billing) Close(containerID string, now float64) {
	if m, ok := b.meters[containerID]; ok && m.open {
		m.open = false
		m.closedAt = now
	}
	if now > b.now {
		b.now = now
	}
}

// ChargeCPU accrues metered CPU use for a container, in core-seconds.
func (b *Billing) ChargeCPU(containerID string, coreSeconds float64) {
	if m, ok := b.meters[containerID]; ok {
		m.coreHours += coreSeconds / 3600
	}
}

// Advance moves billing time forward (instance-hours accrue while open).
func (b *Billing) Advance(now float64) { b.now = now }

// TenantBill totals a tenant's charges at the current billing time.
func (b *Billing) TenantBill(tenant string) float64 {
	var total float64
	for _, m := range b.meters {
		if m.tenant != tenant {
			continue
		}
		end := m.closedAt
		if m.open {
			end = b.now
		}
		hours := (end - m.openedAt) / 3600
		if hours < 0 {
			hours = 0
		}
		total += hours*b.pricing.PerInstanceHour + m.coreHours*b.pricing.PerCoreHour
	}
	return total
}

// String summarizes the billing state.
func (b *Billing) String() string {
	return fmt.Sprintf("Billing{meters=%d, t=%.0fs}", len(b.meters), b.now)
}
