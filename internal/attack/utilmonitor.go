package attack

import (
	"fmt"
	"strconv"
	"strings"
)

// Section VII-A: "if power data is not directly available, advanced
// attackers will try to approximate the power status based on the resource
// utilization information, such as the CPU and memory utilization, which is
// still available in the identified information leakages."
//
// UtilizationMonitor is that fallback: it estimates host activity from the
// leaked /proc/stat CPU accounting, producing a power-correlated signal on
// fleets where RAPL is masked or absent (CC4). The crest logic is shared
// with the RAPL monitor through the HostSignal interface.

// HostSignal is any per-host, per-second scalar the synergistic trigger can
// watch: true power from RAPL, or a utilization proxy.
type HostSignal interface {
	// Sample returns the signal averaged over the dt seconds since the
	// previous call; the first call primes internal state and returns
	// (0, ErrPrimed).
	Sample(dt float64) (float64, error)
}

// UtilizationMonitor derives whole-host CPU utilization (0..1, scaled
// ×100 for readability) from consecutive /proc/stat snapshots.
type UtilizationMonitor struct {
	probe     Prober
	prevBusy  float64
	prevTotal float64
	primed    bool
	lastUtil  float64
}

// NewUtilizationMonitor validates that /proc/stat is readable and returns
// the monitor.
func NewUtilizationMonitor(p Prober) (*UtilizationMonitor, error) {
	content, err := p.ReadFile("/proc/stat")
	if err != nil {
		return nil, fmt.Errorf("attack: /proc/stat unavailable: %w", err)
	}
	if _, _, err := parseCPULine(content); err != nil {
		return nil, err
	}
	return &UtilizationMonitor{probe: p}, nil
}

// Sample implements HostSignal: percent CPU utilization since last call.
// Transient read errors and torn renders are retried (bounded); a stale
// snapshot (no tick progress, or ticks running backwards after a stale
// read) holds the previous utilization instead of fabricating a 0% lull.
func (m *UtilizationMonitor) Sample(dt float64) (float64, error) {
	busy, total, err := m.readCPULine()
	if err != nil {
		return 0, err
	}
	if !m.primed {
		m.prevBusy, m.prevTotal = busy, total
		m.primed = true
		return 0, ErrPrimed
	}
	dBusy := busy - m.prevBusy
	dTotal := total - m.prevTotal
	if dTotal <= 0 {
		// Stale or regressed snapshot: no new accounting to difference.
		// Keep prev so the next fresh snapshot yields a sane delta.
		return m.lastUtil, nil
	}
	m.prevBusy, m.prevTotal = busy, total
	util := dBusy / dTotal * 100
	if util < 0 {
		util = 0
	} else if util > 100 {
		util = 100
	}
	m.lastUtil = util
	return util, nil
}

// readCPULine reads and parses /proc/stat with bounded retries on
// transient failures and torn (unparseable) renders.
func (m *UtilizationMonitor) readCPULine() (busy, total float64, err error) {
	var lastErr error
	for attempt := 0; attempt < sampleRetries; attempt++ {
		content, rerr := m.probe.ReadFile("/proc/stat")
		if rerr != nil {
			if !retryable(rerr) {
				return 0, 0, fmt.Errorf("attack: read /proc/stat: %w", rerr)
			}
			lastErr = rerr
			continue
		}
		b, tot, perr := parseCPULine(content)
		if perr != nil {
			lastErr = perr // torn render: retry
			continue
		}
		return b, tot, nil
	}
	return 0, 0, fmt.Errorf("attack: /proc/stat unreadable after %d attempts: %w", sampleRetries, lastErr)
}

// parseCPULine extracts (busy, total) USER_HZ ticks from the aggregate
// "cpu " line of /proc/stat.
func parseCPULine(content string) (busy, total float64, err error) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "cpu ") {
			continue
		}
		fields := strings.Fields(line)[1:]
		if len(fields) < 7 {
			return 0, 0, fmt.Errorf("attack: malformed cpu line %q", line)
		}
		vals := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("attack: parse cpu field %q: %w", f, err)
			}
			if v < 0 { // jiffy counters never run backwards past zero
				return 0, 0, fmt.Errorf("attack: negative cpu field %q", f)
			}
			vals[i] = v
		}
		// user nice system idle iowait irq softirq …
		for i, v := range vals {
			total += v
			if i != 3 && i != 4 { // idle, iowait
				busy += v
			}
		}
		return busy, total, nil
	}
	return 0, 0, fmt.Errorf("attack: no aggregate cpu line in /proc/stat")
}
