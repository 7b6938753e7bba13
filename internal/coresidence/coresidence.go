// Package coresidence implements Section III-C: verifying whether two
// container instances run on the same physical host using the leakage
// channels, with one method per channel class —
//
//   - unique static identifiers: compare /proc/sys/kernel/random/boot_id;
//   - implantable signatures: plant a crafted task name (timer_list /
//     sched_debug) or lock inode (/proc/locks) in one container and search
//     for it from the other;
//   - unique dynamic identifiers: compare /proc/uptime at the same instant;
//   - varying channels: correlate synchronized snapshot traces (e.g.
//     MemFree from /proc/meminfo sampled once per second for a minute).
//
// It also implements the rack-proximity heuristic of Section IV-C: servers
// with near-identical boot wall-clocks but different idle times were racked
// together and probably share a circuit breaker.
package coresidence

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/pseudofs"
	"repro/internal/stats"
)

// Prober is the minimal capability needed to run read-only checks — any
// container instance (or host shell) that can read pseudo-files.
type Prober interface {
	ReadFile(path string) (string, error)
}

// readAttempts bounds the per-file retry budget of the verification reads.
// It covers a flapping mask (which denies a few consecutive reads before
// clearing) with attempts to spare for transient errors and torn renders.
const readAttempts = 6

// readParsed reads a pseudo-file until parse accepts its content,
// absorbing the faults of a flaky observation surface: transient errors
// (EIO/EAGAIN) are retried immediately; denied reads are retried a few
// times because a flapping mask clears after a handful of reads while a
// genuinely masked path stays denied and still errors out; and a parse
// failure — the signature of a torn render — is retried on fresh content.
// On a clean substrate the first read parses and none of this runs.
func readParsed[T any](p Prober, path string, parse func(string) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for i := 0; i < readAttempts; i++ {
		content, err := p.ReadFile(path)
		if err != nil {
			if !errors.Is(err, pseudofs.ErrTransient) && !errors.Is(err, pseudofs.ErrDenied) {
				return zero, err
			}
			lastErr = err
			continue
		}
		v, perr := parse(content)
		if perr != nil {
			lastErr = perr
			continue
		}
		return v, nil
	}
	return zero, lastErr
}

// readRetry is readParsed for content used verbatim.
func readRetry(p Prober, path string) (string, error) {
	return readParsed(p, path, func(s string) (string, error) { return s, nil })
}

// ReadBootID reads and validates the 36-character boot UUID, retrying
// faults and torn (truncated) renders. Exported because orchestration code
// groups containers by boot_id and a silently-truncated UUID would make
// one host look like two.
func ReadBootID(p Prober) (string, error) {
	return readParsed(p, "/proc/sys/kernel/random/boot_id", parseBootID)
}

func parseBootID(content string) (string, error) {
	id := strings.TrimSpace(content)
	if len(id) != 36 {
		return "", fmt.Errorf("coresidence: malformed boot_id %q", id)
	}
	return id, nil
}

// Verdict is the outcome of one co-residence check.
type Verdict struct {
	CoResident bool
	Channel    string
	// Evidence is a human-readable justification.
	Evidence string
}

// ByBootID compares the per-boot random UUID. Equal boot IDs prove the two
// instances share a kernel; it is the paper's most reliable single check.
func ByBootID(a, b Prober) (Verdict, error) {
	const path = "/proc/sys/kernel/random/boot_id"
	ida, err := ReadBootID(a)
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: probe A: %w", err)
	}
	idb, err := ReadBootID(b)
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: probe B: %w", err)
	}
	same := ida == idb
	return Verdict{
		CoResident: same,
		Channel:    path,
		Evidence:   fmt.Sprintf("boot_id A=%s B=%s", ida, idb),
	}, nil
}

// Implanter is a container we control that can plant signatures.
type Implanter interface {
	Prober
	PlantTimer(signature string)
	PlantLock(inode uint64)
}

// ByTimerSignature implants a uniquely-named timer task in the implanter
// and searches the prober's /proc/timer_list for it.
func ByTimerSignature(planter Implanter, observer Prober, signature string) (Verdict, error) {
	planter.PlantTimer(signature)
	content, err := readRetry(observer, "/proc/timer_list")
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: read timer_list: %w", err)
	}
	found := strings.Contains(content, signature)
	return Verdict{
		CoResident: found,
		Channel:    "/proc/timer_list",
		Evidence:   fmt.Sprintf("signature %q found=%v", signature, found),
	}, nil
}

// BySchedDebugSignature searches /proc/sched_debug for an implanted task
// name (the implant itself is the same timer task).
func BySchedDebugSignature(planter Implanter, observer Prober, signature string) (Verdict, error) {
	planter.PlantTimer(signature)
	content, err := readRetry(observer, "/proc/sched_debug")
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: read sched_debug: %w", err)
	}
	found := strings.Contains(content, signature)
	return Verdict{
		CoResident: found,
		Channel:    "/proc/sched_debug",
		Evidence:   fmt.Sprintf("signature %q found=%v", signature, found),
	}, nil
}

// ByLockSignature takes a POSIX lock with a chosen inode in the implanter
// and searches the prober's /proc/locks for that inode.
func ByLockSignature(planter Implanter, observer Prober, inode uint64) (Verdict, error) {
	planter.PlantLock(inode)
	content, err := readRetry(observer, "/proc/locks")
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: read locks: %w", err)
	}
	needle := fmt.Sprintf("08:01:%d", inode)
	found := strings.Contains(content, needle)
	return Verdict{
		CoResident: found,
		Channel:    "/proc/locks",
		Evidence:   fmt.Sprintf("inode %d found=%v", inode, found),
	}, nil
}

// Uptime holds the two fields of /proc/uptime.
type Uptime struct {
	UpSeconds   float64
	IdleSeconds float64
}

// ParseUptime parses /proc/uptime content.
func ParseUptime(content string) (Uptime, error) {
	fields := strings.Fields(content)
	if len(fields) < 2 {
		return Uptime{}, fmt.Errorf("coresidence: malformed uptime %q", content)
	}
	up, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Uptime{}, fmt.Errorf("coresidence: parse uptime: %w", err)
	}
	idle, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Uptime{}, fmt.Errorf("coresidence: parse idle: %w", err)
	}
	// ParseFloat accepts "NaN" and "Inf"; neither is a clock reading, and
	// either would make ByUptime's tolerance comparison meaningless.
	if math.IsNaN(up) || math.IsInf(up, 0) || math.IsNaN(idle) || math.IsInf(idle, 0) {
		return Uptime{}, fmt.Errorf("coresidence: non-finite uptime %q", content)
	}
	return Uptime{UpSeconds: up, IdleSeconds: idle}, nil
}

// ByUptime reads /proc/uptime from both instances at (nearly) the same
// moment; matching up and idle accumulators identify the same host. tol
// absorbs the skew between the two reads, in seconds.
func ByUptime(a, b Prober, tol float64) (Verdict, error) {
	ua, err := readUptime(a)
	if err != nil {
		return Verdict{}, err
	}
	ub, err := readUptime(b)
	if err != nil {
		return Verdict{}, err
	}
	dUp := abs(ua.UpSeconds - ub.UpSeconds)
	// The idle accumulator advances up to NCores seconds per second, so
	// give it a wider tolerance.
	dIdle := abs(ua.IdleSeconds - ub.IdleSeconds)
	same := dUp <= tol && dIdle <= tol*64
	return Verdict{
		CoResident: same,
		Channel:    "/proc/uptime",
		Evidence:   fmt.Sprintf("Δup=%.2fs Δidle=%.2fs", dUp, dIdle),
	}, nil
}

func readUptime(p Prober) (Uptime, error) {
	u, err := readParsed(p, "/proc/uptime", ParseUptime)
	if err != nil {
		return Uptime{}, fmt.Errorf("coresidence: read uptime: %w", err)
	}
	return u, nil
}

// MemFree extracts the MemFree value (KiB) from /proc/meminfo content.
func MemFree(content string) (float64, error) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "MemFree:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("coresidence: parse MemFree: %w", err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("coresidence: MemFree not found")
}

// ByMemFreeTrace records synchronized MemFree snapshots from both instances
// (advancing the world between samples via step) and declares co-residence
// when the two traces match exactly — the paper's 60-point trace-matching
// method for V-metric channels.
func ByMemFreeTrace(a, b Prober, step func(), n int) (Verdict, error) {
	if n < 2 {
		n = 2
	}
	ta := make([]float64, 0, n)
	tb := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		va, err := readParsed(a, "/proc/meminfo", MemFree)
		if err != nil {
			return Verdict{}, fmt.Errorf("coresidence: probe A: %w", err)
		}
		vb, err := readParsed(b, "/proc/meminfo", MemFree)
		if err != nil {
			return Verdict{}, fmt.Errorf("coresidence: probe B: %w", err)
		}
		ta = append(ta, va)
		tb = append(tb, vb)
		if i < n-1 {
			step()
		}
	}
	// Exact trace equality for same-host reads taken at the same instants;
	// correlation as supporting evidence.
	same := stats.MaxDelta(ta, tb) == 0
	return Verdict{
		CoResident: same,
		Channel:    "/proc/meminfo",
		Evidence: fmt.Sprintf("trace n=%d maxΔ=%.0f r=%.3f",
			n, stats.MaxDelta(ta, tb), stats.Pearson(ta, tb)),
	}, nil
}

// BootTime extracts btime (Unix seconds) from /proc/stat content.
func BootTime(content string) (int64, error) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "btime ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "btime ")), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("coresidence: parse btime: %w", err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("coresidence: btime not found")
}

// RackProximity implements the Section IV-C heuristic: different hosts
// (different idle times) whose boot wall-clocks lie within window seconds
// were probably installed and powered on together — same rack, same
// breaker.
func RackProximity(a, b Prober, window int64) (Verdict, error) {
	ba, err := readParsed(a, "/proc/stat", BootTime)
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: probe A: %w", err)
	}
	bb, err := readParsed(b, "/proc/stat", BootTime)
	if err != nil {
		return Verdict{}, fmt.Errorf("coresidence: probe B: %w", err)
	}
	d := ba - bb
	if d < 0 {
		d = -d
	}
	near := d <= window
	return Verdict{
		CoResident: near, // here: "co-racked", not same host
		Channel:    "/proc/stat (btime)",
		Evidence:   fmt.Sprintf("Δbtime=%ds window=%ds", d, window),
	}, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// VerifyAll runs every applicable co-residence check between the two
// instances and returns the per-channel verdicts plus the majority
// decision. Channels whose probes fail (masked on a hardened cloud) are
// skipped — exactly how an attacker degrades gracefully across providers.
func VerifyAll(a Implanter, b Prober, signature string) (coResident bool, verdicts []Verdict) {
	if v, err := ByBootID(a, b); err == nil {
		verdicts = append(verdicts, v)
	}
	if v, err := ByTimerSignature(a, b, signature+"-t"); err == nil {
		verdicts = append(verdicts, v)
	}
	if v, err := BySchedDebugSignature(a, b, signature+"-s"); err == nil {
		verdicts = append(verdicts, v)
	}
	if v, err := ByLockSignature(a, b, hashSignature(signature)); err == nil {
		verdicts = append(verdicts, v)
	}
	if v, err := ByUptime(a, b, 0.5); err == nil {
		verdicts = append(verdicts, v)
	}
	yes := 0
	for _, v := range verdicts {
		if v.CoResident {
			yes++
		}
	}
	return len(verdicts) > 0 && yes*2 > len(verdicts), verdicts
}

// hashSignature derives a deterministic inode number from a signature
// string (FNV-1a).
func hashSignature(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h%900000000 + 100000000
}
