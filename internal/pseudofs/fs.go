// Package pseudofs simulates the memory-based pseudo file systems (procfs
// and sysfs) that the paper identifies as the main user-kernel interface
// left behind by container adaptation.
//
// The tree's shape — its sorted paths, each path's dependency tag and its
// render function — is an immutable layout computed once per (Hardware,
// core count) and shared by every FS of that shape; a path's position in
// the layout is its identity on every read path. A FS adds only its kernel,
// its providers and position-indexed overrides. Renders produce file
// content from live kernel state. A global render takes no View and reads
// the *global* kernel accessors, reproducing Linux 4.7's missing-namespace-
// check bugs (the leakage channels of Table I); every reader sees the same
// bytes, which FS.SharedAt reports. A view render receives the reading
// View — which namespace set and cgroup the reader belongs to — and models
// a correctly containerized file through the NS-aware accessors.
//
// Mount combines an FS with a View and a masking Policy, modeling both what
// container runtimes mount read-only into every container and the
// AppArmor-style access restrictions that cloud providers layer on top
// (stage 1 of the paper's defense).
package pseudofs

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/power"
)

// Read errors.
var (
	// ErrNotExist is returned for paths with no file, including files
	// hidden by hardware availability (e.g. RAPL on pre-Sandy-Bridge
	// hosts).
	ErrNotExist = errors.New("pseudofs: no such file")
	// ErrDenied is returned when a masking policy denies the read — the
	// EACCES a tenant sees under an AppArmor deny rule.
	ErrDenied = errors.New("pseudofs: permission denied")
	// ErrTransient marks a read failure that may succeed on retry — the
	// EIO/EAGAIN class of errors real procfs/sysfs reads hit under load.
	// Fault injectors (internal/chaos) wrap their transient errors in it
	// so consumers can distinguish "retry" from "give up" with errors.Is
	// without importing the injector.
	ErrTransient = errors.New("pseudofs: transient read error")
)

// View identifies the execution context performing a read: its namespace
// set and the cgroup its tasks are charged to. The zero View is not valid;
// use HostView or a container's view.
type View struct {
	NS         *kernel.NSSet
	CgroupPath string
}

// IsHost reports whether the view is the host's init context.
func (v View) IsHost() bool { return v.NS == nil || v.NS.IsInit() }

// HostView returns the init-namespace view of the kernel.
func HostView(k *kernel.Kernel) View {
	return View{NS: k.InitNS(), CgroupPath: "/"}
}

// Handler renders one pseudo-file for a given reader by appending the
// content to dst and returning the extended buffer. Replace installs one
// over a path's layout render. The append style keeps
// the hot sampling paths (energy counters, cpuacct, per-CPU tables)
// allocation-free: callers own the buffer, handlers never retain it, and
// the scalar helpers in render.go replace the historical fmt.Sprintf
// formatting byte for byte. On error, handlers return dst with any partial
// content unspecified — callers must discard it.
type Handler func(dst []byte, v View) ([]byte, error)

// EnergyProvider supplies the content of the RAPL energy_uj files. The
// default provider returns the host meter's counters to every reader — the
// leak of Case Study II. The power-based namespace (internal/powerns)
// installs a per-container provider to close it.
type EnergyProvider interface {
	EnergyUJ(v View, d power.Domain) (uint64, error)
}

// ThermalProvider supplies the coretemp temp#_input readings. The default
// returns the physical DTS values to every reader; a thermal namespace
// (the Section VII-B resource the paper calls hard to partition) can
// virtualize them per container.
type ThermalProvider interface {
	// CoreTempC returns the temperature of the given core as seen by the
	// view; core == -1 requests the package (max-of-cores) sensor.
	CoreTempC(v View, core int) (float64, error)
}

// Injector intercepts Mount reads, letting a fault-injection layer
// (internal/chaos) perturb them: fail transiently, tear content, serve a
// stale render, or flap a path between readable and denied. The read
// callback performs the genuine policied read; an injector decides whether
// to invoke it, replace its result, or fail outright. A nil injector on the
// FS is the common case and costs one nil check per read.
type Injector interface {
	Read(path string, read func() (string, error)) (string, error)
}

// FS is one host's pseudo-filesystem tree (both /proc and /sys). Build it
// with Build; read through a Mount.
type FS struct {
	k   *kernel.Kernel
	lay *layout // shared and immutable; the path set never changes

	fsState

	// renders counts handler invocations (genuine pseudo-file renders).
	// The incremental engine's "zero re-renders on an unmutated kernel"
	// guarantee is asserted against this counter, not inferred.
	renders atomic.Uint64
}

// fsState is an FS's mutable state.
type fsState struct {
	energy   EnergyProvider
	thermal  ThermalProvider
	injector Injector

	// override holds Replace's handlers by layout position; nil until the
	// first Replace, and a nil slot renders the layout's function.
	override []Handler

	// Source-epoch bookkeeping for the incremental scan engine (deps.go).
	// fsGen counts FS-wide render-path changes (provider/injector swaps);
	// replaceGen counts handler replacements by layout position (nil until
	// the first Replace); totalReplaceGen is their sum. All mutations
	// happen at setup/defense-install time on the clock thread, never
	// during concurrent scans.
	fsGen           uint64
	replaceGen      []uint64
	totalReplaceGen uint64
}

// rawEnergy is the leaky default EnergyProvider.
type rawEnergy struct{ meter *power.Meter }

func (r rawEnergy) EnergyUJ(_ View, d power.Domain) (uint64, error) {
	return r.meter.EnergyUJ(d), nil
}

// rawThermal is the leaky default ThermalProvider: physical sensors for
// everyone.
type rawThermal struct {
	meter *power.Meter
	cores int
}

func (r rawThermal) CoreTempC(_ View, core int) (float64, error) {
	if core < 0 {
		var max float64
		for c := 0; c < r.cores; c++ {
			if t := r.meter.CoreTempC(c); t > max {
				max = t
			}
		}
		return max, nil
	}
	return r.meter.CoreTempC(core), nil
}

// Hardware describes which optional sensor hardware the host has; Table I's
// per-cloud differences partly come from hosts lacking RAPL or DTS support.
type Hardware struct {
	HasRAPL     bool
	HasCoretemp bool
}

// DefaultHardware is a modern host with every sensor the paper uses.
func DefaultHardware() Hardware { return Hardware{HasRAPL: true, HasCoretemp: true} }

// Build constructs the full /proc and /sys tree over the kernel: it points
// a new FS at the shared layout of the host's hardware and core count.
func Build(k *kernel.Kernel, hw Hardware) *FS {
	cores := k.Options().Cores
	return &FS{k: k, lay: layoutFor(layoutKey{hw: hw, cores: cores}), fsState: fsState{
		energy:  rawEnergy{meter: k.Meter()},
		thermal: rawThermal{meter: k.Meter(), cores: cores},
	}}
}

// SetEnergyProvider swaps the RAPL read path; the power-based namespace
// calls this to virtualize energy_uj without changing the interface paths.
// The swap bumps the FS-wide render generation so cached renders of the
// affected paths are invalidated.
func (fs *FS) SetEnergyProvider(p EnergyProvider) {
	fs.energy = p
	fs.fsGen++
}

// SetThermalProvider swaps the coretemp read path for a thermal namespace.
func (fs *FS) SetThermalProvider(p ThermalProvider) {
	fs.thermal = p
	fs.fsGen++
}

// EnergyProvider returns the currently installed RAPL read path. Chaos
// wrappers use it to stack on top of whatever (raw or defended) provider
// is in force.
func (fs *FS) EnergyProvider() EnergyProvider { return fs.energy }

// ThermalProvider returns the currently installed coretemp read path.
func (fs *FS) ThermalProvider() ThermalProvider { return fs.thermal }

// Injector returns the currently installed fault injector (nil when none).
// The world snapshot machinery uses it to find and rewind a chaos layer.
func (fs *FS) Injector() Injector { return fs.injector }

// SetInjector installs a read-path fault injector on every Mount of this
// FS; nil removes it. Install it before handing mounts to consumers — the
// injector is consulted on every subsequent Mount.Read.
func (fs *FS) SetInjector(i Injector) {
	fs.injector = i
	fs.fsGen++
}

// Kernel returns the kernel this FS renders.
func (fs *FS) Kernel() *kernel.Kernel { return fs.k }

// Replace swaps the handler of an existing file — how stage-2 namespace
// fixes retrofit leaky handlers with namespace-aware ones without changing
// paths. It panics if the file does not exist (a fix for a non-existent
// channel is always a bug).
func (fs *FS) Replace(path string, h Handler) {
	i, ok := fs.lay.index[path]
	if !ok {
		panic(fmt.Sprintf("pseudofs: Replace of unknown file %s", path))
	}
	if fs.override == nil {
		fs.override = make([]Handler, len(fs.lay.paths))
		fs.replaceGen = make([]uint64, len(fs.lay.paths))
	}
	fs.override[i] = h
	// Handler identity changed: advance the path's render generation so
	// the incremental engine never serves a pre-fix render post-fix.
	fs.replaceGen[i]++
	fs.totalReplaceGen++
}

// Paths returns every file path in sorted order; a path's index in it is
// its layout position. Callers get a fresh copy so they may mutate the
// slice freely.
func (fs *FS) Paths() []string {
	return append([]string(nil), fs.lay.paths...)
}

// position returns the layout position of path, or -1 when the tree has
// no such file.
func (fs *FS) position(path string) int {
	if i, ok := fs.lay.index[path]; ok {
		return int(i)
	}
	return -1
}

// appendAt renders the file at layout position i for a view into dst,
// without masking; i < 0 is the absent path.
func (fs *FS) appendAt(dst []byte, i int, path string, v View) ([]byte, error) {
	if i < 0 {
		return dst, &pathError{err: ErrNotExist, path: path}
	}
	fs.renders.Add(1)
	if fs.override != nil {
		if h := fs.override[i]; h != nil {
			return h(dst, v)
		}
	}
	if r := fs.lay.global[i]; r != nil {
		return r(fs, fs.lay.arg[i], dst)
	}
	return fs.lay.view[i](fs, fs.lay.arg[i], dst, v)
}

// SharedAt reports whether every reader sees the same render of layout
// position i: its layout render is global, no Replace handler overrides
// it, and no fault injector is installed. A mount's policy may still
// rewrite the read (Mount.PlainAt), and a volatile path (Dep.Volatile)
// still differs from one read to the next.
func (fs *FS) SharedAt(i int) bool {
	return fs.lay.global[i] != nil && fs.injector == nil &&
		(fs.override == nil || fs.override[i] == nil)
}

// Renders returns the cumulative number of handler invocations (genuine
// renders) performed by this FS. Policy-denied and absent reads do not
// render and are not counted.
func (fs *FS) Renders() uint64 { return fs.renders.Load() }

// Action is what a masking rule does to a matched path.
type Action int

// Masking actions. Deny models an AppArmor read denial; Empty models
// bind-mounting an empty file over the channel (content hidden, read
// succeeds); Filter rewrites content through the rule's Transform (how the
// paper's CC5 shows tenants only their own cores and memory — the ◐
// entries of Table I); Allow short-circuits later rules.
const (
	Allow Action = iota
	Deny
	Empty
	Filter
)

// Rule matches paths against a pattern. Patterns are absolute paths where a
// '*' matches within one path segment and a trailing "/**" matches the whole
// subtree.
type Rule struct {
	Pattern string
	Do      Action
	// Transform rewrites matched content when Do == Filter; a nil
	// Transform filters to empty.
	Transform func(content string) string
}

// Policy is an ordered rule list; the first matching rule wins and the
// default is Allow.
type Policy struct {
	Name  string
	Rules []Rule
}

// Index compiles the rule patterns, in order; position i of the index is
// Rules[i]. Callers that look up many paths compile once and keep it.
func (p Policy) Index() *GlobIndex {
	patterns := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		patterns[i] = r.Pattern
	}
	return CompileGlobs(patterns)
}

// matchPattern implements the limited glob language of Rule. It walks both
// strings segment by segment without allocating. It is the one matcher
// behind GlobIndex, which runs it only on patterns whose literal prefix
// and suffix a path already carries.
func matchPattern(pattern, path string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/**"); ok {
		return path == sub ||
			(len(path) > len(sub) && path[len(sub)] == '/' && strings.HasPrefix(path, sub))
	}
	for {
		pi := strings.IndexByte(pattern, '/')
		xi := strings.IndexByte(path, '/')
		if (pi < 0) != (xi < 0) {
			return false // different segment counts
		}
		if pi < 0 {
			return matchSegment(pattern, path)
		}
		if !matchSegment(pattern[:pi], path[:xi]) {
			return false
		}
		pattern, path = pattern[pi+1:], path[xi+1:]
	}
}

// matchSegment matches one path segment against one pattern segment. Only
// '*' wildcards, possibly several per segment: the literal before the first
// star anchors as a prefix, the literal after the last star as a suffix,
// and literals between stars match greedily left to right.
func matchSegment(pat, seg string) bool {
	star := strings.IndexByte(pat, '*')
	if star < 0 {
		return pat == seg
	}
	if !strings.HasPrefix(seg, pat[:star]) {
		return false
	}
	seg, pat = seg[star:], pat[star+1:]
	for {
		next := strings.IndexByte(pat, '*')
		if next < 0 {
			return strings.HasSuffix(seg, pat)
		}
		idx := strings.Index(seg, pat[:next])
		if idx < 0 {
			return false
		}
		seg, pat = seg[idx+next:], pat[next+1:]
	}
}

// Mount is a read-only pseudo-filesystem mount inside one execution
// context: an FS, the reader's View, and the masking Policy in force.
type Mount struct {
	fs     *FS
	view   View
	policy Policy
	// rules is the policy compiled once (nil when it has no rules), and
	// ruleIdx its decision by layout position: the index of the first
	// matching rule, or -1 for "no rule matches" (default Allow). A Mount's
	// policy is immutable after construction (ApplyPolicy builds a new
	// Mount) and the FS path set never changes, so both are precomputed
	// here and read concurrently without locks. Paths outside the layout
	// ask the index.
	rules   *GlobIndex
	ruleIdx []int16
}

// NewMount mounts fs for the given view under the given policy.
func NewMount(fs *FS, v View, p Policy) *Mount {
	m := &Mount{fs: fs, view: v, policy: p}
	if len(p.Rules) > 0 {
		m.rules = p.Index()
		m.ruleIdx = make([]int16, len(fs.lay.paths))
		for i, path := range fs.lay.paths {
			m.ruleIdx[i] = int16(m.rules.First(path))
		}
	}
	return m
}

// ruleAt returns the index of the rule deciding a read of layout position
// i (or, with i < 0, of path outside the layout), or -1 when no rule
// matches. Policy checks sit on the hot path of every power/thermal sample
// (the stable-read loop in attack.PowerMonitor issues several per tick).
func (m *Mount) ruleAt(i int, path string) int {
	switch {
	case m.rules == nil:
		return -1
	case i >= 0:
		return int(m.ruleIdx[i])
	default:
		return m.rules.First(path)
	}
}

// PlainAt reports whether a read of layout position i through m is the
// FS's render, unmasked: no rule matches it, or an Allow rule does.
func (m *Mount) PlainAt(i int) bool {
	r := m.ruleAt(i, "")
	return r < 0 || m.policy.Rules[r].Do == Allow
}

// View returns the mount's reader context.
func (m *Mount) View() View { return m.view }

// FS returns the filesystem behind the mount; the incremental engine uses
// it for source-epoch queries (PathEpoch) and the chaos bypass (Faulty).
func (m *Mount) FS() *FS { return m.fs }

// Read returns the file content as the mount's view sees it, applying the
// masking policy first. When the FS carries a fault injector, the read is
// routed through it; with no injector the path is byte-identical to the
// direct policied read.
//
// Read is the string-compat API: it renders through the append path into a
// pooled buffer and pays exactly one allocation (the returned string).
// Allocation-sensitive samplers should use AppendRead instead.
func (m *Mount) Read(path string) (string, error) {
	if inj := m.fs.injector; inj != nil {
		return inj.Read(path, func() (string, error) { return m.readPolicied(path) })
	}
	return m.readPolicied(path)
}

// AppendRead appends the file content, as the mount's view sees it, to dst
// and returns the extended buffer. With no fault injector installed the
// whole read is allocation-free; with an injector the content is routed
// through the (string-based) injector first, since injectors may rewrite
// it. On error the returned buffer is dst unchanged.
func (m *Mount) AppendRead(dst []byte, path string) ([]byte, error) {
	if inj := m.fs.injector; inj != nil {
		s, err := inj.Read(path, func() (string, error) { return m.readPolicied(path) })
		if err != nil {
			return dst, err
		}
		return append(dst, s...), nil
	}
	return m.appendPolicied(dst, m.fs.position(path), path)
}

// AppendReadAt is AppendRead of the file at layout position i (the index
// of its path in Paths): the same bytes and errors, without a path lookup.
func (m *Mount) AppendReadAt(dst []byte, i int) ([]byte, error) {
	path := m.fs.lay.paths[i]
	if m.fs.injector != nil {
		return m.AppendRead(dst, path)
	}
	return m.appendPolicied(dst, i, path)
}

// readPolicied is the string form of the genuine read, used by the compat
// Read API and as the injector callback. It borrows a pooled buffer so the
// only allocation is the returned string itself.
func (m *Mount) readPolicied(path string) (string, error) {
	bp := bufPool.Get().(*[]byte)
	b, err := m.appendPolicied((*bp)[:0], m.fs.position(path), path)
	s := string(b)
	*bp = b[:0]
	bufPool.Put(bp)
	if err != nil {
		return "", err
	}
	return s, nil
}

// appendPolicied is the genuine read of path, at layout position i (-1
// when the tree has no such file): masking policy first, then the render,
// appended to dst.
func (m *Mount) appendPolicied(dst []byte, i int, path string) ([]byte, error) {
	if r := m.ruleAt(i, path); r >= 0 {
		rule := &m.policy.Rules[r]
		switch rule.Do {
		case Deny:
			return dst, &pathError{err: ErrDenied, path: path}
		case Empty:
			return dst, nil
		case Filter:
			// Filter rules keep their string Transform signature; render
			// into a scratch buffer and transform the resulting string.
			bp := bufPool.Get().(*[]byte)
			b, err := m.fs.appendAt((*bp)[:0], i, path, m.view)
			content := string(b)
			*bp = b[:0]
			bufPool.Put(bp)
			if err != nil {
				return dst, err
			}
			if rule.Transform == nil {
				return dst, nil
			}
			return append(dst, rule.Transform(content)...), nil
		}
	}
	return m.fs.appendAt(dst, i, path, m.view)
}

// Paths lists every path present in the underlying FS. Denied files remain
// visible (AppArmor denies reads, not stats), so the detector can tell
// "masked" apart from "absent hardware".
func (m *Mount) Paths() []string { return m.fs.Paths() }
