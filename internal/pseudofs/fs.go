// Package pseudofs simulates the memory-based pseudo file systems (procfs
// and sysfs) that the paper identifies as the main user-kernel interface
// left behind by container adaptation.
//
// A FS is a flat map from absolute paths to handler functions. Each handler
// receives the reading View — which namespace set and cgroup the reader
// belongs to — and renders file content from live kernel state. Handlers
// written against the *global* kernel accessors reproduce Linux 4.7's
// missing-namespace-check bugs (the leakage channels of Table I); handlers
// written against the NS-aware accessors model correctly containerized
// files.
//
// Mount combines an FS with a View and a masking Policy, modeling both what
// container runtimes mount read-only into every container and the
// AppArmor-style access restrictions that cloud providers layer on top
// (stage 1 of the paper's defense).
package pseudofs

import (
	"errors"
	"fmt"
	"sort"
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
// content to dst and returning the extended buffer. The append style keeps
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
	k        *kernel.Kernel
	files    map[string]Handler
	energy   EnergyProvider
	thermal  ThermalProvider
	injector Injector

	// Source-epoch bookkeeping for the incremental scan engine (deps.go).
	// fsGen counts FS-wide render-path changes (provider/injector swaps);
	// replaceGen counts per-path handler replacements; totalReplaceGen is
	// the sum of replaceGen. All mutations happen at setup/defense-install
	// time on the clock thread, never during concurrent scans.
	fsGen           uint64
	replaceGen      map[string]uint64
	totalReplaceGen uint64

	// deps and sortedPaths are precomputed at Build time: the file set is
	// sealed once Build returns (Replace swaps handlers in place, never
	// adds paths), so the dependency lookup (one depIndex query per path)
	// and the path sort run once per FS instead of once per lookup on the
	// recurring-scan hot path.
	deps        map[string]Dep
	sortedPaths []string

	// renders counts handler invocations (genuine pseudo-file renders).
	// The incremental engine's "zero re-renders on an unmutated kernel"
	// guarantee is asserted against this counter, not inferred.
	renders atomic.Uint64
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

// Build constructs the full /proc and /sys tree over the kernel.
func Build(k *kernel.Kernel, hw Hardware) *FS {
	fs := &FS{
		k:          k,
		files:      make(map[string]Handler, 128),
		energy:     rawEnergy{meter: k.Meter()},
		thermal:    rawThermal{meter: k.Meter(), cores: k.Options().Cores},
		replaceGen: make(map[string]uint64),
	}
	fs.buildProc()
	fs.buildSys(hw)
	fs.seal()
	return fs
}

// seal freezes the file set: precomputes the sorted path list and every
// path's dependency tag. Build is the only caller; after it returns, paths
// are never added or removed (Replace swaps handlers in place).
func (fs *FS) seal() {
	fs.sortedPaths = make([]string, 0, len(fs.files))
	fs.deps = make(map[string]Dep, len(fs.files))
	for p := range fs.files {
		fs.sortedPaths = append(fs.sortedPaths, p)
		fs.deps[p] = lookupDep(p)
	}
	sort.Strings(fs.sortedPaths)
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

// add registers a file handler; it panics on duplicates, which are always
// builder bugs.
func (fs *FS) add(path string, h Handler) {
	if _, dup := fs.files[path]; dup {
		panic(fmt.Sprintf("pseudofs: duplicate file %s", path))
	}
	fs.files[path] = h
}

// Replace swaps the handler of an existing file — how stage-2 namespace
// fixes retrofit leaky handlers with namespace-aware ones without changing
// paths. It panics if the file does not exist (a fix for a non-existent
// channel is always a bug).
func (fs *FS) Replace(path string, h Handler) {
	if _, ok := fs.files[path]; !ok {
		panic(fmt.Sprintf("pseudofs: Replace of unknown file %s", path))
	}
	fs.files[path] = h
	// Handler identity changed: advance the path's render generation so
	// the incremental engine never serves a pre-fix render post-fix.
	fs.replaceGen[path]++
	fs.totalReplaceGen++
}

// static registers a file whose content ignores the reader entirely.
func (fs *FS) static(path, content string) {
	fs.add(path, func(dst []byte, _ View) ([]byte, error) {
		return append(dst, content...), nil
	})
}

// Paths returns every file path in sorted order. The order is computed
// once at Build time (the file set is sealed); callers get a fresh copy so
// they may mutate the slice freely.
func (fs *FS) Paths() []string {
	if fs.sortedPaths != nil {
		out := make([]string, len(fs.sortedPaths))
		copy(out, fs.sortedPaths)
		return out
	}
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// appendFile renders a file for a view into dst, without masking.
func (fs *FS) appendFile(dst []byte, path string, v View) ([]byte, error) {
	h, ok := fs.files[path]
	if !ok {
		return dst, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	fs.renders.Add(1)
	return h(dst, v)
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

// Lookup returns the first matching rule for a path; ok is false when no
// rule matches (default Allow). It compiles the policy on every call; a
// Mount compiles its policy once.
func (p Policy) Lookup(path string) (Rule, bool) {
	return p.rule(p.Index().First(path))
}

// rule returns Rules[i], or ok false for the no-match position -1.
func (p Policy) rule(i int) (Rule, bool) {
	if i < 0 {
		return Rule{}, false
	}
	return p.Rules[i], true
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
	// ruleIdx its decision per registered path: the position of the first
	// matching rule, or -1 for "no rule matches" (default Allow). A Mount's
	// policy is immutable after construction (ApplyPolicy builds a new
	// Mount) and the FS path set is sealed at Build time, so both are
	// precomputed here and read concurrently without locks. A read of a
	// registered path costs one map probe; other paths ask the index.
	rules   *GlobIndex
	ruleIdx map[string]int16
}

// NewMount mounts fs for the given view under the given policy.
func NewMount(fs *FS, v View, p Policy) *Mount {
	m := &Mount{fs: fs, view: v, policy: p}
	if len(p.Rules) > 0 {
		m.rules = p.Index()
		m.ruleIdx = make(map[string]int16, len(fs.sortedPaths))
		for _, path := range fs.sortedPaths {
			m.ruleIdx[path] = int16(m.rules.First(path))
		}
	}
	return m
}

// lookupRule is Policy.Lookup served from the mount's precomputed
// decisions; policy checks sit on the hot path of every power/thermal
// sample (the stable-read loop in attack.PowerMonitor issues several per
// tick).
func (m *Mount) lookupRule(path string) (Rule, bool) {
	if idx, ok := m.ruleIdx[path]; ok {
		if idx < 0 {
			return Rule{}, false
		}
		return m.policy.Rules[idx], true
	}
	if m.rules == nil {
		return Rule{}, false
	}
	return m.policy.rule(m.rules.First(path))
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
	return m.appendPolicied(dst, path)
}

// readPolicied is the string form of the genuine read, used by the compat
// Read API and as the injector callback. It borrows a pooled buffer so the
// only allocation is the returned string itself.
func (m *Mount) readPolicied(path string) (string, error) {
	bp := bufPool.Get().(*[]byte)
	b, err := m.appendPolicied((*bp)[:0], path)
	s := string(b)
	*bp = b[:0]
	bufPool.Put(bp)
	if err != nil {
		return "", err
	}
	return s, nil
}

// appendPolicied is the genuine read: masking policy first, then the
// handler, appended to dst.
func (m *Mount) appendPolicied(dst []byte, path string) ([]byte, error) {
	rule, matched := m.lookupRule(path)
	if matched {
		switch rule.Do {
		case Deny:
			return dst, fmt.Errorf("%w: %s", ErrDenied, path)
		case Empty:
			return dst, nil
		case Filter:
			// Filter rules keep their string Transform signature; render
			// into a scratch buffer and transform the resulting string.
			bp := bufPool.Get().(*[]byte)
			b, err := m.fs.appendFile((*bp)[:0], path, m.view)
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
	return m.fs.appendFile(dst, path, m.view)
}

// Paths lists every path present in the underlying FS. Denied files remain
// visible (AppArmor denies reads, not stats), so the detector can tell
// "masked" apart from "absent hardware".
func (m *Mount) Paths() []string { return m.fs.Paths() }
