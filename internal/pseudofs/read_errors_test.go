package pseudofs

// Mount.Read error-path and injector-hook tests: the read path is the
// attack surface every consumer retries against, so its error taxonomy
// (ErrNotExist / ErrDenied / ErrTransient wrapping) and the injector
// routing contract are pinned here.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestReadMissingPathReturnsErrNotExist(t *testing.T) {
	k, fs := newHost(1)
	m := NewMount(fs, HostView(k), Policy{})
	_, err := m.Read("/proc/no/such/file")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestReadDeniedPathReturnsErrDenied(t *testing.T) {
	k, fs := newHost(1)
	pol := Policy{Name: "deny-stat", Rules: []Rule{{Pattern: "/proc/stat", Do: Deny}}}
	m := NewMount(fs, HostView(k), pol)
	_, err := m.Read("/proc/stat")
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if !strings.Contains(err.Error(), "/proc/stat") {
		t.Fatalf("denied error %q does not name the path", err)
	}
	// Other paths remain readable under the same policy.
	if _, err := m.Read("/proc/uptime"); err != nil {
		t.Fatalf("unrelated path denied: %v", err)
	}
}

func TestReadEmptyRuleSucceedsWithNoContent(t *testing.T) {
	k, fs := newHost(1)
	pol := Policy{Rules: []Rule{{Pattern: "/proc/meminfo", Do: Empty}}}
	m := NewMount(fs, HostView(k), pol)
	s, err := m.Read("/proc/meminfo")
	if err != nil || s != "" {
		t.Fatalf("Empty rule: content=%q err=%v, want \"\", nil", s, err)
	}
}

func TestReadFilterRuleTransformsContent(t *testing.T) {
	k, fs := newHost(1)
	pol := Policy{Rules: []Rule{{
		Pattern:   "/proc/uptime",
		Do:        Filter,
		Transform: func(string) string { return "0.00 0.00\n" },
	}}}
	m := NewMount(fs, HostView(k), pol)
	s, err := m.Read("/proc/uptime")
	if err != nil || s != "0.00 0.00\n" {
		t.Fatalf("Filter rule: content=%q err=%v", s, err)
	}
	// Nil Transform filters to empty.
	pol2 := Policy{Rules: []Rule{{Pattern: "/proc/uptime", Do: Filter}}}
	s, err = NewMount(fs, HostView(k), pol2).Read("/proc/uptime")
	if err != nil || s != "" {
		t.Fatalf("nil-Transform Filter: content=%q err=%v", s, err)
	}
}

// recordingInjector logs the paths it is consulted for and can rewrite or
// fail reads on demand.
type recordingInjector struct {
	calls   []string
	rewrite func(path string, read func() (string, error)) (string, error)
}

func (r *recordingInjector) Read(path string, read func() (string, error)) (string, error) {
	r.calls = append(r.calls, path)
	if r.rewrite != nil {
		return r.rewrite(path, read)
	}
	return read()
}

func TestInjectorConsultedOnEveryRead(t *testing.T) {
	k, fs := newHost(1)
	inj := &recordingInjector{}
	fs.SetInjector(inj)
	m := NewMount(fs, HostView(k), Policy{})
	want := mustReadDirect(t, fs, k, "/proc/stat")
	got, err := m.Read("/proc/stat")
	if err != nil {
		t.Fatalf("Read through pass-through injector: %v", err)
	}
	if got != want {
		t.Fatalf("pass-through injector changed content:\n%q\n%q", got, want)
	}
	if len(inj.calls) != 1 || inj.calls[0] != "/proc/stat" {
		t.Fatalf("injector calls = %v, want exactly [/proc/stat]", inj.calls)
	}
	// Removing the injector restores the direct path.
	fs.SetInjector(nil)
	if _, err := m.Read("/proc/stat"); err != nil {
		t.Fatalf("read after SetInjector(nil): %v", err)
	}
	if len(inj.calls) != 1 {
		t.Fatalf("removed injector still consulted: %v", inj.calls)
	}
}

// mustReadDirect reads without any injector installed for a reference
// render.
func mustReadDirect(t *testing.T, fs *FS, k interface{ Now() float64 }, path string) string {
	t.Helper()
	_ = k
	saved := fs.injector
	fs.injector = nil
	defer func() { fs.injector = saved }()
	m := NewMount(fs, View{NS: fs.k.InitNS(), CgroupPath: "/"}, Policy{})
	s, err := m.Read(path)
	if err != nil {
		t.Fatalf("direct read %s: %v", path, err)
	}
	return s
}

func TestInjectorSeesPoliciedRead(t *testing.T) {
	// The injector wraps the *policied* read: a denied path stays denied
	// inside the injector callback, so faults can never bypass masking.
	k, fs := newHost(1)
	var inner error
	fs.SetInjector(&recordingInjector{rewrite: func(_ string, read func() (string, error)) (string, error) {
		_, inner = read()
		return "", inner
	}})
	pol := Policy{Rules: []Rule{{Pattern: "/proc/stat", Do: Deny}}}
	m := NewMount(fs, HostView(k), pol)
	if _, err := m.Read("/proc/stat"); !errors.Is(err, ErrDenied) {
		t.Fatalf("outer err = %v, want ErrDenied", err)
	}
	if !errors.Is(inner, ErrDenied) {
		t.Fatalf("injector's genuine read err = %v, want ErrDenied", inner)
	}
}

func TestInjectorFaultsAreClassifiable(t *testing.T) {
	// An injector failing with a wrapped ErrTransient must be recognizable
	// through Mount.Read with errors.Is — the contract every retry loop in
	// the tree depends on.
	k, fs := newHost(1)
	fault := fmt.Errorf("%w: injected EIO: /proc/stat", ErrTransient)
	fs.SetInjector(&recordingInjector{rewrite: func(string, func() (string, error)) (string, error) {
		return "", fault
	}})
	m := NewMount(fs, HostView(k), Policy{})
	_, err := m.Read("/proc/stat")
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", err)
	}
	if errors.Is(err, ErrDenied) || errors.Is(err, ErrNotExist) {
		t.Fatalf("transient fault also matches unrelated sentinels: %v", err)
	}
}

func TestNoInjectorPathIdentity(t *testing.T) {
	// With no injector, repeated reads at a paused clock are byte-identical
	// — the substrate is clean by default, which is what makes chaos-off
	// behavioral equivalence provable.
	k, fs := newHost(42)
	m := NewMount(fs, HostView(k), Policy{})
	first := mustRead(t, m, "/proc/meminfo")
	for i := 0; i < 5; i++ {
		if got := mustRead(t, m, "/proc/meminfo"); got != first {
			t.Fatalf("read %d differs with no injector and a paused clock", i)
		}
	}
}

// TestReadErrorMessages pins the denied and absent read errors to the
// messages fmt.Errorf("%w: %s", reason, path) used to build, inside and
// outside the layout, and keeps them classifiable with errors.Is.
func TestReadErrorMessages(t *testing.T) {
	k, fs := newHost(1)
	m := NewMount(fs, HostView(k), Policy{Rules: []Rule{
		{Pattern: "/proc/stat", Do: Deny},
		{Pattern: "/proc/nope/**", Do: Deny},
	}})
	for _, c := range []struct {
		path   string
		reason error
	}{
		{"/proc/stat", ErrDenied},
		{"/proc/nope/x", ErrDenied},
		{"/proc/no/such/file", ErrNotExist},
	} {
		_, err := m.Read(c.path)
		want := fmt.Errorf("%w: %s", c.reason, c.path)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("Read(%s) err = %v, want %q", c.path, err, want)
		}
		if !errors.Is(err, c.reason) {
			t.Errorf("Read(%s) err = %v, does not match %v", c.path, err, c.reason)
		}
		if _, err2 := m.AppendRead(nil, c.path); err2 == nil || err2.Error() != want.Error() {
			t.Errorf("AppendRead(%s) err = %v, want %q", c.path, err2, want)
		}
	}
}

// TestReadErrorAllocs pins the cost of failed reads: a denied or absent
// read allocates its error and nothing else.
func TestReadErrorAllocs(t *testing.T) {
	k, fs := newHost(1)
	m := NewMount(fs, HostView(k), Policy{Rules: []Rule{{Pattern: "/proc/stat", Do: Deny}}})
	buf := make([]byte, 0, 64)
	i := fs.position("/proc/stat")
	if n := testing.AllocsPerRun(100, func() { _, _ = m.AppendRead(buf, "/proc/stat") }); n != 1 {
		t.Errorf("denied AppendRead: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.AppendReadAt(buf, i) }); n != 1 {
		t.Errorf("denied AppendReadAt: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.AppendRead(buf, "/proc/no/such/file") }); n != 1 {
		t.Errorf("absent AppendRead: %v allocs, want 1", n)
	}
}
