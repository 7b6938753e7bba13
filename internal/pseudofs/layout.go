package pseudofs

import (
	"fmt"
	"sort"
	"sync"
)

// A layout render renders the file at one position for fs, appending to
// dst (see Handler for the buffer contract). arg is the index the path was
// laid out with: a CPU, a packed CPU and idle state, a RAPL domain, a
// namespace type or a constant text. Renders capture nothing, so one
// layout serves every FS of its key.
//
// A globalRender takes no View, so its bytes cannot depend on the reader:
// it reads kernel-wide state with no namespace check, which is how Linux
// 4.7 renders the leakage channels of Table I. A viewRender consults the
// reader's View, directly or through a provider, and models a correctly
// containerized file. The signature is the only proof of view-independence
// the engine relies on to share one render among every reader.
type (
	globalRender func(fs *FS, arg int32, dst []byte) ([]byte, error)
	viewRender   func(fs *FS, arg int32, dst []byte, v View) ([]byte, error)
)

// layoutKey is what the shape of a pseudo-file tree depends on: the
// optional sensors, and the core count, because the cpuidle, cpufreq,
// coretemp and sched_domain files repeat per core.
type layoutKey struct {
	hw    Hardware
	cores int
}

// layout is the shape of every tree of one key, never mutated once
// newLayout returns: the sorted paths and, by position, each path's
// dependency tag, render function and render argument, plus the constant
// texts of the static files. Exactly one of global[i] and view[i] is set;
// global[i] != nil is position i's view-independence bit.
type layout struct {
	paths  []string
	index  map[string]int32
	deps   []Dep
	global []globalRender
	view   []viewRender
	arg    []int32
	text   []string
}

// layouts memoizes one layout per key, under layoutsMu. A layout is a pure
// function of its key and is never mutated, so the memo is written once
// per key and shared by every FS in the process. Keys come from code, but
// for the core count of a policy rollout's server, which follows its fleet
// size; leaksd bounds that (service.MaxRolloutFleet), so the memo stays
// small.
var (
	layoutsMu sync.Mutex
	layouts   = map[layoutKey]*layout{}
)

// layoutFor returns the shared layout of a key, computing it on first use.
func layoutFor(key layoutKey) *layout {
	layoutsMu.Lock()
	defer layoutsMu.Unlock()
	if layouts[key] == nil {
		layouts[key] = newLayout(key)
	}
	return layouts[key]
}

// add registers a file with a global render at the end of the layout;
// finish sorts it into place.
func (l *layout) add(path string, arg int32, r globalRender) {
	l.paths = append(l.paths, path)
	l.global = append(l.global, r)
	l.view = append(l.view, nil)
	l.arg = append(l.arg, arg)
}

// addView registers a file whose render reads the reader's View.
func (l *layout) addView(path string, arg int32, r viewRender) {
	l.paths = append(l.paths, path)
	l.global = append(l.global, nil)
	l.view = append(l.view, r)
	l.arg = append(l.arg, arg)
}

// static registers a file whose content is constant text.
func (l *layout) static(path, content string) {
	l.add(path, int32(len(l.text)), renderText)
	l.text = append(l.text, content)
}

func renderText(fs *FS, i int32, b []byte) ([]byte, error) {
	return append(b, fs.lay.text[i]...), nil
}

// newLayout computes the layout of a key.
func newLayout(key layoutKey) *layout {
	l := &layout{}
	l.proc(key.cores)
	l.sys(key.hw, key.cores)
	l.finish()
	return l
}

// finish sorts the registered files by path, then indexes them and tags
// their dependencies. It panics on a path registered twice, which is
// always a layout bug.
func (l *layout) finish() {
	sort.Sort(l)
	l.index = make(map[string]int32, len(l.paths))
	l.deps = make([]Dep, len(l.paths))
	for i, p := range l.paths {
		if _, dup := l.index[p]; dup {
			panic(fmt.Sprintf("pseudofs: duplicate file %s", p))
		}
		l.index[p] = int32(i)
		l.deps[i] = lookupDep(p)
	}
}

// Len, Less and Swap sort a layout's files by path, columns together.
func (l *layout) Len() int           { return len(l.paths) }
func (l *layout) Less(i, j int) bool { return l.paths[i] < l.paths[j] }
func (l *layout) Swap(i, j int) {
	l.paths[i], l.paths[j] = l.paths[j], l.paths[i]
	l.global[i], l.global[j] = l.global[j], l.global[i]
	l.view[i], l.view[j] = l.view[j], l.view[i]
	l.arg[i], l.arg[j] = l.arg[j], l.arg[i]
}

// pathError is the error of a denied or absent read. Its message is the
// reason and the path ("pseudofs: permission denied: /proc/stat"), and
// errors.Is finds the reason.
type pathError struct {
	err  error
	path string
}

func (e *pathError) Error() string { return e.err.Error() + ": " + e.path }
func (e *pathError) Unwrap() error { return e.err }
