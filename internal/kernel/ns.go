package kernel

import "fmt"

// NSType enumerates the seven Linux namespace types.
type NSType int

// Namespace types, in the order the paper introduces them.
const (
	MNT NSType = iota + 1
	UTS
	PID
	NET
	IPC
	USER
	CGROUP
	nsTypeCount = CGROUP
)

// String implements fmt.Stringer.
func (t NSType) String() string {
	switch t {
	case MNT:
		return "mnt"
	case UTS:
		return "uts"
	case PID:
		return "pid"
	case NET:
		return "net"
	case IPC:
		return "ipc"
	case USER:
		return "user"
	case CGROUP:
		return "cgroup"
	default:
		return fmt.Sprintf("NSType(%d)", int(t))
	}
}

// NetDev is a network device visible in a NET namespace; Prio is the
// net_prio cgroup priority assigned to traffic leaving on it.
type NetDev struct {
	Name string
	Prio int
}

// NSSet is the set of namespaces a task is associated with — one of each
// type, plus the namespaced state each type virtualizes. The host's initial
// set is created at boot; each container receives a fresh set.
type NSSet struct {
	ids [nsTypeCount + 1]uint64

	// UTS: per-namespace host name.
	Hostname string

	// NET: devices visible inside this namespace. The init namespace
	// holds the physical devices; containers get lo + a veth leg.
	NetDevs []NetDev

	// PID: translation between host pids and namespace pids. The init
	// namespace uses the identity mapping (pidMap == nil).
	pidMap  map[int]int
	nextPID int

	// CGROUP: the cgroup path this namespace's root is pinned to, as
	// /proc/self/cgroup shows it.
	CgroupRoot string

	// USER: whether root inside maps to an unprivileged host uid.
	RootMapped bool

	// CreatedAt is the kernel time the namespace set was created; a
	// stage-2 uptime fix reports container-relative uptime from it.
	CreatedAt float64

	// BootID is a per-namespace boot identifier a stage-2 fix would
	// return instead of the host's (empty for the init namespace, which
	// uses the kernel's real boot id).
	BootID string

	// IPC: System V shared-memory segments visible in this namespace.
	// Unlike the leaky subsystems, SysV IPC *is* properly namespaced in
	// Linux 4.7 — /proc/sysvipc/shm is the detector's contrast case.
	shm       []ShmSegment
	nextShmID int
}

// ShmSegment is one row of /proc/sysvipc/shm.
type ShmSegment struct {
	Key    int64
	ID     int
	SizeKB uint64
	CPid   int
}

// CreateShm registers a shared-memory segment in the namespace, owned by
// the creating pid (namespace-local).
func (s *NSSet) CreateShm(key int64, sizeKB uint64, cpid int) ShmSegment {
	s.nextShmID++
	seg := ShmSegment{Key: key, ID: s.nextShmID*32768 + 9, SizeKB: sizeKB, CPid: cpid}
	s.shm = append(s.shm, seg)
	return seg
}

// ShmSegments returns the namespace's segments.
func (s *NSSet) ShmSegments() []ShmSegment {
	return append([]ShmSegment(nil), s.shm...)
}

// ID returns the inode-style identifier of the namespace of type t, as
// /proc/self/ns/* would expose it.
func (s *NSSet) ID(t NSType) uint64 { return s.ids[t] }

// IsInit reports whether this is the host's initial namespace set.
func (s *NSSet) IsInit() bool { return s.pidMap == nil }

// TranslatePID maps a host pid into this PID namespace. The second result is
// false when the pid is not visible here (the essence of PID namespacing).
func (s *NSSet) TranslatePID(hostPID int) (int, bool) {
	if s.pidMap == nil {
		return hostPID, true // init ns: identity
	}
	ns, ok := s.pidMap[hostPID]
	return ns, ok
}

// newInitNS builds the host's initial namespaces with the physical network
// devices.
func (k *Kernel) newInitNS() *NSSet {
	s := &NSSet{
		Hostname: k.opts.Hostname,
		NetDevs: []NetDev{
			{Name: "lo"},
			{Name: "eth0"},
			{Name: "eth1"},
			{Name: "docker0"},
		},
		CgroupRoot: "/",
	}
	for t := NSType(1); t <= nsTypeCount; t++ {
		s.ids[t] = k.allocNSID()
	}
	// System daemons hold a few segments on any real host (X, databases,
	// shared caches); containers start with none.
	s.CreateShm(0x51f2e9a1, 4096, 812)
	s.CreateShm(0, 1024, 901)
	k.nsSets[s.ids[MNT]] = s
	return s
}

// NewNSSet creates a fresh namespace set for a container with the given UTS
// hostname and cgroup root, mirroring what a container runtime's
// clone(CLONE_NEWNS|…) sequence produces.
func (k *Kernel) NewNSSet(hostname, cgroupRoot string) *NSSet {
	s := &NSSet{
		Hostname: hostname,
		NetDevs: []NetDev{
			{Name: "lo"},
			{Name: "eth0"}, // veth leg renamed inside the container
		},
		pidMap:     make(map[int]int),
		nextPID:    1,
		CgroupRoot: cgroupRoot,
		RootMapped: true,
	}
	for t := NSType(1); t <= nsTypeCount; t++ {
		s.ids[t] = k.allocNSID()
	}
	s.CreatedAt = k.now
	s.BootID = k.genUUID()
	k.nsSets[s.ids[MNT]] = s
	k.bump(MaskNS)
	return s
}

func (k *Kernel) allocNSID() uint64 {
	// Linux namespace inode numbers live around 4026531835+.
	const base = 4026531840
	k.nextNSID++
	return base + k.nextNSID
}

// AddHostNetDev registers a device in the init NET namespace — e.g. the
// host-side veth leg a container runtime creates. Its randomized name is
// what makes the (leaky) global device list uniquely identify a host.
func (k *Kernel) AddHostNetDev(name string) {
	k.initNS.NetDevs = append(k.initNS.NetDevs, NetDev{Name: name})
	k.bump(MaskNet | MaskNS)
}

// RemoveHostNetDev deletes a device from the init NET namespace.
func (k *Kernel) RemoveHostNetDev(name string) {
	devs := k.initNS.NetDevs
	for i, d := range devs {
		if d.Name == name {
			k.initNS.NetDevs = append(devs[:i], devs[i+1:]...)
			k.bump(MaskNet | MaskNS)
			return
		}
	}
}

// adoptPID assigns the next namespace pid for a newly spawned host task.
func (s *NSSet) adoptPID(hostPID int) int {
	if s.pidMap == nil {
		return hostPID
	}
	ns := s.nextPID
	s.nextPID++
	s.pidMap[hostPID] = ns
	return ns
}

// releasePID removes a host pid from the namespace mapping.
func (s *NSSet) releasePID(hostPID int) {
	if s.pidMap != nil {
		delete(s.pidMap, hostPID)
	}
}
