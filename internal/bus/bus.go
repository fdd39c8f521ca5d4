package bus

import (
	"fmt"
	"math/bits"

	"repro/internal/coverage"
	"repro/internal/mem"
)

// Region maps an address window onto a device.
type Region struct {
	Base uint32
	Size uint32
	Dev  mem.Device
}

// Arbitration selects the arbiter policy.
type Arbitration uint8

const (
	RoundRobin    Arbitration = iota
	FixedPriority             // lower master ID wins; starves late masters under load
)

// Stats accumulates per-master bus statistics.
type Stats struct {
	Transactions int
	WaitCycles   int // cycles spent queued while the bus served others
	BusyCycles   int // cycles the bus spent serving this master
}

type request struct {
	active bool
	addr   uint32
	write  bool
	n      int
	done   bool
	issued int64 // cycle the request was submitted
	// data carries the write payload or receives the read result. A fixed
	// line-sized buffer keeps the per-transaction hot path allocation-free
	// (bursts never exceed one line).
	data [mem.LineBytes]byte
}

// Bus is the shared system interconnect. It is not safe for concurrent use;
// the SoC steps it from a single goroutine.
type Bus struct {
	regions []Region
	policy  Arbitration

	reqs  []request
	stats []Stats

	cycle     int64
	owner     int // master being served, -1 if idle
	remaining int // cycles left on current transaction
	rrNext    int // round-robin scan start
	// pending is a bitmask of masters with an active, not-yet-completed
	// request; it lets the per-cycle wait accounting and the arbiter scan
	// only live requests instead of every master slot.
	pending uint64

	totalBusy int64
	recorder  *Recorder
	// cov collects arbitration/contention coverage when attached; nil (the
	// default) disables it at the cost of one branch per grant/completion.
	cov *coverage.Map
}

// New creates a bus with n master ports and the given address regions.
func New(nMasters int, policy Arbitration, regions []Region) *Bus {
	if nMasters > 64 {
		panic("bus: more than 64 masters")
	}
	return &Bus{
		regions: regions,
		policy:  policy,
		reqs:    make([]request, nMasters),
		stats:   make([]Stats, nMasters),
		owner:   -1,
	}
}

// Reset restores the bus to power-on state: all requests dropped, statistics
// cleared, arbitration state rewound and any attached recorder detached. The
// regions and master ports survive, so the bus can immediately serve a fresh
// run without reallocation.
func (b *Bus) Reset() {
	clear(b.reqs)
	clear(b.stats)
	b.cycle = 0
	b.owner = -1
	b.remaining = 0
	b.rrNext = 0
	b.pending = 0
	b.totalBusy = 0
	b.recorder = nil
}

// Cycle returns the current bus cycle count.
func (b *Bus) Cycle() int64 { return b.cycle }

// State is an opaque snapshot of the bus's dynamic state — in-flight
// requests, arbitration position and statistics. Attachments (recorder,
// coverage) are not part of it.
type State struct {
	reqs      []request
	stats     []Stats
	cycle     int64
	owner     int
	remaining int
	rrNext    int
	pending   uint64
	totalBusy int64
}

// Snapshot captures the bus's dynamic state mid-run. The request slots use
// fixed line-sized buffers, so a slice copy is a deep copy.
func (b *Bus) Snapshot() *State {
	return &State{
		reqs:      append([]request(nil), b.reqs...),
		stats:     append([]Stats(nil), b.stats...),
		cycle:     b.cycle,
		owner:     b.owner,
		remaining: b.remaining,
		rrNext:    b.rrNext,
		pending:   b.pending,
		totalBusy: b.totalBusy,
	}
}

// Restore rewinds the bus to a snapshot taken from an identically built bus
// (same master count and regions). Attachments are left as they are.
func (b *Bus) Restore(st *State) {
	copy(b.reqs, st.reqs)
	copy(b.stats, st.stats)
	b.cycle = st.cycle
	b.owner = st.owner
	b.remaining = st.remaining
	b.rrNext = st.rrNext
	b.pending = st.pending
	b.totalBusy = st.totalBusy
}

// SetCoverage attaches a coverage map (nil detaches). Unlike the recorder,
// the attachment survives Reset — coverage spans many runs of one bus.
func (b *Bus) SetCoverage(m *coverage.Map) { b.cov = m }

// StatsFor returns the accumulated statistics of master id.
func (b *Bus) StatsFor(id int) Stats { return b.stats[id] }

// Utilization returns the fraction of elapsed cycles the bus was busy.
func (b *Bus) Utilization() float64 {
	if b.cycle == 0 {
		return 0
	}
	return float64(b.totalBusy) / float64(b.cycle)
}

func (b *Bus) resolve(addr uint32) (mem.Device, uint32, bool) {
	for _, r := range b.regions {
		if addr >= r.Base && addr-r.Base < r.Size {
			return r.Dev, addr - r.Base, true
		}
	}
	return nil, 0, false
}

// Step advances the bus by one clock cycle: progresses the in-flight
// transaction and, when the bus is free, grants the next pending request.
func (b *Bus) Step() {
	b.cycle++
	if b.owner >= 0 {
		b.totalBusy++
		b.stats[b.owner].BusyCycles++
		b.remaining--
		if b.remaining <= 0 {
			b.complete(b.owner)
			b.owner = -1
		}
	}
	// Account waiting for everyone still queued behind the bus.
	wait := b.pending
	if b.owner >= 0 {
		wait &^= 1 << b.owner
	}
	for wait != 0 {
		id := bits.TrailingZeros64(wait)
		wait &= wait - 1
		b.stats[id].WaitCycles++
	}
	if b.owner < 0 {
		b.grantNext()
	}
}

func (b *Bus) grantNext() {
	if b.pending == 0 {
		return
	}
	pick := -1
	switch b.policy {
	case RoundRobin:
		// First pending master at or after rrNext, wrapping.
		if hi := b.pending >> b.rrNext; hi != 0 {
			pick = b.rrNext + bits.TrailingZeros64(hi)
		} else {
			pick = bits.TrailingZeros64(b.pending)
		}
		b.rrNext = (pick + 1) % len(b.reqs)
	case FixedPriority:
		pick = bits.TrailingZeros64(b.pending)
	}
	if pick < 0 {
		return
	}
	b.owner = pick
	r := &b.reqs[pick]
	if b.cov != nil {
		b.coverGrant(r)
	}
	dev, off, ok := b.resolve(r.addr)
	if !ok {
		// Open-bus access: completes in one cycle, reads all-ones.
		b.cov.Inc(coverage.FeatBusOpenBus)
		b.remaining = 1
		return
	}
	b.remaining = dev.AccessCycles(off, r.n)
	if b.remaining < 1 {
		b.remaining = 1
	}
}

// coverGrant records the arbitration and transaction shape of a freshly
// granted request: how many rivals were queued behind it, its direction,
// and its burst size class.
func (b *Bus) coverGrant(r *request) {
	rivals := bits.OnesCount64(b.pending) - 1
	switch {
	case rivals <= 0:
		b.cov.Inc(coverage.FeatBusGrantAlone)
	case rivals == 1:
		b.cov.Inc(coverage.FeatBusGrantContend1)
	case rivals == 2:
		b.cov.Inc(coverage.FeatBusGrantContend2)
	default:
		b.cov.Inc(coverage.FeatBusGrantContend3)
	}
	if r.write {
		b.cov.Inc(coverage.FeatBusWrite)
	} else {
		b.cov.Inc(coverage.FeatBusRead)
	}
	switch {
	case r.n < 4:
		b.cov.Inc(coverage.FeatBusBurstSub)
	case r.n == 4:
		b.cov.Inc(coverage.FeatBusBurstWord)
	case r.n == 8 && mem.LineBytes != 8:
		b.cov.Inc(coverage.FeatBusBurstWide)
	case r.n >= mem.LineBytes:
		b.cov.Inc(coverage.FeatBusBurstLine)
	default:
		b.cov.Inc(coverage.FeatBusBurstWide)
	}
}

func (b *Bus) complete(id int) {
	r := &b.reqs[id]
	dev, off, ok := b.resolve(r.addr)
	if ok {
		if r.write {
			dev.Write(off, r.data[:r.n])
		} else {
			dev.Read(off, r.data[:r.n])
		}
	} else if !r.write {
		for i := 0; i < r.n; i++ {
			r.data[i] = 0xFF
		}
	}
	r.done = true
	b.pending &^= 1 << id
	b.stats[id].Transactions++
}

// Port gives one master a handle on its bus slot.
type Port struct {
	bus *Bus
	id  int
}

// PortFor returns the port for master id.
func (b *Bus) PortFor(id int) *Port {
	if id < 0 || id >= len(b.reqs) {
		panic(fmt.Sprintf("bus: no master %d", id))
	}
	return &Port{bus: b, id: id}
}

// ID returns the master identifier of this port.
func (p *Port) ID() int { return p.id }

// InService reports whether this master's request is the one currently
// being transferred (such a request can no longer be cancelled).
func (p *Port) InService() bool { return p.bus.owner == p.id }

// Busy reports whether a request is outstanding (issued and not yet taken).
func (p *Port) Busy() bool { return p.bus.reqs[p.id].active }

// Done reports whether the outstanding request has completed.
func (p *Port) Done() bool {
	r := &p.bus.reqs[p.id]
	return r.active && r.done
}

// StartRead submits a read of n bytes at addr. The port must be idle.
func (p *Port) StartRead(addr uint32, n int) {
	r := &p.bus.reqs[p.id]
	if r.active {
		panic("bus: StartRead on busy port")
	}
	if n > mem.LineBytes {
		panic("bus: burst longer than a line")
	}
	r.active, r.write, r.done = true, false, false
	r.addr, r.n, r.issued = addr, n, p.bus.cycle
	p.bus.pending |= 1 << p.id
	p.bus.record(p.id, addr, false, n)
}

// StartWrite submits a write of len(data) bytes at addr. The port must be
// idle. data is copied.
func (p *Port) StartWrite(addr uint32, data []byte) {
	r := &p.bus.reqs[p.id]
	if r.active {
		panic("bus: StartWrite on busy port")
	}
	if len(data) > mem.LineBytes {
		panic("bus: burst longer than a line")
	}
	r.active, r.write, r.done = true, true, false
	r.addr, r.n, r.issued = addr, len(data), p.bus.cycle
	copy(r.data[:], data)
	p.bus.pending |= 1 << p.id
	p.bus.record(p.id, addr, true, len(data))
}

// Take consumes a completed request and returns the read data (nil for
// writes). It panics if the request has not completed. The returned slice
// aliases the port's transaction buffer and is only valid until the next
// request is submitted on this port.
func (p *Port) Take() []byte {
	r := &p.bus.reqs[p.id]
	if !r.active || !r.done {
		panic("bus: Take before completion")
	}
	r.active, r.done = false, false
	if r.write {
		return nil
	}
	return r.data[:r.n]
}

// Cancel aborts a queued or completed request. It is a no-op when idle and
// panics if the request is currently being served (real bus masters cannot
// retract a granted burst).
func (p *Port) Cancel() {
	r := &p.bus.reqs[p.id]
	if !r.active {
		return
	}
	if p.bus.owner == p.id && !r.done {
		panic("bus: cancel of in-service request")
	}
	r.active, r.done = false, false
	p.bus.pending &^= 1 << p.id
	p.bus.cov.Inc(coverage.FeatBusCancel)
}
