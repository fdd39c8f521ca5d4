package cpu

import (
	"fmt"

	"repro/internal/archint"
	"repro/internal/cache"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/icu"
	"repro/internal/isa"
)

// Config describes one core.
type Config struct {
	CoreID int
	Has64  bool // paired-register 64-bit extension (core C)
	ICU    icu.Config
}

// CoreA/B/C return the three configurations of the paper's SoC. Cores A and
// B are the same processor model (they differ only in physical design,
// which this architectural model cannot distinguish); core C extends the
// ISA with 64-bit paired-register operations and has a fully decoded
// interrupt cause register.
func CoreA() Config { return Config{CoreID: 0, ICU: icu.Config{SharedCauseBits: true}} }
func CoreB() Config { return Config{CoreID: 1, ICU: icu.Config{SharedCauseBits: true}} }
func CoreC() Config { return Config{CoreID: 2, Has64: true} }

// fetchQCap is the fetch queue depth in instructions.
const fetchQCap = 6

type fetched struct {
	pc   uint32
	inst isa.Inst
	bad  bool // undecodable word
}

// decCacheSize is the decode-cache capacity (power of two).
const decCacheSize = 256

type decEntry struct {
	word  uint32
	valid bool
	bad   bool
	inst  isa.Inst
}

// uop is an instruction in flight.
type uop struct {
	valid  bool
	inst   isa.Inst
	pc     uint32
	rd     uint8
	writes bool
	isPair bool

	result   uint64 // EX result; load data is filled in MEM
	isLoad   bool
	isStore  bool
	memAddr  uint32
	memSize  int
	storeVal uint64

	cascadeA bool // operand A takes the intra-packet cascade path
	cascadeB bool
}

type packet [2]uop

func (p packet) any() bool { return p[0].valid || p[1].valid }

// Counters indexes the performance counters (mirrors fault.Cnt* and the CSR
// numbers).
const numCounters = fault.NumCounters

// TraceEvent reports pipeline activity to an attached tracer.
type TraceEvent struct {
	Cycle int64
	Kind  string // "issue", "ex", "mem", "wb", "fwd", "stall", "redirect"
	Lane  int
	PC    uint32
	Inst  isa.Inst
	// Forwarding detail (Kind == "fwd").
	Operand int
	Path    int
	// Stall detail (Kind == "stall"): "if", "mem", "haz".
	Why string
	// Result carries the computed value for "ex" events.
	Result uint64
}

// TraceFn receives trace events when attached with SetTracer.
type TraceFn func(TraceEvent)

// Core is one processor core.
type Core struct {
	cfg   Config
	plane fault.Plane
	// cntIncClean caches fault.AffectsCounterInc(plane): counters are
	// bumped several times per cycle, and a plane transparent to counter
	// increments lets bump skip the per-increment plane call.
	cntIncClean bool
	ICU         *icu.ICU

	imem cache.Client
	dmem cache.Client
	// invalidate is called by CINV with the isa.Cinv* selector; wired by
	// the SoC to the private caches.
	invalidate func(sel int32)

	regs     [32]uint32
	counters [numCounters]uint64

	// Fetch.
	fetchAddr    uint32 // next 8-byte chunk to request
	skipBelow    uint32 // discard fetched words below this PC (redirects)
	fetchBusy    bool
	discardFetch bool
	fetchQ       []fetched
	nextIssuePC  uint32
	// decCache memoises isa.Decode, which is pure in the fetched word:
	// loop bodies re-decode the same handful of words every iteration (and
	// every fault run of a reusable arena re-decodes the same program).
	// Direct-mapped; survives Reset by construction.
	decCache [decCacheSize]decEntry

	// Pipeline latches. The packets live in the fixed latches array and
	// the stage pointers rotate over it each cycle — advancing the
	// pipeline is three pointer swaps instead of three packet copies,
	// which matters at one advance per simulated cycle per core.
	latches [3]packet
	exPkt   *packet
	memPkt  *packet
	wbPkt   *packet

	// MEM stage progress.
	memLane    int // lane currently accessing memory (0,1) or -1
	memStarted bool

	cycle   int64
	halted  bool
	wedged  bool
	wedgePC uint32

	// PathUse counts forwarding-mux selections per (lane, operand, path);
	// the Figure 1 demo and the coverage analysis read it.
	PathUse [2][2][fault.NumPaths]int64

	trace    TraceFn
	storeObs StoreFn
	// inj drives a deterministic interrupt-event plan into the ICU,
	// retire-indexed so the differential harness can replay the same plan
	// against the architectural reference; nil means no external events.
	inj *archint.Injector
	// cov collects microarchitectural coverage when attached; nil (the
	// default) is the zero-cost disabled mode — coverage.Map methods are
	// nil-safe, so call sites pay one predictable branch.
	cov *coverage.Map
}

// StoreFn observes completed data-side stores (address, value, size in
// bytes). The fault-simulation arenas use it to compare a faulty run's
// observable behaviour against the golden run's.
type StoreFn func(addr uint32, val uint64, size int)

// New builds a core. imem and dmem are the fetch- and data-side memory
// clients (wired by the SoC), invalidate is the CINV callback (may be nil),
// and plane is the fault-injection plane (nil means fault-free).
func New(cfg Config, imem, dmem cache.Client, invalidate func(sel int32), plane fault.Plane) *Core {
	if plane == nil {
		plane = fault.None
	}
	if invalidate == nil {
		invalidate = func(int32) {}
	}
	c := &Core{
		cfg:         cfg,
		plane:       plane,
		cntIncClean: !fault.AffectsCounterInc(plane),
		ICU:         icu.New(cfg.ICU, plane),
		imem:        imem,
		dmem:        dmem,
		invalidate:  invalidate,
		fetchQ:      make([]fetched, 0, fetchQCap),
		memLane:     -1,
	}
	c.exPkt, c.memPkt, c.wbPkt = &c.latches[0], &c.latches[1], &c.latches[2]
	return c
}

// Reset restores architectural state and points fetch at pc.
func (c *Core) Reset(pc uint32) {
	c.regs = [32]uint32{}
	c.counters = [numCounters]uint64{}
	c.fetchQ = c.fetchQ[:0]
	c.fetchBusy = false
	c.discardFetch = false
	c.latches = [3]packet{}
	// Rewire the stage pointers to their boot positions. The rotation
	// phase is semantically irrelevant over empty latches, but leaving it
	// where the previous run ended makes a Reset core differ bit-wise
	// from a freshly built one — breaking snapshot comparisons against
	// golden-run checkpoints (see core.Arena).
	c.exPkt, c.memPkt, c.wbPkt = &c.latches[0], &c.latches[1], &c.latches[2]
	c.memLane = -1
	c.memStarted = false
	c.cycle = 0
	c.halted = false
	c.wedged = false
	c.wedgePC = 0
	c.PathUse = [2][2][fault.NumPaths]int64{}
	c.ICU.Reset()
	if c.inj != nil {
		c.inj.Reset()
	}
	c.redirect(pc)
}

// CoreState is an opaque snapshot of a core's dynamic state: architectural
// registers, counters, fetch/issue front end, pipeline latches, MEM-stage
// progress and the ICU. Attachments (plane, tracer, store observer,
// injector, coverage) and the decode cache (a pure memo) are not part of
// it. An attached archint.Injector's delivery cursor is not covered either
// — fault-campaign arenas never attach one.
type CoreState struct {
	regs         [32]uint32
	counters     [numCounters]uint64
	fetchAddr    uint32
	skipBelow    uint32
	fetchBusy    bool
	discardFetch bool
	fetchQ       []fetched
	nextIssuePC  uint32
	latches      [3]packet
	exIdx        int8 // stage-pointer positions within latches
	memIdx       int8
	wbIdx        int8
	memLane      int
	memStarted   bool
	cycle        int64
	halted       bool
	wedged       bool
	wedgePC      uint32
	pathUse      [2][2][fault.NumPaths]int64
	icu          icu.State
}

// latchIdx locates a rotating stage pointer within the latch array.
func (c *Core) latchIdx(p *packet) int8 {
	for i := range c.latches {
		if p == &c.latches[i] {
			return int8(i)
		}
	}
	panic("cpu: stage pointer outside latch array")
}

// Snapshot captures the core's dynamic state mid-run.
func (c *Core) Snapshot() *CoreState {
	return &CoreState{
		regs:         c.regs,
		counters:     c.counters,
		fetchAddr:    c.fetchAddr,
		skipBelow:    c.skipBelow,
		fetchBusy:    c.fetchBusy,
		discardFetch: c.discardFetch,
		fetchQ:       append([]fetched(nil), c.fetchQ...),
		nextIssuePC:  c.nextIssuePC,
		latches:      c.latches,
		exIdx:        c.latchIdx(c.exPkt),
		memIdx:       c.latchIdx(c.memPkt),
		wbIdx:        c.latchIdx(c.wbPkt),
		memLane:      c.memLane,
		memStarted:   c.memStarted,
		cycle:        c.cycle,
		halted:       c.halted,
		wedged:       c.wedged,
		wedgePC:      c.wedgePC,
		pathUse:      c.PathUse,
		icu:          c.ICU.Snapshot(),
	}
}

// Restore rewinds the core (and its ICU) to a snapshot, keeping the current
// plane and attachments. The in-flight fetch or data access a busy client
// may have had at the snapshot lives in the memory clients and bus — the
// SoC-level restore covers those.
func (c *Core) Restore(st *CoreState) {
	c.regs = st.regs
	c.counters = st.counters
	c.fetchAddr = st.fetchAddr
	c.skipBelow = st.skipBelow
	c.fetchBusy = st.fetchBusy
	c.discardFetch = st.discardFetch
	c.fetchQ = append(c.fetchQ[:0], st.fetchQ...)
	c.nextIssuePC = st.nextIssuePC
	c.latches = st.latches
	c.exPkt = &c.latches[st.exIdx]
	c.memPkt = &c.latches[st.memIdx]
	c.wbPkt = &c.latches[st.wbIdx]
	c.memLane = st.memLane
	c.memStarted = st.memStarted
	c.cycle = st.cycle
	c.halted = st.halted
	c.wedged = st.wedged
	c.wedgePC = st.wedgePC
	c.PathUse = st.pathUse
	c.ICU.Restore(st.icu)
}

// SetPlane swaps the fault-injection plane of the core and its ICU (nil
// restores fault-free). Combined with Reset this lets one long-lived core
// serve many fault runs without being rebuilt.
func (c *Core) SetPlane(plane fault.Plane) {
	if plane == nil {
		plane = fault.None
	}
	c.plane = plane
	c.cntIncClean = !fault.AffectsCounterInc(plane)
	c.ICU.SetPlane(plane)
}

// SetTracer attaches fn (nil detaches).
func (c *Core) SetTracer(fn TraceFn) { c.trace = fn }

// SetStoreObserver attaches fn to the MEM stage's store completion (nil
// detaches).
func (c *Core) SetStoreObserver(fn StoreFn) { c.storeObs = fn }

// SetCoverage attaches a coverage map to the core and its ICU (nil
// detaches). Like tracers and store observers, the attachment survives
// Reset.
func (c *Core) SetCoverage(m *coverage.Map) {
	c.cov = m
	c.ICU.SetCoverage(m)
}

// SetInjector attaches an interrupt-plan injector (nil detaches). The
// attachment survives Reset; the injector's own delivery cursor rewinds
// with the core.
func (c *Core) SetInjector(in *archint.Injector) { c.inj = in }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Halted reports whether the core has executed HALT (or wedged).
func (c *Core) Halted() bool { return c.halted }

// Wedged reports whether the core stopped on an undecodable instruction.
func (c *Core) Wedged() bool { return c.wedged }

// Done reports whether the core is halted and the pipeline has drained.
func (c *Core) Done() bool {
	return c.halted && !c.exPkt.any() && !c.memPkt.any() && !c.wbPkt.any()
}

// Reg returns architectural register r.
func (c *Core) Reg(r uint8) uint32 { return c.regs[r&31] }

// Counter returns the raw value of performance counter id (fault.Cnt*).
func (c *Core) Counter(id int) uint64 { return c.counters[id] }

// Cycle returns the core-local cycle count.
func (c *Core) Cycle() int64 { return c.cycle }

func (c *Core) emit(ev TraceEvent) {
	if c.trace != nil {
		ev.Cycle = c.cycle
		c.trace(ev)
	}
}

// bump increments performance counter id through the fault plane's
// increment gate.
func (c *Core) bump(id int, by uint64) {
	if c.cntIncClean || c.plane.CounterInc(uint8(id), true) {
		c.counters[id] += by
	}
}

// redirect flushes the front end and restarts fetch at target.
func (c *Core) redirect(target uint32) {
	target &^= 3
	c.fetchQ = c.fetchQ[:0]
	c.fetchAddr = target &^ 7
	c.skipBelow = target
	c.nextIssuePC = target
	if c.fetchBusy {
		// Retract the wrong-path fetch if its bus request has not been
		// granted; an in-service transfer must drain and be discarded.
		if c.imem.TryAbort() {
			c.fetchBusy = false
		} else {
			c.discardFetch = true
		}
	}
	c.emit(TraceEvent{Kind: "redirect", PC: target})
}

// Step advances the core one clock cycle. The SoC must step the bus first
// so in-flight memory transactions complete before the pipeline observes
// them.
func (c *Core) Step() {
	if c.Done() && !c.fetchBusy {
		return
	}
	c.cycle++
	c.bump(fault.CntCycle, 1)

	// WB: retire (reads the MEM/WB latch, mutates only the register file).
	retired := 0
	for lane := 0; lane < 2; lane++ {
		u := &c.wbPkt[lane]
		if !u.valid {
			continue
		}
		c.writeBack(u)
		retired++
		c.bump(fault.CntInstret, 1)
		c.emit(TraceEvent{Kind: "wb", Lane: lane, PC: u.pc, Inst: u.inst})
	}

	// Snapshot the EX/MEM results: stepMEM fills load results in place,
	// and the forwarding network below must observe the pre-cycle values.
	// The result words are the only fields stepMEM mutates that the
	// forwarding network reads, so nothing else needs a copy.
	memRes := [2]uint64{c.memPkt[0].result, c.memPkt[1].result}

	// MEM: progress the packet's memory accesses.
	memDone := c.stepMEM()

	if memDone {
		// EX: execute the packet entering MEM next cycle, reading
		// forwarding sources from the pre-cycle MEM/WB latches.
		c.stepEX(c.exPkt, c.memPkt, &memRes, c.wbPkt)

		// Advance latches by rotating the packet buffers: the retired
		// MEM/WB packet becomes the cleared new issue slot.
		spare := c.wbPkt
		c.wbPkt = c.memPkt
		c.memPkt = c.exPkt
		*spare = packet{}
		c.exPkt = spare
		c.memLane = -1
		c.memStarted = false

		// Issue: form the next packet (may be squashed by redirects that
		// stepEX performed, since redirect cleared the fetch queue).
		// c.memPkt now holds the packet that was in EX this cycle — the
		// load-use hazard source.
		c.stepIssue(c.memPkt)
	} else {
		*c.wbPkt = packet{}
		if c.exPkt.any() || c.memPkt.any() {
			c.bump(fault.CntMemStall, 1)
			c.cov.Inc(coverage.FeatStallMem)
			c.emit(TraceEvent{Kind: "stall", Why: "mem"})
		}
	}

	// Fetch: keep the queue full.
	c.stepFetch()

	// External interrupt events matured by this cycle's retirements, then
	// the recognition pipeline.
	if c.inj != nil {
		c.inj.Tick(retired, c.ICU.Raise)
	}
	c.ICU.Tick(retired)
}

func (c *Core) writeBack(u *uop) {
	if !u.writes || u.rd == 0 {
		return
	}
	c.regs[u.rd] = uint32(u.result)
	if u.isPair {
		hi := (u.rd + 1) & 31
		if hi != 0 {
			c.regs[hi] = uint32(u.result >> 32)
		}
	}
}

// stepMEM advances the MEM stage. It returns true when the packet in MEM
// (possibly empty) has finished all its memory work and the pipeline may
// advance.
func (c *Core) stepMEM() bool {
	for {
		if c.memLane < 0 {
			// Find the next lane with outstanding memory work.
			next := -1
			for lane := 0; lane < 2; lane++ {
				u := &c.memPkt[lane]
				if u.valid && (u.isLoad || u.isStore) && u.memSize != 0 {
					next = lane
					break
				}
			}
			if next < 0 {
				return true
			}
			c.memLane = next
			c.memStarted = false
		}
		u := &c.memPkt[c.memLane]
		if !c.memStarted {
			c.dmem.Start(u.memAddr, u.isStore, u.storeVal, u.memSize)
			c.memStarted = true
		}
		done, data := c.dmem.Tick()
		if !done {
			return false
		}
		if u.isLoad {
			u.result = c.loadExtend(u.inst.Op, data)
		}
		if u.isStore && c.storeObs != nil {
			c.storeObs(u.memAddr, u.storeVal, u.memSize)
		}
		if c.cov != nil {
			c.cov.Inc(memCovFeat(u.isStore, u.memSize))
		}
		u.memSize = 0 // mark this lane's access complete
		c.memLane = -1
		c.memStarted = false
		c.emit(TraceEvent{Kind: "mem", Lane: 0, PC: u.pc, Inst: u.inst})
	}
}

// memCovFeat maps a completed data-side access onto its coverage feature.
func memCovFeat(store bool, size int) coverage.Feature {
	switch {
	case store && size == 1:
		return coverage.FeatStoreByte
	case store && size == 8:
		return coverage.FeatStorePair
	case store:
		return coverage.FeatStoreWord
	case size == 1:
		return coverage.FeatLoadByte
	case size == 8:
		return coverage.FeatLoadPair
	}
	return coverage.FeatLoadWord
}

func (c *Core) loadExtend(op isa.Op, data uint64) uint64 {
	switch op {
	case isa.OpLB:
		return uint64(uint32(int32(int8(uint8(data)))))
	case isa.OpLBU:
		return data & 0xFF
	case isa.OpLW:
		return data & 0xFFFFFFFF
	case isa.OpLWP:
		return data
	}
	return data
}

// String summarises the core state (debugging aid).
func (c *Core) String() string {
	return fmt.Sprintf("core%d cycle=%d halted=%v wedged=%v nextPC=%#x qlen=%d",
		c.cfg.CoreID, c.cycle, c.halted, c.wedged, c.nextIssuePC, len(c.fetchQ))
}
