package soc

import (
	"fmt"
	"slices"

	"repro/internal/archint"
	"repro/internal/asm"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coverage"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
)

// NumCores is the core count of the modelled device.
const NumCores = 3

// DefaultFlashBankLatencies gives the flash wait states per 256 KiB bank;
// the paper reports 8 cycles per issue-packet fetch, with the "code
// position" scenario knob exposing small bank-to-bank differences.
func DefaultFlashBankLatencies() []int { return []int{8, 9, 10, 9} }

// Code placement bases used by the Table II scenarios.
const (
	CodeLow  = 0x0000_1000
	CodeMid  = 0x0004_0000 // bank 1: one extra wait state
	CodeHigh = 0x000A_0000 // bank 2: two extra wait states
)

// CoreSetup configures one core slot.
type CoreSetup struct {
	CPU        cpu.Config
	Active     bool
	CachesOn   bool        // private I/D caches enabled
	WriteAlloc bool        // D-cache write-allocate (paper's setting: true)
	Plane      fault.Plane // nil = fault-free
	StartDelay int         // cycles to hold the core in reset (start phase)
}

// Config configures the SoC.
type Config struct {
	Arbitration bus.Arbitration
	FlashBanks  []int // per-bank latencies; nil = DefaultFlashBankLatencies
	SRAMLatency int   // 0 = default (2)
	Cores       [NumCores]CoreSetup
	// Replay attaches background bus traffic (recorded from a full run)
	// to dedicated replay masters, one per recorded source master; used by
	// the fault simulator so that a single simulated core experiences
	// three-core bus contention without simulating the other cores.
	Replay [][]bus.TrafficEvent
}

// DefaultConfig returns a triple-core configuration with all cores active
// and caches off (the paper's baseline).
func DefaultConfig() Config {
	var cfg Config
	cfg.Cores[0] = CoreSetup{CPU: cpu.CoreA(), Active: true}
	cfg.Cores[1] = CoreSetup{CPU: cpu.CoreB(), Active: true}
	cfg.Cores[2] = CoreSetup{CPU: cpu.CoreC(), Active: true}
	return cfg
}

// CoreUnit is one assembled core with its private memories.
type CoreUnit struct {
	Core   *cpu.Core
	ICache *cache.Cache // nil when caches disabled
	DCache *cache.Cache
	ITCM   *mem.TCM
	DTCM   *mem.TCM

	setup   CoreSetup
	imem    *router
	dmem    *router
	started bool
}

// SoC is the assembled system.
type SoC struct {
	Bus   *bus.Bus
	Flash *mem.Flash
	SRAM  *mem.RAM
	Cores [NumCores]*CoreUnit

	replayers []*bus.Replayer
	running   []*CoreUnit // active started cores, in core-ID order
	cycle     int64

	// Sealed baseline images restored by Reset (nil until SealBaseline):
	// SRAM plus each core's TCMs. Flash needs no image — it is read-only
	// from the bus, so the loaded program survives every run.
	baseSRAM []byte
	baseTCM  [NumCores][2][]byte // per core: ITCM, DTCM
}

// Masters per core: instruction port then data port; replay masters at the
// end (one per non-tested core port).
func imemMaster(coreID int) int { return coreID * 2 }
func dmemMaster(coreID int) int { return coreID*2 + 1 }

const (
	replayMasterBase = NumCores * 2
	numReplayMasters = 4 // two cores' worth of (ifetch, data) ports
)

// New assembles an SoC.
func New(cfg Config) *SoC {
	banks := cfg.FlashBanks
	if banks == nil {
		banks = DefaultFlashBankLatencies()
	}
	sramLat := cfg.SRAMLatency
	if sramLat == 0 {
		sramLat = 2
	}
	flash := mem.NewFlash(mem.FlashSize, banks)
	sram := mem.NewRAM(mem.SRAMSize, sramLat)
	b := bus.New(replayMasterBase+numReplayMasters, cfg.Arbitration, []bus.Region{
		{Base: mem.FlashBase, Size: mem.FlashSize, Dev: flash},
		{Base: mem.SRAMBase, Size: mem.SRAMSize, Dev: sram},
		// Uncached alias of the same SRAM, used for cross-core flags.
		{Base: mem.SRAMUncachedBase, Size: mem.SRAMSize, Dev: sram},
	})
	s := &SoC{Bus: b, Flash: flash, SRAM: sram}
	for id := 0; id < NumCores; id++ {
		s.Cores[id] = buildCore(id, cfg.Cores[id], b)
	}
	if len(cfg.Replay) > numReplayMasters {
		panic(fmt.Sprintf("soc: %d replay traces, max %d", len(cfg.Replay), numReplayMasters))
	}
	for i, trace := range cfg.Replay {
		s.replayers = append(s.replayers,
			bus.NewReplayer(b.PortFor(replayMasterBase+i), trace))
	}
	return s
}

func buildCore(id int, setup CoreSetup, b *bus.Bus) *CoreUnit {
	u := &CoreUnit{
		ITCM:  mem.NewTCM(mem.TCMSize),
		DTCM:  mem.NewTCM(mem.TCMSize),
		setup: setup,
	}
	setup.CPU.CoreID = id

	iport := b.PortFor(imemMaster(id))
	dport := b.PortFor(dmemMaster(id))

	var ifAccess, dAccess routedClient
	if setup.CachesOn {
		u.ICache = cache.New(cache.ICacheConfig())
		u.DCache = cache.New(cache.DCacheConfig(setup.WriteAlloc))
		ifAccess = cache.NewCtrl(u.ICache, iport)
		dAccess = cache.NewCtrl(u.DCache, dport)
	} else {
		// The fetch-side bypass keeps a one-line prefetch buffer: pairs
		// inside a flash line can still dual-issue without caches.
		ifAccess = cache.NewBypass(iport, true)
		dAccess = cache.NewBypass(dport, false)
	}

	u.imem = &router{
		tcm:     cache.NewTCMClient(u.ITCM, mem.ITCMFor(id)),
		tcmBase: mem.ITCMFor(id),
		tcmSize: mem.TCMSize,
		def:     ifAccess,
	}
	u.dmem = &router{
		tcm:      cache.NewTCMClient(u.DTCM, mem.DTCMFor(id)),
		tcmBase:  mem.DTCMFor(id),
		tcmSize:  mem.TCMSize,
		tcm2:     cache.NewTCMClient(u.ITCM, mem.ITCMFor(id)),
		tcm2Base: mem.ITCMFor(id),
		uncached: cache.NewBypass(dport, false),
		def:      dAccess,
	}
	if !setup.CachesOn {
		// Flash is read-only, so a data-side line buffer is coherence-safe;
		// it gives software copy loops (the TCM-based strategy) the same
		// line-wide flash bursts the fetch unit enjoys. With the D-cache
		// enabled, flash data reads stay on the cached path instead.
		u.dmem.flash = cache.NewBypass(dport, true)
	}
	// The data-side uncached alias and the cached path share one bus port;
	// the router guarantees only one is in flight at a time.

	invalidate := func(sel int32) {
		if sel&1 != 0 && u.ICache != nil {
			u.ICache.InvalidateAll()
		}
		if sel&2 != 0 && u.DCache != nil {
			u.DCache.InvalidateAll()
		}
	}
	u.Core = cpu.New(setup.CPU, u.imem, u.dmem, invalidate, setup.Plane)
	return u
}

// Load programs the flash with an assembled image.
func (s *SoC) Load(p *asm.Program) error {
	if p.Base >= mem.FlashSize {
		return fmt.Errorf("soc: program base %#x outside flash", p.Base)
	}
	return s.Flash.LoadWords(p.Base, p.Words)
}

// Start resets core id and points it at entry. Inactive cores stay off.
func (s *SoC) Start(id int, entry uint32) {
	u := s.Cores[id]
	u.Core.Reset(entry)
	if !u.started && u.setup.Active {
		// Keep the stepping list in core-ID order regardless of Start order;
		// inserting in place keeps a full replay's Reset+Start allocation-free.
		i := 0
		for i < len(s.running) && s.running[i].Core.Config().CoreID < u.Core.Config().CoreID {
			i++
		}
		s.running = slices.Insert(s.running, i, u)
	}
	u.started = true
}

// Cycle returns the global cycle count.
func (s *SoC) Cycle() int64 { return s.cycle }

// SealBaseline captures the current SRAM and TCM contents as the state
// Reset restores. Call it once after loading programs and pattern tables;
// every later Reset rewinds the SoC to this point instead of power-on zero.
func (s *SoC) SealBaseline() {
	s.baseSRAM = s.SRAM.Snapshot()
	for id, u := range s.Cores {
		s.baseTCM[id][0] = u.ITCM.Snapshot()
		s.baseTCM[id][1] = u.DTCM.Snapshot()
	}
}

// Reset rewinds the whole SoC for another run on the same hardware: cycle
// counters, bus and replayer state, cache contents and statistics, memory
// clients, RAM/TCM data (restored to the sealed baseline, or zeroed when no
// baseline was sealed) and per-core architectural state. The flash image,
// bus topology and wiring survive, so a reset SoC behaves exactly like a
// freshly built one with the same program loaded — without reallocating
// anything.
func (s *SoC) Reset() {
	s.cycle = 0
	s.running = s.running[:0]
	s.Bus.Reset()
	for _, r := range s.replayers {
		r.Reset()
	}
	if s.baseSRAM != nil {
		s.SRAM.Restore(s.baseSRAM)
	} else {
		s.SRAM.Reset()
	}
	for id, u := range s.Cores {
		if img := s.baseTCM[id]; img[0] != nil {
			u.ITCM.Restore(img[0])
			u.DTCM.Restore(img[1])
		} else {
			u.ITCM.Reset()
			u.DTCM.Reset()
		}
		if u.ICache != nil {
			u.ICache.Reset()
		}
		if u.DCache != nil {
			u.DCache.Reset()
		}
		// Clients before the core: Core.Reset retracts in-flight fetches
		// through the (already idle) instruction-side client.
		u.imem.Reset()
		u.dmem.Reset()
		u.Core.Reset(0)
		u.started = false
	}
}

// SetPlane swaps core id's fault-injection plane (nil restores fault-free).
func (s *SoC) SetPlane(id int, p fault.Plane) { s.Cores[id].Core.SetPlane(p) }

// SetInjector attaches an interrupt-plan injector to core id (nil
// detaches): the pipeline half of the architectural interrupt subsystem —
// the same archint.Plan the functional reference recognises is driven
// into this core's ICU, retire-indexed. The attachment survives Reset.
func (s *SoC) SetInjector(id int, in *archint.Injector) { s.Cores[id].Core.SetInjector(in) }

// SetCoverage attaches one coverage map to every instrumented component of
// the system — all cores, their private caches, and the shared bus — so a
// run's microarchitectural coverage lands in a single map (nil detaches).
// The attachment survives Reset; the SoC must be stepped from a single
// goroutine for the shared map to be safe, which Step already requires.
func (s *SoC) SetCoverage(m *coverage.Map) {
	s.Bus.SetCoverage(m)
	for _, u := range s.Cores {
		u.Core.SetCoverage(m)
		if u.ICache != nil {
			u.ICache.SetCoverage(m, coverage.RoleICache)
		}
		if u.DCache != nil {
			u.DCache.SetCoverage(m, coverage.RoleDCache)
		}
		// TCM traffic: instruction fetches from the ITCM, the data-side
		// ITCM window (the TCM strategy's boot copy loop) and DTCM data.
		if tc, ok := u.imem.tcm.(*cache.TCMClient); ok {
			tc.SetCoverage(m, coverage.FeatTCMFetch, coverage.FeatTCMStageCode)
		}
		if tc, ok := u.dmem.tcm.(*cache.TCMClient); ok {
			tc.SetCoverage(m, coverage.FeatTCMDataRead, coverage.FeatTCMDataWrite)
		}
		if tc, ok := u.dmem.tcm2.(*cache.TCMClient); ok {
			tc.SetCoverage(m, coverage.FeatTCMStageCode, coverage.FeatTCMStageCode)
		}
		// The uncached data-side alias carries the scheduler barrier's
		// completion flags.
		if bp, ok := u.dmem.uncached.(*cache.Bypass); ok {
			bp.SetCoverage(m)
		}
	}
}

// Done reports whether every active started core has halted and drained.
func (s *SoC) Done() bool { return s.allDone() }

// Step advances the whole system one clock cycle.
func (s *SoC) Step() {
	s.cycle++
	s.Bus.Step()
	for _, r := range s.replayers {
		r.Step(s.Bus.Cycle())
	}
	for _, u := range s.running {
		if s.cycle <= int64(u.setup.StartDelay) {
			continue
		}
		u.Core.Step()
	}
}

// Result summarises a run.
type Result struct {
	Cycles   int64
	TimedOut bool
}

// Run steps until every active started core is done (halted and drained) or
// maxCycles elapse.
func (s *SoC) Run(maxCycles int64) Result {
	start := s.cycle
	for s.cycle-start < maxCycles {
		if s.allDone() {
			return Result{Cycles: s.cycle - start}
		}
		s.Step()
	}
	return Result{Cycles: s.cycle - start, TimedOut: !s.allDone()}
}

func (s *SoC) allDone() bool {
	for _, u := range s.running {
		if !u.Core.Done() {
			return false
		}
	}
	return true
}

// AttachRecorder installs a bus-traffic recorder that captures the
// transactions of every core except exceptID (pass -1 to record them all).
// The returned recorder's EventsByMaster output feeds Config.Replay.
func (s *SoC) AttachRecorder(exceptID int) *bus.Recorder {
	var masters []int
	for id := 0; id < NumCores; id++ {
		if id == exceptID {
			continue
		}
		masters = append(masters, imemMaster(id), dmemMaster(id))
	}
	rec := bus.NewRecorder(masters...)
	s.Bus.Attach(rec)
	return rec
}

// ActiveCount returns how many cores are configured active.
func (s *SoC) ActiveCount() int {
	n := 0
	for _, u := range s.Cores {
		if u.setup.Active {
			n++
		}
	}
	return n
}

// routedClient is a memory client the router both routes to and
// checkpoints. Holding clients under this static type keeps Save/Load free
// of interface type assertions, whose runtime caches allocate.
type routedClient interface {
	cache.Client
	cache.Stateful
}

// router dispatches memory accesses by address region: the core-private
// TCMs bypass the bus entirely; accesses to the uncached SRAM alias bypass
// the cache; everything else goes to the default path (cache controller or
// uncached bus client).
type router struct {
	tcm      routedClient
	tcmBase  uint32
	tcmSize  uint32
	tcm2     routedClient // data-side view of the ITCM (for TCM copy loops)
	tcm2Base uint32
	uncached routedClient // SRAM uncached-alias path (data side only)
	flash    routedClient // read-only flash window, line-buffered (data side)
	def      routedClient

	cur routedClient
}

func (r *router) pick(addr uint32, write bool) routedClient {
	if addr >= r.tcmBase && addr < r.tcmBase+r.tcmSize {
		return r.tcm
	}
	if r.tcm2 != nil && addr >= r.tcm2Base && addr < r.tcm2Base+mem.TCMSize {
		return r.tcm2
	}
	if r.uncached != nil && addr >= mem.SRAMUncachedBase &&
		addr < mem.SRAMUncachedBase+mem.SRAMSize {
		return r.uncached
	}
	if r.flash != nil && !write && addr < mem.FlashBase+mem.FlashSize {
		return r.flash
	}
	return r.def
}

func (r *router) Busy() bool { return r.cur != nil && r.cur.Busy() }

func (r *router) Start(addr uint32, write bool, wdata uint64, size int) {
	r.cur = r.pick(addr, write)
	r.cur.Start(addr, write, wdata, size)
}

func (r *router) Tick() (bool, uint64) {
	done, v := r.cur.Tick()
	if done {
		r.cur = nil
	}
	return done, v
}

func (r *router) TryAbort() bool {
	if r.cur == nil {
		return true
	}
	if r.cur.TryAbort() {
		r.cur = nil
		return true
	}
	return false
}

// Reset implements cache.Client: resets every routed client and drops the
// in-flight selection.
func (r *router) Reset() {
	for _, c := range r.clientList() {
		if c != nil {
			c.Reset()
		}
	}
	r.cur = nil
}

var _ cache.Client = (*router)(nil)
