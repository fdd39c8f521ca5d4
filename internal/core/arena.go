package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/archint"
	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// Arena is a reusable fault-simulation worker: one long-lived SoC with the
// program assembled and loaded exactly once, serving thousands of fault runs
// as reset + plane-swap instead of soc.New + reassemble + reload. The
// per-run hot path is allocation-free (TestArenaRunAllocationFree).
//
// An Arena additionally supports early exit on observable divergence: during
// construction it captures the golden run's observable trace (every
// data-side store the core under test performs, with value and cycle), and
// faulty runs are watched against that trace. Two watchdogs bound runs that
// can no longer reach a clean outcome long before the full cycle budget:
//
//   - hang: no observable store for more than 8x the golden run's largest
//     store-to-store gap (and at least one whole golden run) plus slack —
//     the wedged/deadlocked class, which under the plain budget burns 8x
//     the golden cycle count per fault;
//   - flood: a run that has observably diverged keeps storing past 8x the
//     golden store count (plus slack) — the runaway-loop class.
//
// The margins apply the same stall-factor assumption the campaign cycle
// budget (see RecordReplay) embodies, at store-gap rather than
// whole-run granularity, so both modes misclassify only runs slowed by
// more than 8x — and the mode-equivalence tests pin that they agree on
// every site of the shipped universes. ArenaOptions.NoEarlyExit restores
// the exact full-budget reference semantics. Runs that halt (cleanly or
// wedged) are never cut short, so their signatures are exact.
type Arena struct {
	s      *soc.SoC
	id     int
	entry  uint32
	budget int64
	early  bool

	// Construction inputs, kept so a quarantined arena can rebuild itself
	// and a dead one can fall back to rebuild-per-fault runs.
	cfg soc.Config
	job *CoreJob
	opt ArenaOptions

	// Golden observable trace and derived watchdog bounds.
	golden    []obsEvent
	hangLimit int64
	floodCap  int

	// Golden reference for the health check: the full result of the
	// construction-time capture run.
	goldenRes RunResult
	goldenOK  bool

	// Checkpointing state (nil/empty when ArenaOptions.CheckpointInterval
	// is zero or the golden capture failed). probe and ckpts are read-only
	// after construction and may be shared across arenas (see
	// newArenaClone); soc.State snapshots are plain data restorable into
	// any SoC built from the same config and programs.
	probe *fault.MuxProbe
	ckpts []checkpoint

	// Per-run monitor state (reset by Run).
	capturing bool
	idx       int
	count     int
	diverged  bool
	lastObs   int64

	// Failure-domain state. inRun is true while runOnce executes; finding
	// it still set on the next Run means the previous run panicked out
	// through the campaign's recover boundary. dead marks an arena whose
	// rebuild failed: it serves every remaining site via fallbackRun.
	inRun bool
	dead  bool

	// testPoison, when set (same-package tests only), runs after every
	// Reset inside runOnce — the hook the quarantine tests use to corrupt
	// post-Reset state.
	testPoison func(*soc.SoC)

	last RunResult

	// st holds the lifetime counters (Stats() fills in the derived
	// fields). path is the dispatch classification of the run in flight,
	// set by whichever serving path executes and folded into st.Dispatch
	// by Run. met carries the registry handles; its zero value (telemetry
	// detached) makes every metric update a nil-check no-op.
	st   ArenaStats
	path fault.DispatchPath
	met  arenaMetrics
}

// ArenaStats is one arena's lifetime counters as a plain snapshot.
// Campaign code folds the per-worker snapshots into campaign totals
// (fault.Report.Dispatch) and the run-summary JSON.
type ArenaStats struct {
	// Runs counts plane-swap runs served by the long-lived SoC, golden
	// capture included.
	Runs int64
	// EarlyExits counts runs the divergence watchdogs terminated before
	// the full budget.
	EarlyExits int64
	// HealthChecks counts golden-replay health probes.
	HealthChecks int64
	// Quarantines counts rebuilds after a failed health check.
	Quarantines int64
	// FallbackRuns counts sites served by fresh-SoC rebuild-per-fault
	// runs.
	FallbackRuns int64
	// CheckpointRuns counts runs started from a golden checkpoint.
	CheckpointRuns int64
	// GoldenServed counts sites served the golden verdict outright.
	GoldenServed int64
	// Dispatch classifies every site served through Run by the path that
	// served it (fallback runs included).
	Dispatch fault.DispatchStats
	// Checkpoints is the number of golden-run restore points held.
	Checkpoints int
	// GoldenEvents is the length of the captured observable trace.
	GoldenEvents int
	// GoldenOK reports a clean construction-time golden capture. Scenario
	// harnesses gate optional perturbations (an interrupt plan) on it.
	GoldenOK bool
	// Dead reports an arena that gave up on reuse (rebuild failed).
	Dead bool
}

// Stats snapshots the arena's lifetime counters.
func (a *Arena) Stats() ArenaStats {
	st := a.st
	st.Checkpoints = len(a.ckpts)
	st.GoldenEvents = len(a.golden)
	st.GoldenOK = a.goldenOK
	st.Dead = a.dead
	return st
}

// arenaMetrics holds the registry handles an arena updates on its hot
// path. All handles are nil when telemetry is detached; enabled gates the
// time.Now() calls so the detached path pays only nil checks.
type arenaMetrics struct {
	enabled      bool
	dispatch     [fault.NumDispatchPaths]*telemetry.Counter
	runNs        [fault.NumDispatchPaths]*telemetry.Histogram
	earlyExits   *telemetry.Counter
	healthChecks *telemetry.Counter
	quarantines  *telemetry.Counter
}

// newArenaMetrics resolves the arena metric names once. Worker arenas
// cloned from one prototype share the registry, so they land on the same
// atomic handles and their updates aggregate campaign-wide.
func newArenaMetrics(reg *telemetry.Registry) arenaMetrics {
	if reg == nil {
		return arenaMetrics{}
	}
	m := arenaMetrics{enabled: true}
	for p := fault.DispatchPath(0); p < fault.NumDispatchPaths; p++ {
		m.dispatch[p] = reg.Counter("arena_dispatch_" + p.String() + "_total")
		m.runNs[p] = reg.Histogram("arena_run_ns_" + p.String())
	}
	m.earlyExits = reg.Counter("arena_early_exits_total")
	m.healthChecks = reg.Counter("arena_health_checks_total")
	m.quarantines = reg.Counter("arena_quarantines_total")
	return m
}

// checkpoint is one golden-run restore point: the full SoC state at cycle,
// plus the arena monitor and Transition edge history a run restored there
// must resume with.
type checkpoint struct {
	cycle   int64
	state   *soc.State
	obsIdx  int
	lastObs int64
	hist    fault.MuxHistory
}

// obsEvent is one observable event: a completed data-side store of the core
// under test. The cycle stamp calibrates the hang watchdog; divergence
// compares only address, value and size (a faulty run that is merely slower
// is not observably divergent).
type obsEvent struct {
	addr  uint32
	val   uint64
	size  int
	cycle int64
}

// ArenaOptions tunes an Arena.
type ArenaOptions struct {
	// NoEarlyExit disables the divergence watchdogs; every run then uses
	// the full cycle budget. Together with checkpointing off this is the
	// reference mode: no early exit, no checkpoint restore, no
	// golden-verdict shortcut — the semantics every arena optimization is
	// differentially pinned against.
	NoEarlyExit bool
	// CheckpointInterval > 0 snapshots the golden capture run every that
	// many cycles and starts each Transition-fault run from the last
	// checkpoint before the site's first activating edge instead of
	// replaying the golden prefix from cycle 0 (sites that never activate
	// are served the golden verdict outright). Stuck-at sites always take
	// the full replay. Zero disables checkpointing; campaigns enable it by
	// default (see CampaignOptions.CheckpointInterval).
	CheckpointInterval int64
	// Plan, when enabled, drives a deterministic interrupt-event plan into
	// the core under test on every run (golden capture included) — the
	// fault x planned-interrupt cross of the multifault scenario. The
	// injector's delivery cursor rewinds with Reset but is not part of
	// soc.State snapshots, so an enabled plan forces checkpointing off.
	Plan archint.Plan
	// Telemetry, when non-nil, receives the arena's dispatch-path
	// counters and per-path run-latency histograms. Nil (the default)
	// disables metrics at zero cost — the nil-receiver contract of
	// internal/telemetry.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives a quarantine event whenever the
	// arena is rebuilt after a failed health check.
	Events *telemetry.EventLog
}

// NewArena assembles the SoC once and runs the fault-free golden once to
// capture the observable trace. cfg should carry the replayed background
// traffic; only core id is activated regardless of cfg's Active flags.
func NewArena(cfg soc.Config, id int, job *CoreJob, budget int64, opt ArenaOptions) (*Arena, error) {
	for k := 0; k < soc.NumCores; k++ {
		cfg.Cores[k].Active = k == id
		cfg.Cores[k].Plane = nil // planes are swapped per run
	}
	if opt.Plan.Enabled() {
		// soc.State snapshots do not cover the injector's delivery cursor
		// (see cpu.CoreState), so checkpoint restores would resume with a
		// stale cursor; plans force the full-replay path.
		opt.CheckpointInterval = 0
	}
	prog, err := buildProgram(job)
	if err != nil {
		return nil, fmt.Errorf("arena core%d: %w", id, err)
	}
	s := soc.New(cfg)
	if err := s.Load(prog); err != nil {
		return nil, fmt.Errorf("arena core%d: %w", id, err)
	}
	for _, r := range job.routines() {
		loadRoutineData(s, r)
	}
	s.SealBaseline()

	a := &Arena{s: s, id: id, entry: prog.Base, budget: budget, cfg: cfg, job: job, opt: opt,
		met: newArenaMetrics(opt.Telemetry)}
	s.Cores[id].Core.SetStoreObserver(a.observe)
	if opt.Plan.Enabled() {
		// The attachment survives Reset; the cursor rewinds with the core.
		s.SetInjector(id, archint.NewInjector(opt.Plan))
	}

	// Golden capture run: records the observable trace and calibrates the
	// watchdog bounds. With checkpointing on, the run additionally carries
	// the activation probe (an identity plane, so the run is still the
	// golden run) and snapshots the SoC every CheckpointInterval cycles.
	// When the capture fails (the campaign will reject the golden anyway)
	// early exit stays disabled, runs simply use the full budget, the
	// health check has no reference to replay against, and the
	// checkpoints are dropped — restored runs would have no golden
	// reference to be equivalent to.
	capturePlane := fault.Plane(fault.None)
	if opt.CheckpointInterval > 0 {
		a.probe = fault.NewMuxProbe(s.Cycle)
		capturePlane = a.probe
	}
	a.capturing = true
	_, ok, _ := a.runOnce(capturePlane)
	a.capturing = false
	if ok {
		a.goldenRes, a.goldenOK = a.last, true
		if !opt.NoEarlyExit {
			a.calibrate()
		}
	} else {
		a.probe, a.ckpts = nil, nil
	}
	return a, nil
}

// newArenaClone builds an additional worker arena from a prototype without
// re-running the golden capture: a fresh SoC over the same config and
// program, with the prototype's golden trace, watchdog bounds, activation
// probe and checkpoints shared read-only. Snapshots are plain data
// restorable into any identically-built SoC, so sharing ckpts across
// workers is safe.
func newArenaClone(proto *Arena) (*Arena, error) {
	prog, err := buildProgram(proto.job)
	if err != nil {
		return nil, fmt.Errorf("arena core%d: %w", proto.id, err)
	}
	s := soc.New(proto.cfg)
	if err := s.Load(prog); err != nil {
		return nil, fmt.Errorf("arena core%d: %w", proto.id, err)
	}
	for _, r := range proto.job.routines() {
		loadRoutineData(s, r)
	}
	s.SealBaseline()

	a := &Arena{
		s: s, id: proto.id, entry: prog.Base, budget: proto.budget,
		early: proto.early, cfg: proto.cfg, job: proto.job, opt: proto.opt,
		golden: proto.golden, hangLimit: proto.hangLimit,
		floodCap: proto.floodCap, goldenRes: proto.goldenRes,
		goldenOK: proto.goldenOK, probe: proto.probe, ckpts: proto.ckpts,
		met: newArenaMetrics(proto.opt.Telemetry),
	}
	s.Cores[a.id].Core.SetStoreObserver(a.observe)
	if a.opt.Plan.Enabled() {
		s.SetInjector(a.id, archint.NewInjector(a.opt.Plan))
	}
	return a, nil
}

// calibrate derives the watchdog bounds from the captured golden trace.
func (a *Arena) calibrate() {
	a.early = true
	if len(a.golden) == 0 {
		// No observable events at all: nothing to watch, keep the plain
		// budget (the hang limit below would equal it anyway).
		a.early = false
		return
	}
	var maxGap, prev int64
	for _, ev := range a.golden {
		if g := ev.cycle - prev; g > maxGap {
			maxGap = g
		}
		prev = ev.cycle
	}
	if g := a.last.Cycles - prev; g > maxGap {
		maxGap = g
	}
	a.hangLimit = maxGap * budgetFactor
	if a.hangLimit < a.last.Cycles {
		// Never call a run hung for a silence shorter than one entire
		// golden run: routines with dense stores would otherwise get an
		// aggressive limit, and a hung run still stops at ~1/8 of the
		// full campaign budget.
		a.hangLimit = a.last.Cycles
	}
	a.hangLimit += budgetSlack
	a.floodCap = len(a.golden)*budgetFactor + 1_000
}

// observe receives every completed store of the core under test.
func (a *Arena) observe(addr uint32, val uint64, size int) {
	a.lastObs = a.s.Cycle()
	if a.capturing {
		a.golden = append(a.golden, obsEvent{addr: addr, val: val, size: size, cycle: a.lastObs})
		return
	}
	if !a.diverged {
		if a.idx >= len(a.golden) {
			a.diverged = true
		} else if g := a.golden[a.idx]; g.addr != addr || g.val != val || g.size != size {
			a.diverged = true
		}
		a.idx++
	}
	a.count++
}

// Run executes one fault run under plane p (fault.None for golden) and
// reports the final signature plus whether the run completed cleanly. It is
// the fault.RunFunc of this arena; each arena serves one worker goroutine.
//
// Run is also the arena's failure-domain boundary. A run that ends
// anomalously — panicked out through the campaign's recover boundary, or
// cut by a watchdog (early exit or budget exhaustion) — may have left state
// behind that Reset cannot rewind, so before the verdict stands the arena
// replays the golden run and requires the construction-time RunResult
// exactly. A failed health check quarantines the arena: it is rebuilt from
// scratch and the suspect site is re-run on a fresh SoC (rebuild-per-fault
// semantics), so one corrupt Reset can never silently
// skew subsequent verdicts. If even the rebuild fails the arena is dead
// and serves every remaining site via fresh-SoC runs.
func (a *Arena) Run(p fault.Plane) (sig uint32, ok bool) {
	// Classify the site by the path that ends up serving it (the serving
	// paths overwrite a.path) and time the whole service, health checks
	// and fallbacks included — the latency the campaign actually paid.
	// The fault-free golden verification run is not a site: it stays out
	// of the dispatch counts so Dispatch.Total() matches the sites served.
	a.path = fault.DispatchFullReplay
	var t0 time.Time
	if a.met.enabled {
		t0 = time.Now()
	}
	sig, ok = a.serve(p)
	if p != fault.None {
		a.st.Dispatch[a.path]++
		if a.met.enabled {
			a.met.dispatch[a.path].Inc()
			a.met.runNs[a.path].Observe(time.Since(t0).Nanoseconds())
		}
	}
	return sig, ok
}

// serve is the Run body: failure-domain validation around the dispatch.
func (a *Arena) serve(p fault.Plane) (sig uint32, ok bool) {
	if a.dead {
		return a.fallbackRun(p)
	}
	if a.inRun {
		// The previous run never returned: it panicked and the campaign's
		// recover boundary caught it. Validate the arena before serving
		// another site.
		a.inRun = false
		if !a.healthy() {
			a.quarantine()
			if a.dead {
				return a.fallbackRun(p)
			}
		}
	}
	a.inRun = true
	sig, ok, cut := a.dispatch(p)
	a.inRun = false
	if cut && !a.healthy() {
		a.quarantine()
		return a.fallbackRun(p)
	}
	return sig, ok
}

// dispatch picks the cheapest sound way to serve plane p. Transition
// faults are transparent until their site's first activating edge, which
// the construction-time probe recorded: sites that never activate are
// served the golden verdict outright, and activating sites start from the
// last golden checkpoint before their activation cycle with the plane's
// edge history seeded from the checkpoint. Everything else — stuck-at
// sites, the fault-free plane, unknown plane types — takes the full
// replay from cycle 0.
func (a *Arena) dispatch(p fault.Plane) (sig uint32, ok, cut bool) {
	t, isTransition := p.(*fault.Transition)
	if !isTransition || a.probe == nil || !a.goldenOK {
		return a.runOnce(p)
	}
	act := a.probe.FirstActivation(t.S)
	if act < 0 {
		// The fault never modifies a delivered value: its run is
		// bit-identical to the golden run, so serve the golden verdict.
		a.st.GoldenServed++
		a.path = fault.DispatchGolden
		a.last = a.goldenRes
		return a.goldenRes.Signature, a.goldenRes.OK, false
	}
	if ck := a.checkpointBefore(act); ck != nil {
		return a.runFrom(ck, t)
	}
	return a.runOnce(p)
}

// checkpointBefore returns the latest golden checkpoint strictly before
// cycle act, or nil when none exists (activation inside the first
// interval, or checkpointing produced no snapshots).
func (a *Arena) checkpointBefore(act int64) *checkpoint {
	for i := len(a.ckpts) - 1; i >= 0; i-- {
		if a.ckpts[i].cycle < act {
			return &a.ckpts[i]
		}
	}
	return nil
}

// runFrom executes a Transition run starting from a golden checkpoint
// instead of cycle 0: SoC state restored, plane edge history seeded from
// the checkpoint, and the divergence monitor resumed at the checkpoint's
// trace position. Sound because the faulty run is bit-identical to the
// golden run before the site's first activating edge, which the caller
// guarantees lies after the checkpoint.
func (a *Arena) runFrom(ck *checkpoint, t *fault.Transition) (sig uint32, ok, cut bool) {
	s := a.s
	s.Restore(ck.state)
	if a.testPoison != nil {
		a.testPoison(s)
	}
	t.SeedHistory(ck.hist.For(t.S))
	s.SetPlane(a.id, t)
	a.idx, a.count, a.diverged, a.lastObs = ck.obsIdx, ck.obsIdx, false, ck.lastObs
	a.st.Runs++
	a.st.CheckpointRuns++
	a.path = fault.DispatchCheckpoint
	return a.stepRun()
}

// runOnce executes one reset + plane-swap run from cycle 0. cut reports an
// anomalous ending: a watchdog abort or budget exhaustion before the SoC
// drained (wedged cores halt and drain normally, so they are not cut).
func (a *Arena) runOnce(p fault.Plane) (sig uint32, ok, cut bool) {
	s := a.s
	s.Reset()
	if a.testPoison != nil {
		a.testPoison(s)
	}
	// The plane may have served an earlier run (fallback and re-run
	// paths); stale Transition edge history — directly or inside a
	// Composite — must not leak into this run.
	fault.ResetPlaneState(p)
	s.SetPlane(a.id, p)
	s.Start(a.id, a.entry)
	a.idx, a.count, a.diverged, a.lastObs = 0, 0, false, 0
	a.st.Runs++
	return a.stepRun()
}

// stepRun steps the prepared SoC (reset or checkpoint-restored, plane set,
// monitor state primed) to completion and extracts the verdict. The cycle
// budget is absolute: a checkpoint-restored run is charged for the skipped
// prefix, so its verdict matches the full replay's exactly.
func (a *Arena) stepRun() (sig uint32, ok, cut bool) {
	s := a.s
	aborted := false
	cycles := s.Cycle()
	for cycles < a.budget {
		if s.Done() {
			break
		}
		s.Step()
		cycles = s.Cycle()
		if a.capturing {
			if iv := a.opt.CheckpointInterval; a.probe != nil && iv > 0 &&
				cycles%iv == 0 && !s.Done() {
				a.ckpts = append(a.ckpts, checkpoint{
					cycle:   cycles,
					state:   s.Snapshot(),
					obsIdx:  len(a.golden),
					lastObs: a.lastObs,
					hist:    a.probe.History(),
				})
			}
			continue
		}
		if a.early {
			if cycles-a.lastObs > a.hangLimit || (a.diverged && a.count > a.floodCap) {
				aborted = true
				a.st.EarlyExits++
				a.met.earlyExits.Inc()
				break
			}
		}
	}

	u := s.Cores[a.id]
	done := s.Done() && !aborted
	a.last = RunResult{
		Signature: u.Core.Reg(isa.RegSig),
		OK:        done && !u.Core.Wedged(),
		Wedged:    u.Core.Wedged(),
		Cycles:    u.Core.Cycle(),
		IFStall:   u.Core.Counter(fault.CntIFStall),
		MemStall:  u.Core.Counter(fault.CntMemStall),
		HazStall:  u.Core.Counter(fault.CntHazStall),
		Issued2:   u.Core.Counter(fault.CntIssued2),
		Instret:   u.Core.Counter(fault.CntInstret),
	}
	return a.last.Signature, a.last.OK, !done
}

// healthy replays the golden run and compares the full RunResult against
// the construction-time capture — the same equivalence the
// TestArenaResetMatchesFreshSoC family pins for normal runs, applied as an
// online probe. Without a golden reference (capture failed) the check is
// vacuous: the campaign rejects such goldens wholesale.
func (a *Arena) healthy() (healthy bool) {
	if !a.goldenOK {
		return true
	}
	a.st.HealthChecks++
	a.met.healthChecks.Inc()
	saved := a.last
	defer func() {
		a.last = saved
		if recover() != nil {
			healthy = false
		}
	}()
	_, ok, cut := a.runOnce(fault.None)
	return ok && !cut && a.last == a.goldenRes
}

// quarantine retires the poisoned SoC and rebuilds the arena in place,
// keeping the lifetime counters. A failed rebuild marks the arena dead.
func (a *Arena) quarantine() {
	st := a.st
	st.Quarantines++
	fresh, err := NewArena(a.cfg, a.id, a.job, a.budget, a.opt)
	if err != nil {
		a.dead = true
		a.st.Quarantines = st.Quarantines
		a.noteQuarantine()
		return
	}
	// fresh ran its own golden capture: its run counters fold into the
	// lifetime stats, everything else carries over unchanged.
	st.Runs += fresh.st.Runs
	st.EarlyExits += fresh.st.EarlyExits
	*a = *fresh
	a.st = st
	// The copied SoC still notifies fresh's observer; re-point it at this
	// arena so the monitor state it updates is the state Run consults.
	a.s.Cores[a.id].Core.SetStoreObserver(a.observe)
	a.noteQuarantine()
}

// noteQuarantine reports a quarantine to the telemetry sinks (counter and
// event stream), including whether the rebuild failed and left the arena
// dead.
func (a *Arena) noteQuarantine() {
	a.met.quarantines.Inc()
	if a.opt.Events != nil {
		a.opt.Events.Emit(telemetry.Event{
			Kind: telemetry.EventQuarantine, Core: a.id, Dead: a.dead,
		})
	}
}

// fallbackRun serves one site with rebuild-per-fault semantics: a
// fresh SoC, freshly assembled program and the full cycle budget. Used for
// the site whose run poisoned the arena and for every site after the arena
// died. Stateful planes are reset first: the plane object may already have
// executed on the poisoned arena, and its edge history must not leak into
// the fresh-SoC verdict. A failed rebuild panics (into the campaign's
// recover boundary, which records a Panicked verdict and counts an
// anomaly) rather than masquerading as a crashed fault run — a build
// failure is an engine fault, not a property of the site.
func (a *Arena) fallbackRun(p fault.Plane) (sig uint32, ok bool) {
	a.st.FallbackRuns++
	a.path = fault.DispatchFallback
	fault.ResetPlaneState(p)
	c := a.cfg
	c.Cores[a.id].Plane = p
	var jobs [soc.NumCores]*CoreJob
	jobs[a.id] = a.job
	var setup func(*soc.SoC)
	if a.opt.Plan.Enabled() {
		plan := a.opt.Plan
		setup = func(s *soc.SoC) { s.SetInjector(a.id, archint.NewInjector(plan)) }
	}
	res, _, err := RunJobsSetup(c, jobs, a.budget, nil, setup)
	if err != nil {
		panic(fmt.Sprintf("arena core%d: fallback run failed: %v", a.id, err))
	}
	if res[a.id] == nil {
		panic(fmt.Sprintf("arena core%d: fallback run produced no result", a.id))
	}
	return res[a.id].Signature, res[a.id].OK
}

// SoC exposes the underlying system (cache statistics, bus state) for
// inspection after a run.
func (a *Arena) SoC() *soc.SoC { return a.s }

// Last returns the full result of the most recent Run.
func (a *Arena) Last() RunResult { return a.last }

// CampaignOptions tunes RunCampaignOpts beyond the engine mode.
type CampaignOptions struct {
	// Workers is the worker-pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Reference runs the arenas in reference mode: full cycle budget per
	// run (no early exit), no checkpoint restore, no golden-verdict
	// shortcut. Reports are bit-identical to the optimized mode — that
	// equivalence is what the conformance oracle checks over full
	// universes. (The reference mode inherited its own pin from the
	// retired rebuild-per-fault legacy engine; see
	// TestArenaNoEarlyExitMatchesLegacy.)
	Reference bool
	// Journal, when non-empty, is the path of the verdict journal.
	// Combined with Resume, settled sites are folded in from the file;
	// otherwise the file is created fresh (truncating any previous one).
	Journal string
	// Resume loads Journal (which must carry this campaign's fingerprint)
	// and skips its settled sites.
	Resume bool
	// CheckpointInterval controls golden-run checkpointing in the
	// optimized mode: 0 picks an automatic interval from the cycle budget,
	// negative disables checkpointing, positive is the exact interval in
	// cycles. Checkpointing is a pure execution-strategy choice — reports
	// are bit-identical either way — so it does not enter the campaign
	// fingerprint and journals transfer across settings. Ignored in
	// reference mode, which never checkpoints.
	CheckpointInterval int64
	// Telemetry, when non-nil, receives the campaign metrics: arena
	// dispatch-path counters and latency histograms, settle rates and
	// verdict-class counts, journal-append latency. All workers share the
	// registry's atomics. Nil disables metrics at zero cost (a progress
	// interval alone spins up an internal registry for its rate math).
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the campaign event stream:
	// start/progress/site/quarantine/finish JSONL records.
	Events *telemetry.EventLog
	// OnSettle, when non-nil, is invoked once per settled verdict with the
	// site's index in the sites slice (passed through to
	// fault.SimOptions.OnSettle). It runs on worker goroutines and must be
	// safe for concurrent calls.
	OnSettle func(i int, res fault.SiteResult, fromJournal bool)
	// OnGolden, when non-nil, receives the golden verdict before any site
	// settles (passed through to fault.SimOptions.OnGolden).
	OnGolden func(sig uint32, ok bool)
	// Progress > 0 prints a progress line (settled/total, rate, ETA,
	// shortcut rate) to ProgressWriter every interval, and emits progress
	// events when Events is set.
	Progress time.Duration
	// ProgressWriter receives the progress lines; nil means os.Stderr.
	ProgressWriter io.Writer
}

// resolveCheckpointInterval maps the CampaignOptions knob to the
// ArenaOptions value. The automatic interval targets a restore point
// roughly every 1/8 of a golden run (the budget is 8x golden plus slack,
// so budget/64 approximates goldenCycles/8), clamped below so snapshot
// traffic stays negligible next to stepping on long runs and above so
// short campaigns still get useful prefix-skip granularity.
func resolveCheckpointInterval(opt int64, budget int64) int64 {
	switch {
	case opt < 0:
		return 0
	case opt > 0:
		return opt
	}
	iv := budget / 64
	if iv < 256 {
		iv = 256
	}
	if iv > 16_384 {
		iv = 16_384
	}
	return iv
}

// CampaignFingerprint content-addresses the campaign as a pure function:
// the assembled program image and routine data tables, the ordered fault
// universe, and the execution environment (core, budget, SoC configuration
// with replayed traffic). Two campaigns with equal fingerprints compute
// identical reports, which is what makes journaled verdicts transferable
// across process restarts.
func CampaignFingerprint(cfg soc.Config, id int, job *CoreJob, sites []fault.Site, budget int64) (fault.JournalHeader, error) {
	prog, err := buildProgram(job)
	if err != nil {
		return fault.JournalHeader{}, err
	}
	ph := fnv.New64a()
	fmt.Fprintf(ph, "base %08x:", prog.Base)
	for _, w := range prog.Words {
		fmt.Fprintf(ph, "%08x", w)
	}
	for _, r := range job.routines() {
		fmt.Fprintf(ph, "|data %08x:", r.DataBase)
		for _, w := range r.DataWords {
			fmt.Fprintf(ph, "%08x", w)
		}
	}
	eh := fnv.New64a()
	for k := 0; k < soc.NumCores; k++ {
		// Normalise exactly like NewArena/fallbackRun: only core id is
		// active and planes are per-run state, not environment.
		cfg.Cores[k].Active = k == id
		cfg.Cores[k].Plane = nil
	}
	fmt.Fprintf(eh, "core %d budget %d cfg %+v", id, budget, cfg)
	return fault.JournalHeader{
		Program:  fmt.Sprintf("%016x", ph.Sum64()),
		Universe: fault.HashSites(sites),
		Env:      fmt.Sprintf("%016x", eh.Sum64()),
		Sites:    len(sites),
	}, nil
}

// Campaign budget policy: every fault run may take budgetFactor times the
// golden run's cycles plus budgetSlack before the watchdog calls it hung.
// The arena's early-exit watchdogs apply the same factor and slack at
// store-gap granularity (see Arena.calibrate). goldenCap bounds the
// fault-free full-system run itself.
const (
	budgetFactor = 8
	budgetSlack  = 20_000
	goldenCap    = 10_000_000
)

// RecordReplay is the one campaign builder: it runs the fault-free
// full-system golden of jobs under cfg while recording every core's bus
// traffic except core id's, requires a clean run on core id, and returns
// cfg with that traffic set as the replayed background plus the per-run
// cycle budget derived from the golden cycle count. Every fault campaign
// then simulates core id alone against the replay.
func RecordReplay(cfg soc.Config, jobs [soc.NumCores]*CoreJob, id int) (replay soc.Config, budget int64, err error) {
	var rec *bus.Recorder
	results, _, err := RunJobsSetup(cfg, jobs, goldenCap, nil, func(s *soc.SoC) {
		rec = s.AttachRecorder(id)
	})
	if err != nil {
		return soc.Config{}, 0, fmt.Errorf("golden run: %w", err)
	}
	golden := results[id]
	if !golden.OK {
		return soc.Config{}, 0, fmt.Errorf("golden run failed on core %d", id)
	}
	cfg.Replay = rec.EventsByMaster()
	return cfg, golden.Cycles*budgetFactor + budgetSlack, nil
}

// RunCampaignOpts fault-simulates job on core id for every site, in the
// replay environment cfg with the given per-run cycle budget — the shared
// engine dispatch behind experiments campaigns, conform, cmd/faultsim and
// the campaign service. Each worker drives one reusable Arena;
// opt.Reference selects the full-budget reference mode (no early exit, no
// checkpointing, no golden-verdict shortcut), and both modes produce
// identical reports. With a journal, verdicts stream to an append-only
// file as they settle, and a resumed campaign skips the sites the journal
// already settles — producing a report bit-identical to the uninterrupted
// run.
func RunCampaignOpts(cfg soc.Config, id int, job *CoreJob, sites []fault.Site, budget int64, opt CampaignOptions) (fault.Report, error) {
	reg := opt.Telemetry
	if reg == nil && opt.Progress > 0 {
		// The progress line computes rates from registry counters; give it
		// a private registry when the caller did not attach one.
		reg = telemetry.NewRegistry()
	}
	var simOpt fault.SimOptions
	simOpt.Telemetry = reg
	simOpt.Events = opt.Events
	simOpt.OnSettle = opt.OnSettle
	simOpt.OnGolden = opt.OnGolden
	if opt.Journal != "" {
		header, err := CampaignFingerprint(cfg, id, job, sites, budget)
		if err != nil {
			return fault.Report{}, err
		}
		var j *fault.Journal
		if opt.Resume {
			j, err = fault.ResumeJournal(opt.Journal, header)
		} else {
			j, err = fault.CreateJournal(opt.Journal, header)
		}
		if err != nil {
			return fault.Report{}, err
		}
		defer j.Close()
		simOpt.Journal = j
	}
	// Arena 0 runs the one golden capture (with checkpointing unless
	// disabled); the remaining workers are clones sharing its golden
	// trace, probe and checkpoints over their own SoCs, so campaign
	// startup costs one golden-run latency total.
	aOpt := ArenaOptions{CheckpointInterval: resolveCheckpointInterval(opt.CheckpointInterval, budget)}
	if opt.Reference {
		aOpt = ArenaOptions{NoEarlyExit: true}
	}
	aOpt.Telemetry = reg
	aOpt.Events = opt.Events
	proto, err := NewArena(cfg, id, job, budget, aOpt)
	if err != nil {
		return fault.Report{}, err
	}
	n := fault.Workers(opt.Workers, len(sites))
	arenas := make([]*Arena, n)
	errs := make([]error, n)
	arenas[0] = proto
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arenas[w], errs[w] = newArenaClone(proto)
		}(w)
	}
	wg.Wait()
	runners := make([]fault.RunFunc, n)
	for w := range runners {
		if errs[w] != nil {
			return fault.Report{}, errs[w]
		}
		runners[w] = arenas[w].Run
	}
	if opt.Events != nil {
		opt.Events.Emit(telemetry.Event{
			Kind: telemetry.EventStart, Sites: len(sites), Workers: n,
		})
	}
	start := time.Now()
	prog := campaignProgress(reg, opt, len(sites), start)
	rep, err := fault.SimulateOpts(sites, runners, simOpt)
	prog.Stop()
	if err != nil {
		return rep, err
	}
	for _, a := range arenas {
		rep.Dispatch.Add(a.Stats().Dispatch)
	}
	if opt.Events != nil {
		opt.Events.Emit(telemetry.Event{
			Kind: telemetry.EventFinish, Sites: len(sites),
			Settled:       int64(len(rep.Results)),
			DetectedTotal: int64(rep.Detected),
			ElapsedNs:     time.Since(start).Nanoseconds(),
		})
	}
	return rep, nil
}

// campaignProgress starts the periodic progress line (nil when disabled).
// The tick reads only registry atomics — the worker arenas own all other
// state — so it is safe alongside the running campaign.
func campaignProgress(reg *telemetry.Registry, opt CampaignOptions, total int, start time.Time) *telemetry.Ticker {
	if opt.Progress <= 0 {
		return nil
	}
	w := opt.ProgressWriter
	if w == nil {
		w = os.Stderr
	}
	settled := reg.Counter("campaign_sites_settled_total")
	detected := reg.Counter("campaign_verdict_detected_total")
	ckpt := reg.Counter("arena_dispatch_" + fault.DispatchCheckpoint.String() + "_total")
	golden := reg.Counter("arena_dispatch_" + fault.DispatchGolden.String() + "_total")
	return telemetry.StartTicker(opt.Progress, func() {
		s := settled.Value()
		elapsed := time.Since(start)
		rate := float64(s) / elapsed.Seconds()
		var eta time.Duration
		if rate > 0 && s < int64(total) {
			eta = time.Duration(float64(int64(total)-s) / rate * float64(time.Second))
		}
		hit := 0.0
		if s > 0 {
			hit = 100 * float64(ckpt.Value()+golden.Value()) / float64(s)
		}
		fmt.Fprintf(w, "progress: %d/%d sites, %.1f sites/s, ETA %s, %.0f%% checkpoint-hit\n",
			s, total, rate, eta.Round(time.Second), hit)
		if opt.Events != nil {
			opt.Events.Emit(telemetry.Event{
				Kind: telemetry.EventProgress, Settled: s,
				DetectedTotal: detected.Value(), Rate: rate,
				ETANs: eta.Nanoseconds(), ElapsedNs: elapsed.Nanoseconds(),
			})
		}
	})
}
