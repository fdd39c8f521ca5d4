package conform

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"

	"repro/internal/archint"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/sbst"
	"repro/internal/soc"
)

const (
	codeBase = soc.CodeLow

	// issBudget bounds the interpreter run (instructions); socBudget the
	// pipeline runs (cycles, generously above any generated program).
	issBudget = 200_000
	socBudget = 20_000_000

	// arenaBudget is the per-run cycle budget handed to fault-free arena
	// checks.
	arenaBudget = 2_000_000
)

// Mutation rewrites decoded instructions before they reach the target
// engine — the harness's model of a decoder bug. The interpreter always
// runs the clean image, so any semantic effect of the mutation is caught
// as a differential mismatch. Used by the self-test mode that proves the
// harness can catch and minimize an injected bug.
type Mutation func(isa.Inst) isa.Inst

// DecoderBugArithShift is the canonical injected bug: the decoder loses
// the arithmetic/logical distinction of right shifts (SRA decodes as SRL,
// SRAV as SRLV) — wrong only when the shifted value is negative.
func DecoderBugArithShift(i isa.Inst) isa.Inst {
	switch i.Op {
	case isa.OpSRA:
		i.Op = isa.OpSRL
	case isa.OpSRAV:
		i.Op = isa.OpSRLV
	}
	return i
}

// CrashBug is the self-test's injected harness defect: a target-side
// mutation that panics on the first decodable instruction instead of
// diverging — the model of an engine bug that crashes mid-check. The fuzz
// loop must isolate it (panicked mismatch, recipe saved, loop continues)
// rather than die.
func CrashBug(i isa.Inst) isa.Inst {
	panic(fmt.Sprintf("injected crash bug on %v", i.Op))
}

// mutate returns a copy of prog with the mutation applied to every word
// that decodes. Generated programs contain no data words, so this is
// exactly "the target decodes the same image differently".
func mutate(prog *asm.Program, mut Mutation) *asm.Program {
	cp := *prog
	cp.Words = append([]uint32(nil), prog.Words...)
	for i, w := range cp.Words {
		inst, err := isa.Decode(w)
		if err != nil {
			continue
		}
		m := mut(inst)
		if m == inst {
			continue
		}
		if w2, err := isa.Encode(m); err == nil {
			cp.Words[i] = w2
		}
	}
	return &cp
}

// Scenario is one conformance check, identified by name for -scenario
// flags and repro command lines. Program scenarios additionally expose
// program-level checking (CheckProgram) and the coverage-guided corpus
// loop (Fuzz); the campaign scenario has neither.
type Scenario struct {
	Name string
	Desc string
	run  func(seed int64) *Mismatch
	spec *progSpec // program-level access; nil for the campaign scenario
	mut  Mutation  // injected target-side decoder bug (self-test); nil normally
}

// guardCheck runs one differential check behind the harness's recover
// boundary. A panicking check returns a "panic: ..." detail plus the
// captured stack instead of unwinding into the sweep or fuzz loop — the
// same isolation fault campaigns apply per run.
func guardCheck(f func() string) (detail, stack string) {
	defer func() {
		if v := recover(); v != nil {
			detail = fmt.Sprintf("panic: %v", v)
			stack = string(debug.Stack())
		}
	}()
	return f(), ""
}

// guardRecheck wraps a minimization recheck the same way: a reduction that
// panics is still a failing reduction, so panicking mismatches minimize
// like any other.
func guardRecheck(f func() string) string {
	d, _ := guardCheck(f)
	return d
}

// Run executes one iteration. A nil result means the engines agreed. A
// panic anywhere in the check surfaces as a Panicked mismatch instead of
// killing the caller.
func (s *Scenario) Run(seed int64) (m *Mismatch) {
	defer func() {
		if v := recover(); v != nil {
			m = &Mismatch{
				Scenario: s.Name,
				Seed:     seed,
				Detail:   fmt.Sprintf("panic: %v", v),
				Panicked: true,
				Stack:    string(debug.Stack()),
			}
		}
	}()
	return s.run(seed)
}

// Guidable reports whether the scenario runs generated programs and so
// supports coverage collection and guided fuzzing.
func (s *Scenario) Guidable() bool { return s.spec != nil }

// Skips reports the explicit skip verdicts this scenario instance has
// recorded so far: wrappings a strategy rejected (MemoryOverhead/Validate)
// and out-of-scope programs a cross-scenario corpus handed over. Skips are
// deliberately loud in the totals — a scenario that silently passed what
// it never ran would hide coverage holes.
func (s *Scenario) Skips() int {
	if s.spec == nil || s.spec.skips == nil {
		return 0
	}
	return *s.spec.skips
}

// FullSkips reports iterations where the scenario compared NOTHING — every
// wrapping was rejected or the whole program was out of scope. A window of
// seeds producing only full skips means the scenario has stopped testing
// anything, which CI treats as a failure rather than a silent pass.
func (s *Scenario) FullSkips() int {
	if s.spec == nil || s.spec.fullSkips == nil {
		return 0
	}
	return *s.spec.fullSkips
}

// CheckProgram runs one specific program through the scenario's engines,
// collecting coverage into cov when non-nil. A nil result means the
// engines agreed. Only valid on Guidable scenarios.
func (s *Scenario) CheckProgram(p *progen.Program, cov *coverage.Map) *Mismatch {
	detail, stack := guardCheck(func() string { return s.spec.check(p, s.mut, cov) })
	if detail == "" {
		return nil
	}
	m := &Mismatch{
		Scenario: s.Name,
		Seed:     p.Seed,
		Detail:   detail,
		Panicked: stack != "",
		Stack:    stack,
		Program:  p,
		recheckProg: func(q *progen.Program) string {
			return guardRecheck(func() string { return s.spec.check(q, s.mut, nil) })
		},
	}
	s.spec.decorateSched(m)
	return m
}

// CheckProgramWithLibs is CheckProgram with an explicit scheduler
// library-task list — the form a minimized sched artifact carries. A sched
// mismatch's unit drops are validated against its reduced task list, so
// replaying the recipe with the full seed-derived list may legitimately
// pass; replaying with the saved list reproduces. Scenarios other than
// sched (and a nil libs) fall back to CheckProgram.
func (s *Scenario) CheckProgramWithLibs(p *progen.Program, libs []string, cov *coverage.Map) *Mismatch {
	if !s.spec.sched || libs == nil {
		return s.CheckProgram(p, cov)
	}
	detail, stack := guardCheck(func() string { return s.spec.checkSched(p, libs, cov) })
	if detail == "" {
		return nil
	}
	sp := s.spec
	return &Mismatch{
		Scenario: s.Name,
		Seed:     p.Seed,
		Detail:   detail,
		Panicked: stack != "",
		Stack:    stack,
		Program:  p,
		LibTasks: libs,
		recheckProg: func(q *progen.Program) string {
			return guardRecheck(func() string { return sp.checkSched(q, libs, nil) })
		},
		recheckSched: func(q *progen.Program, l []string) string {
			return guardRecheck(func() string { return sp.checkSched(q, l, nil) })
		},
	}
}

// Scenarios returns the full conformance suite.
func Scenarios() []*Scenario {
	out := []*Scenario{}
	for _, spec := range progSpecs {
		spec := spec
		spec.skips = new(int)
		spec.fullSkips = new(int)
		out = append(out, &Scenario{
			Name: spec.name,
			Desc: spec.desc,
			run:  func(seed int64) *Mismatch { return spec.runSeed(seed, nil) },
			spec: &spec,
		})
	}
	out = append(out, &Scenario{
		Name: "campaign",
		Desc: "random full fault universes: optimized vs reference arena reports must be bit-identical",
		run:  runCampaignSeed,
	})
	out = append(out, &Scenario{
		Name: "multifault",
		Desc: "coverage-steered multi-fault pair universes (with planned-interrupt crosses): both arena modes must agree",
		run:  runMultifaultSeed,
	})
	return out
}

// Lookup resolves a scenario by name.
func Lookup(name string) (*Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range Scenarios() {
		names = append(names, s.Name)
	}
	return nil, fmt.Errorf("conform: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
}

// NewMutated returns a copy of a program scenario with a target-side
// decoder mutation injected — the self-test mode. Campaign scenarios have
// no decoder in the loop, and the arena, strategies and sched scenarios
// hand the program to their engines as a routine rather than an image, so
// none of those can be mutated.
func NewMutated(name string, mut Mutation) (*Scenario, error) {
	for _, spec := range progSpecs {
		if spec.name == name && spec.mutable() {
			spec := spec
			spec.skips = new(int)
			spec.fullSkips = new(int)
			return &Scenario{
				Name: spec.name,
				Desc: spec.desc + " (injected decoder bug)",
				run:  func(seed int64) *Mismatch { return spec.runSeed(seed, mut) },
				spec: &spec,
				mut:  mut,
			}, nil
		}
	}
	return nil, fmt.Errorf("conform: no mutable program scenario %q", name)
}

// progSpec is one program-level scenario shape.
type progSpec struct {
	name, desc      string
	cached, contend bool
	arena           bool
	// intr makes the seed sweep generate handler-carrying programs with a
	// deterministic interrupt-event plan: the ISS runs the archint
	// recognition model, the pipeline gets the same plan through the ICU
	// injection shim.
	intr bool
	// strat compares the program under every wrapping strategy against the
	// ISS reference signature; sched fuzzes Partition plans against serial
	// one-core execution (see strategies.go).
	strat bool
	sched bool
	// skips counts explicit skip verdicts (strategy/scheduler wrapping
	// rejections, out-of-scope programs); allocated per Scenario instance.
	skips *int
	// fullSkips counts iterations that skipped ENTIRELY — not one wrapping
	// among several, but a program the scenario compared nothing for.
	fullSkips *int
}

// skip records one explicit skip verdict.
func (sp progSpec) skip() {
	if sp.skips != nil {
		*sp.skips++
	}
}

// fullSkip records an iteration that compared nothing at all.
func (sp progSpec) fullSkip() {
	if sp.fullSkips != nil {
		*sp.fullSkips++
	}
}

// mutable reports whether the scenario runs the assembled image directly
// on the target (and so supports an injected decoder mutation). The arena,
// strategies and sched scenarios re-emit the program through routines and
// strategy wrappers — there is no shared image to mutate.
func (sp progSpec) mutable() bool { return !sp.arena && !sp.strat && !sp.sched }

var progSpecs = []progSpec{
	{name: "cached", desc: "ISS vs pipeline, private caches on, single core",
		cached: true},
	{name: "uncached", desc: "ISS vs pipeline, caches off, single core"},
	{name: "contended", desc: "ISS vs pipeline, caches off, two cores hammering the bus",
		contend: true},
	{name: "arena", desc: "ISS vs fault-free arena engine runs, including reset determinism",
		arena: true},
	{name: "interrupts", desc: "ISS+archint model vs pipeline ICU, handler-carrying programs under a shared interrupt plan",
		intr: true},
	{name: "strategies", desc: "one program under Plain/CacheBased/TCMBased wrapping vs the ISS reference signature",
		strat: true},
	{name: "sched", desc: "multi-core Partition plans (barrier protocol included) vs single-core serial execution",
		sched: true},
}

// baseCfgFor derives the scenario-independent generator configuration for
// a seed: the knobs sweep 64-bit pair ops, ICU event pressure, load/store
// density and branch density across the seed space. Scenario code must go
// through progSpec.cfgFor, which layers the scenario's own shape (the
// interrupt plan) on top.
func baseCfgFor(seed int64) progen.Config {
	cfg := progen.Config{Pairs64: seed%3 == 0}
	switch seed % 5 {
	case 1:
		cfg.TrapFrac = 0.2 // ICU recognition-pipeline pressure
	case 2:
		cfg.MemFrac = 0.45 // load/store heavy
	case 3:
		cfg.BranchFrac = 0.95 // control-flow heavy
	case 4:
		cfg.MemFrac = 0.05 // ALU-heavy straight line
	}
	return cfg
}

// progTarget derives the execution target from a program's configuration:
// 64-bit pair programs must run on core C, everything else on core A.
func progTarget(p *progen.Program) (has64 bool, coreID int) {
	has64 = p.Cfg.Pairs64
	if has64 {
		coreID = 2
	}
	return has64, coreID
}

func genFor(seed int64) *progen.Program { return progen.Generate(seed, baseCfgFor(seed)) }

// cfgFor derives the generator configuration the scenario's seed sweep
// uses: the shared knob sweep, plus — for the interrupts scenario — a
// seed-derived interrupt plan and occasional synchronous trap pressure so
// planned and instruction-raised events interleave.
func (sp progSpec) cfgFor(seed int64) progen.Config {
	cfg := baseCfgFor(seed)
	switch {
	case sp.intr:
		rng := rand.New(rand.NewSource(seed ^ 0x61726368696e74)) // "archint"
		cfg.Interrupts = archint.RandomPlan(rng)
		if cfg.TrapFrac == 0 && seed%2 == 0 {
			cfg.TrapFrac = 0.1
		}
	case sp.sched:
		// Scheduled tasks land on any core, and only core C implements the
		// 64-bit pair extension.
		cfg.Pairs64 = false
	case sp.strat:
		// Larger programs on the seeds that also shrink the cache
		// strategy's partition budget (stratGeom), so multi-chunk wrapping
		// is reliably reached.
		if ((seed%3)+3)%3 == 2 {
			cfg.Blocks = 18
		}
	}
	return cfg
}

func (sp progSpec) runSeed(seed int64, mut Mutation) *Mismatch {
	p := progen.Generate(seed, sp.cfgFor(seed))
	detail, stack := guardCheck(func() string { return sp.check(p, mut, nil) })
	if detail == "" {
		return nil
	}
	m := &Mismatch{
		Scenario: sp.name,
		Seed:     seed,
		Detail:   detail,
		Panicked: stack != "",
		Stack:    stack,
		Program:  p,
		recheckProg: func(q *progen.Program) string {
			return guardRecheck(func() string { return sp.check(q, mut, nil) })
		},
		fromSweep: true,
	}
	sp.decorateSched(m)
	return m
}

// decorateSched attaches the scheduler scenario's second minimization axis
// to a fresh mismatch: the seed-derived library task list and a recheck
// that honours a reduced list (drop-a-task minimization).
func (sp progSpec) decorateSched(m *Mismatch) {
	if !sp.sched {
		return
	}
	m.LibTasks = schedShapeFor(m.Seed).libs
	m.recheckSched = func(q *progen.Program, libs []string) string {
		return guardRecheck(func() string { return sp.checkSched(q, libs, nil) })
	}
}

// check runs program p on the interpreter and on the scenario's target and
// returns a description of the divergence ("" when the engines agree).
// When cov is non-nil the target system's microarchitectural coverage is
// collected into it.
func (sp progSpec) check(p *progen.Program, mut Mutation, cov *coverage.Map) string {
	if sp.strat {
		return sp.checkStrategies(p, cov)
	}
	if sp.sched {
		return sp.checkSched(p, schedShapeFor(p.Seed).libs, cov)
	}
	if sp.arena && p.Cfg.Interrupts.Enabled() {
		// The arena's golden-capture run happens inside core.NewArena,
		// before any plan shim could attach; a handler program's drain
		// loop would spin its budget out waiting for events that are never
		// injected. Handler programs are out of this scenario's scope (a
		// cross-scenario corpus may legitimately hand one over): skip loudly
		// rather than report a phantom divergence or a silent pass.
		sp.skip()
		sp.fullSkip()
		return ""
	}
	has64, coreID := progTarget(p)
	prog, err := p.Assemble(codeBase)
	if err != nil {
		return fmt.Sprintf("assemble: %v", err)
	}
	refRegs, refScratch, err := runISS(prog, has64, p.Cfg)
	if err != nil {
		return fmt.Sprintf("iss: %v", err)
	}
	if sp.arena {
		// The arena engine assembles its program from the routine itself,
		// so there is no image to mutate here; NewMutated refuses arena.
		return checkArena(p, coreID, refRegs, refScratch, cov)
	}
	target := prog
	if mut != nil {
		target = mutate(prog, mut)
	}
	s, err := runSoC(target, p.Cfg, coreID, sp.cached, sp.contend, cov)
	if err != nil {
		return fmt.Sprintf("soc: %v", err)
	}
	regs, scratch := readState(s, coreID, p.Cfg)
	var diffs []string
	diffs = append(diffs, diffRegs(regs, refRegs)...)
	if !sp.cached {
		// With caches on, dirty lines may still be cache-resident
		// (write-back policy), so the SRAM view is only authoritative for
		// uncached runs; the spilled registers cover memory state there.
		diffs = append(diffs, diffScratch(scratch, refScratch)...)
	}
	return renderDiffs(diffs)
}

// checkArena compares fault-free arena runs against the interpreter and
// requires two consecutive runs of the same arena to agree exactly — the
// reset-determinism invariant every fault campaign rests on.
func checkArena(p *progen.Program, coreID int, refRegs [32]uint32, refScratch []uint32, cov *coverage.Map) string {
	cfg := socConfig(coreID, false, false)
	job := &core.CoreJob{
		Routine:  p.Routine("fuzz"),
		Strategy: core.Plain{},
		CodeBase: codeBase,
	}
	ar, err := core.NewArena(cfg, coreID, job, arenaBudget, core.ArenaOptions{})
	if err != nil {
		return fmt.Sprintf("arena: %v", err)
	}
	if cov != nil {
		// Attached after construction: the golden capture run inside
		// NewArena stays uninstrumented, the checked fault-free runs below
		// collect.
		ar.SoC().SetCoverage(cov)
	}
	if _, ok := ar.Run(fault.None); !ok {
		return "arena: fault-free run did not complete cleanly"
	}
	regs1, scratch1 := readState(ar.SoC(), coreID, p.Cfg)
	var diffs []string
	diffs = append(diffs, diffRegs(regs1, refRegs)...)
	diffs = append(diffs, diffScratch(scratch1, refScratch)...)
	if d := renderDiffs(diffs); d != "" {
		return d
	}
	if _, ok := ar.Run(fault.None); !ok {
		return "arena: second fault-free run did not complete cleanly"
	}
	regs2, scratch2 := readState(ar.SoC(), coreID, p.Cfg)
	diffs = diffs[:0]
	for r := 1; r <= progen.MaxOperandReg; r++ {
		if regs2[r] != regs1[r] {
			diffs = append(diffs, fmt.Sprintf("reset leak: r%d = %08x, first run %08x", r, regs2[r], regs1[r]))
		}
	}
	for i := range scratch1 {
		if scratch2[i] != scratch1[i] {
			diffs = append(diffs, fmt.Sprintf("reset leak: scratch[%d] = %08x, first run %08x", i, scratch2[i], scratch1[i]))
		}
	}
	return renderDiffs(diffs)
}

// runISS executes the program on the interpreter and returns final
// registers and the scratch+spill window. Handler programs get the
// architectural recognition model, driven by the same plan the pipeline
// side injects (shared cause encoding on cores A/B, distinct on core C —
// the same has64 derivation progTarget uses).
func runISS(prog *asm.Program, has64 bool, cfg progen.Config) ([32]uint32, []uint32, error) {
	m := iss.NewSparseMem()
	m.LoadWords(prog.Base, prog.Words)
	s := iss.New(m, prog.Base, has64)
	if cfg.Interrupts.Enabled() {
		s.Int = archint.NewModel(!has64, cfg.Interrupts)
	}
	if err := s.Run(issBudget); err != nil {
		return s.Regs, nil, err
	}
	return s.Regs, readScratch(cfg, func(addr uint32) uint32 {
		return uint32(m.Read(addr, 4))
	}), nil
}

func readScratch(cfg progen.Config, read func(addr uint32) uint32) []uint32 {
	out := make([]uint32, cfg.ScratchWords())
	for i := range out {
		out[i] = read(cfg.ScratchBase + uint32(i)*4)
	}
	return out
}

// socConfig returns an SoC configuration with either just the core under
// test active, or all cores (the contended environment).
func socConfig(coreID int, cached, contend bool) soc.Config {
	cfg := core.SoCConfig(cached)
	for id := range cfg.Cores {
		cfg.Cores[id].Active = id == coreID || contend
	}
	return cfg
}

// readState reads core coreID's registers and the program's scratch+spill
// window off s.
func readState(s *soc.SoC, coreID int, cfg progen.Config) ([32]uint32, []uint32) {
	var regs [32]uint32
	for r := uint8(0); r < 32; r++ {
		regs[r] = s.Cores[coreID].Core.Reg(r)
	}
	return regs, readScratch(cfg, func(addr uint32) uint32 {
		return mem.ReadWord(s.SRAM, addr-mem.SRAMBase)
	})
}

// runSoC executes the program on core coreID, optionally with the two
// other cores running the generic STL as bus contention, collecting
// coverage into cov when non-nil, and returns the drained SoC.
func runSoC(prog *asm.Program, cfg progen.Config, coreID int, cached, contend bool, cov *coverage.Map) (*soc.SoC, error) {
	s := soc.New(socConfig(coreID, cached, contend))
	if cov != nil {
		s.SetCoverage(cov)
		// Scope pipeline coverage to the core under test: the contenders
		// run the same STL every iteration, and their constant activity
		// would drown the generated program's signal. The shared bus stays
		// attached — its contention states are exactly what the contended
		// scenario exists to exercise.
		for id := 0; id < soc.NumCores; id++ {
			if id != coreID {
				s.Cores[id].Core.SetCoverage(nil)
			}
		}
	}
	if err := s.Load(prog); err != nil {
		return nil, err
	}
	s.Start(coreID, prog.Base)
	if cfg.Interrupts.Enabled() {
		s.SetInjector(coreID, archint.NewInjector(cfg.Interrupts))
	}
	if contend {
		for id := 0; id < soc.NumCores; id++ {
			if id == coreID {
				continue
			}
			if err := startContender(s, id); err != nil {
				return nil, err
			}
		}
	}
	res := s.Run(socBudget)
	u := s.Cores[coreID]
	if res.TimedOut || u.Core.Wedged() {
		return nil, fmt.Errorf("run failed: timeout=%v wedged=%v", res.TimedOut, u.Core.Wedged())
	}
	return s, nil
}

// startContender loads and starts the generic STL on core id — the bus
// pressure of the contended scenario.
func startContender(s *soc.SoC, id int) error {
	routines := sbst.StandardSTL(core.DataWindow(id))
	b := asm.NewBuilder()
	for _, r := range routines {
		r.EmitPlain(b)
	}
	b.Halt()
	p, err := b.Assemble(soc.CodeMid + uint32(id)*0x8000)
	if err != nil {
		return err
	}
	if err := s.Load(p); err != nil {
		return err
	}
	for _, r := range routines {
		off := r.DataBase - mem.SRAMBase
		for i, w := range r.DataWords {
			mem.WriteWord(s.SRAM, off+uint32(i)*4, w)
		}
	}
	s.Start(id, p.Base)
	return nil
}

func diffRegs(got, want [32]uint32) []string {
	var diffs []string
	for r := 1; r <= progen.MaxOperandReg; r++ {
		if got[r] != want[r] {
			diffs = append(diffs, fmt.Sprintf("r%d = %08x, want %08x", r, got[r], want[r]))
		}
	}
	return diffs
}

func diffScratch(got, want []uint32) []string {
	var diffs []string
	for i := range want {
		if got[i] != want[i] {
			diffs = append(diffs, fmt.Sprintf("scratch[%d] = %08x, want %08x", i, got[i], want[i]))
		}
	}
	return diffs
}

// renderDiffs compresses a diff list into one line (first few entries).
func renderDiffs(diffs []string) string {
	if len(diffs) == 0 {
		return ""
	}
	const max = 4
	if len(diffs) > max {
		diffs = append(diffs[:max:max], fmt.Sprintf("... %d more", len(diffs)-max))
	}
	return strings.Join(diffs, "; ")
}
