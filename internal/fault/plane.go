package fault

// Plane is the injection surface the CPU, HDCU, ICU and counters consult.
// Every method transforms a signal value; the fault-free plane is the
// identity. Implementations must be deterministic and cheap: these hooks
// sit on the pipeline's per-cycle paths.
type Plane interface {
	// MuxData transforms the value delivered by the *selected* input of
	// the forwarding mux feeding (lane, operand). Faults on unselected
	// inputs are masked, as in an AND-OR mux tree.
	MuxData(lane, operand, path uint8, v uint64) uint64
	// MuxSel transforms the select code of the forwarding mux.
	MuxSel(lane, operand, sel uint8) uint8
	// CmpEq transforms a register-index equality comparison. A stuck XNOR
	// output bit makes that bit position always-equal (SA1) or
	// never-equal (SA0).
	CmpEq(cmpID uint8, a, b uint8) bool
	// Ctl transforms a hazard control line.
	Ctl(line uint8, v bool) bool
	// EvLine transforms an ICU event pending line.
	EvLine(line uint8, v bool) bool
	// Cause transforms the ICU cause register value.
	Cause(v uint32) uint32
	// Dist transforms the ICU imprecision distance value.
	Dist(v uint32) uint32
	// Enable transforms the ICU enable mask as seen by recognition logic.
	Enable(v uint32) uint32
	// EPC transforms the ICU saved resume PC.
	EPC(v uint32) uint32
	// CounterRead transforms a performance counter value as read by CSRR.
	CounterRead(id uint8, v uint32) uint32
	// CounterInc gates a performance counter increment.
	CounterInc(id uint8, inc bool) bool
}

// None is the fault-free plane.
var None Plane = noFault{}

// AffectsEvLines reports whether plane p can transform an ICU event line.
// The ICU polls every event line through the plane each clock cycle, so
// knowing a plane is transparent there lets it skip the poll when nothing
// is pending — a sizeable share of the fault-simulation hot path. Unknown
// plane implementations conservatively report true.
func AffectsEvLines(p Plane) bool {
	switch f := p.(type) {
	case noFault:
		return false
	case *Single:
		return f.S.Unit == UnitICU && f.S.Signal == SigEvLine
	case *Transition:
		return false // transition faults live on the forwarding data lines
	case *MuxProbe:
		return false // the probe only watches the forwarding data lines
	case *Composite:
		for _, part := range f.Parts {
			if AffectsEvLines(part) {
				return true
			}
		}
		return false
	}
	return true
}

// AffectsCounterInc reports whether plane p can gate a performance-counter
// increment. The pipeline bumps several counters every clock cycle; a plane
// known to be transparent there lets those bumps skip the per-increment
// plane call. Unknown plane implementations conservatively report true.
func AffectsCounterInc(p Plane) bool {
	switch f := p.(type) {
	case noFault:
		return false
	case *Single:
		return f.S.Unit == UnitPerf && f.S.Signal == SigCntInc
	case *Transition:
		return false
	case *MuxProbe:
		return false
	case *Composite:
		for _, part := range f.Parts {
			if AffectsCounterInc(part) {
				return true
			}
		}
		return false
	}
	return true
}

// ResetPlaneState clears any per-run state plane p carries — a
// Transition's edge history, recursively through Composite components.
// Stateless planes are untouched. Engines call it before serving a fresh
// run from cycle 0 with a plane object that may already have executed. It
// switches on the concrete stateful types: an assertion to an interface
// type would allocate whenever the runtime grows its assertion cache.
func ResetPlaneState(p Plane) {
	switch q := p.(type) {
	case *Transition:
		q.ResetState()
	case *Composite:
		q.ResetState()
	}
}

type noFault struct{}

func (noFault) MuxData(_, _, _ uint8, v uint64) uint64 { return v }
func (noFault) MuxSel(_, _, sel uint8) uint8           { return sel }
func (noFault) CmpEq(_ uint8, a, b uint8) bool         { return a == b }
func (noFault) Ctl(_ uint8, v bool) bool               { return v }
func (noFault) EvLine(_ uint8, v bool) bool            { return v }
func (noFault) Cause(v uint32) uint32                  { return v }
func (noFault) Dist(v uint32) uint32                   { return v }
func (noFault) Enable(v uint32) uint32                 { return v }
func (noFault) EPC(v uint32) uint32                    { return v }
func (noFault) CounterRead(_ uint8, v uint32) uint32   { return v }
func (noFault) CounterInc(_ uint8, inc bool) bool      { return inc }

// Single injects exactly one stuck-at fault site.
type Single struct {
	S Site
}

// NewSingle returns a plane with the one fault s injected.
func NewSingle(s Site) *Single { return &Single{S: s} }

func (f *Single) MuxData(lane, operand, path uint8, v uint64) uint64 {
	s := f.S
	if s.Unit == UnitFwd && s.Signal == SigMuxData &&
		s.Lane == lane && s.Operand == operand && s.Path == path {
		return forceBit64(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) MuxSel(lane, operand, sel uint8) uint8 {
	s := f.S
	if s.Unit == UnitFwd && s.Signal == SigMuxSel &&
		s.Lane == lane && s.Operand == operand {
		return uint8(forceBit32(uint32(sel), s.Bit, s.Stuck)) & (1<<SelBits - 1)
	}
	return sel
}

func (f *Single) CmpEq(cmpID uint8, a, b uint8) bool {
	s := f.S
	if s.Unit == UnitHDCU && s.Signal == SigCmp && s.Path == cmpID {
		// Per-bit XNOR outputs, then AND. The faulty bit's XNOR output is
		// stuck: SA1 makes that bit always match, SA0 never.
		xnor := ^(a ^ b) & (1<<CmpBits - 1)
		xnor = uint8(forceBit32(uint32(xnor), s.Bit, s.Stuck))
		return xnor == 1<<CmpBits-1
	}
	return a == b
}

func (f *Single) Ctl(line uint8, v bool) bool {
	s := f.S
	if s.Unit == UnitHDCU && s.Signal == SigCtl && s.Path == line {
		return forceBool(s.Stuck)
	}
	return v
}

func (f *Single) EvLine(line uint8, v bool) bool {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigEvLine && s.Path == line {
		return forceBool(s.Stuck)
	}
	return v
}

func (f *Single) Cause(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigCause {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) Dist(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigDist {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) Enable(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigEnable {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) EPC(v uint32) uint32 {
	s := f.S
	if s.Unit == UnitICU && s.Signal == SigEPC {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) CounterRead(id uint8, v uint32) uint32 {
	s := f.S
	if s.Unit == UnitPerf && s.Signal == SigCntBit && s.Lane == id {
		return forceBit32(v, s.Bit, s.Stuck)
	}
	return v
}

func (f *Single) CounterInc(id uint8, inc bool) bool {
	s := f.S
	if s.Unit == UnitPerf && s.Signal == SigCntInc && s.Lane == id {
		return forceBool(s.Stuck)
	}
	return inc
}

var (
	_ Plane = noFault{}
	_ Plane = (*Single)(nil)
)
