package isa

import (
	"errors"
	"fmt"
)

// Binary encoding. Every instruction is one 32-bit word:
//
//	R-type  (major 0):  major[31:26] rs1[25:21] rs2[20:16] rd[15:11] funct[10:0]
//	I-type:             major[31:26] rs1[25:21] rd[20:16]  imm16[15:0]
//	store:              major[31:26] rs1[25:21] rs2[20:16] imm16[15:0]   (rs2 = data)
//	branch:             major[31:26] rs1[25:21] rs2[20:16] off16[15:0]
//	J-type  (J, JAL):   major[31:26] off26[25:0]
//
// R-type funct is simply the Op number, which keeps encode/decode total and
// collision-free. Shift-immediate operations reuse the rs2 field as shamt.
//
// Immediates: sign-extended 16 bits for arithmetic, memory offsets and
// branches; zero-extended for ANDI/ORI/XORI, CSR numbers and CINV selectors;
// LUI places its 16-bit immediate in the upper half of rd. Branch and jump
// offsets are byte offsets relative to the address of the *next* instruction
// and must be multiples of 4.

const majorRType = 0

var opMajor = map[Op]uint32{
	OpADDI: 1, OpANDI: 2, OpORI: 3, OpXORI: 4, OpSLTI: 5, OpLUI: 6,
	OpLW: 8, OpSW: 9, OpLB: 10, OpLBU: 11, OpSB: 12, OpLWP: 13, OpSWP: 14,
	OpBEQ: 16, OpBNE: 17, OpBLT: 18, OpBGE: 19,
	OpJ: 20, OpJAL: 21, OpJALR: 22,
	OpCSRR: 24, OpCSRW: 25, OpCINV: 26,
}

// majorOp and isIType are array mirrors of opMajor: Decode sits on the
// per-fetch hot path of the pipeline model, where a map lookup per decoded
// word is measurable. Entry 0 of majorOp (the R-type major) stays OpInvalid.
var majorOp = func() (m [64]Op) {
	for op, mj := range opMajor {
		if mj >= 64 || mj == majorRType {
			panic("isa: major opcode out of range")
		}
		if m[mj] != OpInvalid {
			panic("isa: duplicate major opcode")
		}
		m[mj] = op
	}
	return m
}()

var isIType = func() (t [opMax]bool) {
	for op := range opMajor {
		t[op] = true
	}
	return t
}()

// zeroExtImm reports whether op's 16-bit immediate is zero-extended.
func zeroExtImm(op Op) bool {
	switch op {
	case OpANDI, OpORI, OpXORI, OpLUI, OpCSRR, OpCSRW, OpCINV:
		return true
	}
	return false
}

// EncodeError describes an instruction that cannot be encoded.
type EncodeError struct {
	Inst   Inst
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %v: %s", e.Inst, e.Reason)
}

// Encode converts an instruction to its 32-bit memory representation.
func Encode(i Inst) (uint32, error) {
	bad := func(reason string) (uint32, error) { return 0, &EncodeError{i, reason} }
	if !i.Op.Valid() {
		return bad("invalid op")
	}
	if i.Rd > 31 || i.Rs1 > 31 || i.Rs2 > 31 {
		return bad("register out of range")
	}
	mj, isI := opMajor[i.Op]
	if !isI { // R-type
		funct := uint32(i.Op)
		rs2 := uint32(i.Rs2)
		if FormatOf(i.Op) == FmtRShamt {
			if i.Imm < 0 || i.Imm > 31 {
				return bad("shift amount out of range")
			}
			rs2 = uint32(i.Imm)
		}
		return uint32(majorRType)<<26 | uint32(i.Rs1)<<21 | rs2<<16 |
			uint32(i.Rd)<<11 | funct, nil
	}
	switch FormatOf(i.Op) {
	case FmtJump:
		if i.Imm%InstBytes != 0 {
			return bad("jump offset not word aligned")
		}
		if i.Imm < -(1<<25) || i.Imm >= 1<<25 {
			return bad("jump offset out of range")
		}
		return mj<<26 | uint32(i.Imm)&0x03FFFFFF, nil
	case FmtBranch:
		if i.Imm%InstBytes != 0 {
			return bad("branch offset not word aligned")
		}
		if i.Imm < -(1<<15) || i.Imm >= 1<<15 {
			return bad("branch offset out of range")
		}
		return mj<<26 | uint32(i.Rs1)<<21 | uint32(i.Rs2)<<16 | uint32(i.Imm)&0xFFFF, nil
	default:
		if zeroExtImm(i.Op) {
			if i.Imm < 0 || i.Imm > 0xFFFF {
				return bad("immediate out of unsigned 16-bit range")
			}
		} else if i.Imm < -(1<<15) || i.Imm >= 1<<15 {
			return bad("immediate out of signed 16-bit range")
		}
		second := uint32(i.Rd) << 16
		if i.Op.IsStore() {
			second = uint32(i.Rs2) << 16
		}
		return mj<<26 | uint32(i.Rs1)<<21 | second | uint32(i.Imm)&0xFFFF, nil
	}
}

// MustEncode is Encode but panics on error; for use with literal programs.
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// Decode errors, one per class of undecodable word. They are fixed values
// so rejecting a word costs no allocation: the pipeline's decode cache
// re-decodes invalid words (typically prefetched past a program's end) on
// every conflict miss.
var (
	ErrInvalidFunct     = errors.New("isa: invalid R-type funct")
	ErrNotRType         = errors.New("isa: funct is not an R-type op")
	ErrInvalidOpcode    = errors.New("isa: invalid major opcode")
	ErrMisalignedJump   = errors.New("isa: misaligned jump offset")
	ErrMisalignedBranch = errors.New("isa: misaligned branch offset")
)

// Decode converts a 32-bit memory word back into an instruction. Words that
// do not correspond to a defined operation decode to Op == OpInvalid with
// one of the Err* decode errors; the pipeline treats executing such a word
// as a fatal program error.
func Decode(w uint32) (Inst, error) {
	mj := w >> 26
	if mj == majorRType {
		// The funct field is 11 bits; values beyond the op range must be
		// rejected before the uint8 conversion, or garbage in the upper
		// funct bits would silently alias onto valid operations.
		if w&0x7FF >= uint32(opMax) {
			return Inst{}, ErrInvalidFunct
		}
		funct := Op(w & 0x7FF)
		if !funct.Valid() {
			return Inst{}, ErrInvalidFunct
		}
		if isIType[funct] {
			return Inst{}, ErrNotRType
		}
		i := Inst{
			Op:  funct,
			Rs1: uint8(w >> 21 & 31),
			Rs2: uint8(w >> 16 & 31),
			Rd:  uint8(w >> 11 & 31),
		}
		if FormatOf(funct) == FmtRShamt {
			i.Imm = int32(i.Rs2)
			i.Rs2 = 0
		}
		return i, nil
	}
	op := majorOp[mj]
	if op == OpInvalid {
		return Inst{}, ErrInvalidOpcode
	}
	if FormatOf(op) == FmtJump {
		off := int32(w<<6) >> 6 // sign-extend 26 bits
		if off%InstBytes != 0 {
			return Inst{}, ErrMisalignedJump
		}
		return Inst{Op: op, Imm: off}, nil
	}
	i := Inst{Op: op, Rs1: uint8(w >> 21 & 31)}
	sec := uint8(w >> 16 & 31)
	imm := w & 0xFFFF
	switch {
	case FormatOf(op) == FmtBranch:
		i.Rs2 = sec
	case op.IsStore():
		i.Rs2 = sec
	default:
		i.Rd = sec
	}
	if zeroExtImm(op) {
		i.Imm = int32(imm)
	} else {
		i.Imm = int32(int16(imm))
	}
	if FormatOf(op) == FmtBranch && i.Imm%InstBytes != 0 {
		return Inst{}, ErrMisalignedBranch
	}
	return i, nil
}
