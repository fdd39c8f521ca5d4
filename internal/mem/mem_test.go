package mem

import "testing"

func TestRAMReadWrite(t *testing.T) {
	r := NewRAM(1024, 2)
	WriteWord(r, 16, 0xCAFEBABE)
	if got := ReadWord(r, 16); got != 0xCAFEBABE {
		t.Errorf("got 0x%x", got)
	}
	if r.AccessCycles(0, 4) != 2 {
		t.Error("latency")
	}
	// Little-endian layout.
	b := make([]byte, 4)
	r.Read(16, b)
	if b[0] != 0xBE || b[3] != 0xCA {
		t.Errorf("endianness: % x", b)
	}
}

func TestFlashBankLatency(t *testing.T) {
	f := NewFlash(1<<20, []int{8, 9})
	if got := f.AccessCycles(0, 16); got != 8 {
		t.Errorf("bank0 latency %d", got)
	}
	if got := f.AccessCycles(1<<19, 16); got != 9 {
		t.Errorf("bank1 latency %d", got)
	}
	if got := f.AccessCycles(1<<20-4, 4); got != 9 {
		t.Errorf("last bank latency %d", got)
	}
}

func TestFlashLoadAndReadOnly(t *testing.T) {
	f := NewFlash(4096, []int{8})
	if err := f.LoadWords(8, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if ReadWord(f, 12) != 2 {
		t.Error("load failed")
	}
	WriteWord(f, 12, 99) // bus writes ignored
	if ReadWord(f, 12) != 2 {
		t.Error("flash was writable from the bus")
	}
	if err := f.LoadWords(4094, []uint32{1}); err == nil {
		t.Error("overflow load accepted")
	}
}

func TestTCM(t *testing.T) {
	tcm := NewTCM(TCMSize)
	WriteWord(tcm, 0, 7)
	if ReadWord(tcm, 0) != 7 {
		t.Error("tcm rw")
	}
	if tcm.AccessCycles(0, 4) != 1 {
		t.Error("tcm must be single cycle")
	}
}

func TestTCMAddressing(t *testing.T) {
	if DTCMFor(0) != DTCMBase || DTCMFor(2) != DTCMBase+2*TCMStride {
		t.Error("DTCMFor")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1237) != 0x1230 {
		t.Errorf("LineAddr = %#x", LineAddr(0x1237))
	}
	if LineAddr(0x1230) != 0x1230 {
		t.Error("aligned address changed")
	}
}
