package asm_test

import (
	"bytes"
	"testing"

	"repro/arch"
	"repro/internal/conc"
)

func TestPseudoExpansion(t *testing.T) {
	p := assemble(t, "tiny32", `
_start:
	nop
	li  r1, 5
	inc r1
	inc r1
	dec r1
	push r1
	clr r1
	pop r1
	mov sysarg, r1
	trap 2
	trap 0
`)
	m := conc.NewMachine(arch.MustLoad("tiny32"))
	m.LoadProgram(p)
	// sp must be set for push/pop.
	m.WriteReg(m.Arch.Reg("sp"), 0x8000)
	m.WriteReg(m.Arch.Reg("pc"), p.Entry)
	stop := m.Run(100)
	if stop.Kind != conc.StopExit {
		t.Fatalf("stop %v", stop)
	}
	if !bytes.Equal(m.Output, []byte{6}) {
		t.Fatalf("output %v, want [6]", m.Output)
	}
	// push expands to 2 instructions: image is larger than the source
	// line count alone.
	if p.Size() != 13*4 {
		t.Errorf("size = %d, want 13 instructions (two 2-insn pseudos)", p.Size())
	}
}

func TestRV32IStandardPseudos(t *testing.T) {
	p := assemble(t, "rv32i", `
_start:
	li   a0, 7
	mv   a1, a0
	neg  a2, a1
	not  a3, a2
	seqz a4, a3
	bnez a1, go
	nop
go:
	call f
	j done
f:	inc_is_not_a_pseudo_here:
	ret
done:
	mv   a0, a3
	li   a7, 2
	ecall
	li   a7, 0
	ecall
`)
	m := conc.NewMachine(arch.MustLoad("rv32i"))
	m.LoadProgram(p)
	m.WriteReg(m.Arch.Reg("sp"), 0x8000)
	m.WriteReg(m.Arch.Reg("pc"), p.Entry)
	stop := m.Run(100)
	if stop.Kind != conc.StopExit {
		t.Fatalf("stop %v", stop)
	}
	// a2 = -7, a3 = ~(-7) = 6 -> output 6.
	if !bytes.Equal(m.Output, []byte{6}) {
		t.Fatalf("output %v, want [6]", m.Output)
	}
}

func TestPseudoSwappedOperands(t *testing.T) {
	// bgt a, b == blt b, a: taken iff a > b.
	p := assemble(t, "tiny32", `
_start:
	li r1, 9
	li r2, 3
	bgt r1, r2, yes
	trap 0
yes:
	mov sysarg, r1
	trap 2
	trap 0
`)
	m := conc.NewMachine(arch.MustLoad("tiny32"))
	m.LoadProgram(p)
	stop := m.Run(100)
	if stop.Kind != conc.StopExit || len(m.Output) != 1 {
		t.Fatalf("stop %v output %v", stop, m.Output)
	}
}

// TestTiny64PushPopFullWidth checks that tiny64's push and pop pseudos
// move whole 64-bit words with an 8-byte stride.
func TestTiny64PushPopFullWidth(t *testing.T) {
	p := assemble(t, "tiny64", `
_start:
	li   r1, 0x7fff
	slli r1, r1, 36
	ori  r1, r1, 5       ; 0x7fff000000005
	li   r2, -1
	push r2
	push r1
	pop  r3
	pop  r4
	halt
`)
	m := conc.NewMachine(arch.MustLoad("tiny64"))
	m.LoadProgram(p)
	sp := m.Arch.Reg("sp")
	m.WriteReg(sp, 0x8000)
	if stop := m.Run(100); stop.Kind != conc.StopHalt {
		t.Fatalf("stop %v", stop)
	}
	for _, c := range []struct {
		reg  string
		want uint64
	}{{"r3", 0x7fff000000005}, {"r4", ^uint64(0)}, {"sp", 0x8000}} {
		if got := m.ReadReg(m.Arch.Reg(c.reg)); got != c.want {
			t.Errorf("%s = %#x, want %#x", c.reg, got, c.want)
		}
	}
	if got := m.Load(0x8000-16, 8); got != 0x7fff000000005 {
		t.Errorf("stacked word = %#x, want 0x7fff000000005", got)
	}
}
