// Compiled: the paper's full pipeline in one program. A C-level parser
// with a subtle bug is compiled by the built-in MiniC compiler to every
// embedded instruction set; each binary is then symbolically executed
// by the engine generated from that ISA's description. The same bug is
// found in every binary, each time with a concrete triggering input —
// demonstrating that the analysis, the toolchain, and the findings all
// retarget together.
package main

import (
	"fmt"
	"log"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/minic"
)

// A command dispatcher with two classic C bugs: the lookup masks its
// index with 31 although the table has only 8 entries (out-of-bounds
// read), and the ratio command divides by an unchecked argument
// (division by zero).
const source = `
int table[8] = { 2, 3, 5, 7, 11, 13, 17, 19 };

int lookup(int i) {
	return table[i & 31];        // BUG 1: mask is wider than the table
}

void main() {
	int cmd, n;
	cmd = input();
	n = input();
	if (cmd == 1) output(lookup(n));
	if (cmd == 2) output(1000 / n);   // BUG 2: n may be zero
	exit();
}
`

func main() {
	for _, target := range minic.Targets() {
		fmt.Printf("== target %s ==\n", target)
		asmText, err := minic.CompileSource("parser.c", source, target)
		if err != nil {
			log.Fatal(err)
		}
		a := arch.MustLoad(target)
		p, err := asm.New(a).Assemble("parser.s", asmText)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compiled to %d bytes of %s machine code\n", p.Size(), a.Name)

		e := core.NewEngine(a, p, core.Options{InputBytes: 2, MaxSteps: 4000})
		for _, c := range checker.All() {
			e.AddChecker(c)
		}
		r, err := e.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("explored %d paths (%d instructions, %d solver queries)\n",
			len(r.Paths), r.Stats.Instructions, r.Stats.Solver.Queries)
		if len(r.Bugs) == 0 {
			log.Fatalf("%s: expected findings", target)
		}
		for _, b := range r.Bugs {
			fmt.Printf("  [%s] pc=%#x %q\n      %s\n      triggering input: % x\n",
				b.Check, b.PC, b.Insn, b.Msg, b.Input)
		}
		fmt.Println()
	}
	fmt.Printf("the same C-level bugs were found in all %d binaries.\n", len(minic.Targets()))
}
