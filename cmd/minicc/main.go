// Command minicc compiles MiniC source (see internal/minic) to assembly
// or directly to a program image for any architecture in
// minic.Targets(): every embedded ISA whose description yields a
// backend.
//
// Usage:
//
//	minicc -arch rv32i [-S] [-o out] prog.c
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/minic"
)

func main() {
	archName := flag.String("arch", "tiny32", "target architecture, one of minic.Targets()")
	emitAsm := flag.Bool("S", false, "emit assembly instead of an image")
	out := flag.String("o", "", "output file (default a.s / a.rimg)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minicc -arch <name> [-S] [-o out] <prog.c>")
		fmt.Fprintln(os.Stderr, "targets:", strings.Join(minic.Targets(), " "))
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	asmText, err := minic.CompileSource(flag.Arg(0), string(src), *archName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *emitAsm {
		dest := *out
		if dest == "" {
			dest = "a.s"
		}
		if err := os.WriteFile(dest, []byte(asmText), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: wrote %s\n", *archName, dest)
		return
	}
	a, err := arch.Load(*archName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := asm.New(a).Assemble(flag.Arg(0)+".s", asmText)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dest := *out
	if dest == "" {
		dest = "a.rimg"
	}
	if err := os.WriteFile(dest, p.Marshal(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d bytes, entry %#x -> %s\n", *archName, p.Size(), p.Entry, dest)
}
