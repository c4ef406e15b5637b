package minic

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/arch"
	"repro/internal/adl"
)

// TestCompileConcurrent compiles for every target from several
// goroutines at once, so that the first uses of each memoised backend
// race under the race detector.
func TestCompileConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range arch.Names() {
				if _, err := CompileSource("c.c", "void main() { output(1); }", name); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDeriveEveryEmbeddedISA requires a backend for every embedded
// description, tiny64 included.
func TestDeriveEveryEmbeddedISA(t *testing.T) {
	if got, want := Targets(), arch.Names(); !slices.Equal(got, want) {
		t.Fatalf("Targets() = %v, want every embedded ISA %v", got, want)
	}
}

// TestDeriveNamesMissingOperation removes tiny32's store-word instruction:
// derivation must fail with an error naming the operation.
func TestDeriveNamesMissingOperation(t *testing.T) {
	src, err := arch.Source("tiny32")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, l := range strings.Split(src, "\n") {
		if !strings.HasPrefix(l, "insn sw ") {
			kept = append(kept, l)
		}
	}
	a, err := adl.Load("nosw.adl", strings.Join(kept, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derive(a); err == nil || !strings.Contains(err.Error(), "no instruction for word store at register+offset") {
		t.Fatalf("derive without sw: error %v, want one naming the word store", err)
	}
}

// TestNoPerTargetCode scans the package's non-test sources: no string
// literal may name an embedded ISA or one of its mnemonics.
func TestNoPerTargetCode(t *testing.T) {
	banned := map[string]bool{}
	for _, name := range arch.Names() {
		banned[name] = true
		a := arch.MustLoad(name)
		for _, ins := range a.Insns {
			banned[ins.Mnemonic] = true
		}
		for _, ps := range a.Pseudos {
			banned[ps.Mnemonic] = true
		}
	}
	files, _ := filepath.Glob("*.go")
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && banned[s] {
					t.Errorf("%s: string literal %q names a target or mnemonic", file, s)
				}
			}
			return true
		})
	}
}

// TestWideConstantOutOfRange: a constant the target's instructions cannot
// build (tiny64's upper-immediate pair reaches 32 bits) is a compile
// error, not a wrong value.
func TestWideConstantOutOfRange(t *testing.T) {
	_, err := CompileSource("t.c", "void main() { output(0x100000000 / 2); }", "tiny64")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error %v, want a constant out of range", err)
	}
}

// BenchmarkDerive derives every embedded ISA's backend from its loaded
// description: the cost the first compile for a target pays once per
// process, on top of loading the description.
func BenchmarkDerive(b *testing.B) {
	for _, name := range arch.Names() {
		a := arch.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := derive(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
