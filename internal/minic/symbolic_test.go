package minic_test

import (
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/checker"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/minic"
	"repro/internal/prog"
	"repro/internal/smt"
)

func compileTo(t *testing.T, targetName, src string) *prog.Program {
	t.Helper()
	asmText, err := minic.CompileSource("test.c", src, targetName)
	if err != nil {
		t.Fatalf("%s: %v", targetName, err)
	}
	p, err := asm.New(arch.MustLoad(targetName)).Assemble("test.s", asmText)
	if err != nil {
		t.Fatalf("%s: %v\n%s", targetName, err, asmText)
	}
	return p
}

// TestSymbolicExecutionOfCompiledBinaries is the paper's setting end to
// end: a C-level program is compiled per ISA and the generated engines
// explore the binaries. The path structure must match across ISAs, and
// solved inputs must replay concretely.
func TestSymbolicExecutionOfCompiledBinaries(t *testing.T) {
	src := `
// Classify a 2-byte input: returns the class id 0..3.
int classify(int a, int b) {
	if (a < 64) {
		if (b < 64) return 0;
		return 1;
	}
	if (b < 64) return 2;
	return 3;
}

void main() {
	int a, b;
	a = input();
	b = input();
	output(classify(a, b));
	exit();
}
`
	counts := map[string]int{}
	for _, target := range minic.Targets() {
		p := compileTo(t, target, src)
		a := arch.MustLoad(target)
		e := core.NewEngine(a, p, core.Options{InputBytes: 2, MaxSteps: 3000})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		exits := 0
		for _, pth := range r.Paths {
			if pth.Status != core.StatusExit {
				t.Errorf("%s: path %d ended %v (%s)", target, pth.ID, pth.Status, pth.Fault)
				continue
			}
			exits++
			// Solve and replay.
			res, err := e.Solver.Check(pth.PathCond...)
			if err != nil || res != smt.Sat {
				t.Errorf("%s: path unsat", target)
				continue
			}
			model := e.Solver.Model()
			input := []byte{byte(model["in0"]), byte(model["in1"])}
			var want []byte
			for _, o := range pth.Output {
				want = append(want, byte(expr.Eval(o, model)))
			}
			m := conc.NewMachine(a)
			m.LoadProgram(p)
			m.Input = input
			stop := m.Run(100000)
			if stop.Kind != conc.StopExit || string(m.Output) != string(want) {
				t.Errorf("%s: replay of %v gave %v/% x, symbolic predicted % x",
					target, input, stop, m.Output, want)
			}
		}
		counts[target] = exits
	}
	// classify has exactly 4 behaviours.
	for target, n := range counts {
		if n != 4 {
			t.Errorf("%s: %d exit paths, want 4", target, n)
		}
	}
}

// TestBugInCompiledBinary plants a C-level division bug and checks the
// binary-level checker finds it on every ISA with a reproducing input.
func TestBugInCompiledBinary(t *testing.T) {
	src := `
void main() {
	int n;
	n = input();
	output(100 / n);   // n == 0 divides by zero
	exit();
}
`
	for _, target := range minic.Targets() {
		p := compileTo(t, target, src)
		a := arch.MustLoad(target)
		e := core.NewEngine(a, p, core.Options{InputBytes: 1, MaxSteps: 3000})
		e.AddChecker(checker.DivByZero{})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, b := range r.Bugs {
			if b.Check == "div-by-zero" {
				found = true
				if len(b.Input) < 1 || b.Input[0] != 0 {
					t.Errorf("%s: reproducing input %v, want leading 0", target, b.Input)
				}
			}
		}
		if !found {
			t.Errorf("%s: compiled div-by-zero not found (bugs %v)", target, r.Bugs)
		}
	}
}

// TestCompiledCrackmeSolvable compiles a C password check and lets the
// engine synthesize the accepting input.
func TestCompiledCrackmeSolvable(t *testing.T) {
	src := `
int check(int a, int b, int c) {
	if (a * 256 + b == 0x4142) {
		if ((c ^ a) == 3) return 1;
	}
	return 0;
}

void main() {
	int a, b, c;
	a = input();
	b = input();
	c = input();
	if (check(a, b, c)) output('!');
	exit();
}
`
	for _, target := range wideTargets() { // 0x4142 needs >16-bit arithmetic
		p := compileTo(t, target, src)
		a := arch.MustLoad(target)
		e := core.NewEngine(a, p, core.Options{InputBytes: 3, MaxSteps: 3000})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		solved := false
		for _, pth := range r.Paths {
			if len(pth.Output) == 0 {
				continue
			}
			res, err := e.Solver.Check(pth.PathCond...)
			if err != nil || res != smt.Sat {
				continue
			}
			m := e.Solver.Model()
			in := []byte{byte(m["in0"]), byte(m["in1"]), byte(m["in2"])}
			if in[0] == 'A' && in[1] == 'B' && in[2] == ('A'^3) {
				solved = true
			} else {
				t.Errorf("%s: solved input %q does not satisfy the check", target, in)
			}
		}
		if !solved {
			t.Errorf("%s: accepting input not synthesized", target)
		}
	}
}

// TestConcolicOnCompiledBinary runs the generational search on compiled
// code.
func TestConcolicOnCompiledBinary(t *testing.T) {
	src := `
void main() {
	int a;
	a = input();
	if (a == 77) output(1); else output(0);
	exit();
}
`
	for _, target := range minic.Targets() {
		p := compileTo(t, target, src)
		e := core.NewEngine(arch.MustLoad(target), p, core.Options{InputBytes: 1, MaxSteps: 3000})
		rep, err := e.Concolic(nil, 10)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		hit := false
		for _, pth := range rep.Paths {
			if len(pth.Output) == 1 && pth.Output[0] == 1 {
				hit = true
				if pth.Input[0] != 77 {
					t.Errorf("%s: magic input %v", target, pth.Input)
				}
			}
		}
		if !hit {
			t.Errorf("%s: concolic search missed the magic byte (%d runs)", target, len(rep.Paths))
		}
	}
}

// TestFibCompiledAcrossISAs cross-checks a compute-heavy compiled
// workload: fib(12) concrete output must agree on all targets, and the
// symbolic engine (with no symbolic input) must agree with the emulator.
func TestFibCompiledAcrossISAs(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
void main() {
	output(fib(12) % 256);
	exit();
}
`
	const want = 144 % 256
	for _, target := range minic.Targets() {
		p := compileTo(t, target, src)
		a := arch.MustLoad(target)

		m := conc.NewMachine(a)
		m.LoadProgram(p)
		stop := m.Run(3_000_000)
		if stop.Kind != conc.StopExit || len(m.Output) != 1 || m.Output[0] != want {
			t.Errorf("%s: emulator %v output %v", target, stop, m.Output)
		}

		e := core.NewEngine(a, p, core.Options{MaxSteps: 3_000_000})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Paths) != 1 || len(r.Paths[0].Output) != 1 {
			t.Fatalf("%s: symbolic paths %v", target, r.Paths)
		}
		if v := expr.Eval(r.Paths[0].Output[0], expr.Env{}); v != want {
			t.Errorf("%s: symbolic output %d", target, v)
		}
	}
}
