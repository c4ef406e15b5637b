package minic_test

import (
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/conc"
	"repro/internal/minic"
)

// compileRun compiles src for the target, assembles it, runs it on the
// concrete emulator with the given input, and returns the output bytes.
func compileRun(t *testing.T, targetName, src string, input []byte) []byte {
	t.Helper()
	asmText, err := minic.CompileSource("test.c", src, targetName)
	if err != nil {
		t.Fatalf("%s: compile: %v", targetName, err)
	}
	a := arch.MustLoad(targetName)
	p, err := asm.New(a).Assemble("test.s", asmText)
	if err != nil {
		t.Fatalf("%s: assemble: %v\n%s", targetName, err, asmText)
	}
	m := conc.NewMachine(a)
	m.LoadProgram(p)
	m.Input = input
	stop := m.Run(1_000_000)
	if stop.Kind != conc.StopExit && stop.Kind != conc.StopHalt {
		t.Fatalf("%s: run: %v\n%s", targetName, stop, asmText)
	}
	return m.Output
}

// wideTargets lists the targets whose words hold at least 32 bits.
func wideTargets() []string {
	var out []string
	for _, target := range minic.Targets() {
		if arch.MustLoad(target).Bits >= 32 {
			out = append(out, target)
		}
	}
	return out
}

// runAll compiles and runs on every target, demanding identical output.
func runAll(t *testing.T, src string, input []byte, want []byte) {
	t.Helper()
	for _, target := range minic.Targets() {
		got := compileRun(t, target, src, input)
		if string(got) != string(want) {
			t.Errorf("%s: output % x, want % x", target, got, want)
		}
	}
}

func TestHelloByte(t *testing.T) {
	runAll(t, `
void main() {
	output('A');
	output('B' + 1);
}
`, nil, []byte{'A', 'C'})
}

func TestArithmetic(t *testing.T) {
	runAll(t, `
void main() {
	output((3 + 4) * 5 - 2);        // 33
	output(100 / 7);                // 14
	output(100 % 7);                // 2
	output((1 << 5) | 3);           // 35
	output((0xff ^ 0xf0) & 0x1f);   // 15
	output(10 - 2 - 3);             // 5 (left assoc)
	output(2 + 3 * 4);              // 14 (precedence)
}
`, nil, []byte{33, 14, 2, 35, 15, 5, 14})
}

func TestComparisonsAndLogic(t *testing.T) {
	runAll(t, `
void main() {
	output(3 < 5);
	output(5 < 3);
	output(5 <= 5);
	output(5 > 3);
	output(3 >= 5);
	output(4 == 4);
	output(4 != 4);
	output(!0);
	output(!7);
	output(1 && 2);
	output(1 && 0);
	output(0 || 3);
	output(0 || 0);
}
`, nil, []byte{1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
}

func TestNegativeNumbers(t *testing.T) {
	// -8 / 3 is -2 on the signed targets; m16 divides unsigned, so keep
	// this case off m16 and test signedness separately.
	for _, target := range wideTargets() {
		got := compileRun(t, target, `
void main() {
	int x;
	x = -8;
	output(x / 3 + 10);      // -2 + 10 = 8
	output(x % 3 + 10);      // -2 + 10 = 8
	output((x >> 1) + 20);   // -4 + 20 = 16 (arithmetic shift)
	output(0 - x);           // 8
}
`, nil)
		want := []byte{8, 8, 16, 8}
		if string(got) != string(want) {
			t.Errorf("%s: % x, want % x", target, got, want)
		}
	}
}

func TestControlFlow(t *testing.T) {
	runAll(t, `
void main() {
	int i, sum;
	sum = 0;
	i = 1;
	while (i <= 10) {
		if (i % 2 == 0) sum = sum + i;
		i = i + 1;
	}
	output(sum);     // 2+4+6+8+10 = 30
	if (sum > 100) output(1); else output(2);
}
`, nil, []byte{30, 2})
}

func TestFunctionsAndRecursion(t *testing.T) {
	runAll(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}

int twice(int x) { return 2 * x; }

void main() {
	output(fib(10));        // 55
	output(twice(fib(5)));  // 2*5 = 10
}
`, nil, []byte{55, 10})
}

func TestGlobalsAndArrays(t *testing.T) {
	runAll(t, `
int counter = 3;
int table[8] = { 2, 4, 8, 16 };

void bump() { counter = counter + 1; }

void main() {
	int i;
	bump();
	bump();
	output(counter);       // 5
	i = 4;
	while (i < 8) {
		table[i] = table[i - 1] + 1;
		i = i + 1;
	}
	output(table[3]);      // 16
	output(table[7]);      // 20
}
`, nil, []byte{5, 16, 20})
}

func TestInputDriven(t *testing.T) {
	src := `
void main() {
	int c;
	c = input();
	while (c >= 0) {
		if (c >= 'a') {
			if (c <= 'z') c = c - 32;   // to upper
		}
		output(c);
		c = input();
	}
}
`
	// The EOF marker is the all-ones word, i.e. -1 at every width.
	runAll(t, src, []byte("aZ9"), []byte("AZ9"))
}

func TestEuclidGCD(t *testing.T) {
	runAll(t, `
int gcd(int a, int b) {
	int t;
	while (b != 0) {
		t = b;
		b = a % b;
		a = t;
	}
	return a;
}
void main() {
	output(gcd(48, 36));   // 12
	output(gcd(7, 13));    // 1
}
`, nil, []byte{12, 1})
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"void main() { x = 1; }", "unknown variable"},
		{"void main() { f(); }", "unknown function"},
		{"int f(int a) { return a; } void main() { f(); }", "takes 1 argument"},
		{"void f() {} void main() { output(f()); }", "used as a value"},
		{"void main() { return 1; }", "void but returns"},
		{"int f() { return; } void main() { f(); }", "must return"},
		{"int input() { return 0; } void main() {}", "builtin"},
		{"int g; int g; void main() {}", "redeclared"},
		{"void main() { int x; }", ""}, // fine: trailing decl only
	}
	for _, c := range cases {
		_, err := minic.CompileSource("t.c", c.src, "tiny32")
		if c.want == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestNoMain(t *testing.T) {
	if _, err := minic.CompileSource("t.c", "int f() { return 0; }", "tiny32"); err == nil {
		t.Error("program without main compiled")
	}
}

func TestUnknownTarget(t *testing.T) {
	if _, err := minic.CompileSource("t.c", "void main() {}", "pdp11"); err == nil {
		t.Error("unknown target accepted")
	}
}
