package minic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/conc"
	"repro/internal/minic"
)

// refExpr is a random expression together with a reference evaluator:
// the generator builds the MiniC source text and the expected value side
// by side, so compiling and running it checks the whole pipeline
// (parser, precedence, code generator, ISA semantics) against Go's
// arithmetic. eval computes at the target's word width w, wrapping
// (sign-extending from bit w-1) after each operation, so at w = 32 it is
// exactly int32 arithmetic.
type refExpr struct {
	src  string
	eval func(a, b int64, w uint) int64
}

// wrap truncates v to a w-bit word, sign-extended.
func wrap(v int64, w uint) int64 { return v << (64 - w) >> (64 - w) }

func genRefExpr(r *rand.Rand, depth int) refExpr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			v := int64(r.Intn(2000) - 1000)
			return refExpr{fmt.Sprintf("%d", v), func(a, b int64, w uint) int64 { return v }}
		case 1:
			return refExpr{"a", func(a, b int64, w uint) int64 { return a }}
		default:
			return refExpr{"b", func(a, b int64, w uint) int64 { return b }}
		}
	}
	x := genRefExpr(r, depth-1)
	y := genRefExpr(r, depth-1)
	switch r.Intn(13) {
	case 0:
		return refExpr{"(" + x.src + " + " + y.src + ")",
			func(a, b int64, w uint) int64 { return wrap(x.eval(a, b, w)+y.eval(a, b, w), w) }}
	case 1:
		return refExpr{"(" + x.src + " - " + y.src + ")",
			func(a, b int64, w uint) int64 { return wrap(x.eval(a, b, w)-y.eval(a, b, w), w) }}
	case 2:
		return refExpr{"(" + x.src + " * " + y.src + ")",
			func(a, b int64, w uint) int64 { return wrap(x.eval(a, b, w)*y.eval(a, b, w), w) }}
	case 3:
		// Division by a positive constant avoids both the zero divisor
		// and the INT_MIN/-1 overflow.
		d := int64(r.Intn(9) + 1)
		return refExpr{"(" + x.src + fmt.Sprintf(" / %d)", d),
			func(a, b int64, w uint) int64 { return x.eval(a, b, w) / d }}
	case 4:
		d := int64(r.Intn(9) + 1)
		return refExpr{"(" + x.src + fmt.Sprintf(" %% %d)", d),
			func(a, b int64, w uint) int64 { return x.eval(a, b, w) % d }}
	case 5:
		return refExpr{"(" + x.src + " & " + y.src + ")",
			func(a, b int64, w uint) int64 { return x.eval(a, b, w) & y.eval(a, b, w) }}
	case 6:
		return refExpr{"(" + x.src + " | " + y.src + ")",
			func(a, b int64, w uint) int64 { return x.eval(a, b, w) | y.eval(a, b, w) }}
	case 7:
		return refExpr{"(" + x.src + " ^ " + y.src + ")",
			func(a, b int64, w uint) int64 { return x.eval(a, b, w) ^ y.eval(a, b, w) }}
	case 8:
		sh := r.Intn(31)
		return refExpr{"(" + x.src + fmt.Sprintf(" << %d)", sh),
			func(a, b int64, w uint) int64 { return wrap(x.eval(a, b, w)<<sh, w) }}
	case 9:
		sh := r.Intn(31)
		return refExpr{"(" + x.src + fmt.Sprintf(" >> %d)", sh),
			func(a, b int64, w uint) int64 { return x.eval(a, b, w) >> sh }} // arithmetic
	case 10:
		return refExpr{"(" + x.src + " < " + y.src + ")",
			func(a, b int64, w uint) int64 { return b2i(x.eval(a, b, w) < y.eval(a, b, w)) }}
	case 11:
		return refExpr{"(" + x.src + " == " + y.src + ")",
			func(a, b int64, w uint) int64 { return b2i(x.eval(a, b, w) == y.eval(a, b, w)) }}
	default:
		return refExpr{"(-" + x.src + ")",
			func(a, b int64, w uint) int64 { return wrap(-x.eval(a, b, w), w) }}
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// checkRefExpr compiles one reference expression for every target whose
// word is at least 32 bits wide and compares the low 32 bits of the
// machine result with the reference at that width. a and b are the two
// input bytes the program reads.
func checkRefExpr(t *testing.T, e refExpr, a, b int64) {
	t.Helper()
	src := fmt.Sprintf(`
void main() {
	int a, b, v;
	a = input();
	b = input();
	v = %s;
	output(v & 255);
	output((v >> 8) & 255);
	output((v >> 16) & 255);
	output((v >> 24) & 255);
	exit();
}
`, e.src)
	for _, target := range wideTargets() {
		ar := arch.MustLoad(target)
		want := uint32(e.eval(a, b, ar.Bits))
		wantBytes := []byte{byte(want), byte(want >> 8), byte(want >> 16), byte(want >> 24)}
		asmText, err := minic.CompileSource("fuzz.c", src, target)
		if err != nil {
			t.Fatalf("%s: %v\nexpr: %s", target, err, e.src)
		}
		pr, err := asm.New(ar).Assemble("fuzz.s", asmText)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		m := conc.NewMachine(ar)
		m.LoadProgram(pr)
		m.Input = []byte{byte(a), byte(b)}
		stop := m.Run(1_000_000)
		if stop.Kind != conc.StopExit {
			t.Fatalf("%s: %v\nexpr: %s", target, stop, e.src)
		}
		if string(m.Output) != string(wantBytes) {
			t.Fatalf("%s: a=%d b=%d expr %s\n got % x\nwant % x",
				target, a, b, e.src, m.Output, wantBytes)
		}
	}
}

// TestExpressionFuzzAgainstGo compiles random expressions for every
// target with words of at least 32 bits and compares the machine result
// with Go's arithmetic at the target's width.
func TestExpressionFuzzAgainstGo(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		e := genRefExpr(r, 4)
		checkRefExpr(t, e, int64(r.Intn(256)), int64(r.Intn(256)))
	}
}

// FuzzExprCompile is the coverage-guided version: the fuzzer steers the
// generator seed and the two input bytes through the same
// compile-assemble-execute-compare oracle.
func FuzzExprCompile(f *testing.F) {
	f.Add(int64(77), byte(3), byte(200))
	f.Add(int64(1), byte(0), byte(0))
	f.Add(int64(2026), byte(255), byte(128))
	f.Add(int64(-4242), byte(17), byte(17))
	f.Fuzz(func(t *testing.T, seed int64, a, b byte) {
		r := rand.New(rand.NewSource(seed))
		e := genRefExpr(r, 4)
		checkRefExpr(t, e, int64(a), int64(b))
	})
}
