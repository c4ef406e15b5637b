package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The generators below turn a seed into program sources. The program
// under test only ever sees the images built from them; the seed stays
// on the benchmark's side.

// cmpKinds are the rung comparisons of a branch ladder. Every ladder
// uses each kind about equally often (only the order and thresholds
// depend on the seed), so its solver cost does not drift between seeds.
var cmpKinds = []string{"ltu", "geu", "eq", "ne", "lt", "ge"}

// rung is one two-way branch on a fresh input byte.
type rung struct {
	kind string
	t    int // threshold, chosen so both sides stay feasible
}

// ladderRungs draws k rungs from rng.
func ladderRungs(rng *rand.Rand, k int) []rung {
	kinds := make([]string, k)
	for i := range kinds {
		kinds[i] = cmpKinds[i%len(cmpKinds)]
	}
	rng.Shuffle(k, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	rs := make([]rung, k)
	for i, kd := range kinds {
		rs[i] = rung{kind: kd, t: 1 + rng.Intn(255)} // 1..255: x<t and x>=t both feasible for a byte
	}
	return rs
}

// ladderAsm renders a ladder as assembly for one ISA: 2^k paths, each
// rung reads one input byte and branches on it.
func ladderAsm(isa string, rs []rung) string {
	var sb strings.Builder
	switch isa {
	case "tiny32", "rv32i":
		// tiny32 and rv32i share the branch mnemonics; only registers
		// and the trap idiom differ.
		in, tmp, acc := "r1", "r2", "r3"
		read := "\ttrap 1\n"
		load := func(t int) string { return fmt.Sprintf("\tli %s, %d\n", tmp, t) }
		prologue := "_start:\n\tli r3, 0\n"
		epilogue := "\tmov r1, r3\n\ttrap 2\n\ttrap 0\n"
		if isa == "rv32i" {
			in, tmp, acc = "a0", "t1", "s3"
			read = "\taddi a7, zero, 1\n\tecall\n"
			load = func(t int) string { return fmt.Sprintf("\taddi t1, zero, %d\n", t) }
			prologue = "_start:\n\taddi s3, zero, 0\n"
			epilogue = "\taddi a0, s3, 0\n\taddi a7, zero, 2\n\tecall\n\taddi a7, zero, 0\n\tecall\n"
		}
		sb.WriteString(prologue)
		for i, r := range rs {
			br := map[string]string{"ltu": "bltu", "geu": "bgeu", "eq": "beq", "ne": "bne", "lt": "blt", "ge": "bge"}[r.kind]
			fmt.Fprintf(&sb, "%s%s\t%s %s, %s, skip%d\n\taddi %s, %s, 1\nskip%d:\n", read, load(r.t), br, in, tmp, i, acc, acc, i)
		}
		sb.WriteString(epilogue)
	case "m16":
		sb.WriteString("_start:\n\tldi g3, 0\n")
		for i, r := range rs {
			br := map[string]string{"ltu": "bcs", "geu": "bcc", "eq": "beq", "ne": "bne", "lt": "blt", "ge": "bge"}[r.kind]
			fmt.Fprintf(&sb, "\ttrap 1\n\tcmpi g1, %d\n\t%s skip%d\n\taddi g3, 1\nskip%d:\n", r.t, br, i, i)
		}
		sb.WriteString("\tmov g1, g3\n\ttrap 2\n\ttrap 0\n")
	default:
		panic("perfbench: no ladder template for " + isa)
	}
	return sb.String()
}

// csortParams are the seeded knobs of the csort MiniC program. They
// change the constraints and the memory contents, never the path count.
type csortParams struct {
	n, table   int // symbolic bytes sorted; words of the concrete pre-pass table
	mul, add   int // table[i] = i*mul + add
	mask       int // inputs are XORed with mask before sorting
	descending bool
}

func newCsortParams(rng *rand.Rand, n, table int) csortParams {
	return csortParams{
		n: n, table: table,
		mul: 1 + 2*rng.Intn(64), add: rng.Intn(256),
		mask: rng.Intn(256), descending: rng.Intn(2) == 1,
	}
}

// csortSrc is a bubble sort of n symbolic bytes held in a global array.
// A concrete loop first fills a global table, so every state the sort
// forks carries a populated memory overlay. Sorting n distinct-or-equal
// bytes follows exactly n! paths: each path is one stable ranking.
func csortSrc(p csortParams) string {
	cmp := ">"
	if p.descending {
		cmp = "<"
	}
	return fmt.Sprintf(`
int table[%[1]d];
int a[%[2]d];

void main() {
	int i, j, t;
	i = 0;
	while (i < %[1]d) { table[i] = i * %[3]d + %[4]d; i = i + 1; }
	i = 0;
	while (i < %[2]d) { a[i] = input() ^ %[5]d; i = i + 1; }
	i = 0;
	while (i < %[2]d - 1) {
		j = 0;
		while (j < %[2]d - 1 - i) {
			if (a[j] %[6]s a[j + 1]) { t = a[j]; a[j] = a[j + 1]; a[j + 1] = t; }
			j = j + 1;
		}
		i = i + 1;
	}
	i = 0;
	while (i < %[2]d) { output(a[i]); i = i + 1; }
	exit();
}
`, p.table, p.n, p.mul, p.add, p.mask, cmp)
}

// needleKey draws the secret key of a needle program (internal/harness
// plants a bug behind a chain of byte comparisons against it).
func needleKey(rng *rand.Rand, n int) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = byte('a' + rng.Intn(26))
	}
	return k
}
