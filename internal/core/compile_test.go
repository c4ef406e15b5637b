package core_test

import (
	"testing"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/harness"
)

// exploreWith runs one engine exploration with compiled execution
// toggled, the standard checkers attached.
func exploreWith(t testing.TB, archName, src string, opts core.Options) *core.Report {
	p := build(t, archName, src)
	e := core.NewEngine(arch.MustLoad(archName), p, opts)
	for _, c := range checker.All() {
		e.AddChecker(c)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCompiledMatchesInterpretedExploration checks, across all four
// ADLs, that compiled execution explores exactly the interpreted path
// multiset — same statuses, end pcs, step counts, depths, bugs and
// coverage — on branch-heavy and byte-matching programs.
func TestCompiledMatchesInterpretedExploration(t *testing.T) {
	// tiny64 is outside the harness generators; a hand-written branch
	// ladder over two input bytes keeps all four ADLs covered.
	tiny64Ladder := `
_start:
	li r3, 64
	li r2, 0
	trap 1
	bltu r1, r3, skip1
	addi r2, r2, 1
skip1:
	trap 1
	bltu r1, r3, skip2
	addi r2, r2, 2
skip2:
	mov r1, r2
	trap 2
	trap 0
`
	type tcase struct {
		name string
		src  string
		in   int
	}
	for _, archName := range arch.Names() {
		var cases []tcase
		if archName == "tiny64" {
			cases = []tcase{{"ladder", tiny64Ladder, 2}}
		} else {
			cases = []tcase{
				{"ladder", harness.BranchLadder(archName, 5), 5},
				{"needle", harness.Needle(archName, []byte{7, 3}), 4},
			}
		}
		for _, tc := range cases {
			t.Run(archName+"/"+tc.name, func(t *testing.T) {
				opts := core.Options{InputBytes: tc.in, MaxPaths: 5000}
				compiled := exploreWith(t, archName, tc.src, opts)
				opts.NoCompile = true
				interp := exploreWith(t, archName, tc.src, opts)

				if !equalStrings(pathKeys(compiled), pathKeys(interp)) {
					t.Error("path multiset differs between compiled and interpreted runs")
				}
				if !equalStrings(bugKeys(compiled), bugKeys(interp)) {
					t.Errorf("bug set differs: compiled %v vs interpreted %v",
						bugKeys(compiled), bugKeys(interp))
				}
				if compiled.Stats.Coverage != interp.Stats.Coverage {
					t.Errorf("coverage: compiled %d vs interpreted %d",
						compiled.Stats.Coverage, interp.Stats.Coverage)
				}
				if compiled.Stats.Instructions != interp.Stats.Instructions {
					t.Errorf("instructions: compiled %d vs interpreted %d",
						compiled.Stats.Instructions, interp.Stats.Instructions)
				}
				if compiled.Stats.CompiledUnits == 0 {
					t.Error("compiled run compiled no units")
				}
				if interp.Stats.CompiledUnits != 0 {
					t.Errorf("NoCompile run compiled %d units", interp.Stats.CompiledUnits)
				}
			})
		}
	}
}

// TestCompiledSelfModifyingCode pins the per-state cache guard: a state
// that overwrites upcoming instruction bytes must execute the new bytes
// (via the interpreted fallback), not a stale compiled unit. The
// program patches an already-executed instruction and loops back over
// it; r1 ends at 99 only if the patch took effect.
func TestCompiledSelfModifyingCode(t *testing.T) {
	src := `
_start:
	li r3, src
	lw r2, 0(r3)
	li r4, patch
	li r5, 0
again:
patch:
	addi r1, r0, 7
	bne r5, r0, done
	addi r5, r5, 1
	sw r2, 0(r4)
	jmp again
done:
	mov r1, r1
	halt
src:
	addi r1, r0, 99
`
	opts := core.Options{MaxPaths: 10}
	compiled := exploreWith(t, "tiny32", src, opts)
	opts.NoCompile = true
	interp := exploreWith(t, "tiny32", src, opts)
	for _, r := range []*core.Report{compiled, interp} {
		if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusHalt {
			t.Fatalf("paths %v, want one halted path", r.Paths)
		}
	}
	if !equalStrings(pathKeys(compiled), pathKeys(interp)) {
		t.Errorf("self-modifying path differs: compiled %v vs interpreted %v",
			pathKeys(compiled), pathKeys(interp))
	}
	// Equal step counts prove both runs executed the patched (not the
	// stale) loop exit on the second pass.
	if compiled.Paths[0].Steps != interp.Paths[0].Steps {
		t.Errorf("steps: compiled %d vs interpreted %d",
			compiled.Paths[0].Steps, interp.Paths[0].Steps)
	}
}

// TestCompiledForwardPatchInSuperblock pins the per-unit window
// re-check of superblock execution: a straight-line store overwrites a
// later instruction of the superblock it runs in, so the units after it
// were decoded from bytes that are now stale. The path ends at the good
// halt only if the patched instruction ran. Compiled and interpreted
// runs must agree at 1 and 2 workers.
func TestCompiledForwardPatchInSuperblock(t *testing.T) {
	src := `
_start:
	li r3, src
	lw r2, 0(r3)
	li r4, patch
	li r6, 99
	sw r2, 0(r4)
	addi r5, r5, 1
patch:
	addi r1, r0, 7
	beq r1, r6, good
	halt
good:
	mov r1, r1
	halt
src:
	addi r1, r0, 99
`
	var ref *core.Report
	for _, workers := range []int{1, 2} {
		for _, noCompile := range []bool{false, true} {
			r := exploreWith(t, "tiny32", src, core.Options{MaxPaths: 10, Workers: workers, NoCompile: noCompile})
			if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusHalt {
				t.Fatalf("workers=%d noCompile=%v: paths %v, want one halted path", workers, noCompile, r.Paths)
			}
			if ref == nil {
				ref = r
				continue
			}
			if !equalStrings(pathKeys(r), pathKeys(ref)) || r.Paths[0].Steps != ref.Paths[0].Steps {
				t.Errorf("workers=%d noCompile=%v: path %v (%d steps), want %v (%d steps)", workers, noCompile,
					pathKeys(r), r.Paths[0].Steps, pathKeys(ref), ref.Paths[0].Steps)
			}
		}
	}
	// The good halt is the last instruction before src: the patched
	// compare took the branch.
	good := build(t, "tiny32", src).Symbols["good"]
	if end := ref.Paths[0].EndPC; end != good+4 {
		t.Errorf("path ended at %#x, want the halt after good (%#x): the stale unit ran", end, good+4)
	}
	if ref.Stats.SuperblockHits == 0 {
		t.Error("the patching store did not run inside a superblock")
	}
}

// TestCompiledSuperblocksUsed checks the superblock layer actually
// engages on straightline-heavy code.
func TestCompiledSuperblocksUsed(t *testing.T) {
	r := exploreWith(t, "tiny32", harness.Throughput("checksum", 30),
		core.Options{MaxPaths: 10, MaxSteps: 1 << 20})
	if r.Stats.Superblocks == 0 || r.Stats.SuperblockHits == 0 || r.Stats.SuperblockInsns == 0 {
		t.Fatalf("superblocks unused: %+v", r.Stats)
	}
	if r.Stats.SuperblockInsns*2 < r.Stats.Instructions {
		t.Errorf("only %d of %d instructions in superblocks",
			r.Stats.SuperblockInsns, r.Stats.Instructions)
	}
}

// TestCompiledParallelDeterminism checks that workers 1, 2 and 4 — all
// sharing one compile cache — explore the same path set as the serial
// interpreted run. Under -race this doubles as the data-race workout
// for the shared cache.
func TestCompiledParallelDeterminism(t *testing.T) {
	src := harness.BranchLadder("tiny32", 7)
	ref := exploreWith(t, "tiny32", src,
		core.Options{InputBytes: 7, MaxPaths: 5000, NoCompile: true})
	for _, workers := range []int{1, 2, 4} {
		r := exploreWith(t, "tiny32", src,
			core.Options{InputBytes: 7, MaxPaths: 5000, Workers: workers})
		if !equalStrings(pathKeys(r), pathKeys(ref)) {
			t.Errorf("workers=%d: path multiset differs from interpreted serial run", workers)
		}
		if r.Stats.CompiledUnits == 0 {
			t.Errorf("workers=%d: no compiled units", workers)
		}
	}
}

// BenchmarkSymCompiledVsInterp tracks the engine-level step-path
// speedup on a concrete-heavy single-path workload (the symbolic
// analogue of the emulator Table 3 runs).
func BenchmarkSymCompiledVsInterp(b *testing.B) {
	src := harness.Throughput("checksum", 120)
	run := func(b *testing.B, noCompile bool) {
		var insns int64
		for b.Loop() {
			r := exploreWith(b, "tiny32", src,
				core.Options{MaxPaths: 10, MaxSteps: 1 << 20, NoCompile: noCompile})
			insns = r.Stats.Instructions
		}
		b.ReportMetric(float64(insns)*float64(b.N)/b.Elapsed().Seconds(), "insns/s")
	}
	b.Run("compiled", func(b *testing.B) { run(b, false) })
	b.Run("interp", func(b *testing.B) { run(b, true) })
}
