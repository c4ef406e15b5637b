package minic_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/minic"
)

// BenchmarkCompile compiles every harness MiniC workload for every
// target, the backends already derived: the cost each compile pays.
func BenchmarkCompile(b *testing.B) {
	targets := minic.Targets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range harness.CWorkloads {
			for _, target := range targets {
				if _, err := minic.CompileSource("w.c", src, target); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
