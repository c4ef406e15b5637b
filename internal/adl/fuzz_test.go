package adl_test

import (
	"runtime"
	"testing"

	"repro/arch"
	"repro/internal/adl"
)

// FuzzADLLoad feeds arbitrary descriptions to the front end: Load must
// return a model or an error, never panic, and allocate no more than a
// bounded amount per input byte — a short description must not be able
// to demand a huge model.
func FuzzADLLoad(f *testing.F) {
	for _, name := range arch.Names() {
		src, err := arch.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		adl.Load("fuzz.adl", src) //nolint:errcheck // only panics and allocation matter
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16<<10*len(src)); n > limit {
			t.Fatalf("Load allocated %d bytes for a %d-byte description (limit %d)", n, len(src), limit)
		}
	})
}
