package obs

import (
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from many goroutines and asserts the exact totals: the instruments
// must lose no updates under contention (run under -race in the tier-1
// set).
func TestConcurrentInstruments(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10000
	)
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_level", "level")
	h := r.Histogram("test_latency_seconds", "lat", []float64{0.5, 1.5, 2.5})

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(2)
				// Values 0,1,2,3 cycle through every bucket including
				// the +Inf overflow; each is integer-exact in float64,
				// so the CAS-accumulated sum must come out exact too.
				h.Observe(float64(j % 4))
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.Value(), int64(goroutines*perG); got != want {
		t.Errorf("counter: got %d, want %d", got, want)
	}
	if got, want := g.Value(), int64(2*goroutines*perG); got != want {
		t.Errorf("gauge: got %d, want %d", got, want)
	}
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Errorf("histogram count: got %d, want %d", got, want)
	}
	// Sum of one full 0,1,2,3 cycle is 6; perG is a multiple of 4.
	if got, want := h.Sum(), float64(goroutines*perG/4*6); got != want {
		t.Errorf("histogram sum: got %g, want %g", got, want)
	}
	_, counts := h.Buckets()
	for i, n := range counts {
		if want := int64(goroutines * perG / 4); n != want {
			t.Errorf("bucket %d: got %d, want %d", i, n, want)
		}
	}
}

// TestRegistryGetOrCreate checks that concurrent registration under one
// name yields a single instrument, so independently constructed engines
// aggregate into the same series.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	counters := make([]*Counter, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counters[i] = r.Counter("shared_total", "help")
			counters[i].Inc()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if counters[i] != counters[0] {
			t.Fatalf("registration %d returned a distinct counter", i)
		}
	}
	if got := counters[0].Value(); got != goroutines {
		t.Errorf("shared counter: got %d, want %d", got, goroutines)
	}
}

// TestNilSafety: every instrument and accessor must no-op on nil, since
// a nil Obs is the engine's zero-cost off switch.
func TestNilSafety(t *testing.T) {
	var o *Obs
	if o.Registry() != nil || o.Tracer() != nil {
		t.Error("nil Obs accessors must return nil")
	}
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", TimeBuckets)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read zero")
	}
	var tr *Tracer
	tr.Event("spawn", 0, 0, 0, "")
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer must read empty")
	}
}
