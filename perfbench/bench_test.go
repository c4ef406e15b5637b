package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// smallSize shrinks every workload so a test run takes seconds.
var smallSize = sizes{
	ladderK: 8, ladders: 2, csortN: 4, csortT: 64,
	svcLadderK: 5, svcCsortN: 3, svcCsortT: 32, svcNeedle: 3, svcWarmup: 6, svcPeakJobs: 10,
	setupReps: 2, minOps: 2,
}

var workloads = []string{"ladder", "csort", "service"}

func runSmall(t *testing.T, workload string, seed int64, traced bool) *bench {
	t.Helper()
	b := &bench{seed: seed, seconds: 300 * time.Millisecond, traced: traced, size: smallSize, metrics: map[string]metric{}}
	if traced {
		b.tr = newTracer()
	}
	if err := b.run(workload); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return b
}

// declared reads the metric catalog of BENCHMARK.json as name -> unit.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj map[string]json.RawMessage
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(bj[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkNames(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// Every workload passes its correctness checks and reports exactly the
// metrics BENCHMARK.json declares, in both modes.
func TestWorkloadsCorrectAndDeclared(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			b := runSmall(t, wl, 7, traced)
			if b.attempted == 0 || b.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", wl, traced, b.failed, b.attempted, b.problems)
			}
			want := e2e
			if traced {
				want = layers
			}
			checkNames(t, wl, b.metrics, want)
			if !traced {
				for name, m := range b.metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
					}
				}
			}
		}
	}
}

// The catalogs in the code and in BENCHMARK.json agree, so the two
// lists cannot drift apart unnoticed.
func TestCatalogsMatchBenchmarkJSON(t *testing.T) {
	for section, cat := range map[string]catalog{"end_to_end": endToEnd, "per_layer": perLayer} {
		got := map[string]metric{}
		for _, m := range cat {
			got[m.name] = metric{Unit: m.unit}
		}
		checkNames(t, section, got, declared(t, section))
	}
}

// Exact counters repeat bit for bit across two runs of one seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		a, b := runSmall(t, wl, 3, false), runSmall(t, wl, 3, false)
		if len(a.counts) == 0 {
			t.Fatalf("%s: no exact counts recorded", wl)
		}
		if d := a.counts.diff(b.counts); d != "" {
			t.Errorf("%s: exact counts differ between two runs of seed 3: %s", wl, d)
		}
	}
}

// The seed changes the programs, not the shape of the workload: a
// ladder always has 2^k paths, a csort n! paths.
func TestSeedsKeepShape(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		for _, wl := range []string{"ladder", "csort"} {
			b := runSmall(t, wl, seed, false)
			if b.failed != 0 {
				t.Errorf("%s seed %d: %v", wl, seed, b.problems)
			}
		}
	}
}

// The service stream mixes kinds and ISAs the same way for every seed
// and repeats every other submission.
func TestJobStreamMix(t *testing.T) {
	mix := func(seed int64) []string {
		st := newJobStream(seed, smallSize)
		var out []string
		for i := 0; i < 60; i++ {
			im, err := st.at(i)
			if err != nil {
				t.Fatal(err)
			}
			fresh := "fresh"
			if i%2 == 1 {
				fresh = "repeat"
				if prev, _ := st.at(i - 1); prev.kind != im.kind || prev.isa != im.isa {
					t.Errorf("seed %d: repeat %d is %s/%s after %s/%s", seed, i, im.kind, im.isa, prev.kind, prev.isa)
				}
			}
			out = append(out, im.kind+"/"+im.isa+"/"+fresh)
		}
		sort.Strings(out)
		return out
	}
	a, b := mix(1), mix(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeds 1 and 2 give different job mixes: %s vs %s", a[i], b[i])
		}
	}
}
