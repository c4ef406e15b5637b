// Command perfbench is the repository's benchmark. It drives the
// symbolic execution stack through its public packages and the symexd
// HTTP API on one of three seeded workloads, checks every result, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run) as one JSON line. See README.md.
//
//	go run . --workload ladder --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark invocation.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer // nil unless traced
	size    sizes

	attempted, failed int
	problems          []string // failed correctness checks, for the report
	metrics           map[string]metric
	counts            counts // exact counters of this seed, for the fingerprint
}

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	ladderK        int // rungs of a ladder of the ladder workload
	ladders        int // ladders the ladder workload explores per round
	csortN, csortT int // sorted bytes and pre-pass table words of csort
	svcLadderK     int // rungs of a service ladder job
	svcCsortN      int // sorted bytes of a service csort job
	svcCsortT      int // table words of a service csort job
	svcNeedle      int // key length of a service needle job
	svcWarmup      int // jobs of the warm-up generation
	svcPeakJobs    int // measured jobs peak_rss_mb covers on service
	setupReps      int // set-ups timed for setup_s
	minOps         int // operations measured even when time runs out
}

var fullSize = sizes{
	ladderK: 14, ladders: 4, csortN: 6, csortT: 1024,
	svcLadderK: 7, svcCsortN: 4, svcCsortT: 256, svcNeedle: 4, svcWarmup: 24, svcPeakJobs: 600,
	setupReps: 15, minOps: 1,
}

func main() {
	workload := flag.String("workload", "", "ladder, csort or service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	recordCounts := flag.String("record-counts", "", "merge this seed's exact counts into the given fingerprint file")
	flag.Parse()

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		size:    fullSize,
		metrics: map[string]metric{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := b.run(*workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.printReport(os.Stdout, *workload)
	if err := b.checkCounts(os.Stdout, *workload, *recordCounts); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.traced {
		out := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := b.tr.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", out)
	}
	line, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and fills b.metrics.
func (b *bench) run(workload string) error {
	switch workload {
	case "ladder":
		return b.runLadder()
	case "csort":
		return b.runCsort()
	case "service":
		return b.runService()
	}
	return fmt.Errorf("unknown workload %q (want ladder, csort or service)", workload)
}

// op records the outcome of one operation (an exploration round or a
// job); every failed check counts the operation as failed.
func (b *bench) op(problems ...string) {
	b.attempted++
	if len(problems) > 0 {
		b.failed++
		b.problems = append(b.problems, problems...)
	}
}

// set records a metric with the unit its catalog entry declares.
func (b *bench) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalog")
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// printReport writes the human-readable summary that precedes the JSON
// line.
func (b *bench) printReport(w *os.File, workload string) {
	mode := "end-to-end"
	if b.traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s): %d operations, %d failed\n", workload, b.seed, mode, b.attempted, b.failed)
	for i, p := range b.problems {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more failed checks\n", len(b.problems)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// ---- measurement helpers ----

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linear-interpolation quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	gcCPU      float64 // seconds of GC CPU time
	allocBytes float64 // cumulative heap allocation
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rtNames[0]}, {Name: rtNames[1]}}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[1].Value.Uint64())
	}
	return r
}

func (r rtSample) sub(o rtSample) rtSample {
	return rtSample{gcCPU: r.gcCPU - o.gcCPU, allocBytes: r.allocBytes - o.allocBytes}
}

// settle collects the garbage the previous operation left and returns
// it to the kernel, outside any timed interval, so one operation's heap
// does not tax the next. It then restarts the resident-set high-water
// mark, so peakRSSMB covers the operations that follow alone. The span
// is recorded under parent.
func (b *bench) settle(parent int) {
	id := b.tr.begin("bench.gc", parent)
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later). Where
	// that is refused, the peak covers the run so far, which only
	// overstates it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	b.tr.end(id)
}
