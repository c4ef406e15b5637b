// Package obs is the engine-wide telemetry subsystem: a lightweight,
// allocation-conscious metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms), a structured exploration tracer, and
// a live HTTP introspection endpoint (Prometheus text metrics, expvar,
// net/http/pprof).
//
// The package is designed so that instrumentation can stay wired into
// the hot paths permanently:
//
//   - Every instrument method is nil-receiver safe. Code holds plain
//     *Counter / *Gauge / *Histogram pointers and calls them
//     unconditionally; when telemetry is off the pointers are nil and
//     each call is a single predictable branch.
//   - Instruments are updated with sync/atomic only — no locks on the
//     record path, safe under the race detector, shared freely across
//     exploration workers.
//   - Registration is get-or-create by name, so many engines (e.g. the
//     per-worker sub-engines of a parallel run, or the hundreds of
//     short-lived engines of a difftest soak) resolve to the same
//     underlying instrument and their counts aggregate naturally.
//
// Metric names follow Prometheus conventions (snake_case, unit
// suffixes, `_total` for counters). A name may carry a literal label
// set — `difftest_checks_total{layer="roundtrip"}` — which the text
// encoder groups under one metric family. The full catalog of metrics
// the repository emits is documented in docs/observability.md.
package obs

import (
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// CoverSource is the semantic-coverage surface the introspection
// endpoint can serve (implemented by *cover.Collector). obs depends on
// this interface rather than on internal/cover so the dependency arrow
// keeps pointing from the stack into obs, never back out.
type CoverSource interface {
	// WriteText writes the human-readable coverage matrix.
	WriteText(w io.Writer) error
	// JSON returns the machine-readable report.
	JSON() ([]byte, error)
	// WritePrometheus writes the coverage gauges in Prometheus text form.
	WritePrometheus(w io.Writer) error
}

// ProfileSource is the exploration-profile surface the introspection
// endpoint can serve (implemented by *profile.Profiler). Like
// CoverSource, obs depends on this interface rather than on
// internal/profile so the dependency arrow keeps pointing into obs.
type ProfileSource interface {
	// WritePprof writes the gzipped pprof protobuf profile.
	WritePprof(w io.Writer) error
	// WriteText writes the human-readable hotspot report.
	WriteText(w io.Writer) error
	// JSON returns the machine-readable report.
	JSON() ([]byte, error)
}

// Obs bundles the telemetry sinks an analysis can carry: the metrics
// registry, (optionally) the exploration tracer, (optionally) the
// semantic-coverage collector the endpoint serves under /coverage, and
// (optionally) the exploration profiler served under /debug/profile. A
// nil *Obs means telemetry is fully disabled; all accessors are
// nil-safe.
type Obs struct {
	Reg     *Registry
	Trace   *Tracer
	Cover   CoverSource
	Profile ProfileSource
}

// New returns an Obs with a fresh registry and no tracer (metrics only).
func New() *Obs { return &Obs{Reg: NewRegistry()} }

// NewTracing returns an Obs with a fresh registry and a fresh tracer.
func NewTracing() *Obs { return &Obs{Reg: NewRegistry(), Trace: NewTracer()} }

// Registry returns the metrics registry, nil when o is nil.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Tracer returns the tracer, nil when o is nil or tracing is off.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// CoverSource returns the coverage source, nil when o is nil or
// coverage is off.
func (o *Obs) CoverSource() CoverSource {
	if o == nil {
		return nil
	}
	return o.Cover
}

// ProfileSource returns the profile source, nil when o is nil or
// profiling is off.
func (o *Obs) ProfileSource() ProfileSource {
	if o == nil {
		return nil
	}
	return o.Profile
}

// Counter is a monotonically increasing atomic counter. A counter may
// also carry a read-time source (Registry.DeriveCounter): its value is
// then its own count plus what the source reports.
type Counter struct {
	v   atomic.Int64
	src atomic.Pointer[func() int64]
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load() + read(&c.src)
}

// Gauge is an instantaneous atomic value, optionally offset by a
// read-time source (Registry.DeriveGauge).
type Gauge struct {
	v   atomic.Int64
	src atomic.Pointer[func() int64]
}

// read evaluates a read-time source, 0 when none is set.
func read(src *atomic.Pointer[func() int64]) int64 {
	if f := src.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// Set stores n. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n. No-op on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load() + read(&g.src)
}

// TimeBuckets is the default latency histogram layout: roughly
// logarithmic from 1µs to 10s, in seconds. It covers everything from a
// cached solver lookup to a pathological bit-blast.
var TimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// SuperblockLenBuckets is the chain-length histogram layout shared by
// the concrete emulator's and the symbolic engine's superblock metrics
// (docs/compile.md); superblocks are capped at 64 instructions.
var SuperblockLenBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters.
// Bucket i counts observations v with v <= bounds[i] (and greater than
// every lower bound); the last bucket is the implicit +Inf overflow.
type Histogram struct {
	bounds []float64 // immutable after construction
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// SumDuration returns the sum as a time.Duration, for latency
// histograms observed in seconds.
func (h *Histogram) SumDuration() time.Duration {
	return time.Duration(h.Sum() * float64(time.Second))
}

// Buckets returns the bucket bounds and the per-bucket (non-cumulative)
// counts; the final count is the +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = h.bounds
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// metric is one registered instrument.
type metric struct {
	name string // full series name, possibly with a literal label set
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of instruments. Registration is
// get-or-create: asking twice for the same name returns the same
// instrument, so independently constructed engines sharing a registry
// aggregate into the same series. All methods are safe for concurrent
// use and nil-receiver safe (returning nil instruments, which no-op).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric

	sharedMu sync.Mutex
	shared   map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric), shared: make(map[string]any)}
}

// Shared returns the value stored under key, creating it with mk on
// first use. A package that derives series from counts it keeps itself
// stores its per-registry state here; mk may register instruments.
// Returns nil on a nil registry.
func (r *Registry) Shared(key string, mk func() any) any {
	if r == nil {
		return nil
	}
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	v, ok := r.shared[key]
	if !ok {
		v = mk()
		r.shared[key] = v
	}
	return v
}

// DeriveCounter gives the counter registered under name a read-time
// source: from then on its value is its own count plus f(). The first
// source registered under a name wins. It exposes counts a package
// keeps elsewhere without a second copy of them.
func (r *Registry) DeriveCounter(name, help string, f func() int64) {
	if r == nil {
		return
	}
	r.Counter(name, help).src.CompareAndSwap(nil, &f)
}

// DeriveGauge is DeriveCounter for a gauge.
func (r *Registry) DeriveGauge(name, help string, f func() int64) {
	if r == nil {
		return
	}
	r.Gauge(name, help).src.CompareAndSwap(nil, &f)
}

func (r *Registry) get(name, help string) (*metric, bool) {
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{name: name, help: help}
		r.metrics[name] = m
	}
	return m, ok
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.get(name, help)
	if !ok {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.get(name, help)
	if !ok {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later calls reuse the
// original bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.get(name, help)
	if !ok {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// snapshot returns the registered metrics sorted by name. The instrument
// pointers are live; readers load them atomically.
func (r *Registry) snapshot() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sortMetrics(out)
	return out
}

// Snapshot returns the current value of every registered instrument,
// keyed by series name: int64 for counters and gauges, and a
// {count, sum} summary map for histograms. It backs the expvar view.
func (r *Registry) Snapshot() map[string]interface{} {
	out := map[string]interface{}{}
	for _, m := range r.snapshot() {
		switch {
		case m.c != nil:
			out[m.name] = m.c.Value()
		case m.g != nil:
			out[m.name] = m.g.Value()
		case m.h != nil:
			out[m.name] = map[string]interface{}{
				"count": m.h.Count(),
				"sum":   m.h.Sum(),
			}
		}
	}
	return out
}
