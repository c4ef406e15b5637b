package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/prog"
	"repro/internal/service"
)

// image is one distinct program the service workload submits.
type image struct {
	idx       int
	kind      string // ladder, csort or needle
	isa       string
	spec      service.JobSpec
	body      []byte // the POST body
	wantPaths int    // explore jobs: expected path count
	build     setupTimes
}

// jobStream is the seeded submission sequence. Every other submission
// repeats an earlier image of the same kind and ISA; the others are
// fresh, cycling through freshKinds on every ISA. The mix is the same
// for every seed; only the programs' contents depend on it.
type jobStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	size    sizes
	images  []*image
	byCombo map[string][]*image // kind/isa -> images
	subs    []*image
}

// freshKinds weights the mix so that the median job is a fresh ladder:
// the cheaper needles and repeated ladders sit below it, the csorts
// above, and no class boundary falls at the median.
var freshKinds = []string{"needle", "ladder", "ladder", "csort", "csort"}

var svcISAs = []string{"tiny32", "rv32i", "m16"}

func newJobStream(seed int64, size sizes) *jobStream {
	return &jobStream{rng: rand.New(rand.NewSource(seed)), size: size, byCombo: map[string][]*image{}}
}

// at returns submission i, extending the stream as needed.
func (s *jobStream) at(i int) (*image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.subs) <= i {
		if len(s.subs)%2 == 1 {
			last := s.subs[len(s.subs)-1]
			same := s.byCombo[last.kind+"/"+last.isa]
			s.subs = append(s.subs, same[s.rng.Intn(len(same))])
			continue
		}
		n := len(s.images)
		im, err := s.fresh(n, freshKinds[n%len(freshKinds)], svcISAs[n%len(svcISAs)])
		if err != nil {
			return nil, err
		}
		s.images = append(s.images, im)
		s.byCombo[im.kind+"/"+im.isa] = append(s.byCombo[im.kind+"/"+im.isa], im)
		s.subs = append(s.subs, im)
	}
	return s.subs[i], nil
}

// fresh builds a new image: a small ladder or csort to explore, or a
// needle program for concolic testing.
func (s *jobStream) fresh(idx int, kind, isa string) (*image, error) {
	im := &image{idx: idx, kind: kind, isa: isa}
	var src string
	minicSrc := false
	switch kind {
	case "ladder":
		k := s.size.svcLadderK
		im.wantPaths = 1 << k
		src = ladderAsm(im.isa, ladderRungs(s.rng, k))
		im.spec = service.JobSpec{Inputs: k, MaxPaths: 2 << k}
	case "csort":
		p := newCsortParams(s.rng, s.size.svcCsortN, s.size.svcCsortT)
		im.wantPaths = factorial(p.n)
		src, minicSrc = csortSrc(p), true
		im.spec = service.JobSpec{Inputs: p.n, MaxPaths: 2 * im.wantPaths, MaxSteps: 50000}
	default:
		key := needleKey(s.rng, s.size.svcNeedle)
		src = harness.Needle(im.isa, key)
		im.spec = service.JobSpec{Mode: "concolic", Inputs: len(key), MaxRuns: 64}
	}
	im.spec.Workers = 1
	_, p, st, err := build(target{isa: im.isa, src: src, minic: minicSrc}, nil, 0)
	im.build = st
	if err != nil {
		return nil, err
	}
	im.spec.Image = p.Marshal()
	im.body, err = json.Marshal(im.spec)
	return im, err
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// jobRun is one submission as the client saw it.
type jobRun struct {
	img        *image
	traced     bool
	err        string        // submit or stream failure
	submit     time.Duration // POST round trip
	firstEvent time.Duration // submit to first result line
	latency    time.Duration // submit to the terminal event
	speed      float64       // host speed around the job's segment (see calib.go)
	start      time.Duration // since the tracer's origin
	done       *service.JobStats
	paths      []string // path multiset keys
	bugs       int
	faults     int
}

// daemon is one in-process symexd generation on loopback.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

func bootDaemon(cfg service.Config) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is the benchmark's HTTP client: one connection per loop.
type client struct {
	base string
	hc   *http.Client
}

// do submits one job and follows its ?wait=1 results stream to the
// terminal event.
func (c *client) do(img *image, t0origin time.Time) jobRun {
	r := jobRun{img: img}
	t0 := time.Now()
	r.start = t0.Sub(t0origin)
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(img.body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	r.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		r.err = fmt.Sprintf("submit: HTTP %d (%v)", resp.StatusCode, derr)
		return r
	}
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/results?wait=1")
	if err != nil {
		r.err = err.Error()
		return r
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if r.firstEvent == 0 {
			r.firstEvent = time.Since(t0)
		}
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.err = "bad result line: " + err.Error()
			return r
		}
		switch ev.Type {
		case "path":
			r.paths = append(r.paths, pathKey(ev.Path.Status, ev.Path.EndPC, ev.Path.Steps, ev.Path.Depth))
		case "bug":
			r.bugs++
		case "fault":
			r.faults++
		case "done":
			r.latency = time.Since(t0)
			r.done = ev.Done
		}
	}
	if err := sc.Err(); err != nil {
		r.err = "results stream: " + err.Error()
	}
	if r.done == nil && r.err == "" {
		r.err = "results stream ended without a done event"
	}
	return r
}

// pathKey folds one path into a comparable string. It leaves out the
// path's input: a concolic job derives inputs from solver models, and
// a model the shared cache answers with may come from another job's
// identical query — equally valid, but different bytes.
func pathKey(status string, endPC uint64, steps int64, depth int) string {
	return fmt.Sprintf("%s|%x|%d|%d", status, endPC, steps, depth)
}

// clients is the number of closed-loop clients, each with one job in
// flight: as many as the daemon runs jobs at once.
const clients = 2

// svcSegment is the length of one segment of the measured loop.
const svcSegment = 2 * time.Second

// loop runs the clients over the stream from submission first until
// stop returns true, and returns the runs in completion order.
func (b *bench) loop(d *daemon, st *jobStream, first int, stop func(next int) bool, trace bool) ([]jobRun, error) {
	var mu sync.Mutex
	next := first
	var runs []jobRun
	var firstErr error
	var wg sync.WaitGroup
	origin := time.Now()
	if b.tr != nil {
		origin = b.tr.t0
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{base: "http://" + d.addr, hc: &http.Client{}}
			for {
				mu.Lock()
				if stop(next) || firstErr != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				img, err := st.at(i)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				r := c.do(img, origin)
				// Traced and untraced jobs alternate in pairs, so each
				// side gets fresh and repeated images alike.
				r.traced = trace && i/2%2 == 1
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, firstErr
}

// scrape reads the daemon's /metrics as name -> value.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func (b *bench) runService() error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := service.Config{
		MaxConcurrent: clients,
		StateDir:      dir + "/state",
		LedgerDir:     dir + "/ledger",
		CacheFile:     dir + "/solver.cache",
	}
	st := newJobStream(b.seed, b.size)

	// Warm-up generation: a fixed prefix of the stream on a fresh
	// daemon, which leaves the cache file, journal and ledger behind.
	id := b.tr.begin("bench.setup", 0)
	d, err := bootDaemon(cfg)
	if err != nil {
		b.tr.end(id)
		return err
	}
	warm, err := b.loop(d, st, 0, func(n int) bool { return n >= b.size.svcWarmup }, false)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.tr.end(id)
		return err
	}

	b.tr.end(id)

	// Boot against the persisted state several times; the last boot
	// serves the measured loop. Every boot starts from a collected heap
	// and is scaled by the one-goroutine host speed around it.
	id = b.tr.begin("bench.setup", 0)
	var boots []float64
	sp := b.speed(1, id)
	for i := 0; i < b.size.setupReps; i++ {
		b.settle(id)
		t0 := time.Now()
		d, err = bootDaemon(cfg)
		if err != nil {
			b.tr.end(id)
			return err
		}
		boot := time.Since(t0).Seconds()
		after := b.speed(1, id)
		boots = append(boots, boot*(sp+after)/2)
		sp = after
		if i < b.size.setupReps-1 {
			if err := d.close(); err != nil {
				b.tr.end(id)
				return err
			}
		}
	}
	b.tr.end(id)
	b.settle(0)
	echo, err := startEcho(clients)
	if err != nil {
		d.close()
		return err
	}
	defer echo.close()
	sp, err = b.svcSpeed(echo, clients)
	if err != nil {
		d.close()
		return err
	}
	fmt.Printf("daemon boots (scaled): %.4g s\n", boots)

	m0, err := scrape(d.addr)
	if err != nil {
		d.close()
		return err
	}
	// The measured loop runs in segments. Between two, with no job in
	// flight, the benchmark collects the garbage and measures the host
	// speed, and each segment's times are scaled by the speed around it
	// (see calib.go). window is the measured time without those pauses,
	// scaled the same scaled, rt the runtime counters of the segments
	// and peak the largest of their resident-set high-water marks up to
	// the segment that completes svcPeakJobs jobs. The daemon's memory
	// grows with the jobs it has served, so a peak over the whole loop
	// would depend on how many jobs the host's speed allowed.
	deadline := time.Now().Add(b.seconds)
	minJobs := b.size.svcWarmup + b.size.minOps
	next := b.size.svcWarmup
	var runs []jobRun
	var window time.Duration
	var scaled, peak float64
	var rt rtSample
	for err == nil && (next < minJobs || time.Now().Before(deadline)) {
		rt0 := readRuntime()
		t0 := time.Now()
		end := t0.Add(svcSegment)
		var seg []jobRun
		seg, err = b.loop(d, st, next, func(n int) bool {
			return n >= minJobs && time.Now().After(end)
		}, b.traced)
		wall := time.Since(t0)
		dr := readRuntime().sub(rt0)
		rt.gcCPU += dr.gcCPU
		rt.allocBytes += dr.allocBytes
		if next-b.size.svcWarmup < b.size.svcPeakJobs {
			peak = max(peak, peakRSSMB())
		}
		next += len(seg)
		b.settle(0)
		after, cerr := b.svcSpeed(echo, clients)
		if err == nil {
			err = cerr
		}
		f := (sp + after) / 2
		sp = after
		for i := range seg {
			seg[i].speed = f
		}
		runs = append(runs, seg...)
		window += wall
		scaled += wall.Seconds() * f
	}
	m1, serr := scrape(d.addr)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	chk := b.tr.begin("bench.check", 0)
	b.checkJobs(append(warm, runs...))
	b.tr.end(chk)
	b.counts = warmCounts(warm)

	var lat, speeds []float64
	npaths := 0
	for _, r := range runs {
		if r.done != nil {
			lat = append(lat, r.latency.Seconds()*r.speed)
			speeds = append(speeds, r.speed)
			npaths += r.done.Paths
		}
	}
	fmt.Printf("service: %d warm-up jobs, %d measured jobs in %.1fs (%d distinct images); scaled job p50 %.4fs p90 %.4fs over %d samples; host speed %.3f (%.3f..%.3f), unscaled jobs_per_s %.6g\n",
		len(warm), len(runs), window.Seconds(), len(st.images), median(lat), quantile(lat, 0.9), len(lat),
		median(speeds), quantile(speeds, 0), quantile(speeds, 1), float64(len(lat))/window.Seconds())
	if !b.traced {
		b.set("setup_s", median(boots))
		b.set("paths_per_s", float64(npaths)/scaled)
		b.set("job_p50_s", median(lat))
		b.set("jobs_per_s", float64(len(lat))/scaled)
		b.set("peak_rss_mb", peak)
		return nil
	}
	b.serviceLayers(st, runs, window, m0, m1, rt)
	return nil
}

// checkJobs checks every job against a direct library run of the same
// spec: the same path multiset, and the planted bug for needle jobs.
func (b *bench) checkJobs(runs []jobRun) {
	want := map[*image]*direct{}
	for _, r := range runs {
		if want[r.img] == nil {
			want[r.img] = &direct{}
		}
	}
	var imgs []*image
	for im := range want {
		imgs = append(imgs, im)
	}
	// Two goroutines share the reference runs, one image each at a time.
	var wg sync.WaitGroup
	work := make(chan *image)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for im := range work {
				*want[im] = directRun(im)
			}
		}()
	}
	for _, im := range imgs {
		work <- im
	}
	close(work)
	wg.Wait()

	for _, r := range runs {
		b.op(checkJob(r, want[r.img])...)
	}
}

// direct is the library-run reference of one image.
type direct struct {
	paths []string
	bugs  int
	err   error
}

// directRun runs an image the way the daemon's admission would
// configure it (service.Config defaults), through the library API.
func directRun(im *image) direct {
	p, err := prog.Unmarshal(im.spec.Image)
	if err != nil {
		return direct{err: err}
	}
	a, err := arch.Load(p.Arch)
	if err != nil {
		return direct{err: err}
	}
	orDefault := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	steps := im.spec.MaxSteps
	if steps == 0 {
		steps = 4096
	}
	e := core.NewEngine(a, p, core.Options{
		MaxSteps:       steps,
		MaxPaths:       orDefault(im.spec.MaxPaths, 512),
		InputBytes:     orDefault(im.spec.Inputs, 8),
		Workers:        1,
		SolverDeadline: 2 * time.Second,
	})
	for _, c := range service.Checkers() {
		e.AddChecker(c)
	}
	var d direct
	if im.spec.Mode == "concolic" {
		rep, err := e.Concolic(im.spec.Seed, orDefault(im.spec.MaxRuns, 32))
		if err != nil {
			return direct{err: err}
		}
		for _, p := range rep.Paths {
			d.paths = append(d.paths, pathKey(p.Status.String(), 0, p.Steps, 0))
		}
		d.bugs = len(rep.Bugs)
	} else {
		rep, err := e.Run()
		if err != nil {
			return direct{err: err}
		}
		for _, p := range rep.Paths {
			d.paths = append(d.paths, pathKey(p.Status.String(), p.EndPC, p.Steps, p.Depth))
		}
		d.bugs = len(rep.Bugs)
	}
	sort.Strings(d.paths)
	return d
}

func checkJob(r jobRun, want *direct) []string {
	name := fmt.Sprintf("job %s/%s #%d", r.img.kind, r.img.isa, r.img.idx)
	switch {
	case r.err != "":
		return []string{name + ": " + r.err}
	case want.err != nil:
		return []string{name + ": direct run: " + want.err.Error()}
	}
	var bad []string
	if r.faults != 0 || r.done.PathFaults != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d fault events, %d path faults", name, r.faults, r.done.PathFaults))
	}
	got := append([]string(nil), r.paths...)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want.paths, ",") {
		bad = append(bad, fmt.Sprintf("%s: %d paths differ from the direct run's %d", name, len(got), len(want.paths)))
	}
	if r.img.wantPaths != 0 && len(got) != r.img.wantPaths {
		bad = append(bad, fmt.Sprintf("%s: %d paths, want %d", name, len(got), r.img.wantPaths))
	}
	if r.img.kind == "needle" && r.bugs == 0 {
		bad = append(bad, name+": the planted bug was not reported")
	}
	if r.img.kind != "needle" && r.bugs != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d bugs reported, want none", name, r.bugs))
	}
	return bad
}

// warmCounts are the exact counters of the warm-up generation: the same
// fixed prefix of the stream on a fresh daemon. Cache hits depend on
// which of the two concurrent jobs asks first and stay out.
func warmCounts(warm []jobRun) counts {
	c := counts{}
	for _, r := range warm {
		if r.done == nil {
			continue
		}
		c["warmup.jobs"]++
		c["warmup.paths"] += int64(r.done.Paths)
		c["warmup.bugs"] += int64(r.done.Bugs)
		c["warmup.insns"] += r.done.Instructions
		c["warmup.forks"] += r.done.Forks
		c["warmup.queries"] += r.done.SolverQs
	}
	return c
}

// serviceLayers derives the per-layer metrics of a traced service run:
// client-side spans per job, engine layers from /metrics deltas. Times
// are per job.
func (b *bench) serviceLayers(st *jobStream, runs []jobRun, window time.Duration, m0, m1 map[string]float64, rt rtSample) {
	delta := func(name string) float64 { return m1[name] - m0[name] }
	var submit, first, engine, overhead, tl, ul []float64
	var wall float64
	jobs := 0
	for _, r := range runs {
		if r.done == nil {
			continue
		}
		jobs++
		submit = append(submit, ms(r.submit))
		first = append(first, ms(r.firstEvent))
		engine = append(engine, float64(r.done.WallMS))
		overhead = append(overhead, ms(r.latency)-float64(r.done.WallMS))
		wall += float64(r.done.WallMS) / 1e3
		if r.traced {
			tl = append(tl, r.latency.Seconds())
			id := b.tr.add("service.job", r.start, r.latency)
			b.tr.derive(id, "service.submit", r.submit)
			b.tr.derive(id, "service.engine", time.Duration(r.done.WallMS)*time.Millisecond)
		} else {
			ul = append(ul, r.latency.Seconds())
			b.tr.add("service.job.untraced", r.start, r.latency)
		}
	}
	n := float64(jobs)
	// The admission path loads one ADL per job.
	var load []float64
	for _, isa := range svcISAs {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := arch.Load(isa); err == nil {
				load = append(load, ms(time.Since(t0)))
			}
		}
	}
	var compile, assemble []float64
	for _, im := range st.images {
		if im.build.compile > 0 {
			compile = append(compile, ms(im.build.compile))
		}
		assemble = append(assemble, ms(im.build.assemble))
	}
	check := delta("smt_check_seconds_sum")
	decode := delta("engine_decode_seconds_sum")
	b.set("adl.load_ms", median(load))
	b.set("minic.compile_ms", median(compile))
	b.set("asm.assemble_ms", median(assemble))
	b.set("core.run_s", wall/n)
	b.set("core.self_s", (wall-check-decode)/n)
	b.set("smt.check_s", check/n)
	b.set("smt.blast_s", delta("smt_blast_seconds_sum")/n)
	b.set("sat.solve_s", delta("smt_solve_seconds_sum")/n)
	b.set("decoder.s", decode/n)
	b.set("core.insns", delta("engine_instructions_total")/n)
	b.set("core.forks", delta("engine_forks_total")/n)
	b.set("core.paths", delta("engine_paths_completed_total")/n)
	b.set("core.infeasible", delta("engine_infeasible_total")/n)
	b.set("decoder.calls", delta("engine_decode_calls_total")/n)
	b.set("rtl.compiled_units", delta("engine_compiled_units_total")/n)
	b.set("rtl.superblock_share", delta("engine_superblock_insns_total")/delta("engine_instructions_total"))
	b.set("smt.queries", delta("smt_checks_total")/n)
	b.set("core.alloc_kb_per_fork", rt.allocBytes/delta("engine_forks_total")/1024)
	b.set("core.live_states_max", m1["engine_live_states_max"])
	hits, misses := delta("service_cache_hits_total"), delta("service_cache_misses_total")
	b.set("smt.cache_hit_rate", hits/(hits+misses))
	b.set("service.submit_ms", median(submit))
	b.set("service.first_event_ms", median(first))
	b.set("service.engine_ms", median(engine))
	b.set("service.overhead_ms", median(overhead))
	b.set("service.journal_appends", delta("service_journal_appends_total")/n)
	b.set("service.checkpoints", delta("service_checkpoints_total")/n)
	b.set("service.persist_flushed", delta("service_persist_flushed_total")/n)
	b.set("service.cache_cross_hits", delta("service_cache_cross_hits_total")/n)
	b.set("runtime.gc_cpu_s", rt.gcCPU/n)
	b.set("runtime.alloc_mb", rt.allocBytes/n/(1<<20))
	b.set("trace.overhead", median(tl)/median(ul)-1)
	// Two clients keep two jobs in flight; the gaps between a client's
	// jobs are the benchmark's own time.
	var busy time.Duration
	for _, r := range runs {
		busy += r.latency
	}
	b.set("trace.unaccounted_share", 1-busy.Seconds()/(clients*window.Seconds()))
	b.fillLayers()
}
