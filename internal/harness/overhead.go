// Instrumentation overhead (EXPERIMENTS.md, "Instrumentation
// overhead"): what each instrument the engine can carry costs, alone
// and all together, measured with one A/B protocol. Per-layer time is
// not measured here: the perfbench traced run reports exclusive
// self-time per layer.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/profile"
)

// overheadPairs is the number of off/on pairs per row. The ladders run
// for hundreds of milliseconds each, without which scheduler jitter on
// a shared host swamps a low-percent signal.
const overheadPairs = 10

// OverheadRow is one instrument arm on one workload and worker count.
type OverheadRow struct {
	Workload string
	Workers  int
	Arm      string
	Paths    int
	Off, On  time.Duration // median wall times
	Overhead float64       // (On - Off) / Off
	Noise    float64       // interquartile range of the off runs / Off
}

// Overhead is the A/B instrumentation-overhead experiment.
type Overhead struct {
	Rows []OverheadRow
}

// overheadArm arms one instrument on a run's options. It returns the
// work the instrument costs outside the engine, done after the run.
type overheadArm struct {
	name   string
	serial bool // checkpoints apply to serial runs only
	arm    func(o *core.Options, label string) (after func(*core.Report))
}

// overheadArms are the instruments in production use: the symexd
// daemon arms every one of them on a job.
func overheadArms(scratch string, led *ledger.Ledger) []overheadArm {
	return []overheadArm{
		{name: "metrics", arm: func(o *core.Options, _ string) func(*core.Report) {
			o.Obs = obs.New()
			return nil
		}},
		{name: "cover", arm: func(o *core.Options, _ string) func(*core.Report) {
			o.Cover = cover.New()
			return nil
		}},
		{name: "governor", arm: func(o *core.Options, _ string) func(*core.Report) {
			// Limits far above what the workloads use: every deadline
			// check and term count is paid, no degradation fires.
			o.SolverDeadline, o.MaxStateTerms = 5*time.Second, 100000
			return func(r *core.Report) {
				if r.Stats.Degraded.Total() != 0 {
					panic("harness: overhead: generous governor limits degraded the run")
				}
			}
		}},
		{name: "profile", arm: func(o *core.Options, label string) func(*core.Report) {
			o.Profile = profile.New(profile.Meta{ADL: label})
			return nil
		}},
		{name: "progress", arm: func(o *core.Options, label string) func(*core.Report) {
			// The daemon's per-job cost: a live view sampled at the SSE
			// default interval, and one ledger append per run.
			p := &core.Progress{}
			o.Progress = p
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				tk := time.NewTicker(250 * time.Millisecond)
				defer tk.Stop()
				for {
					select {
					case <-tk.C:
						p.Snapshot()
					case <-stop:
						return
					}
				}
			}()
			workers := o.Workers
			return func(r *core.Report) {
				close(stop)
				<-done
				rec := ledger.Build(ledger.BuildInput{
					Source: "experiments", Label: label, Digest: label, Mode: "explore",
					Workers: workers, Bugs: len(r.Bugs), Stats: r.Stats, Now: time.Now(),
				})
				if err := led.Append(rec); err != nil {
					panic(fmt.Sprintf("harness: overhead: %v", err))
				}
			}
		}},
		{name: "checkpoint", serial: true, arm: func(o *core.Options, _ string) func(*core.Report) {
			// The service's default pace, each snapshot marshaled and
			// written temp+rename as internal/service does.
			path := filepath.Join(scratch, "job.ckpt")
			o.CheckpointEvery = 500 * time.Millisecond
			o.Checkpoint = func(s *core.Snapshot) {
				data, err := s.Marshal()
				if err == nil {
					err = os.WriteFile(path+".tmp", data, 0o644)
				}
				if err == nil {
					err = os.Rename(path+".tmp", path)
				}
				if err != nil {
					panic(fmt.Sprintf("harness: overhead: %v", err))
				}
			}
			return nil
		}},
	}
}

// RunOverhead measures every instrument arm, and all of them together,
// on 12-rung branch ladders at each worker count. Each row is one A/B
// run: one warm-up run, then overheadPairs pairs of an uninstrumented
// and an instrumented run that alternate which side runs first, so
// slow host drift within a pair cancels instead of biasing one side.
// The overhead compares medians; the noise floor is the interquartile
// range of the uninstrumented runs over their median — an overhead
// below it is not resolved.
func RunOverhead(workerCounts []int) Overhead {
	scratch, err := os.MkdirTemp("", "overhead-")
	if err != nil {
		panic(fmt.Sprintf("harness: overhead: %v", err))
	}
	defer os.RemoveAll(scratch)
	led, err := ledger.Open(scratch)
	if err != nil {
		panic(fmt.Sprintf("harness: overhead: %v", err))
	}
	defer led.Close()
	arms := overheadArms(scratch, led)
	all := overheadArm{name: "all", arm: func(o *core.Options, label string) func(*core.Report) {
		var afters []func(*core.Report)
		for _, a := range arms {
			if a.serial && o.Workers > 1 {
				continue
			}
			if f := a.arm(o, label); f != nil {
				afters = append(afters, f)
			}
		}
		return func(r *core.Report) {
			for _, f := range afters {
				f(r)
			}
		}
	}}

	var t Overhead
	for _, isa := range []string{"tiny32", "rv32i"} {
		const k = 12
		name := fmt.Sprintf("ladder%d/%s", k, isa)
		a, p := mustBuild(isa, BranchLadder(isa, k))
		for _, nw := range workerCounts {
			run := func(arm *overheadArm) (time.Duration, int) {
				o := core.Options{InputBytes: k, MaxPaths: 2 << k, Workers: nw}
				var after func(*core.Report)
				if arm != nil {
					after = arm.arm(&o, name)
				}
				r, err := core.NewEngine(a, p, o).Run()
				if err != nil {
					panic(fmt.Sprintf("harness: overhead: %v", err))
				}
				if after != nil {
					after(r)
				}
				return r.Stats.WallTime, len(r.Paths)
			}
			for _, arm := range append(arms, all) {
				if arm.serial && nw > 1 {
					continue
				}
				run(nil) // warm-up
				var offs, ons []time.Duration
				paths := 0
				for i := 0; i < overheadPairs; i++ {
					var off, on time.Duration
					if i%2 == 0 {
						off, paths = run(nil)
						on, _ = run(&arm)
					} else {
						on, _ = run(&arm)
						off, paths = run(nil)
					}
					offs, ons = append(offs, off), append(ons, on)
				}
				q1, medOff, q3 := quartiles(offs)
				_, medOn, _ := quartiles(ons)
				t.Rows = append(t.Rows, OverheadRow{
					Workload: name, Workers: nw, Arm: arm.name, Paths: paths,
					Off: medOff, On: medOn,
					Overhead: float64(medOn-medOff) / float64(medOff),
					Noise:    float64(q3-q1) / float64(medOff),
				})
			}
		}
	}
	return t
}

// quartiles returns the lower quartile, median and upper quartile.
func quartiles(ds []time.Duration) (q1, med, q3 time.Duration) {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(f float64) time.Duration {
		x := f * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + time.Duration((x-float64(i))*float64(s[i+1]-s[i]))
	}
	return at(0.25), at(0.5), at(0.75)
}

// Print writes the experiment in the repo's table format.
func (t Overhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Instrumentation overhead: A/B, 1 warm-up + %d alternating off/on pairs, medians; noise = off-side IQR\n", overheadPairs)
	fmt.Fprintf(w, "%-16s %8s %-11s %6s %11s %11s %9s %7s\n",
		"workload", "workers", "arm", "paths", "wall (off)", "wall (on)", "overhead", "noise")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %8d %-11s %6d %11v %11v %+8.1f%% %6.1f%%\n",
			r.Workload, r.Workers, r.Arm, r.Paths,
			r.Off.Round(time.Millisecond), r.On.Round(time.Millisecond),
			100*r.Overhead, 100*r.Noise)
	}
}
