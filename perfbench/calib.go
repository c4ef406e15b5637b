package main

import (
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts: over minutes, the same code runs up to twice as fast or as
// slow, for reasons outside the program and the benchmark. End-to-end
// times are therefore scaled to a reference speed. Around every measured
// interval the benchmark runs a fixed calibration kernel that shares no
// code with the program under test, and multiplies the interval by
// calibRef / (the kernel's time). A change to the program moves the
// scaled times; a change in the host's speed moves the kernel with them
// and largely cancels out (README.md says how far).

// calibRef is the kernel's time on the reference host speed. It only
// sets the scale of the reported times.
const calibRef = 6 * time.Millisecond

// calibReps is the number of kernel repetitions per goroutine in one
// calibration.
const calibReps = 5

// calibBufs are the kernel's working buffers, one per goroutine, kept
// across calls so the kernel neither allocates nor faults pages in, and
// holding no pointers, so the collector never scans them: the kernel
// measures how fast the host runs code, independent of the program's
// heap.
var calibBufs []*calibBuf

type calibBuf struct {
	m     map[uint64]int32
	nodes []calibNode
	keys  []uint64
	ring  []uint32 // one random cycle through calibRing slots
	sink  uint64
}

type calibNode struct {
	key         uint64
	left, right int32
}

const (
	calibNodes = 1 << 13
	calibRing  = 1 << 21 // 8 MB per goroutine: past a core's L2 cache
	calibChase = 1 << 14 // dependent loads per repetition
)

func newCalibBuf(seed uint64) *calibBuf {
	c := &calibBuf{
		m:     make(map[uint64]int32, calibNodes),
		nodes: make([]calibNode, 0, calibNodes),
		keys:  make([]uint64, 0, calibNodes),
		ring:  make([]uint32, calibRing),
	}
	// Sattolo's algorithm: a random permutation that is one cycle.
	for i := range c.ring {
		c.ring[i] = uint32(i)
	}
	x := seed*0x9e3779b97f4a7c15 | 1
	for i := len(c.ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c.ring[i], c.ring[j] = c.ring[j], c.ring[i]
	}
	return c
}

// speed runs the calibration kernel on par goroutines at once, the
// parallelism of the work it calibrates, records it under the parent
// span, and returns calibRef divided by the kernel's mean time: below 1
// on a host slower than the reference. The parallelism matters: two
// busy goroutines run each other down (the two CPUs may share a core),
// so serial work is calibrated by one goroutine and two-worker work by
// two.
func (b *bench) speed(par, parent int) float64 {
	for len(calibBufs) < par {
		calibBufs = append(calibBufs, newCalibBuf(uint64(len(calibBufs)+1)))
	}
	id := b.tr.begin("bench.calibrate", parent)
	defer b.tr.end(id)
	times := make([]float64, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			for r := 0; r < calibReps; r++ {
				calibBufs[g].work(uint64(r + 1))
			}
			times[g] = time.Since(t0).Seconds() / calibReps
		}(g)
	}
	wg.Wait()
	return calibRef.Seconds() / mean(times)
}

// work is one kernel repetition: hash-consing into a map, pointer
// chasing through the resulting graph and through memory, and a sort —
// the kinds of work symbolic execution spends its time on.
func (c *calibBuf) work(seed uint64) {
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	clear(c.m)
	c.nodes = c.nodes[:0]
	for i := 0; i < calibNodes; i++ {
		k := next() & 0xffff
		if _, ok := c.m[k]; ok {
			continue
		}
		n := calibNode{key: k, left: -1, right: -1}
		if len(c.nodes) > 0 {
			n.left = int32(next() % uint64(len(c.nodes)))
			n.right = int32(next() % uint64(len(c.nodes)))
		}
		c.m[k] = int32(len(c.nodes))
		c.nodes = append(c.nodes, n)
	}
	var acc uint64
	for i := 0; i < 4*calibNodes; i++ {
		j := int32(i % len(c.nodes))
		for d := 0; d < 8 && j >= 0; d++ {
			n := &c.nodes[j]
			acc += n.key
			if (acc^n.key)&1 == 0 {
				j = n.left
			} else {
				j = n.right
			}
		}
	}
	p := uint32(next() % calibRing)
	for i := 0; i < calibChase; i++ {
		p = c.ring[p]
	}
	acc += uint64(p)
	c.keys = c.keys[:0]
	for _, n := range c.nodes {
		c.keys = append(c.keys, n.key^next())
	}
	slices.Sort(c.keys)
	c.sink += acc + c.keys[len(c.keys)/2]
}

// The service loop waits on loopback HTTP and on goroutine wake-ups as
// much as it computes, and a busy host delays wake-ups more than it
// slows computation. Its calibration therefore adds a network part:
// clients round trips of one byte each over loopback TCP to an echo
// server private to the benchmark.

// echoRef is the time of echoRounds round trips at the reference speed.
const (
	echoRef    = 4 * time.Millisecond
	echoRounds = 200
)

// echoServer is the benchmark's loopback echo server and its client
// connections.
type echoServer struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

func startEcho(n int) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer c.Close()
				buf := make([]byte, 1)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// close stops the server and waits for its goroutines.
func (e *echoServer) close() {
	e.ln.Close()
	for _, c := range e.conns {
		c.Close()
	}
	e.wg.Wait()
}

// roundTrips runs echoRounds round trips on every connection at once and
// returns the mean time a connection took.
func (e *echoServer) roundTrips() (time.Duration, error) {
	times := make([]time.Duration, len(e.conns))
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1)
			t0 := time.Now()
			for r := 0; r < echoRounds && errs[i] == nil; r++ {
				if _, err := c.Write(buf); err != nil {
					errs[i] = err
				} else if _, err := io.ReadFull(c, buf); err != nil {
					errs[i] = err
				}
			}
			times[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for i := range times {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += times[i]
	}
	return sum / time.Duration(len(times)), nil
}

// svcSpeed is the host speed for the service loop: the reference time
// of the compute kernel on par goroutines plus the echo round trips,
// over the measured time of both.
func (b *bench) svcSpeed(e *echoServer, par int) (float64, error) {
	cpu := calibRef.Seconds() / b.speed(par, 0)
	id := b.tr.begin("bench.calibrate", 0)
	rtt, err := e.roundTrips()
	b.tr.end(id)
	if err != nil {
		return 0, err
	}
	return (calibRef + echoRef).Seconds() / (cpu + rtt.Seconds()), nil
}
