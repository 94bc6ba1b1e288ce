package main

import (
	"encoding/json"
	"slices"
	"time"
)

// calibRefMs is about the median calibration point on the host the
// benchmark was built on (Intel Xeon, model 207, KVM guest with 2 vCPUs).
// Calibrated timings read as they would on a host where the point is
// exactly this long, so there they read close to the raw ones.
const calibRefMs = 13.0

// calibPasses are timed at each calibration point; their median is the
// point's reading.
const calibPasses = 3

// calibrator times a fixed CPU and memory kernel that does not depend on
// the code under test. On a shared host the speed one core delivers can
// change by 2× within minutes; the same program state timed before and
// after a change would then differ by as much. Dividing a timing by the
// kernel's time measured around it removes that factor, and leaves what
// the program under test changes.
type calibrator struct {
	keys   []float64 // sorted: branchy compute within L2
	stream []float64 // summed in order: bandwidth beyond L2
	table  []uint32  // chased at random: latency beyond L2
	vals   []float64 // encoded to JSON: allocation and GC
	work   []float64
	sink   float64
}

const calibTable = 1 << 22

func newCalibrator() *calibrator {
	c := &calibrator{
		keys:   make([]float64, 1<<15),
		stream: make([]float64, 1<<20),
		table:  make([]uint32, calibTable),
		vals:   make([]float64, 2048),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for _, s := range [][]float64{c.keys, c.stream, c.vals} {
		for i := range s {
			s[i] = float64(next()>>11) / (1 << 40)
		}
	}
	for i := range c.table {
		c.table[i] = uint32(next() >> 42)
	}
	c.work = make([]float64, len(c.keys))
	return c
}

// pass runs the kernel once and returns its wall time in milliseconds.
func (c *calibrator) pass() float64 {
	t0 := time.Now()
	copy(c.work, c.keys)
	slices.Sort(c.work)
	var sum float64
	for range 2 {
		for _, v := range c.stream {
			sum += v
		}
	}
	idx := uint32(1)
	for range 1 << 17 {
		idx = c.table[idx&(calibTable-1)] ^ idx*2654435761
	}
	for range 4 {
		b, _ := json.Marshal(c.vals)
		sum += float64(len(b))
	}
	c.sink += sum + float64(idx) + c.work[len(c.work)/2]
	return ms64(time.Since(t0))
}

// point is one calibration reading: the median of calibPasses passes.
func (c *calibrator) point() float64 {
	t := make([]float64, calibPasses)
	for i := range t {
		t[i] = c.pass()
	}
	return median(t)
}
