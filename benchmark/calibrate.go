package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference box does not run at one speed (README.md, "Reference
// seconds"): identical runs differ by up to 1.4 times in every wall-clock
// figure, and most of that is the speed of memory, which one process
// keeps for its whole life. The harness therefore times a fixed kernel
// throughout each window and reports every wall-clock end-to-end metric
// in reference seconds: the measured value times (reference kernel time
// ÷ measured kernel time).
//
// The kernel adds pseudo-random values into pseudo-random words of a
// 64 MB buffer: independent cache and TLB misses, which is what the
// engine's scans, joins and the collector's marking spend their time
// on. The buffer is mapped outside the Go heap, so it neither moves the
// collector's pacing nor counts as live heap, and the kernel allocates
// nothing. It runs on the client's goroutine between two requests, when
// a closed-loop client has nothing in flight.

const (
	// calibRefNs is the kernel's time on the reference box at full speed.
	calibRefNs  = 3.8e6
	calibEvery  = 250 * time.Millisecond
	calibWords  = 1 << 23 // 64 MB of uint64
	calibWrites = 200_000
)

type calibrator struct {
	buf     []uint64
	state   uint64
	last    time.Time
	samples []float64 // ns per kernel run
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibWords), state: 0x9E3779B97F4A7C15}
	for i := range c.buf {
		c.buf[i] = uint64(i) // touch every page before the first timed run
	}
	return c, nil
}

func (c *calibrator) close() {
	// The mapping is this process's own; failing to drop it harms nothing.
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c.buf[0])), calibWords*8))
	c.buf = nil
}

// sample runs the kernel once.
func (c *calibrator) sample() {
	t0 := time.Now()
	x := c.state
	for i := 0; i < calibWrites; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[x&(calibWords-1)] += x
	}
	c.state = x
	c.last = time.Now()
	c.samples = append(c.samples, float64(c.last.Sub(t0).Nanoseconds()))
}

// due reports whether the next sample should be taken now.
func (c *calibrator) due() bool { return time.Since(c.last) >= calibEvery }

// factor converts a wall-clock duration of this process into reference
// time. The one factor of the window also scales setup_s: the kernel
// cannot run inside set-up, samples taken around it (a fresh mapping,
// an idle machine) read up to 1.4 times off, and the speed that differs
// most between processes lasts as long as the process.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return calibRefNs / median(c.samples)
}
