package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The CPU-time clocks of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of this process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuSeconds reads a CPU-time clock. Unlike wall time it leaves out the
// time the hypervisor runs other guests on this machine's vCPUs (steal).
func cpuSeconds(clock int) float64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, errno))
	}
	return float64(ts.Nano()) / 1e9
}

// threadCPU returns fn's CPU time on the calling thread, in seconds.
func threadCPU(fn func()) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := cpuSeconds(clockThreadCPU)
	fn()
	return cpuSeconds(clockThreadCPU) - c0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, with that percentile; ok is false when there are
// too few samples for any.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11 // ten samples above index i
	return s[i], 100 * float64(i+1) / float64(n), true
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS restarts this process's VmHWM at its current resident
// set, so the next read gives the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// allocs counts heap allocations and bytes made while fn runs.
func allocs(fn func()) (n, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// pairs times two alternatives in n interleaved pairs, swapping which
// runs first on every pair (ABAB then BABA), and returns each side's
// samples in seconds.
func pairs(n int, a, b func() error) (as, bs []float64, err error) {
	timed := func(fn func() error, into *[]float64) error {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		*into = append(*into, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < n; i++ {
		first, second := a, b
		firstInto, secondInto := &as, &bs
		if i%2 == 1 {
			first, second = b, a
			firstInto, secondInto = &bs, &as
		}
		if err := timed(first, firstInto); err != nil {
			return nil, nil, err
		}
		if err := timed(second, secondInto); err != nil {
			return nil, nil, err
		}
	}
	return as, bs, nil
}
