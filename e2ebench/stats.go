package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile p ≤ 99 that still has
// at least ten samples beyond it, and the nearest-rank value at p. ok is
// false when there are too few samples for any percentile from 50 up.
// Failed operations enter xs as +Inf, so they count as missing every limit.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for p = 99; p >= 50; p-- {
		k := (p*n + 99) / 100 // nearest rank: ⌈p·n/100⌉
		if k >= 1 && n-k >= 10 {
			return p, s[k-1], true
		}
	}
	return 0, 0, false
}

// cpuSeconds is the process CPU time (user + system) from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clock reads wall time together with the CPU time the hypervisor stole
// from this machine, so that a wall-clock interval can be reported with the
// stolen share taken out. On a shared host other tenants can steal a quarter
// of the CPU for minutes at a time, which moves raw wall times by 40%
// between runs of identical work.
type clock struct {
	wall  time.Time
	steal float64 // seconds stolen, summed over CPUs
}

func now() clock { return clock{wall: time.Now(), steal: stolenSeconds()} }

// since returns the raw wall time from c to now, and the wall time with the
// stolen CPU time divided by the CPU count taken out: the time the interval
// would have taken had every CPU been available throughout, for work that
// keeps every CPU busy or spreads over them evenly.
func (c clock) since() (raw, adjusted float64) {
	n := now()
	raw = n.wall.Sub(c.wall).Seconds()
	adjusted = raw - (n.steal-c.steal)/float64(runtime.NumCPU())
	return raw, max(adjusted, 0)
}

// userHZ is the unit of /proc/stat's CPU times (USER_HZ, 100 on Linux).
const userHZ = 100

// stolenSeconds is the steal column of /proc/stat's cpu line, in seconds;
// 0 where the file does not exist.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// runtimeCounters snapshots the Go runtime counters the runtime layer
// reports: cumulative heap allocation and GC CPU time.
type runtimeCounters struct {
	allocBytes float64
	gcCPU      float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU}
}

// heapSampler samples the runtime's live-heap figure (/gc/heap/live:bytes,
// updated at every GC) while a timed phase runs. It catches memory the
// estimator's space accounting does not count, such as the decoded-block
// cache.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample // written by the sampler goroutine until done
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

const heapSampleEvery = 20 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.samples = append(h.samples, heapSample{at: time.Now(), bytes: s[0].Value.Uint64()})
}

// finish stops the sampler and waits for its goroutine; peakMB may be
// called after it.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
	h.sample()
}

// peakMB is the highest live-heap figure in effect during [from, to], in MB
// (10⁶ bytes): the samples taken in the interval and the last one before
// it, which holds until the next GC.
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	var peak uint64
	for i, s := range h.samples {
		next := i+1 < len(h.samples) && !h.samples[i+1].at.After(from)
		if s.at.After(to) || next {
			continue
		}
		peak = max(peak, s.bytes)
	}
	return float64(peak) / 1e6
}

// opWindow is one operation's wall-time interval.
type opWindow struct{ start, end time.Time }

// medianPeakMB is the median over operations of each operation's peak
// live heap.
func (h *heapSampler) medianPeakMB(ops []opWindow) float64 {
	peaks := make([]float64, len(ops))
	for i, op := range ops {
		peaks[i] = h.peakMB(op.start, op.end)
	}
	return median(peaks)
}
