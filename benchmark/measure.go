package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the host-side counters the end-to-end
// metrics are deltas of.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration // user+sys of the whole process
	bytes   uint64        // MemStats.TotalAlloc
	mallocs uint64        // MemStats.Mallocs
	numGC   uint32
	pauseNs uint64
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		wall:    time.Now(),
		cpu:     cpuTime(),
		bytes:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// cpuTime returns the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB forces two collections and returns what survived them: the
// second one drops what sync.Pool parked in its victim caches, which would
// otherwise come and go with the collector's timing.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// loadAvg1 reads the 1-minute load average; -1 where /proc is absent.
func loadAvg1() float64 {
	blob, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(blob))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics (the "inclusive"
// method). With fewer than 20 samples no higher percentile is
// supportable, so none is reported anywhere in this benchmark.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}
