package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch is the process-wide time base: every timestamp the rig takes is
// a monotonic offset from it.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loopbackBytes returns the rx-bytes counter of the loopback interface
// from /proc/net/dev. Everything the socket workloads put on the
// network crosses lo exactly once, so the delta over a phase is the
// bytes on the wire with UDP/TCP/IP headers and ACKs included, and no
// wrapper sits in the data path.
func loopbackBytes() (int64, error) {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/net/dev: no lo interface")
}

// peakRSSMB returns VmHWM in MB (0 if /proc is unreadable).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the heap still reachable.
// The caller keeps whatever it wants counted referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// meter is one reading of the process-wide counters a phase is charged
// against; phases report deltas between two readings.
type meter struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}
