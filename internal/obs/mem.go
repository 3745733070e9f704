package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// MemSnapshot is one point-in-time view of process memory, combining
// the Go runtime's heap accounting with the kernel's resident-set
// figures. It backs the tota_mem_* gauge family and the emulator's
// bytes-per-node reporting, so every layer quotes the same numbers.
type MemSnapshot struct {
	// HeapAlloc is the Go runtime's live-heap estimate in bytes
	// (runtime.MemStats.HeapAlloc).
	HeapAlloc uint64
	// HeapSys is the heap memory obtained from the OS, in bytes.
	HeapSys uint64
	// Sys is the total memory reserved from the OS by the runtime.
	Sys uint64
	// GCCycles counts completed garbage-collection cycles.
	GCCycles uint32
	// RSS and PeakRSS are the kernel's current and high-water resident
	// set sizes in bytes (VmRSS / VmHWM from /proc/self/status), zero
	// where /proc is unavailable.
	RSS, PeakRSS uint64
}

// ReadMem snapshots the full memory view. It calls
// runtime.ReadMemStats, which briefly stops the world — fine at
// observation points, too heavy for per-packet paths.
func ReadMem() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := MemSnapshot{
		HeapAlloc: ms.HeapAlloc,
		HeapSys:   ms.HeapSys,
		Sys:       ms.Sys,
		GCCycles:  ms.NumGC,
	}
	snap.RSS, snap.PeakRSS = ReadProcRSS()
	return snap
}

// ReadProcRSS reads the kernel's current and peak resident-set sizes in
// bytes from /proc/self/status (VmRSS / VmHWM). It is a single small
// file read — cheap enough for per-tick rollups — and returns zeros on
// platforms without /proc.
func ReadProcRSS() (rss, peak uint64) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			rss = parseStatusKB(rest)
		} else if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			peak = parseStatusKB(rest)
		}
	}
	return rss, peak
}

// parseStatusKB parses the "  1234 kB" tail of a /proc/self/status
// line into bytes.
func parseStatusKB(rest string) uint64 {
	f := strings.Fields(rest)
	if len(f) < 1 {
		return 0
	}
	kb, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0
	}
	return kb * 1024
}

// RegisterRuntime exposes the live goroutine count (RegisterMemMetrics
// exposes the heap and GC figures).
func RegisterRuntime(r *Registry) {
	r.GaugeFunc("tota_go_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
}

// RegisterMemMetrics exposes the tota_mem_* gauge family on a registry:
// the Go heap figures plus the kernel RSS. Values are read at collect
// time only, so registration costs nothing between scrapes.
func RegisterMemMetrics(reg *Registry) {
	reg.GaugeFunc("tota_mem_heap_alloc_bytes", "Live Go heap bytes (runtime HeapAlloc).", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.GaugeFunc("tota_mem_heap_sys_bytes", "Heap bytes obtained from the OS (runtime HeapSys).", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapSys)
	})
	reg.GaugeFunc("tota_mem_sys_bytes", "Total bytes reserved from the OS by the Go runtime.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys)
	})
	reg.CounterFunc("tota_mem_gc_cycles_total", "Completed garbage-collection cycles.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
	reg.GaugeFunc("tota_mem_rss_bytes", "Kernel resident set size (VmRSS), 0 without /proc.", func() float64 {
		rss, _ := ReadProcRSS()
		return float64(rss)
	})
	reg.GaugeFunc("tota_mem_peak_rss_bytes", "Kernel peak resident set size (VmHWM), 0 without /proc.", func() float64 {
		_, peak := ReadProcRSS()
		return float64(peak)
	})
}
