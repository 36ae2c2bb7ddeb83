package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint identifies the host a result was measured on. Times
// from hosts that differ in any field are not comparable, so -compare
// refuses to mix them.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// resetPeakRSS restarts the kernel's high-water mark of this
// process's resident set at its current size, so that each pass reads
// its own peak. Where /proc/self/clear_refs cannot be written the mark
// keeps rising and every pass reads the peak of the process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set in MiB since the last
// resetPeakRSS: VmHWM from /proc where there is one, else getrusage's
// high-water mark.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageMaxRSSMB(&ru)
}

// rusageMaxRSSMB converts ru_maxrss (KiB on Linux) to MiB.
func rusageMaxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// liveHeapMB is the heap still reachable after a collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuSeconds is the user+system CPU time of this process and of the
// children it has waited for.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	return total
}
