package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is the source revision, set at build time by run.sh
// (-ldflags "-X main.commit=…"); "unknown" outside a git checkout.
var commit = "unknown"

// stamp identifies the machine and build a result came from, so numbers
// from different machines or commits are never compared by accident.
func stamp() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a snapshot of the process's CPU time.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func readUsage() usage {
	var ru syscall.Rusage
	u := usage{wall: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u
	}
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return u
}

// resetPeak prepares a per-trial peak-RSS reading: it collects the Go heap,
// returns freed memory to the OS and resets the kernel's resident-set
// high-water mark (Linux ≥ 4.0), so every trial starts from the same state
// instead of inheriting the previous trial's garbage. Where the reset is
// refused, peakRSS keeps reporting the process-wide peak.
func resetPeak() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark (VmHWM) in MiB since
// the last resetPeak, or NaN if /proc is unavailable.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// cpuUtil returns the CPU seconds spent between a and b over the CPU
// seconds available (nproc × wall).
func cpuUtil(a, b usage) float64 {
	wall := b.wall.Sub(a.wall).Seconds()
	return (b.cpu - a.cpu).Seconds() / (float64(runtime.NumCPU()) * wall)
}
