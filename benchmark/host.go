package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostLine is the provenance printed with every run: a wall-clock
// number means nothing without the machine that produced it.
func hostLine() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel)
}

// peakRSSMiB returns the peak resident set of this process (VmHWM) plus
// the largest resident set any waited-for child reached — the dist
// backend's worker processes. Either part reads 0 where the platform
// does not report it.
func peakRSSMiB() float64 {
	var kib float64
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					kib = v
				}
				break
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
		kib += float64(ru.Maxrss) // KiB on Linux
	}
	return kib / 1024
}
