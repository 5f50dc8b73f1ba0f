//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20) // bytes there, kilobytes elsewhere
	}
	return float64(ru.Maxrss) / 1024
}
