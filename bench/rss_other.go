//go:build !unix

package main

import "runtime"

// peakRSSMB falls back to the memory the Go runtime has obtained from
// the system where getrusage does not exist.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
