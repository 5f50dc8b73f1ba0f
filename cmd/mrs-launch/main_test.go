package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A port file written a few milliseconds in is read within a few more,
// not on a 50 ms poll.
func TestWaitPortFileReadsPromptly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "master.port")
	start := time.Now()
	go func() {
		time.Sleep(5 * time.Millisecond)
		os.WriteFile(path, []byte("127.0.0.1:4321\n"), 0o644)
	}()
	addr, err := waitPortFile(path, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:4321" {
		t.Errorf("addr = %q", addr)
	}
	if d := time.Since(start); d >= 40*time.Millisecond {
		t.Errorf("port file written at 5 ms was read at %v", d)
	}
}

func TestWaitPortFileTimesOut(t *testing.T) {
	if _, err := waitPortFile(filepath.Join(t.TempDir(), "missing"), 20*time.Millisecond); err == nil {
		t.Error("a missing port file was read")
	}
}
