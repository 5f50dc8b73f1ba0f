//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/bucket"
)

// An executor nobody closed is garbage once its job and its handle are
// dropped: no parked worker keeps it, or the buckets in its store,
// alive.
func TestUnclosedExecutorStoreIsCollected(t *testing.T) {
	ref := func() weak.Pointer[bucket.Store] {
		exec := NewSerial(testRegistry())
		runIdentity(t, NewJob(exec), 1000, 2)
		return weak.Make(exec.Store())
	}()
	for i := 0; i < 10 && ref.Value() != nil; i++ {
		runtime.GC()
	}
	if ref.Value() != nil {
		t.Error("the store of an unclosed, dropped executor is still reachable")
	}
}
