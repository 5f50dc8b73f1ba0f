package slave

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/master"
)

func reg() *core.Registry {
	r := core.NewRegistry()
	r.RegisterMap("identity", func(k, v []byte, e kvio.Emitter) error { return e.Emit(k, v) })
	return r
}

func TestNewRequiresMaster(t *testing.T) {
	if _, err := New(reg(), Options{}); err == nil {
		t.Error("missing MasterAddr accepted")
	}
}

func TestDataServerServesBuckets(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1"}) // master never dialed here
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	if s.DataAddr() == "" {
		t.Fatal("no data server in direct mode")
	}
	d, err := s.store.Put("ds1/t0/s0", []kvio.Pair{kvio.StrPair("k", "v")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.URL, "http://"+s.DataAddr()) {
		t.Fatalf("bucket URL %q not served by this slave", d.URL)
	}
	resp, err := http.Get(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: %s", d.URL, resp.Status)
	}
	pairs, err := kvio.NewAnyReader(resp.Body).ReadAll()
	if err != nil || len(pairs) != 1 || string(pairs[0].Key) != "k" {
		t.Errorf("served pairs %v, err %v", pairs, err)
	}
}

func TestDataServerRejectsTraversal(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	resp, err := http.Get("http://" + s.DataAddr() + "/data/..%2Fsecret")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("traversal name served")
	}
}

func TestSharedDirModeHasNoDataServer(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1", SharedDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	if s.DataAddr() != "" {
		t.Error("shared-dir slave started a data server")
	}
	d, err := s.store.Put("x", []kvio.Pair{kvio.StrPair("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.URL, "file://") {
		t.Errorf("shared-dir bucket URL %q, want file scheme", d.URL)
	}
}

func TestRunCancelledDuringSignin(t *testing.T) {
	// No master listening: Run must exit promptly when cancelled.
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected error from cancelled signin")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit after cancel")
	}
}

func TestRunAgainstRealMaster(t *testing.T) {
	m, err := master.New(master.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(reg(), Options{MasterAddr: m.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.WaitForSlaves(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("slave exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("slave did not shut down with the master")
	}
	if s.ID() == "" {
		t.Error("slave never learned its id")
	}
}

func TestRetryBackoffBounded(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1", BackoffSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	if s.retry.Delay(1) <= 0 {
		t.Error("Delay(1) not positive")
	}
	if d := s.retry.Delay(1000); d > s.retry.Max+s.retry.Max/2 {
		t.Errorf("backoff unbounded: %v", d)
	}
}
