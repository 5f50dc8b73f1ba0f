package master

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rpcproto"
)

// waitAsync runs m.WaitForSlaves(ctx, n) in the background and
// delivers its error and the time it returned.
func waitAsync(m *Master, ctx context.Context, n int) <-chan waitResult {
	done := make(chan waitResult, 1)
	go func() {
		err := m.WaitForSlaves(ctx, n)
		done <- waitResult{err, time.Now()}
	}()
	return done
}

type waitResult struct {
	err error
	at  time.Time
}

// join signs a one-slot node in and starts its first get_task poll,
// which parks until the long poll ends or the master stops, the way an
// idle slave's does. It returns the time the poll was sent. The poll
// has a transport of its own: on the shared one, a signin racing a
// parked poll can dial a connection it then never uses, and Close's
// graceful shutdown waits such a new connection out for its 2 s bound.
func join(t *testing.T, m *Master) time.Time {
	t.Helper()
	id := signin(t, m).SlaveID
	poller := client(m)
	poller.HTTPClient = &http.Client{Transport: &http.Transport{}}
	sent := time.Now()
	go func() {
		poller.Call(rpcproto.MethodGetTask, id)
		poller.CloseIdle()
	}()
	return sent
}

// The poll that completes the count wakes WaitForSlaves at once: it
// returns within 2 ms of that poll being sent, not on a polling period.
func TestWaitForSlavesWakesOnJoin(t *testing.T) {
	const trials = 10
	prompt := 0
	var lags []time.Duration
	for i := 0; i < trials; i++ {
		m, err := New(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		done := waitAsync(m, context.Background(), 2)
		join(t, m)
		sent := join(t, m)
		var r waitResult
		select {
		case r = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("WaitForSlaves did not return after the second node polled")
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		lag := r.at.Sub(sent)
		lags = append(lags, lag)
		if lag < 2*time.Millisecond {
			prompt++
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if prompt < trials-1 {
		t.Errorf("WaitForSlaves returned within 2 ms of the completing poll in %d of %d trials (lags %v)", prompt, trials, lags)
	}
}

// Stopping the master fails a pending WaitForSlaves promptly, whether it
// is closed or crashed.
func TestWaitForSlavesFailsWhenMasterStops(t *testing.T) {
	for name, stop := range map[string]func(*Master) error{
		"Close": (*Master).Close,
		"Crash": (*Master).Crash,
	} {
		t.Run(name, func(t *testing.T) {
			m, err := New(Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			join(t, m)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := waitAsync(m, ctx, 2)
			start := time.Now()
			if err := stop(m); err != nil {
				t.Fatal(err)
			}
			r := <-done
			if r.err == nil {
				t.Fatal("WaitForSlaves returned nil from a stopped master with 1 of 2 slaves")
			}
			if ctx.Err() != nil {
				t.Fatalf("WaitForSlaves waited out its context: %v", r.err)
			}
			if d := r.at.Sub(start); d > time.Second {
				t.Errorf("WaitForSlaves returned %v after %s", d, name)
			}
		})
	}
}

// Each join wakes every waiter; each returns once its own count is met
// and not before.
func TestWaitForSlavesConcurrentWaiters(t *testing.T) {
	m := newMaster(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	waiters := []<-chan waitResult{waitAsync(m, ctx, 1), waitAsync(m, ctx, 2), waitAsync(m, ctx, 3)}
	for n := 1; n <= 3; n++ {
		join(t, m)
		r := <-waiters[n-1]
		if r.err != nil {
			t.Fatalf("waiter for %d: %v", n, r.err)
		}
		for _, later := range waiters[n:] {
			select {
			case r := <-later:
				t.Fatalf("a waiter for more than %d slaves returned after join %d (err %v)", n, n, r.err)
			default:
			}
		}
	}
}

// A reaped slave leaves the count, and a later join completes it again.
func TestWaitForSlavesAfterReap(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	m := newMaster(t, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		Clock:             clk,
	})
	join(t, m)
	join(t, m)
	clk.Advance(100 * time.Millisecond) // both silent past the timeout
	waitCond(t, "silent slaves to be reaped", func() bool { return m.NumSlaves() == 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := waitAsync(m, ctx, 2)
	join(t, m)
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := m.WaitForSlaves(short, 2); err == nil {
		t.Fatal("reaped slaves still counted: WaitForSlaves(2) returned after one new join")
	}
	join(t, m)
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
	if n := m.NumSlaves(); n != 2 {
		t.Errorf("NumSlaves = %d, want 2", n)
	}
}

// WaitForSlaves counts a node once every slot it offered at signin has
// polled get_task, not at its signin.
func TestWaitForSlavesCountsEverySlot(t *testing.T) {
	m := newMaster(t, Options{LongPoll: 10 * time.Second})
	raw, err := client(m).Call(rpcproto.MethodSignin, rpcproto.SigninArgs{Slots: 2}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rpcproto.DecodeSigninReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := waitAsync(m, ctx, 1)
	poll := func() { go client(m).Call(rpcproto.MethodGetTask, reply.SlaveID) } // parked until Close
	short0, cancel0 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel0()
	if err := m.WaitForSlaves(short0, 1); err == nil {
		t.Fatal("a node counted before any of its slots polled")
	}
	poll()
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := m.WaitForSlaves(short, 1); err == nil {
		t.Fatal("a node counted as polling after one of its two slots polled")
	}
	poll()
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
}

// A client that dialled the master and never sent a request does not
// hold Close: net/http's Shutdown would count that connection busy for
// 5 s and wait out its whole 2 s bound.
func TestCloseReturnsDespiteUnusedConnection(t *testing.T) {
	m, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The server accepts connections first in, first out, so once a
	// request on a second connection is answered it holds the first.
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get("http://" + m.Addr() + "/data/none")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tr.CloseIdleConnections()
	start := time.Now()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 250*time.Millisecond {
		t.Fatalf("Close took %v with an unused connection open, want < 250ms", d)
	}
}
