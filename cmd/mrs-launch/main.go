// mrs-launch starts a mrs program as one master process plus N slave
// processes on the local machine — the private-cluster launcher of
// §IV ("the script for private clusters starts the master and uses
// pssh to start slaves"), with fork/exec standing in for ssh. The
// master's address travels through a port file, exactly as in
// Program 3.
//
//	go build -o /tmp/wc ./examples/wordcount
//	mrs-launch -n 4 /tmp/wc -files 300
//
// -drain speaks to an already-running master instead of launching
// anything: it takes one node (by id or advertised address, as shown
// by the master's /debug/status page) out of rotation, requeuing its
// leases immediately, and exits:
//
//	mrs-launch -master 10.0.0.1:40123 -drain 10.0.0.7:40200
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

var (
	n          = flag.Int("n", 2, "number of slave processes")
	timeout    = flag.Duration("timeout", 30*time.Second, "how long to wait for each port file")
	shared     = flag.String("shared", "", "shared directory for filesystem-staged data (optional)")
	masterAddr = flag.String("master", "", "running master's host:port (for -drain)")
	drain      = flag.String("drain", "", "drain this node (id or address) out of the -master fleet and exit")
)

func main() {
	flag.Parse()
	if *drain != "" {
		if err := drainNode(*masterAddr, *drain); err != nil {
			fmt.Fprintf(os.Stderr, "mrs-launch: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mrs-launch [-n slaves] <program> [program args...]")
		fmt.Fprintln(os.Stderr, "       mrs-launch -master <host:port> -drain <node-id-or-addr>")
		os.Exit(2)
	}
	if err := launch(flag.Arg(0), flag.Args()[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mrs-launch: %v\n", err)
		os.Exit(1)
	}
}

// drainNode asks a running master to take one node out of rotation.
// The node's leases requeue immediately and its next poll is told to
// shut down — elastic scale-down without waiting out a heartbeat
// timeout.
func drainNode(master, target string) error {
	if master == "" {
		return fmt.Errorf("-drain requires -master host:port")
	}
	client := xmlrpc.NewClient("http://" + master + xmlrpc.RPCPath)
	defer client.CloseIdle()
	if _, err := client.Call(rpcproto.MethodDrain, target); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mrs-launch: draining %s\n", target)
	return nil
}

func launch(bin string, args []string) error {
	dir, err := os.MkdirTemp("", "mrs-launch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	portFile := filepath.Join(dir, "master.port")

	// Start the master (the user's program in master mode).
	masterArgs := append([]string{
		"-mrs=master",
		"-mrs-portfile=" + portFile,
		fmt.Sprintf("-mrs-min-slaves=%d", *n),
	}, args...)
	if *shared != "" {
		masterArgs = append([]string{"-mrs-shared=" + *shared}, masterArgs...)
	}
	master := exec.Command(bin, masterArgs...)
	master.Stdout = os.Stdout
	master.Stderr = os.Stderr
	if err := master.Start(); err != nil {
		return fmt.Errorf("starting master: %w", err)
	}

	// Wait for the port file (Program 3, step 3).
	addr, err := waitPortFile(portFile, *timeout)
	if err != nil {
		master.Process.Kill()
		master.Wait()
		return err
	}

	fmt.Fprintf(os.Stderr, "mrs-launch: master at %s; starting %d slaves\n", addr, *n)

	// Start the slaves (Program 3, step 4 — pssh/pbsdsh equivalent).
	var procs []*exec.Cmd
	for i := 0; i < *n; i++ {
		slaveArgs := append([]string{"-mrs=slave", "-mrs-master=" + addr}, args...)
		if *shared != "" {
			slaveArgs = append([]string{"-mrs-shared=" + *shared}, slaveArgs...)
		}
		s := exec.Command(bin, slaveArgs...)
		s.Stdout = os.Stderr // keep program output (master stdout) clean
		s.Stderr = os.Stderr
		if err := s.Start(); err != nil {
			master.Process.Kill()
			return fmt.Errorf("starting slave %d: %w", i, err)
		}
		procs = append(procs, s)
	}

	masterErr := master.Wait()
	// Slaves exit on their own when told to shut down.
	for i, p := range procs {
		if err := p.Wait(); err != nil && masterErr == nil {
			fmt.Fprintf(os.Stderr, "mrs-launch: worker process %d: %v\n", i, err)
		}
	}
	return masterErr
}

// waitPortFile reads the master's port file as soon as it is written.
// It checks at once, then backs off 1, 2, 4 … ms up to 50 ms between
// checks, so a fast master costs a millisecond or two, not a fixed
// 50 ms poll.
func waitPortFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for wait := time.Millisecond; ; wait = min(2*wait, 50*time.Millisecond) {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("port file %s did not appear within %v", path, timeout)
		}
		time.Sleep(wait)
	}
}
