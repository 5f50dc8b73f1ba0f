package mrs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

// BindFlags registers the standard mrs command-line options on a flag
// set and returns a pointer whose fields are filled at parse time. The
// flag names follow the paper's convention of keeping configuration to
// "a short list of command-line options".
func BindFlags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.Implementation, "mrs", "serial",
		"execution mode: serial|mock|threads|local|master|slave|bypass")
	fs.IntVar(&o.Workers, "mrs-workers", 4, "worker goroutines for -mrs=threads")
	fs.IntVar(&o.Slaves, "mrs-slaves", 2, "slave count for -mrs=local")
	fs.Float64Var(&o.Speculation, "mrs-speculation", 0,
		"speculative-execution slowness factor (0 disables; e.g. 2 duplicates a task running 2x the op's median)")
	fs.StringVar(&o.MasterAddr, "mrs-master", "", "master host:port (for -mrs=slave)")
	fs.StringVar(&o.Addr, "mrs-addr", "", "listen address (for -mrs=master)")
	fs.StringVar(&o.PortFile, "mrs-portfile", "", "file to write the master address to")
	fs.StringVar(&o.SharedDir, "mrs-shared", "", "shared directory for filesystem-staged data")
	fs.StringVar(&o.MockDir, "mrs-mockdir", "", "directory for -mrs=mock intermediate files")
	fs.IntVar(&o.MinSlaves, "mrs-min-slaves", 1, "slaves to wait for before running (master)")
	fs.DurationVar(&o.MinSlavesTimeout, "mrs-slave-timeout", 60*time.Second,
		"how long the master waits for -mrs-min-slaves")
	fs.Uint64Var(&o.Seed, "mrs-seed", 42, "base seed for mrs.Random streams")
	fs.StringVar(&o.TracePath, "mrs-trace", "",
		"write a Chrome trace-event JSON task timeline to this file")
	fs.StringVar(&o.DebugAddr, "mrs-debug-addr", "",
		"serve /debug/status, /debug/metrics, /debug/pprof on this address")
	fs.Int64Var(&o.ResidentBudget, "mrs-resident-budget", core.DefaultResidentBudget,
		"per-worker resident dataset cache budget in bytes (0 disables)")
	return o
}

// Main parses os.Args with the standard mrs flags plus any flags the
// caller registered on flag.CommandLine, runs the program, and exits
// non-zero on error. It is the Go analogue of mrs.main(ProgramClass).
func Main(p Program) {
	opts := BindFlags(flag.CommandLine)
	flag.Parse()
	if err := Run(p, *opts); err != nil {
		fmt.Fprintf(os.Stderr, "mrs: %v\n", err)
		os.Exit(1)
	}
}
