// mrs-submit reproduces the subjective evaluation of §V-A: it emits
// the PBS startup scripts for a mrs job (Program 3) and a Hadoop job
// (Program 4), the WordCount sources (Programs 1 and 2), and the
// quantified comparison tables.
//
//	mrs-submit                 # comparison tables
//	mrs-submit -scripts        # also print both startup scripts
//	mrs-submit -programs       # also print both WordCount programs
//	mrs-submit -nodes 21 -stage-gb 4 -files 31173
//
// With -journal it instead runs a durable wordcount job over the
// argument files on an embedded local cluster, journaling job state so
// an interrupted run can be picked up where it left off:
//
//	mrs-submit -journal /tmp/j data/*.txt             # submit
//	mrs-submit -journal /tmp/j -list-jobs             # inspect the journal
//	mrs-submit -journal /tmp/j -resume 1 data/*.txt   # resume job 1
//
// A resume must re-offer the same input files: the journal replays
// completed tasks by position in the deterministic task sequence, so a
// changed program would produce a mismatched spec hash and be refused.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/kvio"
	"repro/internal/master"
	"repro/internal/pbs"
	"repro/internal/wordcount"
)

var (
	nodes        = flag.Int("nodes", 8, "allocation size in nodes")
	stageGB      = flag.Float64("stage-gb", 1, "gigabytes staged into HDFS (Hadoop only)")
	files        = flag.Int("files", 1000, "input file count")
	showScripts  = flag.Bool("scripts", false, "print both startup scripts")
	showPrograms = flag.Bool("programs", false, "print both WordCount programs")

	journalDir = flag.String("journal", "", "journal directory: run a durable wordcount job over the argument files")
	resumeID   = flag.Int64("resume", 0, "resume the journaled job with this id instead of submitting a new one (requires -journal)")
	listJobs   = flag.Bool("list-jobs", false, "list the jobs recorded in -journal and exit")
	jobSlaves  = flag.Int("slaves", 2, "embedded cluster size for -journal runs")
)

func main() {
	flag.Parse()
	if *journalDir != "" {
		if err := jobMode(); err != nil {
			fmt.Fprintf(os.Stderr, "mrs-submit: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cmp := pbs.Compare(*nodes, int64(*stageGB*float64(1<<30)), *files)

	fmt.Println("== Startup comparison (Programs 3 & 4; EXP-SCRIPT) ==")
	fmt.Println()
	fmt.Print(cmp.String())
	fmt.Println()

	prog := pbs.NewProgramComparison()
	fmt.Println("== Program comparison (Programs 1 & 2; EXP-PROG) ==")
	fmt.Println()
	fmt.Print(prog.String())

	if *showScripts {
		fmt.Println()
		fmt.Println("---- mrs startup script ----")
		fmt.Println(cmp.Mrs.Text)
		fmt.Println("---- hadoop startup script ----")
		fmt.Println(cmp.Hadoop.Text)
	}
	if *showPrograms {
		fmt.Println()
		fmt.Println("---- WordCount in mrs-go ----")
		fmt.Println(prog.MrsSource)
		fmt.Println("---- WordCount in Hadoop/Java ----")
		fmt.Println(prog.HadoopSource)
	}
}

// jobMode serves -journal: list the journal's jobs, or run (submit or
// resume) a wordcount job over the argument files with durable state.
func jobMode() error {
	if *listJobs {
		return printJobs()
	}
	paths := flag.Args()
	if len(paths) == 0 {
		return fmt.Errorf("-journal needs input files as arguments (or -list-jobs)")
	}
	reg := core.NewRegistry()
	wordcount.Register(reg)
	// The shared data dir lives next to the journal so completed tasks'
	// bucket manifests survive a process restart and recovery can
	// re-advertise them instead of re-running the work.
	sharedDir := filepath.Join(*journalDir, "shared")
	if err := os.MkdirAll(sharedDir, 0o755); err != nil {
		return err
	}
	c, err := cluster.Start(reg, cluster.Options{
		Slaves:     *jobSlaves,
		SharedDir:  sharedDir,
		JournalDir: *journalDir,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	var pairs []kvio.Pair
	driver := func(job *core.Job) error {
		out, err := wordcount.Run(job, paths, wordcount.Options{
			MapSplits:    *jobSlaves * 2,
			ReduceSplits: *jobSlaves,
		})
		if err != nil {
			return err
		}
		pairs, err = out.Collect()
		return err
	}

	var mj *master.ManagedJob
	if *resumeID != 0 {
		mj, err = c.Jobs().Resume(core.JobID(*resumeID), "wordcount", core.JobOptions{Pipeline: true}, driver)
		if err != nil {
			return fmt.Errorf("resume job %d: %w", *resumeID, err)
		}
		fmt.Printf("resumed job %d over %d files\n", *resumeID, len(paths))
	} else {
		mj, err = c.Jobs().Submit("wordcount", core.JobOptions{Pipeline: true}, driver)
		if err != nil {
			return err
		}
		fmt.Printf("submitted job %d over %d files (resume with -resume %d if interrupted)\n",
			mj.ID(), len(paths), mj.ID())
	}
	if err := mj.Wait(); err != nil {
		return fmt.Errorf("job %d: %w", mj.ID(), err)
	}

	var total int64
	for _, p := range pairs {
		n, err := codec.DecodeVarint(p.Value)
		if err != nil {
			return err
		}
		total += n
	}
	fmt.Printf("job %d done: %d distinct words, %d total\n", mj.ID(), len(pairs), total)
	return nil
}

// printJobs renders the journal's folded job table without taking the
// journal lock, so it works while a master is live.
func printJobs() error {
	st, err := journal.Inspect(*journalDir)
	if err != nil {
		return err
	}
	if len(st.Jobs) == 0 {
		fmt.Println("journal holds no jobs")
		return nil
	}
	ids := make([]int64, 0, len(st.Jobs))
	for id := range st.Jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("%-6s %-16s %-9s %10s %14s  %s\n", "job", "name", "state", "tasks-done", "shuffle-bytes", "error")
	for _, id := range ids {
		jr := st.Jobs[id]
		fmt.Printf("%-6d %-16s %-9s %10d %14d  %s\n", jr.ID, jr.Name, jr.State, jr.TasksDone, jr.ShuffleBytes, jr.Error)
		if len(jr.NodeTasks) > 0 {
			fmt.Printf("       per node: %s\n", nodeTaskSummary(jr.NodeTasks))
		}
	}
	return nil
}

// nodeTaskSummary renders a job's per-node completion counts, busiest
// node first.
func nodeTaskSummary(counts map[string]int64) string {
	type nc struct {
		node string
		n    int64
	}
	rows := make([]nc, 0, len(counts))
	for node, n := range counts {
		rows = append(rows, nc{node, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].node < rows[j].node
	})
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s=%d", r.node, r.n)
	}
	return strings.Join(parts, " ")
}
