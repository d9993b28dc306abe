// Command sortd runs srmsort as a service: an HTTP daemon that accepts
// many sort jobs concurrently, admission-controls them against one
// server-wide memory budget, shares per-disk bandwidth across all
// running jobs, and makes the library's fault tolerance tenant-visible —
// every job checkpoints under its own directory, so a killed server
// resumes all incomplete jobs on restart and finished results remain
// fetchable.
//
// Usage:
//
//	sortd -addr :8080 -root /var/lib/sortd -budget 4000000
//	      [-core-budget N] [-gate-width 2] [-gate-disks 64] [-retries 5]
//	      [-max-attempts 3] [-op-deadline DUR] [-hedge-after DUR]
//	      [-drain 5s] [-d 8] [-b 64] [-k 4] [-alg srm] [-seed 1]
//	      [-async] [-cores N]
//
// The -d/-b/-k/-alg/... flags are per-job defaults; each submission may
// override them with query parameters. Submit wire-format records
// (16 bytes little-endian per record: 8 key + 8 payload):
//
//	curl -s --data-binary @input.rec 'localhost:8080/jobs?d=8&b=64&k=4'
//	curl -s localhost:8080/jobs/job-000001            # status + progress
//	curl -s localhost:8080/jobs/job-000001/result -o sorted.rec
//	curl -s -X DELETE localhost:8080/jobs/job-000001  # cancel
//
// -op-deadline and -hedge-after give every job's store the deadline/
// hedging layer (stuck transfers abandoned and retried, straggling reads
// hedged); the accumulated per-disk latency ledger appears as io_health
// in GET /stats.
//
// On SIGTERM/SIGINT the server drains: it refuses new submissions (503),
// waits up to -drain for in-flight jobs to finish — each checkpoints
// after every merge pass regardless — then severs whatever remains and
// exits. Kill the process mid-flight (or let the drain window expire)
// and start it again on the same -root: the incomplete jobs resume from
// their last checkpointed merge pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"srmsort"
	"srmsort/internal/jobs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		root        = flag.String("root", "", "directory jobs persist under (empty = volatile: results die with the process)")
		budget      = flag.Int("budget", 4_000_000, "server-wide working-memory budget in records; each job's M is reserved from it")
		coreBudget  = flag.Int("core-budget", 0, "server-wide core budget; each job's cores are reserved from it with its memory (0 = GOMAXPROCS)")
		gateWidth   = flag.Int("gate-width", 2, "per-disk in-flight transfer bound shared by all jobs (-1 = unlimited)")
		gateDisks   = flag.Int("gate-disks", 64, "disks the shared gate covers (largest d= any job may request)")
		retries     = flag.Int("retries", 5, "re-attempt transient I/O failures up to N times per operation (0 = fail on first error)")
		maxAttempts = flag.Int("max-attempts", 3, "sort attempts per job (first run + checkpoint resumes) before it fails")
		deadline    = flag.Duration("op-deadline", 0, "abandon any job block I/O still in flight after this long (retryable; 0 = no deadline)")
		hedge       = flag.Duration("hedge-after", 0, "re-issue a job's straggling read after this long and take the first result (0 = no hedging)")
		drain       = flag.Duration("drain", 5*time.Second, "on SIGTERM, wait this long for in-flight jobs before severing them (0 = abrupt)")
		d           = flag.Int("d", 8, "default disks per job")
		b           = flag.Int("b", 64, "default block size in records")
		k           = flag.Int("k", 4, "default memory parameter k")
		mem         = flag.Int("mem", 0, "default memory M in records (overrides -k)")
		alg         = flag.String("alg", "srm", "default algorithm: srm, srm-det, dsm, psv")
		seed        = flag.Int64("seed", 1, "default placement seed")
		async       = flag.Bool("async", false, "default: overlap I/O with merging")
		cores       = flag.Int("cores", 1, "default cores per job's sort steps (identical output at any value)")
		codec       = flag.String("codec", "fixed16", "default record codec: fixed16, varlen, varlen+flate")
	)
	flag.Parse()

	opts := jobs.Options{
		Root:         *root,
		MemoryBudget: *budget,
		CoreBudget:   *coreBudget,
		GateWidth:    *gateWidth,
		GateDisks:    *gateDisks,
		MaxAttempts:  *maxAttempts,
		Defaults: jobs.Spec{
			Algorithm: *alg, D: *d, B: *b, K: *k, Memory: *mem,
			Seed: *seed, Async: *async, Cores: *cores,
			Codec: *codec,
		},
		Logf: log.Printf,
	}
	if *retries > 0 {
		policy := srmsort.DefaultRetryPolicy()
		policy.MaxAttempts = *retries
		policy.Seed = *seed
		opts.Retry = &policy
	}
	if *deadline > 0 || *hedge > 0 {
		opts.Deadline = &srmsort.DeadlinePolicy{
			OpDeadline: *deadline,
			HedgeAfter: *hedge,
		}
	}

	m, err := jobs.NewManager(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sortd: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sortd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler: jobs.NewHandler(m),
		// A client that opens a connection and never sends its headers
		// must not pin a drain forever.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Teardown drains first: new submissions get 503, in-flight jobs get
	// up to -drain to finish (each checkpoints after every merge pass
	// regardless, so an expired window loses nothing — the next sortd
	// over the same -root resumes whatever was severed).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("sortd: %v: draining (up to %v; new submissions refused)", s, *drain)
		if m.Drain(*drain) {
			log.Printf("sortd: drained clean")
		} else {
			log.Printf("sortd: drain window expired; severing remaining jobs (they resume on restart)")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		srv.Shutdown(ctx)
		cancel()
		m.Kill()
	}()

	mode := "volatile (no -root: results die with the process)"
	if *root != "" {
		mode = fmt.Sprintf("durable under %s", *root)
	}
	log.Printf("sortd: listening on %s, budget %d records, %s", ln.Addr(), *budget, mode)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "sortd: %v\n", err)
		os.Exit(1)
	}
	m.Kill()
}
