package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/sim"
)

const (
	// sortdJobRecords is the size of every sortd-robust job.
	sortdJobRecords = 500_000
	// sortdClients is the closed loop's client count.
	sortdClients = 2
	// jobsPerClient is how many timed jobs each client runs against one
	// server incarnation. A volatile sortd keeps every job's input and
	// result in memory for its whole life, so the run restarts the server
	// after a fixed number of jobs: its peak memory then reflects what a
	// job costs, not how long the run lasted.
	jobsPerClient = 4
	// jobTimeout bounds one job from submission to downloaded result.
	jobTimeout = 2 * time.Minute
)

// sortdArgs are the server flags the workload runs with: the default job
// geometry, one core per job, default retries, and a deadline and hedge
// far above any block operation's latency, so both layers are active and
// never fire.
func sortdArgs(seed int64) []string {
	return []string{"-addr", "127.0.0.1:0", "-cores", "1", "-op-deadline", "1s", "-hedge-after", "1s",
		"-seed", strconv.FormatInt(seed, 10)}
}

// sortdConfig is the library configuration a job of sortdArgs runs under;
// the store stack (retry, deadline, gate, checkpoint) is added by callers.
func sortdConfig(seed int64) srmsort.Config {
	return srmsort.Config{D: 8, B: 64, K: 4, Seed: seed, Cores: 1}
}

// sortdServer is one running sortd process.
type sortdServer struct {
	cmd    *exec.Cmd
	base   string
	logEnd chan struct{} // closed once the server's stderr is drained
}

// startSortd spawns sortd and returns once it answers /healthz.
func startSortd(path string, seed int64) (*sortdServer, error) {
	cmd := exec.Command(path, sortdArgs(seed)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sortd: %w", err)
	}
	s := &sortdServer{cmd: cmd, logEnd: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logEnd)
		sc := bufio.NewScanner(stderr)
		const marker = "listening on "
		found := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 && !found {
				a, _, _ := strings.Cut(line[i+len(marker):], ",")
				addr <- a
				found = true
				continue
			}
			if strings.Contains(line, "failed") {
				fmt.Fprintf(os.Stderr, "sortd: %s\n", line)
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logEnd:
		s.stop()
		return nil, errors.New("sortd exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("sortd did not start listening within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sortd not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (sortd drains, then exits), waits for the process
// and returns its peak RSS in MiB.
func (s *sortdServer) stop() (float64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-s.logEnd // all of stderr is read before Wait closes the pipe
		exited <- s.cmd.Wait()
	}()
	var err error
	select {
	case err = <-exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err = <-exited
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for sortd")
	}
	return float64(ru.Maxrss) / 1024, err
}

// cpu returns the user plus system CPU the server has used so far.
func (s *sortdServer) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15, in USER_HZ (100 on Linux).
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// serverStats is the part of GET /stats the traced run reports.
type serverStats struct {
	MemoryPeak int `json:"memory_peak"`
	IOHealth   *struct {
		HedgedReads int64 `json:"hedged_reads"`
		Timeouts    int64 `json:"timeouts"`
	} `json:"io_health"`
}

// jobStatus is the part of a job's status the client reads.
type jobStatus struct {
	ID    string         `json:"id"`
	State string         `json:"state"`
	Stats *srmsort.Stats `json:"stats"`
	Error string         `json:"error"`
}

// sortdJob is one sortd-robust job's input and the result it must produce:
// the library's own sort of the same records under the same configuration.
type sortdJob struct {
	input     []byte
	want      []byte
	wantStats srmsort.Stats
}

// newSortdJob builds the near-sorted job input for seed and its reference
// result.
func newSortdJob(seed int64) (*sortdJob, error) {
	gen := sim.GenerateInput(sim.ShapeNearSorted, sortdJobRecords, seed)
	recs := make([]srmsort.Record, len(gen))
	for i, r := range gen {
		recs[i] = srmsort.Record{Key: uint64(r.Key), Val: r.Val}
	}
	var in bytes.Buffer
	if err := srmsort.WriteRecords(&in, recs); err != nil {
		return nil, err
	}
	out, st, err := srmsort.Sort(recs, sortdConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("reference sort: %w", err)
	}
	var want bytes.Buffer
	if err := srmsort.WriteRecords(&want, out); err != nil {
		return nil, err
	}
	return &sortdJob{input: in.Bytes(), want: want.Bytes(), wantStats: st}, nil
}

// jobSample is one job as a client saw it.
type jobSample struct {
	latency time.Duration // submit to result fully downloaded
	// The client-side phases: the submit request, queued until first
	// seen running, running until first seen done, and the download.
	submit, queued, run, result time.Duration
	ops                         int64
	ok, refused                 bool
}

// sortdClient submits jobs to one server, one at a time.
type sortdClient struct {
	base string
	http *http.Client
	job  *sortdJob
	poll time.Duration
	buf  []byte
}

func newSortdClient(base string, job *sortdJob, poll time.Duration) *sortdClient {
	return &sortdClient{
		base: base,
		http: &http.Client{Timeout: jobTimeout},
		job:  job,
		poll: poll,
		buf:  make([]byte, len(job.want)+1),
	}
}

func (c *sortdClient) status(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.http.Get(c.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	return st, nil
}

// run submits one job, polls it to done, downloads the result and checks
// it byte for byte — and its Stats — against the library's reference.
func (c *sortdClient) run() jobSample {
	var s jobSample
	fail := func(format string, args ...any) jobSample {
		fmt.Fprintf(os.Stderr, "sortd-robust: job failed: "+format+"\n", args...)
		return s
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/octet-stream", bytes.NewReader(c.job.input))
	if err != nil {
		return fail("submit: %v", err)
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		s.refused = true
		return fail("submit refused: HTTP %d, %v", resp.StatusCode, err)
	}
	submitted := time.Now()
	var running time.Time
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			return fail("%s %s: %s", st.ID, st.State, st.Error)
		}
		if time.Since(t0) > jobTimeout {
			return fail("%s still %s after %v", st.ID, st.State, jobTimeout)
		}
		time.Sleep(c.poll)
		if st, err = c.status(st.ID); err != nil {
			return fail("%v", err)
		}
		if st.State != "queued" && running.IsZero() {
			running = time.Now()
		}
	}
	done := time.Now()
	resp, err = c.http.Get(c.base + "/jobs/" + st.ID + "/result")
	if err != nil {
		return fail("result: %v", err)
	}
	n, err := io.ReadFull(resp.Body, c.buf)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != io.ErrUnexpectedEOF || resp.StatusCode != http.StatusOK {
		return fail("result %s: HTTP %d, %d bytes (want %d), %v", st.ID, resp.StatusCode, n, len(c.job.want), err)
	}
	s.latency = end.Sub(t0)
	s.submit = submitted.Sub(t0)
	s.queued = running.Sub(submitted)
	s.run = done.Sub(running)
	s.result = end.Sub(done)
	if st.Stats == nil {
		return fail("%s done without stats", st.ID)
	}
	s.ops = st.Stats.TotalOps()
	if !bytes.Equal(c.buf[:n], c.job.want) || !sameStats(*st.Stats, c.job.wantStats) {
		return fail("%s: output matches library %v, stats match %v (io ops %d, want %d)", st.ID,
			bytes.Equal(c.buf[:n], c.job.want), sameStats(*st.Stats, c.job.wantStats), s.ops, c.job.wantStats.TotalOps())
	}
	s.ok = true
	return s
}

// segment is one server incarnation: setup (spawn to a checked warm-up
// job), then each client's jobsPerClient timed jobs.
type segment struct {
	setup   time.Duration
	loop    time.Duration // from the clients' start until the last job ends
	cpu     time.Duration // the server's CPU during the loop
	scale   float64       // brings the segment's times to reference host speed
	rssMB   float64
	warm    jobSample
	jobs    []jobSample
	stats   serverStats
	statsOK bool
}

// runSegment runs one server incarnation. *poll is the clients' poll
// interval; when it is still 0, the warm-up job polls every millisecond
// and sets it to 1% of its own (uncontended) latency, so polling does not
// quantise the latencies measured. The reference kernel runs just before
// and just after the loop.
func runSegment(path string, seed int64, job *sortdJob, poll *time.Duration, cal *calibrator, traced bool) (segment, error) {
	var seg segment
	t0 := time.Now()
	srv, err := startSortd(path, seed)
	if err != nil {
		return seg, err
	}
	clients := make([]*sortdClient, sortdClients)
	for i := range clients {
		clients[i] = newSortdClient(srv.base, job, max(*poll, time.Millisecond))
	}
	seg.warm = clients[0].run()
	seg.setup = time.Since(t0)
	if *poll == 0 {
		*poll = min(max(seg.warm.latency/100, time.Millisecond), 10*time.Millisecond)
	}
	for _, c := range clients {
		c.poll = *poll
	}

	before, err := cal.time()
	if err != nil {
		srv.stop()
		return seg, err
	}
	runtime.GC()
	cpu0, err0 := srv.cpu()
	start := time.Now()
	per := make([][]jobSample, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *sortdClient) {
			defer wg.Done()
			for j := 0; j < jobsPerClient; j++ {
				per[i] = append(per[i], c.run())
			}
		}(i, c)
	}
	wg.Wait()
	seg.loop = time.Since(start)
	cpu1, err1 := srv.cpu()
	seg.cpu = cpu1 - cpu0
	after, err2 := cal.time()
	seg.scale = scale((before + after) / 2)
	for _, p := range per {
		seg.jobs = append(seg.jobs, p...)
	}
	if traced {
		seg.stats, err = getStats(clients[0])
		seg.statsOK = err == nil
	}
	seg.rssMB, err = srv.stop()
	if err := errors.Join(err0, err1, err2, err); err != nil {
		return seg, fmt.Errorf("sortd: %w", err)
	}
	return seg, nil
}

func getStats(c *sortdClient) (serverStats, error) {
	var st serverStats
	resp, err := c.http.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runSortd runs the sortd-robust workload: server incarnations of
// jobsPerClient closed-loop jobs per client until dur of loop time is
// measured (half of dur when traced, the other half replaying a job
// in-process under the timing wrappers).
func runSortd(path string, seed int64, dur time.Duration, traced bool, tracePath string) (result, error) {
	var res result
	if path == "" {
		return res, errors.New("sortd-robust needs -sortd")
	}
	job, err := newSortdJob(seed)
	if err != nil {
		return res, err
	}
	loopFor := dur
	if traced {
		loopFor = dur / 2
	}
	cal, err := startCalibrator()
	if err != nil {
		return res, err
	}
	defer cal.close()
	var segs []segment
	var poll, looped time.Duration
	for len(segs) == 0 || looped < loopFor {
		seg, err := runSegment(path, seed, job, &poll, cal, traced)
		if err != nil {
			return res, err
		}
		segs = append(segs, seg)
		looped += seg.loop
	}

	var lat, raw, sub, que, run, dl, ops, rss, setups, scales []float64
	var records, loopS, cpuNs float64
	refused := 0
	for _, seg := range segs {
		scales = append(scales, seg.scale)
		setups = append(setups, seg.setup.Seconds()*seg.scale)
		rss = append(rss, seg.rssMB)
		loopS += seg.loop.Seconds() * seg.scale
		cpuNs += float64(seg.cpu.Nanoseconds()) * seg.scale
		for _, j := range append([]jobSample{seg.warm}, seg.jobs...) {
			res.Attempted++
			if !j.ok {
				res.Failed++
			}
			if j.refused {
				refused++
			}
		}
		for _, j := range seg.jobs {
			if !j.ok {
				continue
			}
			records += sortdJobRecords
			raw = append(raw, j.latency.Seconds())
			lat = append(lat, j.latency.Seconds()*seg.scale)
			sub = append(sub, j.submit.Seconds())
			que = append(que, j.queued.Seconds())
			run = append(run, j.run.Seconds())
			dl = append(dl, j.result.Seconds())
			ops = append(ops, float64(j.ops))
		}
	}
	if len(lat) == 0 {
		return res, errors.New("sortd-robust: no job succeeded")
	}
	res.Correct = res.Failed == 0
	p50 := median(lat)
	tailV, pct := tail(lat)
	fmt.Fprintf(os.Stderr, "sortd-robust: %d segments, %d timed jobs; latency p50 %.4fs, tail p%.1f %.4fs (measured p50 %.4fs, reference kernel p50 %.4fs); poll %v\n",
		len(segs), len(lat), p50, pct, tailV, median(raw), refKernelSeconds/median(scales), poll)
	if !traced {
		res.Metrics = endToEnd(records/loopS, p50, tailV, cpuNs/records, median(ops), median(rss), median(setups))
		return res, nil
	}

	l := map[string]float64{
		"jobs.submit_s": median(sub),
		"jobs.queued_s": median(que),
		"jobs.run_s":    median(run),
		"jobs.result_s": median(dl),
		"jobs.refused":  float64(refused),
	}
	for _, seg := range segs {
		if !seg.statsOK {
			res.Correct = false
			continue
		}
		l["jobs.memory_peak"] = max(l["jobs.memory_peak"], float64(seg.stats.MemoryPeak))
		if h := seg.stats.IOHealth; h != nil {
			l["pdisk.hedged_reads"] += float64(h.HedgedReads)
			l["pdisk.deadline_timeouts"] += float64(h.Timeouts)
		}
	}

	tr := newTracer()
	layers := samples{}
	blocks := toBlocks(len(job.input)/record.Bytes, sortdConfig(seed).B, func(i int) record.Record {
		w := job.input[i*record.Bytes:]
		return record.Record{Key: record.Key(binary.LittleEndian.Uint64(w)), Val: binary.LittleEndian.Uint64(w[8:])}
	})
	for i := 0; i < 3; i++ {
		layers.addAll(codecLayers(record.Fixed16{}, blocks, sortdJobRecords))
	}
	var plain, timed []float64
	deadline := time.Now().Add(dur - loopFor)
	for len(timed) < minOps-1 || time.Now().Before(deadline) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		wall, err := replaySortdPlain(job, seed)
		runtime.ReadMemStats(&ms1)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "sortd-robust: in-process job: %v\n", err)
		} else {
			plain = append(plain, wall.Seconds())
			layers.addAll(gcLayers(ms0, ms1, sortdJobRecords))
		}
		runtime.GC()
		root, lay, err := replaySortdTraced(tr, job, seed)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "sortd-robust: traced in-process job: %v\n", err)
			if res.Failed > 3 {
				break
			}
			continue
		}
		timed = append(timed, tr.spans[root].iv().dur().Seconds())
		layers.addAll(lay)
	}
	for k, v := range layers.medians() {
		l[k] = v
	}
	l["trace.overhead_frac"] = median(timed)/median(plain) - 1
	res.Metrics = perLayer(l)
	if err := tr.write(tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "sortd-robust: writing spans: %v\n", err)
	}
	return res, nil
}

// jobConfig is the library configuration sortd gives a volatile job:
// checkpointed through its in-memory store, attached to a shared disk gate,
// with progress reporting on.
func jobConfig(seed int64, progress func(srmsort.Progress)) srmsort.Config {
	cfg := sortdConfig(seed)
	cfg.Checkpoint = true
	cfg.Gate = pdisk.NewDiskGate(64, 2)
	cfg.Progress = progress
	return cfg
}

func jobPolicies(seed int64) (*pdisk.RetryPolicy, *pdisk.DeadlinePolicy) {
	retry := pdisk.DefaultRetryPolicy()
	retry.MaxAttempts = 5
	retry.Seed = seed
	return &retry, &pdisk.DeadlinePolicy{OpDeadline: time.Second, HedgeAfter: time.Second}
}

// checkJob compares an in-process job's output and Stats with the
// reference.
func checkJob(job *sortdJob, out []byte, st srmsort.Stats) error {
	if !bytes.Equal(out, job.want) || !sameStats(st, job.wantStats) {
		return fmt.Errorf("output matches library %v, stats match %v", bytes.Equal(out, job.want), sameStats(st, job.wantStats))
	}
	return nil
}

// replaySortdPlain runs one job's sort in-process the way sortd does —
// SortStream over Retry(Deadline(MemStore)) — and times it.
func replaySortdPlain(job *sortdJob, seed int64) (time.Duration, error) {
	cfg := jobConfig(seed, func(srmsort.Progress) {})
	cfg.Retry, cfg.Deadline = jobPolicies(seed)
	mem := pdisk.NewMemStore()
	cfg.Store = mem
	var out bytes.Buffer
	out.Grow(len(job.want))
	t0 := time.Now()
	st, err := srmsort.SortStream(bytes.NewReader(job.input), &out, cfg)
	wall := time.Since(t0)
	mem.Close()
	if err != nil {
		return wall, err
	}
	return wall, checkJob(job, out.Bytes(), st)
}

// replaySortdTraced runs the same job with a timedStore above and below
// each of the retry and deadline layers — T1(Retry(T2(Deadline(T3(mem)))))
// — so each wrapper's self time is the difference of the busy times
// around it. The phases come from the stream's own progress points: ingest
// ends at the first block read, formation at the first progress report,
// the merge when one run is left.
func replaySortdTraced(tr *tracer, job *sortdJob, seed int64) (int, map[string]float64, error) {
	var formed, merged time.Duration
	cfg := jobConfig(seed, func(p srmsort.Progress) {
		now := tr.now()
		if formed == 0 {
			formed = now
		}
		if merged == 0 && p.RunsLeft <= 1 && p.RecordsOut == 0 {
			merged = now
		}
	})
	retry, deadline := jobPolicies(seed)
	t3 := newTimedStore(pdisk.NewMemStore(), tr.epoch, false, true)
	t2 := newTimedStore(pdisk.NewDeadlineStore(t3, *deadline), tr.epoch, false, false)
	t1 := newTimedStore(pdisk.NewRetryStore(t2, *retry), tr.epoch, true, false)
	cfg.Store = t1
	var out bytes.Buffer
	out.Grow(len(job.want))
	start := tr.now()
	st, err := srmsort.SortStream(bytes.NewReader(job.input), &out, cfg)
	end := tr.now()
	t1.Close()
	if err != nil {
		return 0, nil, err
	}
	if err := checkJob(job, out.Bytes(), st); err != nil {
		return 0, nil, err
	}
	top, mid, bottom := t1.tally(), t2.tally(), t3.tally()
	if !top.sawRead || formed == 0 || merged == 0 {
		return 0, nil, errors.New("traced job missed a phase boundary")
	}
	root := tr.add("sortd job (in-process)", -1, interval{start, end})
	self := func(name string, iv interval) float64 {
		tr.add(name, root, iv)
		return selfTime(iv, top.log, false).Seconds()
	}
	l := map[string]float64{
		"runform.ingest_s":               self(spanIngest, interval{start, top.firstRead}),
		"runform.form_s":                 self(spanForm, interval{top.firstRead, formed}),
		"srm.merge_s":                    self(spanMerge, interval{formed, merged}),
		"runio.egest_s":                  self(spanEgest, interval{merged, end}),
		"pdisk.retry_self_s":             (top.totalBusy() - mid.totalBusy()).Seconds(),
		"pdisk.deadline_self_s":          (mid.totalBusy() - bottom.totalBusy()).Seconds(),
		"pdisk.retry_extra_attempts":     float64(mid.totalCalls() - top.totalCalls()),
		"pdisk.peak_store_bytes_per_rec": float64(bottom.peak) / sortdJobRecords,
	}
	l["trace.unattributed_frac"] = tr.unattributed(root)
	addStoreLayers(l, bottom)
	// Stats has no per-phase block counts: the merge read every block
	// read before egest except the input's, which formation read once.
	totalReads := st.RunFormationReads + st.MergeReads
	blocksRead := int64(math.Round(st.ReadParallelism * float64(totalReads)))
	inputBlocks := int64((sortdJobRecords + cfg.B - 1) / cfg.B)
	mergeBlocksRead := blocksRead - inputBlocks
	addSortLayers(l, st, mergeBlocksRead, math.Ceil(float64(mergeBlocksRead-st.BlocksReread)/float64(cfg.D)))
	return root, l, nil
}
