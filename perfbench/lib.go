package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// libCase is one library workload instance: its input, built from the
// seed, and the two ways of sorting it — the public call (untraced) and
// the layer-by-layer replay (traced). Both keep their output until check
// digests and drops it, so digesting stays outside the timed window.
type libCase struct {
	cfg        srmsort.Config
	n          int
	in         digest
	concurrent bool                     // store operations overlap the layer spans
	blocks     func() [][]record.Record // the input in B-record blocks, for codec timing
	codec      record.Codec
	sort       func() (srmsort.Stats, error)
	replay     func(tr *tracer) (replayOut, error)
	check      func() digest
}

// Library workload sizes.
const (
	memFixed16Records = 2_000_000
	fileVarlenRecords = 300_000
)

func openMem() (pdisk.Store, func() error, error) {
	return pdisk.NewMemStore(), func() error { return nil }, nil
}

// newMemFixed16 builds the mem-fixed16 case: uniform random 64-bit keys,
// each record's payload its input position, sorted in memory.
func newMemFixed16(seed int64, n int) *libCase {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]srmsort.Record, n)
	for i := range recs {
		recs[i] = srmsort.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	c := &libCase{
		cfg:   srmsort.Config{D: 4, B: 64, K: 4, Backend: srmsort.MemBackend, Cores: 1, Seed: seed},
		n:     len(recs),
		in:    digestFixed(recs),
		codec: record.Fixed16{},
	}
	c.blocks = func() [][]record.Record {
		return toBlocks(len(recs), c.cfg.B, func(i int) record.Record {
			return record.Record{Key: record.Key(recs[i].Key), Val: recs[i].Val}
		})
	}
	var out []srmsort.Record
	c.sort = func() (srmsort.Stats, error) {
		var st srmsort.Stats
		var err error
		out, st, err = srmsort.Sort(recs, c.cfg)
		return st, err
	}
	c.replay = func(tr *tracer) (replayOut, error) {
		out = make([]srmsort.Record, 0, len(recs))
		return replaySRM[record.Rec16](tr, c.cfg, openMem,
			func(app func(record.Rec16) error) error {
				for _, r := range recs {
					if err := app(record.Rec16{Key: record.Key(r.Key), Val: r.Val}); err != nil {
						return err
					}
				}
				return nil
			},
			func(r record.Rec16) error {
				out = append(out, srmsort.Record{Key: uint64(r.Key), Val: r.Val})
				return nil
			})
	}
	c.check = func() digest {
		d := digestFixed(out)
		out = nil
		return d
	}
	return c
}

// newFileVarlen builds the file-varlen-async case: keys of 4–23 bytes
// over a 4-letter alphabet (so records often tie on their prefix words),
// each payload the record's 8-byte input position, sorted through
// per-disk files in dir with async I/O.
func newFileVarlen(seed int64, n int, dir string) *libCase {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]srmsort.VarRecord, n)
	for i := range recs {
		key := make([]byte, 4+rng.Intn(20))
		for j := range key {
			key[j] = "ACGT"[rng.Intn(4)]
		}
		recs[i] = srmsort.VarRecord{Key: key, Payload: binary.BigEndian.AppendUint64(nil, uint64(i))}
	}
	c := &libCase{
		cfg: srmsort.Config{D: 4, B: 64, K: 4, Backend: srmsort.FileBackend, Async: true, Cores: 1,
			Seed: seed, Codec: "varlen", Dir: dir},
		n:          len(recs),
		in:         digestVar(recs),
		concurrent: true,
		codec:      record.Varlen{},
	}
	c.blocks = func() [][]record.Record {
		return toBlocks(len(recs), c.cfg.B, func(i int) record.Record {
			rec, err := record.MakeVar(recs[i].Key, recs[i].Payload)
			if err != nil {
				panic(err) // keys and payloads are far below the record size limit
			}
			return rec
		})
	}
	openFile := func() (pdisk.Store, func() error, error) {
		fs, err := pdisk.NewFileStoreCodec(dir, c.cfg.B, c.cfg.D, c.codec)
		if err != nil {
			return nil, nil, err
		}
		return fs, fs.Remove, nil
	}
	var out []srmsort.VarRecord
	c.sort = func() (srmsort.Stats, error) {
		var st srmsort.Stats
		var err error
		out, st, err = srmsort.SortVar(recs, c.cfg)
		return st, err
	}
	c.replay = func(tr *tracer) (replayOut, error) {
		out = make([]srmsort.VarRecord, 0, len(recs))
		return replaySRM[record.Record](tr, c.cfg, openFile,
			func(app func(record.Record) error) error {
				for i, r := range recs {
					rec, err := record.MakeVar(r.Key, r.Payload)
					if err != nil {
						return fmt.Errorf("record %d: %w", i, err)
					}
					if err := app(rec); err != nil {
						return err
					}
				}
				return nil
			},
			func(r record.Record) error {
				key, payload, err := record.VarParts(r)
				if err != nil {
					return err
				}
				out = append(out, srmsort.VarRecord{
					Key:     append([]byte(nil), key...),
					Payload: append([]byte(nil), payload...),
				})
				return nil
			})
	}
	c.check = func() digest {
		d := digestVar(out)
		out = nil
		return d
	}
	return c
}

// toBlocks cuts n records, the i-th built by rec, into blocks of b.
func toBlocks(n, b int, rec func(i int) record.Record) [][]record.Record {
	var blocks [][]record.Record
	for lo := 0; lo < n; lo += b {
		blk := make([]record.Record, 0, b)
		for i := lo; i < min(lo+b, n); i++ {
			blk = append(blk, rec(i))
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// libReference is what every op of a run must reproduce: the first
// (warm-up) op's Stats and output sequence.
type libReference struct {
	stats srmsort.Stats
	ord   uint64
}

// librarySetups is how many times a run sets up (builds its input and
// runs a warm-up op); setup_s is the median.
const librarySetups = 3

// minOps is the fewest timed ops a run makes, however short --seconds is.
const minOps = 3

// runLibrary runs a library workload: setup and warm-up, then timed ops
// (untraced) or alternating untraced ops and traced replays (traced) for
// the given duration.
func runLibrary(name string, build func() *libCase, dur time.Duration, traced bool, tracePath string) (result, error) {
	var res result
	var c *libCase
	var ref libReference
	var setups []float64
	var cal *calibrator // untraced runs only: the traced run reports no times of its own
	nSetups := 1
	if !traced {
		var err error
		if cal, err = startCalibrator(); err != nil {
			return res, err
		}
		defer cal.close()
		nSetups = librarySetups
	}
	for i := 0; i < nSetups; i++ {
		c = nil
		runtime.GC()
		t0 := time.Now()
		c = build()
		st, err := c.sort()
		setup := time.Since(t0)
		d := c.check()
		if cal != nil {
			kernel, err := cal.time()
			if err != nil {
				return res, err
			}
			setups = append(setups, setup.Seconds()*scale(kernel))
		}
		res.Attempted++
		if err != nil || !d.sortedPermutationOf(c.in) {
			return res, fmt.Errorf("%s: warm-up sort failed (err %v, sorted permutation %v)", name, err, d.sortedPermutationOf(c.in))
		}
		ref = libReference{stats: st, ord: d.ord}
	}
	// op runs one untraced library sort and checks it against the input
	// and the reference, outside the timed window. Callers collect the
	// previous op's garbage first.
	op := func() (wall, cpu time.Duration, st srmsort.Stats, ok bool) {
		cpu0 := cpuTime()
		t0 := time.Now()
		st, err := c.sort()
		wall = time.Since(t0)
		cpu = cpuTime() - cpu0
		d := c.check()
		res.Attempted++
		ok = err == nil && d.sortedPermutationOf(c.in) && d.ord == ref.ord && st.TotalOps() == ref.stats.TotalOps()
		if !ok {
			res.Failed++
			fmt.Fprintf(os.Stderr, "%s: op failed: err %v, sorted permutation %v, same output %v, io ops %d (want %d)\n",
				name, err, d.sortedPermutationOf(c.in), d.ord == ref.ord, st.TotalOps(), ref.stats.TotalOps())
		}
		return wall, cpu, st, ok
	}
	deadline := time.Now().Add(dur)

	if !traced {
		// Each op's times are brought to reference host speed by the mean
		// of the kernel runs just before and just after it.
		var raw, lat, cpus, ops, kernels []float64
		kernel, err := cal.time()
		if err != nil {
			return res, err
		}
		for len(lat) < minOps || time.Now().Before(deadline) {
			runtime.GC()
			wall, cpu, st, ok := op()
			next, err := cal.time()
			if err != nil {
				return res, err
			}
			f := scale((kernel + next) / 2)
			kernel = next
			kernels = append(kernels, next.Seconds())
			if !ok {
				if res.Failed > 3 {
					break
				}
				continue
			}
			raw = append(raw, wall.Seconds())
			lat = append(lat, wall.Seconds()*f)
			cpus = append(cpus, float64(cpu.Nanoseconds())*f/float64(c.n))
			ops = append(ops, float64(st.TotalOps()))
		}
		p50 := median(lat)
		tailV, pct := tail(lat)
		fmt.Fprintf(os.Stderr, "%s: %d timed ops; latency p50 %.4fs, tail p%.1f %.4fs (measured p50 %.4fs, reference kernel p50 %.4fs)\n",
			name, len(lat), p50, pct, tailV, median(raw), median(kernels))
		res.Metrics = endToEnd(float64(c.n)/p50, p50, tailV, median(cpus), median(ops), maxRSSMB(), median(setups))
		res.Correct = res.Failed == 0
		return res, nil
	}

	tr := newTracer()
	layers := samples{}
	var untraced, tracedWalls []float64
	blocks := c.blocks()
	for i := 0; i < 3; i++ {
		layers.addAll(codecLayers(c.codec, blocks, c.n))
	}
	equivalent := true
	for len(tracedWalls) < minOps-1 || time.Now().Before(deadline) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		wall, _, _, ok := op()
		runtime.ReadMemStats(&ms1)
		if ok {
			untraced = append(untraced, wall.Seconds())
			layers.addAll(gcLayers(ms0, ms1, c.n))
		}

		runtime.GC()
		o, err := c.replay(tr)
		d := c.check()
		res.Attempted++
		if err != nil || d.ord != ref.ord || !sameStats(o.stats, ref.stats) {
			res.Failed++
			equivalent = false
			fmt.Fprintf(os.Stderr, "%s: traced replay diverged from the library sort: err %v, same output %v, same stats %v\n  replay  %+v\n  library %+v\n",
				name, err, d.ord == ref.ord, sameStats(o.stats, ref.stats), o.stats, ref.stats)
			if res.Failed > 3 {
				break
			}
			continue
		}
		tracedWalls = append(tracedWalls, tr.spans[o.root].iv().dur().Seconds())
		layers.addAll(o.layers(tr, c.n, c.concurrent))
	}
	l := layers.medians()
	l["trace.overhead_frac"] = median(tracedWalls)/median(untraced) - 1
	res.Metrics = perLayer(l)
	res.Correct = res.Failed == 0 && equivalent
	if err := tr.write(tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing spans: %v\n", name, err)
	}
	return res, nil
}

// codecLayers times codec on a workload's own blocks (n records in all)
// and reports the encoded bytes per record.
func codecLayers(codec record.Codec, blocks [][]record.Record, n int) map[string]float64 {
	enc := make([][]byte, len(blocks))
	var buf []byte
	t0 := time.Now()
	for _, b := range blocks {
		var err error
		if buf, err = codec.AppendBlock(buf[:0], b); err != nil {
			panic(err) // the blocks were built by the same codec's rules
		}
	}
	encode := time.Since(t0)
	var total int
	for i, b := range blocks {
		enc[i], _ = codec.AppendBlock(nil, b)
		total += len(enc[i])
	}
	t0 = time.Now()
	for i, e := range enc {
		if _, err := codec.DecodeBlock(e, len(blocks[i])); err != nil {
			panic(err)
		}
	}
	decode := time.Since(t0)
	nb := float64(len(blocks))
	return map[string]float64{
		"record.encode_ns_per_block":  float64(encode.Nanoseconds()) / nb,
		"record.decode_ns_per_block":  float64(decode.Nanoseconds()) / nb,
		"record.stored_bytes_per_rec": float64(total) / float64(n),
	}
}

// gcLayers reports the allocation and collection work between two
// MemStats snapshots taken around one op of n records.
func gcLayers(ms0, ms1 runtime.MemStats, n int) map[string]float64 {
	return map[string]float64{
		"gc.alloc_bytes_per_rec": float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		"gc.allocs_per_rec":      float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		"gc.cycles_per_sort":     float64(ms1.NumGC - ms0.NumGC),
		"gc.pause_s":             float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
	}
}
