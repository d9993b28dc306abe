package psv

import (
	"fmt"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// TransposeStats reports one transposition stage.
type TransposeStats struct {
	ReadOps  int64
	WriteOps int64
	// MaxStaged is the high-water mark of staged blocks, which reaches
	// Θ(D²) blocks — the Ω(D²B) memory requirement the paper points out.
	MaxStaged int
}

// Transpose converts up to D striped runs into single-disk runs (run j of
// the group goes to disk j), the realignment pass a PSV mergesort needs
// between merge levels.
//
// It reads one stripe (D consecutive blocks, all destined for one disk) per
// operation, round-robin over the runs, and writes one block to every
// destination disk per operation once the staging queues cover all
// destinations — full parallelism in both directions at the cost of D
// stripes (D² blocks) of staging memory.
//
// Each block it reads is copied into a block of its own before it is
// staged, and the source handed to drained (nil keeps the sources): a
// block's record array lives at one address, so freeing the source
// cannot recycle records a one-disk run still serves.
func Transpose[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, drained *runio.Freer) ([]*DiskRun, TransposeStats, error) {
	d := sys.D()
	if len(runs) == 0 {
		return nil, TransposeStats{}, fmt.Errorf("psv: transpose of zero runs")
	}
	if len(runs) > d {
		return nil, TransposeStats{}, fmt.Errorf("psv: %d runs exceed D=%d destinations", len(runs), d)
	}
	var stats TransposeStats

	type dest struct {
		run    *DiskRun
		queue  []pdisk.StoredBlock
		source *runio.Run
		stripe *runio.StripeReader
		read   int // source blocks read so far
	}
	dests := make([]*dest, len(runs))
	for j, r := range runs {
		dests[j] = &dest{
			run:    &DiskRun{ID: r.ID, Disk: j},
			source: r,
			stripe: runio.NewStripeReader(sys, r, false),
		}
	}

	readStripe := func(dd *dest) error {
		blocks, err := dd.stripe.Read()
		if err != nil {
			return err
		}
		stats.ReadOps++
		for _, b := range blocks {
			copied := append(pdisk.NewBlock[R](sys.B()), pdisk.RecsOf[R](b)...)
			dd.queue = append(dd.queue, pdisk.MakeStored(copied, nil))
			if err := drained.Drained(dd.source.Addr(dd.read)); err != nil {
				return err
			}
			dd.read++
		}
		return nil
	}
	writeRound := func() error {
		var writes []pdisk.BlockWrite
		for _, dd := range dests {
			if len(dd.queue) == 0 {
				continue
			}
			blk := dd.queue[0]
			dd.queue = dd.queue[1:]
			addr := sys.Alloc(dd.run.Disk)
			writes = append(writes, pdisk.BlockWrite{
				Addr:  addr,
				Block: blk,
			})
			dd.run.indexes = append(dd.run.indexes, int32(addr.Index))
			dd.run.Records += blk.NumRecords()
		}
		if len(writes) == 0 {
			return nil
		}
		if err := sys.WriteBlocks(writes); err != nil {
			return err
		}
		stats.WriteOps++
		return nil
	}

	for {
		progressed := false
		// Fill: one stripe from every run that has data left and whose
		// queue is below one stripe.
		for _, dd := range dests {
			if dd.stripe.Left() > 0 && len(dd.queue) < d {
				if err := readStripe(dd); err != nil {
					return nil, stats, err
				}
				progressed = true
			}
		}
		staged := 0
		for _, dd := range dests {
			staged += len(dd.queue)
		}
		if staged > stats.MaxStaged {
			stats.MaxStaged = staged
		}
		// Drain: one block to every destination with staged data.
		if staged > 0 {
			if err := writeRound(); err != nil {
				return nil, stats, err
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}

	out := make([]*DiskRun, len(dests))
	for j, dd := range dests {
		if dd.run.Records != dd.source.Records {
			return nil, stats, fmt.Errorf("psv: transpose lost records on run %d (%d vs %d)",
				dd.source.ID, dd.run.Records, dd.source.Records)
		}
		out[j] = dd.run
	}
	return out, stats, nil
}
