// Multicore internal merging for SRM — the consume half of the merge
// computed as one sharded "super-span" instead of a per-winner loop.
//
// The serial consumer (consume, in both of its stall-guard modes) emits
// records in the (key, run index) order of the active loser tree until a
// block event: either one leading block depletes, or a stalled run's
// awaited key blocks further emission. Crucially, everything it emits in
// one call is decidable up front from state that the emission itself
// never changes:
//
//   - The run that depletes first — if any block depletes at all this
//     call — is the one whose leading block's *last* record is smallest
//     under the (key, run) order: every other leading block still holds a
//     record ordered after it, so it must empty first. Call its last key
//     dKey and the run dRun.
//   - Run h's admissible span is then every leading record ordered before
//     (dKey, dRun) — record.CountBelow(lead[h], dKey, h < dRun), and the
//     whole block for dRun itself — further clipped by the stall guard
//     exactly as the serial gallop clips it: records at most (inclusive
//     guard, after the pump, whose wait condition is sKey < hKey) or
//     strictly below (exclusive guard, in the overlap window, sKey <= hKey)
//     the stall heap minimum sKey.
//   - Whether the depletion happens before the stall guard fires is the
//     comparison of those two bounds: the inclusive guard reaches the
//     depletion iff dKey <= sKey, the exclusive one iff dKey < sKey (it
//     refuses the equal-key record that would finish the block). If the
//     stall guard wins, no block empties — every leading block's last key
//     is >= dKey and is excluded by the stall clip — and the call ends
//     exactly where the serial loop returns to wait for I/O.
//
// The per-run spans are therefore fixed slices of the leading blocks, and
// their merge under the (key, run index) order — pmerge with the KeyRun
// tie-break, whose shards each run the same ltree.Kernel as the serial
// consumer — is byte-identical to the serial emission sequence. One
// AppendBlock call emits the merged span (the run writer's stripes do not
// depend on append granularity), and at most one depletion is noted per
// call, with the same last key, precisely the serial contract.
// Scheduler-visible state (|F_t|, FDS, stall set) changes exactly as the
// serial consumer changes it, so the I/O schedule, statistics, trace and
// output run are unchanged for every core count.
package srm

import (
	"srmsort/internal/pmerge"
	"srmsort/internal/record"
)

// consumeSuperSpan is consume's multicore branch: it computes every
// active run's admissible span from the kernel's heads, merges the spans
// across up to m.cores goroutines, and emits the result in one
// AppendBlock. It returns the records consumed; a depletion is noted in
// pendingRun as the serial consumer notes it.
func (m *merger[R]) consumeSuperSpan(sKey uint64, haveStall, stallInclusive bool) (int, error) {
	seqs, total, dRun := m.superSpans(haveStall, sKey, stallInclusive)
	if total == 0 {
		// No run is active, or the stall guard blocks even the first
		// record — the serial consumer's "wait for I/O" return.
		return 0, nil
	}
	if cap(m.scratch) < total {
		m.scratch = make([]R, total)
	}
	out := m.scratch[:total]
	pmerge.Merge(seqs, out, m.cores, pmerge.KeyRun)
	if err := m.out.AppendBlock(out); err != nil {
		return 0, err
	}
	// The kernel advances past every span; the depleted run's retires.
	for h, s := range seqs {
		if len(s) > 0 {
			m.k.Advance(h, len(s))
		}
	}
	if dRun >= 0 {
		s := seqs[dRun]
		m.pendingRun, m.pendingKey = dRun, s[len(s)-1].K()
	}
	return total, nil
}

// superSpans computes the exact span of every active run's leading block
// that the serial consumer would emit in one call, per the argument in
// the package comment above. It returns the spans indexed by run handle
// (empty for inactive runs), their total length, and the depleted run
// (-1 when the stall guard ends the call before any depletion).
func (m *merger[R]) superSpans(haveStall bool, sKey uint64, stallInclusive bool) (seqs [][]R, total, dRun int) {
	// The run that depletes first is the (key, run)-minimum of the
	// leading blocks' last records.
	dRun = -1
	var dKey uint64
	for h := range m.runs {
		b := m.k.Head(h)
		if len(b) == 0 {
			continue
		}
		last := uint64(b[len(b)-1].K())
		if dRun < 0 || last < dKey || (last == dKey && h < dRun) {
			dKey, dRun = last, h
		}
	}
	depletes := !haveStall || dKey < sKey || (stallInclusive && dKey == sKey)
	seqs = make([][]R, len(m.runs))
	for h := range m.runs {
		b := m.k.Head(h)
		if len(b) == 0 {
			continue
		}
		span := len(b)
		if depletes {
			if h != dRun {
				span = record.CountBelow(b, record.Key(dKey), h < dRun)
			}
		} else {
			span = record.CountBelow(b, record.Key(sKey), stallInclusive)
		}
		if span > 0 {
			seqs[h] = b[:span]
			total += span
		}
	}
	if !depletes {
		dRun = -1
	}
	return seqs, total, dRun
}
