package srmsort

import (
	"fmt"
	"sync"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/runio"
)

// peakStore is a MemStore that tracks its resident-block high-water mark:
// the most blocks a sort's store held at once.
type peakStore struct {
	*pdisk.MemStore
	mu   sync.Mutex
	peak int64
}

func (s *peakStore) WriteBlock(addr pdisk.BlockAddr, b pdisk.StoredBlock) error {
	if err := s.MemStore.WriteBlock(addr, b); err != nil {
		return err
	}
	n := s.MemStore.Usage().Blocks
	s.mu.Lock()
	s.peak = max(s.peak, n)
	s.mu.Unlock()
	return nil
}

// TestStorePeakIsTheDataOnce pins a sort's resident-block peak near its
// data's ⌈N/B⌉ blocks: run formation frees the input as it reads it, and
// each merge frees its inputs' blocks as it drains them, so no pass holds
// its inputs and its outputs both. With Checkpoint a pass keeps its
// inputs until the manifest naming its outputs is saved, so the peak may
// reach twice the data — never the three copies (input file, pass input,
// pass output) sorts held when the input stayed resident and a pass freed
// its inputs only after its merges.
//
// Beyond the data, the store may hold:
//   - a partial last block per run of the two generations alive at once,
//     at most 2·InitialRuns;
//   - the leading block of each of a merge's R inputs, whose merged
//     records the output already holds, and for PSV the partial last
//     blocks of a group's D one-disk runs;
//   - up to runio.FreeBatch−1 drained blocks per Freer not yet freed: two
//     in a PSV merge (its transposition's and its one-disk merge's).
//
// slack below is that sum.
func TestStorePeakIsTheDataOnce(t *testing.T) {
	const n = 30_000
	in := randomRecords(n, 61)
	for _, alg := range []Algorithm{SRM, DSM, PSV} {
		for _, checkpoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/checkpoint=%v", alg, checkpoint), func(t *testing.T) {
				st := &peakStore{MemStore: pdisk.NewMemStore()}
				defer st.Close()
				cfg := Config{D: 4, B: 16, K: 2, Algorithm: alg, Seed: 5, Checkpoint: checkpoint, Store: st}
				r, _, err := cfg.MergeOrder()
				if err != nil {
					t.Fatal(err)
				}
				out, stats, err := Sort(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != n || stats.MergePasses < 2 {
					t.Fatalf("sorted %d of %d records in %d passes; the test needs >= 2", len(out), n, stats.MergePasses)
				}
				data := int64((n + cfg.B - 1) / cfg.B)
				slack := int64(2*stats.InitialRuns + r + cfg.D + 2*runio.FreeBatch)
				copies := int64(1)
				if checkpoint {
					copies = 2
				}
				t.Logf("peak %d blocks, data %d, slack %d", st.peak, data, slack)
				if limit := copies*data + slack; st.peak > limit {
					t.Errorf("store peaked at %d blocks, want <= %d (%d× the data's %d blocks + slack %d)",
						st.peak, limit, copies, data, slack)
				}
			})
		}
	}
}
