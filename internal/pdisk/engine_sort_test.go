package pdisk_test

import (
	"fmt"
	"testing"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

// A fault-free bounded sort over a serial store pays one executor handoff
// per System op — each parallel read, parallel write and free batch —
// not one per block, whether its merges and egest issue ops sync or
// async.
func TestEngineBoundedSortOneHandoffPerOp(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) { boundedSortHandoffs(t, async) })
	}
}

func boundedSortHandoffs(t *testing.T, async bool) {
	all := record.NewGenerator(7).Random(20_000)
	retry := pdisk.DefaultRetryPolicy()
	sys, err := pdisk.NewSystem(pdisk.Config{D: 4, B: 16, Store: pdisk.NewMemStore(),
		Retry:    &retry,
		Deadline: &pdisk.DeadlinePolicy{OpDeadline: time.Minute, HedgeAfter: time.Minute},
		Gate:     pdisk.NewDiskGate(4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	placement := runio.StaggeredPlacement{D: 4}
	formed, err := runform.MemoryLoad[record.Record](sys, file, 1000, placement, 0)
	if err != nil {
		t.Fatal(err)
	}
	final, _, _, err := srm.SortRunsOpts[record.Record](sys, formed.Runs, 4, placement, formed.NextSeq, srm.SortOpts{Async: async})
	if err != nil {
		t.Fatal(err)
	}
	stream := runio.Stream[record.Record]
	if async {
		stream = runio.StreamAsync[record.Record]
	}
	var got []record.Record
	if err := stream(sys, final, func(r record.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := runio.Free(sys, final); err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("bounded sort produced wrong output")
	}
	st := sys.Stats()
	handoffs, reads, writes, frees := pdisk.EngineCounts(sys)
	if reads != st.ReadOps || writes != st.WriteOps {
		t.Fatalf("engine ran %d reads and %d writes, Stats counts %d and %d", reads, writes, st.ReadOps, st.WriteOps)
	}
	if handoffs != reads+writes+frees {
		t.Fatalf("%d executor handoffs for %d reads + %d writes + %d free batches", handoffs, reads, writes, frees)
	}
	if blocks := st.BlocksRead + st.BlocksWritten; handoffs*2 > blocks {
		t.Fatalf("%d handoffs for %d blocks moved: ops are not parallel", handoffs, blocks)
	}
	if st.Retries != 0 || st.Health == nil || st.Health.Timeouts != 0 || st.Health.HedgedReads != 0 {
		t.Fatalf("fault-free sort: Retries=%d Health=%+v", st.Retries, st.Health)
	}
}
