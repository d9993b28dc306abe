//go:build aliascheck

package pdisk

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"srmsort/internal/record"
)

// TestAliasCheckCatchesReaderMutation arms the guard, violates the
// ownership contract on purpose — mutating a record of a block obtained
// through the zero-copy ReadBlock path — and requires the next read of the
// same address to panic.
func TestAliasCheckCatchesReaderMutation(t *testing.T) {
	m := NewMemStore()
	addr := BlockAddr{Disk: 0, Index: 0}
	blk := StoredBlock{
		Records:  record.Block{{Key: 1, Val: 10}, {Key: 2, Val: 20}},
		Forecast: []record.Key{7},
	}
	if err := m.WriteBlock(addr, blk); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBlock(addr)
	if err != nil {
		t.Fatal(err)
	}
	got.Records[0].Key = 99 // the contract violation

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second ReadBlock did not panic after a reader mutated the block")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "aliascheck") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m.ReadBlock(addr)
}

// TestAliasCheckCleanPathsStayQuiet runs honest write/read/free/close
// traffic under the armed guard: re-slicing a read block (what the merge
// kernels do) must not trip it.
func TestAliasCheckCleanPathsStayQuiet(t *testing.T) {
	m := NewMemStore()
	defer m.Close()
	addr := BlockAddr{Disk: 1, Index: 3}
	blk := StoredBlock{Records: record.Block{{Key: 5, Val: 1}, {Key: 6, Val: 2}}}
	if err := m.WriteBlock(addr, blk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := m.ReadBlock(addr)
		if err != nil {
			t.Fatal(err)
		}
		rest := got.Records[1:] // re-slicing is legal
		_ = rest
	}
	if err := m.Free(addr); err != nil {
		t.Fatal(err)
	}
}

// asyncMutationChild is the argument that tells a re-run of this test
// binary to act as TestAliasCheckCatchesAsyncWriterMutation's child.
const asyncMutationChild = "mutate-after-issue"

// TestAliasCheckCatchesAsyncWriterMutation violates the write side of
// the ownership contract: it modifies a block after WriteBlocksAsync has
// issued it and before its transfer runs. The guard's checksum, taken at
// issue, must catch the change when the transfer runs. That panic comes
// on an engine executor, where it ends the process, so the violation
// runs in a child process and the test reads the child's death.
func TestAliasCheckCatchesAsyncWriterMutation(t *testing.T) {
	if flag.Arg(0) == asyncMutationChild {
		mutateAfterIssue(t)
		return
	}
	out, err := exec.Command(os.Args[0],
		"-test.run=^TestAliasCheckCatchesAsyncWriterMutation$", asyncMutationChild).CombinedOutput()
	if err == nil {
		t.Fatalf("a block modified between issue and transfer was written without a panic:\n%s", out)
	}
	if !strings.Contains(string(out), "mutated after write") || !strings.Contains(string(out), "between issue and transfer") {
		t.Fatalf("the child did not die of the write-side guard: %v\n%s", err, out)
	}
}

// mutateAfterIssue holds disk 0's only gate slot, so the issued write's
// transfer waits for it, modifies the block meanwhile, and frees the
// slot. The guard then panics on the executor and ends the process;
// returning from Wait is the failure.
func mutateAfterIssue(t *testing.T) {
	gate := NewDiskGate(1, 1)
	sys, err := NewSystem(Config{D: 1, B: 2, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	gate.enter(0)
	b := mkBlock(1, 2)
	fut := sys.WriteBlocksAsync([]BlockWrite{{Addr: sys.Alloc(0), Block: b}})
	b.Records[0].Key = 999 // the contract violation
	gate.exit(0)
	fut.Wait()
	t.Fatal("the transfer of a block modified after issue did not panic")
}

// TestAliasCheckPoisonsFreedBlocks holds a block past the free of its
// address — the reader contract's violation — and requires the guard to
// have poisoned its records, so that a stale reader reads wrong bytes
// instead of whatever the block's recycled array holds next.
func TestAliasCheckPoisonsFreedBlocks(t *testing.T) {
	m := NewMemStore()
	defer m.Close()
	addr := BlockAddr{Disk: 0, Index: 0}
	recs := append(NewBlock[record.Rec16](2), record.Rec16{Key: 1, Val: 10}, record.Rec16{Key: 2, Val: 20})
	if err := m.WriteBlock(addr, MakeStored(recs, nil)); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBlock(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(addr); err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Recs16 { // the contract violation
		if r.Key != poisonKey || r.Val != poisonKey {
			t.Fatalf("record %d of a freed block reads %+v, want the poison", i, r)
		}
	}
}

// TestAliasCheckRefusesSharedArray stores one record array at two
// addresses, as PSV's transposition did when it wrote the blocks it read
// instead of copies: freeing either would recycle records the other
// still serves, so the second write must panic.
func TestAliasCheckRefusesSharedArray(t *testing.T) {
	m := NewMemStore()
	defer m.Close()
	b := MakeStored(append(NewBlock[record.Rec16](1), record.Rec16{Key: 1}), nil)
	if err := m.WriteBlock(BlockAddr{Disk: 0, Index: 0}, b); err != nil {
		t.Fatal(err)
	}
	// Writing it again at its own address (a retried write) is legal.
	if err := m.WriteBlock(BlockAddr{Disk: 0, Index: 0}, b); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "shares its record array") {
			t.Fatalf("a record array stored at two addresses: recovered %v, want the aliascheck panic", r)
		}
	}()
	m.WriteBlock(BlockAddr{Disk: 1, Index: 0}, b)
}
