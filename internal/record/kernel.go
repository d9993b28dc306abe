// The two-width kernel: every merge and run-formation loop in this
// repository is instantiated at exactly two record widths. Rec16 is the
// paper's fixed-size record — 16 pointer-free bytes, so record buffers
// sit in noscan heap spans and block copies move half the bytes of the
// wide layout. Record (record.go) is the 32-byte variable-length record
// whose Ext string carries the canonical varlen encoding. KernelRecord
// is the constraint the kernels are generic over; the fixed16 codec
// selects the Rec16 instantiation, the varlen codecs the wide one.
//
// Go compiles generic code by gcshape stenciling: one body per memory
// shape, with every method call on a type parameter made through the
// generics dictionary — an indirect call, never inlined, even for
// Rec16's constant methods. Two disciplines follow:
//
//   - The per-record hot loops in record.go (SortRecords, CountBelow,
//     CountBelowKV, and Descent, the run writers' order check) dispatch
//     ONCE per call to width-concrete loops via a type switch — an
//     indirect call per record would cost more than the narrow layout
//     saves.
//   - The varlen checks of the generic kernels (`r.X() != ""`) are not
//     compiled away in the Rec16 instantiation: X() is a dictionary call
//     evaluated at run time there too (`go tool objdump` shows it as a
//     CALL through a register at ltree's Kernel.Push check). Each such
//     check therefore sits where a sort runs it once per block, load or
//     merge, never per record.
package record

import (
	"fmt"
	"slices"
)

// Rec16 is the 16-byte pointer-free kernel record of the fixed16 codec:
// the paper's fixed-size record, bit-compatible with the pre-codec
// layout (8 bytes of key, 8 of payload, little-endian on disk). It
// carries no Ext, so []Rec16 buffers are noscan for the garbage
// collector.
type Rec16 struct {
	Key Key
	Val uint64
}

// K implements KernelRecord.
func (r Rec16) K() Key { return r.Key }

// V implements KernelRecord.
func (r Rec16) V() uint64 { return r.Val }

// X implements KernelRecord: a Rec16 never carries a varlen encoding.
// Generic code still calls it through the dictionary at run time (see
// the package doc), so a varlen check costs a call per evaluation.
func (r Rec16) X() string { return "" }

// Wide implements KernelRecord: the widening conversion to the 32-byte
// record, used only at the public API boundary (ingest/emit), never
// inside a kernel loop.
func (r Rec16) Wide() Record { return Record{Key: r.Key, Val: r.Val} }

// K implements KernelRecord.
func (r Record) K() Key { return r.Key }

// V implements KernelRecord.
func (r Record) V() uint64 { return r.Val }

// X implements KernelRecord: the canonical varlen encoding, empty for
// fixed-size records.
func (r Record) X() string { return r.Ext }

// Wide implements KernelRecord.
func (r Record) Wide() Record { return r }

// KernelRecord is the constraint the merge and run-formation kernels
// are generic over. Exactly two types satisfy it: Rec16 (the fixed16
// hot path) and Record (the varlen path). Key order is primary; V() is
// the (Key, Val) tie-break of the deterministic total order; X() is the
// varlen content-adjudication hook (empty on the fixed16 path).
type KernelRecord interface {
	comparable
	K() Key
	V() uint64
	X() string
	Wide() Record
}

// FirstKeyOf returns the smallest key of a sorted record slice (its
// first), or MaxKey for an empty one — the generic counterpart of
// Block.FirstKey.
func FirstKeyOf[R KernelRecord](rs []R) Key {
	if len(rs) == 0 {
		return MaxKey
	}
	return rs[0].K()
}

// LastKeyOf returns the largest key of a sorted record slice, or MaxKey
// for an empty one.
func LastKeyOf[R KernelRecord](rs []R) Key {
	if len(rs) == 0 {
		return MaxKey
	}
	return rs[len(rs)-1].K()
}

// IndexKey returns the index of the first record of rs whose key is k,
// or -1 when there is none. The width dispatch happens once per call.
func IndexKey[R KernelRecord](rs []R, k Key) int {
	switch v := any(rs).(type) {
	case []Rec16:
		return slices.IndexFunc(v, func(r Rec16) bool { return r.Key == k })
	case []Record:
		return slices.IndexFunc(v, func(r Record) bool { return r.Key == k })
	default:
		panic("record: IndexKey of an unknown kernel width")
	}
}

// CloneOf returns a deep copy of a record slice.
func CloneOf[R KernelRecord](rs []R) []R {
	c := make([]R, len(rs))
	copy(c, rs)
	return c
}

// BlocksOf cuts a sorted run into blocks of b records (the final block
// may be partial) — the generic counterpart of Blocks. It panics on an
// unsorted run for the same reason Blocks does.
func BlocksOf[R KernelRecord](run []R, b int) [][]R {
	if b < 1 {
		panic(fmt.Sprintf("record: block size %d", b))
	}
	if !IsSortedRecords(run) {
		panic("record: BlocksOf called with an unsorted run")
	}
	blocks := make([][]R, 0, (len(run)+b-1)/b)
	for off := 0; off < len(run); off += b {
		end := off + b
		if end > len(run) {
			end = len(run)
		}
		blocks = append(blocks, run[off:end])
	}
	return blocks
}

// ToRec16 narrows wide records to the pointer-free layout. Any Ext
// payload is dropped — callers must only narrow fixed-size records,
// which the codec agreement check at sort ingest guarantees.
func ToRec16(rs []Record) []Rec16 {
	out := make([]Rec16, len(rs))
	for i, r := range rs {
		out[i] = Rec16{Key: r.Key, Val: r.Val}
	}
	return out
}

// ToWide widens pointer-free records to the 32-byte layout (Ext empty).
func ToWide(rs []Rec16) []Record {
	out := make([]Record, len(rs))
	for i, r := range rs {
		out[i] = Record{Key: r.Key, Val: r.Val}
	}
	return out
}
