package srmsort

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// The acceptance matrix for the merge kernel and the pluggable stores:
// every algorithm over sync/async × mem/file × D in {1, 2, 4, 8} × Cores
// in {1, 2, GOMAXPROCS} produces byte-identical sorted output and
// identical Stats. Swapping the storage substrate may change only where
// the blocks live, overlapping the I/O may change only when the CPU
// waits, and spreading the comparison work over cores may change only
// which goroutine computes a span — never the blocks themselves, the
// emission order, nor a single counted I/O operation (ReadOps, WriteOps,
// Flushes and the rest of Stats are compared whole). The galloped
// bulk-emission kernel runs inside every one of these cells; together with
// the golden schedule counts this pins it to the per-record kernel's
// behavior across the full matrix.
func TestBackendEquivalenceMatrix(t *testing.T) {
	in := benchRecords(3000, 9090)
	encode := func(t *testing.T, recs []Record) []byte {
		var buf bytes.Buffer
		if err := WriteRecords(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM, PSV} {
		for _, d := range []int{1, 2, 4, 8} {
			if alg == PSV && d < 2 {
				continue // PSV needs at least two disks to transpose across
			}
			t.Run(fmt.Sprintf("%s/D=%d", alg, d), func(t *testing.T) {
				// Cells share nothing but the input; running them in
				// parallel keeps the raced package within go test's
				// default timeout.
				t.Parallel()
				// The sync in-memory serial cell is the reference every
				// other (backend, async, cores) combination must
				// reproduce exactly.
				cfg := Config{D: d, B: 4, K: 2, Algorithm: alg, Seed: 31, Backend: MemBackend, Cores: 1}
				refOut, refStats, err := Sort(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refBytes := encode(t, refOut)

				for _, async := range []bool{false, true} {
					for _, backend := range []Backend{MemBackend, FileBackend} {
						for _, cores := range []int{1, 2, runtime.GOMAXPROCS(0)} {
							if backend == MemBackend && !async && cores == 1 {
								continue // the reference itself
							}
							cfg := Config{D: d, B: 4, K: 2, Algorithm: alg, Seed: 31,
								Async: async, Backend: backend, Cores: cores}
							if backend == FileBackend {
								cfg.Dir = t.TempDir()
							}
							out, stats, err := Sort(in, cfg)
							if err != nil {
								t.Fatalf("backend=%v async=%v cores=%d: %v", backend, async, cores, err)
							}
							if !bytes.Equal(encode(t, out), refBytes) {
								t.Fatalf("backend=%v async=%v cores=%d: output differs from sync/mem/serial reference",
									backend, async, cores)
							}
							if stats != refStats {
								t.Fatalf("backend=%v async=%v cores=%d stats diverge:\nref %+v\ngot %+v",
									backend, async, cores, refStats, stats)
							}
						}
					}
				}
			})
		}
	}
}

// TestBackendEquivalenceMatrixVarlen is the codec axis of the acceptance
// matrix: the same algorithm × backend × D × async × cores sweep carrying
// variable-length records under both varlen codecs. The reference for
// each (algorithm, D, codec) is again the sync in-memory serial cell; all
// other cells must reproduce its wire encoding byte for byte with
// identical Stats. The input's four-letter keys force prefix-word ties,
// so the content comparator and the varlen stall/valve machinery run in
// every cell.
func TestBackendEquivalenceMatrixVarlen(t *testing.T) {
	in := benchVarRecords(1500, 9091)
	encode := func(t *testing.T, recs []VarRecord) []byte {
		var buf bytes.Buffer
		if err := WriteVarRecords(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, codec := range []string{"varlen", "varlen+flate"} {
		for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM, PSV} {
			for _, d := range []int{1, 2, 4, 8} {
				if alg == PSV && d < 2 {
					continue // PSV needs at least two disks to transpose across
				}
				t.Run(fmt.Sprintf("%s/%s/D=%d", codec, alg, d), func(t *testing.T) {
					t.Parallel()
					cfg := Config{D: d, B: 4, K: 2, Algorithm: alg, Seed: 31,
						Backend: MemBackend, Cores: 1, Codec: codec}
					refOut, refStats, err := SortVar(in, cfg)
					if err != nil {
						t.Fatal(err)
					}
					refBytes := encode(t, refOut)

					for _, async := range []bool{false, true} {
						for _, backend := range []Backend{MemBackend, FileBackend} {
							for _, cores := range []int{1, runtime.GOMAXPROCS(0)} {
								if backend == MemBackend && !async && cores == 1 {
									continue // the reference itself
								}
								cfg := Config{D: d, B: 4, K: 2, Algorithm: alg, Seed: 31,
									Async: async, Backend: backend, Cores: cores, Codec: codec}
								if backend == FileBackend {
									cfg.Dir = t.TempDir()
								}
								out, stats, err := SortVar(in, cfg)
								if err != nil {
									t.Fatalf("backend=%v async=%v cores=%d: %v", backend, async, cores, err)
								}
								if !bytes.Equal(encode(t, out), refBytes) {
									t.Fatalf("backend=%v async=%v cores=%d: output differs from sync/mem/serial reference",
										backend, async, cores)
								}
								if stats != refStats {
									t.Fatalf("backend=%v async=%v cores=%d stats diverge:\nref %+v\ngot %+v",
										backend, async, cores, refStats, stats)
								}
							}
						}
					}
				})
			}
		}
	}
}

// SortStream over the file backend: wire format in, wire format out, same
// bytes and same statistics as the in-memory path.
func TestBackendSortStreamEquivalence(t *testing.T) {
	in := benchRecords(2500, 404)
	var wire bytes.Buffer
	if err := WriteRecords(&wire, in); err != nil {
		t.Fatal(err)
	}

	run := func(backend Backend) ([]byte, Stats) {
		var out bytes.Buffer
		stats, err := SortStream(bytes.NewReader(wire.Bytes()), &out,
			Config{D: 4, B: 4, K: 2, Seed: 6, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), stats
	}
	memBytes, memStats := run(MemBackend)
	fileBytes, fileStats := run(FileBackend)
	if !bytes.Equal(memBytes, fileBytes) {
		t.Fatal("file-backed stream differs from in-memory stream")
	}
	if memStats != fileStats {
		t.Fatalf("stats diverge:\nmem  %+v\nfile %+v", memStats, fileStats)
	}
}
