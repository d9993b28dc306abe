package main

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reference kernel must really sort, whatever its input's length
// relative to the in-cache chunk.
func TestRefSortSorts(t *testing.T) {
	for _, n := range []int{1, kernelChunk - 1, kernelChunk, 3*kernelChunk + 5} {
		src := make([]kv, n)
		for i := range src {
			src[i] = kv{uint64((i * 7919) % 10007), uint64(i)}
		}
		got := refSort(src, make([]kv, n), make([]kv, n))
		if !slices.IsSortedFunc(got, func(x, y kv) int { return cmp.Compare(x.k, y.k) }) {
			t.Errorf("n=%d: output not sorted", n)
		}
		var sum, want uint64
		for i := range got {
			sum += got[i].v
			want += src[i].v
		}
		if len(got) != n || sum != want {
			t.Errorf("n=%d: output is not a permutation of the input", n)
		}
	}
}

// The kernel process answers every request line with one positive
// duration and stops when its input ends.
func TestServeKernel(t *testing.T) {
	var out strings.Builder
	if err := serveKernel(strings.NewReader("run\nrun\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("got %d answers to 2 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if ns, err := strconv.ParseInt(l, 10, 64); err != nil || ns <= 0 {
			t.Errorf("answer %q is not a positive duration", l)
		}
	}
}

// A kernel run at reference speed leaves times as measured; one twice as
// slow halves them.
func TestScale(t *testing.T) {
	ref := time.Duration(refKernelSeconds * float64(time.Second))
	if f := scale(ref); math.Abs(f-1) > 1e-9 {
		t.Errorf("scale(reference) = %v; want 1", f)
	}
	if f := scale(2 * ref); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("scale(2×reference) = %v; want 0.5", f)
	}
}
