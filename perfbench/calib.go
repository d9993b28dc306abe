package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: the
// same 2M-record sort takes anywhere from 1.1 s to 1.7 s within a minute,
// and run medians wander ±15% over tens of minutes. Every time metric is
// therefore paired with a reference kernel timed right beside it — a
// frozen mergesort written here, with no srmsort code in it — and reported
// at reference host speed:
//
//	normalised time = measured time × refKernelSeconds / kernel time
//
// A change to srmsort moves the measured time and leaves the kernel alone,
// so it moves the metric in full; a slower host moves both and cancels.
//
// The kernel runs in a child process, so its memory counts neither in the
// measured process's peak RSS nor in the live heap its GC paces itself by.

// refKernelSeconds is the reference kernel's median time on the host the
// benchmark was defined on (a 2.1 GHz Xeon VM with 2 vCPUs). It only sets
// the scale the normalised times are printed in.
const refKernelSeconds = 0.230

// kernelRecords is the reference kernel's input size: 16 MiB, far larger
// than a core's L2, so the kernel, like the sorts, streams through memory.
// On the reference host a kernel of this size tracked sortd's job times
// better than one of a quarter the size: over 134 server lifetimes, the
// medians of each six spread 3.4% against 7.2%, and 9.9% unpaired.
const kernelRecords = 1 << 20

// kernelChunk is the kernel's in-cache run length.
const kernelChunk = 32 << 10

type kv struct{ k, v uint64 }

// refSort is the reference kernel: sort src into a, in-cache runs of
// kernelChunk records, then pairwise merge passes through memory, using b
// as the other buffer. It returns the buffer holding the sorted records.
func refSort(src, a, b []kv) []kv {
	copy(a, src)
	for lo := 0; lo < len(a); lo += kernelChunk {
		slices.SortFunc(a[lo:min(lo+kernelChunk, len(a))], func(x, y kv) int { return cmp.Compare(x.k, y.k) })
	}
	for w := kernelChunk; w < len(a); w *= 2 {
		for lo := 0; lo < len(a); lo += 2 * w {
			mid, hi := min(lo+w, len(a)), min(lo+2*w, len(a))
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				if a[j].k < a[i].k {
					b[o] = a[j]
					j++
				} else {
					b[o] = a[i]
					i++
				}
				o++
			}
			o += copy(b[o:], a[i:mid])
			copy(b[o:], a[j:hi])
		}
		a, b = b, a
	}
	return a
}

// serveKernel is the kernel process: for every line it reads, it runs the
// kernel once on a fixed input and writes the run's duration in
// nanoseconds, until its input ends.
func serveKernel(in io.Reader, out io.Writer) error {
	rng := rand.New(rand.NewSource(1))
	src := make([]kv, kernelRecords)
	for i := range src {
		src[i] = kv{rng.Uint64(), uint64(i)}
	}
	a, b := make([]kv, len(src)), make([]kv, len(src))
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		t0 := time.Now()
		refSort(src, a, b)
		if _, err := fmt.Fprintln(out, time.Since(t0).Nanoseconds()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// calibrator drives a kernel process.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startCalibrator starts the kernel process (this binary with -kernel) and
// runs the kernel once, so its buffers are resident before the first
// timing that counts.
func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-kernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the kernel process: %w", err)
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := c.time(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// time runs the kernel once and returns its duration.
func (c *calibrator) time() (time.Duration, error) {
	if _, err := io.WriteString(c.in, "run\n"); err != nil {
		return 0, fmt.Errorf("kernel process: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("kernel process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("kernel process: %w", err)
	}
	return time.Duration(ns), nil
}

// close ends the kernel process and waits for it.
func (c *calibrator) close() error {
	return errors.Join(c.in.Close(), c.cmd.Wait())
}

// scale is the factor that brings a time measured beside a kernel run of
// duration kernel to reference host speed.
func scale(kernel time.Duration) float64 {
	return refKernelSeconds / kernel.Seconds()
}
