// Package analysis implements the paper's closed-form cost model: merge
// orders, memory sizing, the C_SRM and C_DSM coefficients of Section 9.1
// (equations (40) and (41)), the Theorem 1 bound expressions, and the
// generators for Tables 1 and 2.
//
// Units follow the paper: memory M and block size B are in records, costs
// are parallel I/O operations, and logarithms are natural.
package analysis

import (
	"fmt"
	"math"
	"strings"

	"srmsort/internal/occupancy"
)

// SRMMergeOrder returns R, the largest integer with
// M/B >= 2R + 4D + RD/B (Section 2.2). Multiplying through by B:
// M >= (2B+D)R + 4DB, so R = (M − 4DB)/(2B+D).
func SRMMergeOrder(m, d, b int) int {
	r := (m - 4*d*b) / (2*b + d)
	if r < 0 {
		return 0
	}
	return r
}

// DSMMergeOrder returns R_DSM = (M/B − 2D)/2D (Section 9.1): each of the R
// runs gets 2 logical blocks (2D small blocks) of double read buffer and
// the output gets 2D blocks.
func DSMMergeOrder(m, d, b int) int {
	memBlocks := m / b
	r := (memBlocks - 2*d) / (2 * d)
	if r < 0 {
		return 0
	}
	return r
}

// PSVLookahead returns the blocks of lookahead buffer each of PSV's D
// runs gets, (M/B − 2D)/D: the output keeps 2D blocks, as DSM's does, and
// the rest is shared evenly by the runs (Section 2.1's comparator).
func PSVLookahead(m, d, b int) int {
	buf := (m/b - 2*d) / d
	if buf < 0 {
		return 0
	}
	return buf
}

// MemoryForK returns the memory size (in records) the paper uses in its
// comparisons for a given k = R/D: M = (2k+4)DB + kD² (Section 9.1).
func MemoryForK(k, d, b int) int {
	return (2*k+4)*d*b + k*d*d
}

// CSRM is equation (40)'s coefficient: with overhead factor v = v(k, D),
// each of the ln(N/M)/ln(kD) merge passes costs (1+v)·N/DB operations, so
// C_SRM = (1+v)/ln(kD).
func CSRM(v float64, k, d int) float64 {
	return (1 + v) / math.Log(float64(k*d))
}

// CDSM is equation (41)'s coefficient: DSM merges k+1+kD/2B runs at a time
// and each pass costs 2·N/DB operations (reads and writes), so
// C_DSM = 2/ln(k+1+kD/2B).
func CDSM(k, d, b int) float64 {
	order := float64(k) + 1 + float64(k*d)/(2*float64(b))
	return 2 / math.Log(order)
}

// TotalOps evaluates N/DB · (2 + C·ln(N/M)), the total operation count of
// either algorithm given its coefficient C (equations (40)/(41); the
// leading 2 is the shared run-formation pass).
func TotalOps(n, m, d, b int, c float64) float64 {
	return float64(n) / float64(d*b) * (2 + c*math.Log(float64(n)/float64(m)))
}

// RatioSRMOverDSM returns C_SRM/C_DSM — Table 2 (with v from ball-throwing)
// and Table 4 (with v from algorithm simulation) report exactly this.
func RatioSRMOverDSM(v float64, k, d, b int) float64 {
	return CSRM(v, k, d) / CDSM(k, d, b)
}

// MergePasses returns the number of passes to reduce numRuns runs to one
// with order-r merges: ceil(log_r numRuns).
func MergePasses(numRuns, r int) int {
	if numRuns <= 1 {
		return 0
	}
	passes := 0
	for numRuns > 1 {
		numRuns = (numRuns + r - 1) / r
		passes++
	}
	return passes
}

// Theorem1Reads returns the Theorem 1 leading-order upper bound on SRM's
// expected read operations to sort n records with memory m, block size b
// and d disks, where R = kD runs are merged at a time. The per-pass
// overhead is the Theorem 2 occupancy bound (case chosen by k vs ln D):
//
//	reads <= N/DB + (ln(N/M)/ln(kD)) · (N/RB) · E[max occupancy bound]
//
// (N/RB phases per pass, each phase costing the expected maximum occupancy
// of R blocks over D disks).
func Theorem1Reads(n, m, d, b, k int) float64 {
	nf := float64(n)
	db := float64(d * b)
	passes := math.Log(nf/float64(m)) / math.Log(float64(k*d))
	if passes < 0 {
		passes = 0
	}
	occ := occupancy.BoundForBalls(float64(k), d)
	phasesPerPass := nf / float64(k*d*b)
	return nf/db + passes*phasesPerPass*occ
}

// Theorem1ReadsFinite is Theorem1Reads with the rigorous finite-D
// occupancy bound (occupancy.FiniteBound) in place of the leading-order
// expansion — usable, and tested, at table scale.
func Theorem1ReadsFinite(n, m, d, b, k int) float64 {
	nf := float64(n)
	db := float64(d * b)
	passes := math.Log(nf/float64(m)) / math.Log(float64(k*d))
	if passes < 0 {
		passes = 0
	}
	occ := occupancy.FiniteBound(k*d, d)
	phasesPerPass := nf / float64(k*d*b)
	return nf/db + passes*phasesPerPass*occ
}

// Theorem1Writes returns SRM's exact write-operation count (it writes with
// perfect parallelism): N/DB · (1 + ln(N/M)/ln R).
func Theorem1Writes(n, m, d, b, r int) float64 {
	nf := float64(n)
	passes := math.Log(nf/float64(m)) / math.Log(float64(r))
	if passes < 0 {
		passes = 0
	}
	return nf / float64(d*b) * (1 + passes)
}

// Table is a labelled grid of values, formatted like the paper's tables
// (rows indexed by k, columns by D).
type Table struct {
	Name    string
	RowName string
	ColName string
	Rows    []int // k values
	Cols    []int // D values
	Cells   [][]float64
}

// Format renders the table as aligned text.
func (t *Table) Format(decimals int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Name)
	fmt.Fprintf(&sb, "%10s", t.RowName+"\\"+t.ColName)
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "%10d", c)
	}
	sb.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&sb, "%10d", r)
		for j := range t.Cols {
			fmt.Fprintf(&sb, "%10.*f", decimals, t.Cells[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row —
// machine-readable output for plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(t.RowName)
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, ",%s=%d", t.ColName, c)
	}
	sb.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&sb, "%d", r)
		for j := range t.Cols {
			fmt.Fprintf(&sb, ",%.4f", t.Cells[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PaperTable1Ks and PaperTable1Ds are the parameter grids of the paper's
// Tables 1 and 2.
var (
	PaperTable1Ks = []int{5, 10, 20, 50, 100, 1000}
	PaperTable1Ds = []int{5, 10, 50, 100, 1000}
)

// Table1 reproduces the paper's Table 1: the overhead v(k, D) estimated as
// C(kD, D)/k by ball-throwing Monte Carlo with the given number of trials
// per cell.
func Table1(ks, ds []int, trials int, seed int64) *Table {
	t := &Table{
		Name:    "Table 1: overhead v(k,D) = C(kD,D)/k (ball-throwing Monte Carlo)",
		RowName: "k", ColName: "D",
		Rows: ks, Cols: ds,
		Cells: make([][]float64, len(ks)),
	}
	for i, k := range ks {
		t.Cells[i] = make([]float64, len(ds))
		for j, d := range ds {
			t.Cells[i][j] = occupancy.OverheadV(k, d, trials, seed+int64(i*100+j))
		}
	}
	return t
}

// Table2 reproduces the paper's Table 2: the ratio C_SRM/C_DSM with the
// worst-case-expectation overheads v of Table 1, memory M = (2k+4)DB + kD²
// and block size b (the paper uses B = 1000 records).
func Table2(t1 *Table, b int) *Table {
	return RatioTable(t1, b, fmt.Sprintf("Table 2: C_SRM/C_DSM (v from Table 1, B=%d)", b))
}

// RatioTable converts a table of overhead factors v(k, D) into the
// corresponding C_SRM/C_DSM ratio table (used for both Table 2, from
// ball-throwing v, and Table 4, from algorithm-simulation v).
func RatioTable(vt *Table, b int, name string) *Table {
	t := &Table{
		Name:    name,
		RowName: "k", ColName: "D",
		Rows: vt.Rows, Cols: vt.Cols,
		Cells: make([][]float64, len(vt.Rows)),
	}
	for i, k := range vt.Rows {
		t.Cells[i] = make([]float64, len(vt.Cols))
		for j, d := range vt.Cols {
			t.Cells[i][j] = RatioSRMOverDSM(vt.Cells[i][j], k, d, b)
		}
	}
	return t
}

// Makespan estimates the elapsed time of a sort phase in which I/O and
// computation overlap (the two concurrent control flows of Section 5; DSM
// achieves the same via double buffering): the slower resource hides the
// faster one entirely, leaving max(io, cpu) plus one op of pipeline fill.
func Makespan(ioOps int64, opSeconds float64, records int64, cpuPerRecord float64) float64 {
	io := float64(ioOps) * opSeconds
	cpu := float64(records) * cpuPerRecord
	m := io
	if cpu > m {
		m = cpu
	}
	return m + opSeconds
}

// SerialMakespan is the no-overlap alternative: the resources add up.
func SerialMakespan(ioOps int64, opSeconds float64, records int64, cpuPerRecord float64) float64 {
	return float64(ioOps)*opSeconds + float64(records)*cpuPerRecord
}
