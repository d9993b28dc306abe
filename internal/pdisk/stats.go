package pdisk

// Stats counts the I/O traffic of a System. ReadOps and WriteOps are the
// paper's I/O operations: each moves up to D blocks in parallel.
type Stats struct {
	ReadOps       int64
	WriteOps      int64
	BlocksRead    int64
	BlocksWritten int64
	PerDiskReads  []int64
	PerDiskWrites []int64
	// SimTime is the estimated elapsed I/O time in seconds under the
	// system's TimeModel (zero if no model is attached).
	SimTime float64
	// Retries and RetryGiveUps report the work of the System's retry
	// policy (Config.Retry): transfers re-attempted after a transient
	// failure, and transfers that exhausted the retry budget. Zero
	// without a policy; ResetStats zeroes them.
	Retries      int64
	RetryGiveUps int64
	// Health reports the deadline policy's per-disk latency and timeout
	// tracking (Config.Deadline), or a hand-built DeadlineStore's; nil
	// otherwise (so Stats of deadline-free systems stay comparable).
	Health *HealthStats
}

// Ops returns the total number of parallel I/O operations.
func (s Stats) Ops() int64 { return s.ReadOps + s.WriteOps }

// ReadParallelism returns the average number of blocks moved per read
// operation — D for perfectly parallel reads.
func (s Stats) ReadParallelism() float64 {
	if s.ReadOps == 0 {
		return 0
	}
	return float64(s.BlocksRead) / float64(s.ReadOps)
}

// WriteParallelism returns the average number of blocks moved per write
// operation.
func (s Stats) WriteParallelism() float64 {
	if s.WriteOps == 0 {
		return 0
	}
	return float64(s.BlocksWritten) / float64(s.WriteOps)
}

// ReadBalance returns the busiest disk's share of block reads relative to
// a perfectly even spread: 1.0 means all disks carried equal traffic,
// D means one disk carried everything. SRM's randomized layout keeps this
// near 1; the fixed adversarial layout drives it toward D.
func (s Stats) ReadBalance() float64 { return balance(s.PerDiskReads, s.BlocksRead) }

// WriteBalance is ReadBalance for writes.
func (s Stats) WriteBalance() float64 { return balance(s.PerDiskWrites, s.BlocksWritten) }

func balance(perDisk []int64, total int64) float64 {
	if total == 0 || len(perDisk) == 0 {
		return 0
	}
	var max int64
	for _, c := range perDisk {
		if c > max {
			max = c
		}
	}
	even := float64(total) / float64(len(perDisk))
	return float64(max) / even
}
