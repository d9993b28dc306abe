package pdisk

// EngineCounts exposes a System engine's unexported counters to the
// external tests: executor handoffs, and ops run per kind.
func EngineCounts(s *System) (handoffs, reads, writes, frees int64) {
	e := s.eng
	return e.handoffs.Load(), e.ops[opRead].Load(), e.ops[opWrite].Load(), e.ops[opFree].Load()
}
