// Error taxonomy of the storage layer.
//
// Every failure that crosses a Store boundary is classified along one
// axis — is it worth retrying? — and attributed along another: which
// operation on which disk at which block address failed. The taxonomy is
// what lets the retry policy absorb transient device errors without ever
// masking corruption, and what lets user-facing messages name the
// failing disk instead of printing a bare "I/O error".
//
//   - Transient errors (an injected FaultStore fault, an OS-level read
//     or write failure) are retryable: the same operation, re-issued,
//     may well succeed.
//   - Terminal errors are not: a checksum mismatch (ErrCorrupt) will
//     reproduce on every re-read, an absent block (ErrAbsent) is a
//     scheduling bug or a lost write, and an invalid request
//     (ErrInvalid) is a caller bug. Retrying any of them only delays
//     the diagnosis.
package pdisk

import (
	"errors"
	"fmt"
)

// ErrAbsent is the base error for operations addressing a block that is
// not resident: reading or freeing a slot nothing was written to (or
// whose write was lost). Terminal — re-reading an absent block cannot
// make it appear.
var ErrAbsent = errors.New("pdisk: absent block")

// ErrCorrupt is the base error for blocks whose on-disk bytes fail
// validation: a checksum mismatch, a torn or misdirected write, an
// implausible slot header. Terminal — the damage is on the platter, not
// in the transfer.
var ErrCorrupt = errors.New("pdisk: corrupt block")

// ErrInvalid is the base error for requests the store cannot serve by
// construction: negative addresses, oversized blocks, use after Close.
// Terminal — the request itself is wrong.
var ErrInvalid = errors.New("pdisk: invalid request")

// ErrDiskOffline is the base error the retry policy returns for
// operations on a disk whose cumulative failure count exhausted the
// per-disk error budget: the disk is treated as failed and every later
// operation on it fails fast. Terminal.
var ErrDiskOffline = errors.New("pdisk: disk offline (error budget exhausted)")

// TerminalError marks an arbitrary error as not worth retrying without
// forcing it into one of the sentinel categories — the chaos harness
// uses it for its simulated process kills.
type TerminalError struct {
	Err error
}

func (e *TerminalError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped cause to errors.Is/As.
func (e *TerminalError) Unwrap() error { return e.Err }

// IOError attributes a storage failure: the operation kind ("read",
// "write", "free"), the disk and block address it targeted, and the
// underlying cause. The System wraps every failed transfer in one, so
// by the time an error reaches a sort's caller it names the failing
// disk — and errors.Is/As still reach the cause.
type IOError struct {
	Op   string
	Addr BlockAddr
	Err  error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("pdisk: %s %v: %v", e.Op, e.Addr, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *IOError) Unwrap() error { return e.Err }

// Retryable reports whether err is a transient failure worth
// re-attempting. Corruption, absent blocks, invalid requests, exhausted
// disks, explicit TerminalError marks and already-exhausted retries are
// terminal; everything else — injected transient faults, OS-level I/O
// errors, deadline timeouts (ErrDeadline — the re-issue is the whole
// point of abandoning a stuck op) — is considered transient.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var term *TerminalError
	var rerr *RetryError
	switch {
	case errors.Is(err, ErrCorrupt),
		errors.Is(err, ErrAbsent),
		errors.Is(err, ErrInvalid),
		errors.Is(err, ErrDiskOffline),
		errors.As(err, &term),
		errors.As(err, &rerr):
		return false
	}
	return true
}
