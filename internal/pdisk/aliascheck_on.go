//go:build aliascheck

package pdisk

// aliasCheck arms the zero-copy mutation guard. The System records a
// content checksum for every block a write issues and verifies it when
// the transfer runs, panicking if the writer modified the block in
// between; MemStore records one at every WriteBlock and re-verifies it at
// every ReadBlock/Free (and Close, for all survivors), panicking if a
// reader — or the writer — modified a block it holds without a copy.
// Debug instrumentation for the Store ownership-handoff contracts — run
// the suite with `go test -tags=aliascheck ./...` to audit every path.
const aliasCheck = true
