//go:build !aliascheck

package pdisk

// aliasCheck gates the zero-copy mutation guard of the System's writes
// and MemStore. In normal builds it is a false constant, so the checksum
// bookkeeping compiles away; build with -tags=aliascheck to arm it (see
// aliascheck_on.go).
const aliasCheck = false
