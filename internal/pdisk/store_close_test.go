package pdisk_test

import (
	"errors"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/storetest"
)

// Every block op on a closed store, and Frontier, fails with ErrInvalid —
// the taxonomy's "use after Close" — on every built-in backend, without
// panicking and without touching what the store still reports.
func TestStoreUseAfterCloseIsInvalid(t *testing.T) {
	blk := pdisk.StoredBlock{Recs16: []record.Rec16{{Key: 1, Val: 2}}, Forecast: []record.Key{3}}
	for _, f := range storetest.Factories(2, 1) {
		t.Run(f.Name, func(t *testing.T) {
			st := f.New(t)
			for _, a := range []pdisk.BlockAddr{{Disk: 0, Index: 0}, {Disk: 1, Index: 3}} {
				// One array, one address: each slot gets its own copy.
				own := blk
				own.Recs16 = append([]record.Rec16(nil), blk.Recs16...)
				if err := st.WriteBlock(a, own); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			usage := st.Usage()
			check := func(op string, fn func() error) {
				t.Helper()
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s after Close panicked: %v", op, r)
					}
				}()
				if err := fn(); !errors.Is(err, pdisk.ErrInvalid) {
					t.Errorf("%s after Close: %v, want ErrInvalid", op, err)
				}
			}
			check("WriteBlock", func() error { return st.WriteBlock(pdisk.BlockAddr{Disk: 0, Index: 1}, blk) })
			check("ReadBlock", func() error { _, err := st.ReadBlock(pdisk.BlockAddr{Disk: 0, Index: 0}); return err })
			check("Free", func() error { return st.Free(pdisk.BlockAddr{Disk: 1, Index: 3}) })
			if fs, ok := st.(pdisk.FrontierStore); ok {
				check("Frontier", func() error { _, err := fs.Frontier(0); return err })
			}
			if got := st.Usage(); got != usage {
				t.Errorf("Usage after failed ops %+v, want %+v", got, usage)
			}
		})
	}
}
