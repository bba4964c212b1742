package pitree

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
)

// TestCreateFailureEndsItsAction: a tree creation that fails — before it
// logged anything, or with its allocations logged — is rolled back, not
// left open in the transaction table, where it would pin the log for ever.
func TestCreateFailureEndsItsAction(t *testing.T) {
	for _, tc := range []struct {
		name  string
		point string
		pool  int
	}{
		{"meta read", storage.FPDiskRead, 0},
		// One frame: formatting the first node evicts the dirty meta page.
		{"format", storage.FPDiskWrite, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.New(1)
			inj.Arm(tc.point, fault.Spec{Kind: fault.Permanent})
			e := engine.New(engine.Options{Injector: inj, PoolCapacity: tc.pool})
			_, err := Create(e.AddStore(1, toyCodec{}), e.TM, "toy", 2, &toyKinds,
				func(pids []storage.PageID) []*toyNode { return []*toyNode{{}, {}} })
			if err == nil {
				t.Fatal("creation succeeded on a failing disk")
			}
			if n := e.TM.ActiveCount(); n != 0 {
				t.Fatalf("failed creation left %d transactions open", n)
			}
		})
	}
}
