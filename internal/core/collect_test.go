package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/trace"
)

// TestFinishedDeploymentsAreCollected builds and drops several simulated
// deployments in one process. Nothing package-level may keep a finished
// deployment reachable: a TPC-C deployment holds a few hundred MiB, and a
// process running experiments back to back would carry every earlier one.
// Each deployment's environment holds a sentinel that references nothing
// (through its tracer's clock), so the sentinel's finalizer runs once the
// environment — what a package-level map keyed by it would pin — is
// unreachable.
func TestFinishedDeploymentsAreCollected(t *testing.T) {
	const runs = 4
	var collected atomic.Int32
	for i := 0; i < runs; i++ {
		e := newEngine(t, 2, core.TB)
		sentinel := new([64]byte)
		runtime.SetFinalizer(sentinel, func(*[64]byte) { collected.Add(1) })
		env.SetTracer(e.envr, trace.NewCounters(func() time.Duration {
			_ = sentinel[0]
			return 0
		}))
		e.run(t, func(ctx env.Ctx) {
			table, err := e.pns[0].Catalog().CreateTable(ctx, accountsSchema())
			if err != nil {
				t.Fatal(err)
			}
			for j, pn := range e.pns {
				txn, _ := pn.Begin(ctx)
				if _, err := txn.Insert(ctx, table, account(int64(j), "a", 1)); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, ctx, txn)
			}
		})
	}
	// The last deployment is still reachable from this frame's variables
	// until the loop's e goes out of scope; the earlier ones must go.
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < runs-1 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < runs-1 {
		t.Fatalf("%d of %d finished deployments were collected, want at least %d", got, runs, runs-1)
	}
}
