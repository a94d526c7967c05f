package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPkgAttribution(t *testing.T) {
	p := &profile{
		funcNames: map[uint64]string{
			1: "runtime.mallocgc",
			2: "tell/internal/det.Keys[...]",
			3: "tell/internal/store.(*Node).handleStore",
			4: "tell/internal/sim.(*Kernel).RunUntil",
			5: "main.(*tracer).rtEnd",
			6: "tell/internal/wire.DecodeStoreRequest",
			7: "runtime.gcBgMarkWorker",
			8: "tell/internal/sanitize.(*Mutex).Lock",
		},
		locFuncs: map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5}, 6: {6}, 7: {7}, 8: {8, 3}},
	}
	for _, tc := range []struct {
		locs []uint64
		want string
	}{
		{[]uint64{1, 2, 3, 4}, "store"},    // runtime and helper frames go to the caller
		{[]uint64{1, 6, 5, 3, 4}, "bench"}, // decoding done by the tracer
		{[]uint64{7}, "runtime"},
		{[]uint64{8, 4}, "store"}, // inlined helper: innermost non-helper line wins
	} {
		if got := p.pkgOf(tc.locs); got != tc.want {
			t.Errorf("stack %v charged to %s, want %s", tc.locs, got, tc.want)
		}
	}
}

func TestCPUSharesByLabel(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	done := make(chan struct{})
	pprof.Do(context.Background(), pprof.Labels("role", "sn"), func(context.Context) {
		go func() {
			defer close(done)
			x := 0
			for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
				x++
			}
			_ = x
		}()
	})
	<-done
	pprof.StopCPUProfile()
	_, byRole, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if byRole["sn"] < 0.5 {
		t.Fatalf("labelled goroutine got %.2f of the profile: %v", byRole["sn"], byRole)
	}
}
