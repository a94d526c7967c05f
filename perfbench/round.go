package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/tpcc"
)

// virtualPlane is what the simulator charges. It is a pure function of the
// deployment and the seed, so rounds of one run must agree on it exactly.
type virtualPlane struct {
	TpmC, Tps         float64
	P50Ms, P99Ms      float64
	P99OK             bool
	Committed         [nClasses]int
	Aborted           [nClasses]int
	Failed            int
	MsgsPerTxn        float64
	BytesPerTxn       float64
	ElapsedVirtualSec float64
}

func (v virtualPlane) committed() int {
	n := 0
	for _, c := range v.Committed {
		n += c
	}
	return n
}

func (v virtualPlane) attempted() int {
	n := v.Failed
	for i := range v.Committed {
		n += v.Committed[i] + v.Aborted[i]
	}
	return n
}

// hostSnap is the process's host-plane state at one instant.
type hostSnap struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // runtime's estimate, seconds
	allCPU     float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeHost() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	u64 := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	f64 := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	return hostSnap{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocObjs:  u64(0),
		allocBytes: u64(1),
		gcCycles:   u64(2),
		gcCPU:      f64(3),
		allCPU:     f64(4),
	}
}

// counters are the layers' public counters plus the tracer's op counts,
// read at the measured window's edges.
type counters struct {
	storeOps, storeBatches uint64 // PN store clients
	cmMsgs                 uint64 // PN commit-manager clients
	treeReads, treeHits    uint64
	retries                uint64
	replays, sheds         uint64
	ops                    opCounts
}

func (s *system) readCounters() counters {
	var c counters
	var retriers []*resil.Retrier
	for _, sc := range s.clients {
		c.storeOps += sc.Ops()
		c.storeBatches += sc.Batches()
		retriers = append(retriers, sc.Resil)
	}
	for _, cmc := range s.cmClients {
		c.cmMsgs += cmc.Msgs()
		retriers = append(retriers, cmc.Resil)
	}
	_, c.retries = resil.MergeSchedule(retriers)
	for _, t := range s.tables {
		r, h := t.PK.Stats()
		c.treeReads, c.treeHits = c.treeReads+r, c.treeHits+h
		for _, name := range det.Keys(t.Sec) {
			r, h := t.Sec[name].Stats()
			c.treeReads, c.treeHits = c.treeReads+r, c.treeHits+h
		}
	}
	for _, addr := range s.cluster.Addrs() {
		sn := s.cluster.Node(addr)
		c.replays += sn.Replays()
		c.sheds += sn.Sheds()
	}
	for _, cm := range s.cms {
		c.replays += cm.Replays()
	}
	if s.tr != nil {
		c.ops = s.tr.ops
	}
	return c
}

// round is one deployment run end to end.
type round struct {
	virt          virtualPlane
	setup         time.Duration
	h0, h1        hostSnap // measured window
	c0, c1        counters
	vStart, vEnd  time.Duration // measured window, virtual
	heapMB        float64
	rec           *txnRecorder
	tr            *tracer
	profile       []byte // traced rounds: CPU profile of the measured window
	anomalies     int    // traced rounds: SI anomalies in the recorded history
	historyReport string
}

func (r *round) cpuMsPerTxn() float64 {
	return float64(r.h1.cpu-r.h0.cpu) / float64(time.Millisecond) / float64(r.virt.committed())
}

func (r *round) wallMsPerTxn() float64 {
	return float64(r.h1.wall.Sub(r.h0.wall)) / float64(time.Millisecond) / float64(r.virt.committed())
}

// setupOnly assembles a deployment and opens the engines, then discards it.
func setupOnly(dep Deployment, seed int64) (time.Duration, error) {
	t0 := time.Now()
	s, err := assemble(dep, seed, nil)
	if err != nil {
		return 0, err
	}
	defer s.shutdown()
	var setup time.Duration
	err = s.drive(func() { setup = time.Since(t0) }, func(e tpcc.Engine) tpcc.Engine { return e }, nil)
	return setup, err
}

// runRound assembles a deployment, runs the workload and checks the
// result. A traced round adds the transport wrapper, spans, pprof labels,
// the CPU profile and the SI history checker.
func runRound(dep Deployment, seed int64, traced bool) (*round, error) {
	r := &round{}
	t0 := time.Now()
	if traced {
		r.tr = newTracer()
	}
	s, err := assemble(dep, seed, r.tr)
	if err != nil {
		return nil, err
	}
	defer s.shutdown()
	defer r.tr.label(roleSim)
	if traced {
		s.recordHistory()
	}
	var prof bytes.Buffer
	var profErr error
	r.rec = &txnRecorder{warmup: dep.Warmup, measure: dep.Measure, t: r.tr}
	r.rec.onStart = func(now time.Duration) {
		r.vStart, r.c0 = now, s.readCounters()
		if traced {
			profErr = pprof.StartCPUProfile(&prof)
		}
		r.h0 = takeHost()
	}
	r.rec.onEnd = func(now time.Duration) {
		r.h1 = takeHost()
		if traced && profErr == nil {
			pprof.StopCPUProfile()
		}
		r.vEnd, r.c1 = now, s.readCounters()
	}
	var res *tpcc.Result
	var checkErr error
	err = s.drive(
		func() { r.setup = time.Since(t0) },
		func(e tpcc.Engine) tpcc.Engine { return engine{inner: e, r: r.rec} },
		func(ctx env.Ctx, out *tpcc.Result) {
			// Read what RunTell reads, where it reads it, before the
			// consistency check adds traffic of its own.
			res = out
			st := s.net.Stats()
			r.virt = virtualOf(res, r.rec, st.Requests, st.BytesSent+st.BytesRecv)
			checkErr = checkConsistency(ctx, s.pns[0], dep.Warehouses)
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			r.heapMB = float64(m.HeapAlloc) / (1 << 20)
		})
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	if checkErr != nil {
		return nil, fmt.Errorf("consistency check: %w", checkErr)
	}
	if r.h1.wall.IsZero() {
		return nil, fmt.Errorf("measured window never closed (%d of %d transactions counted)",
			r.rec.counted, dep.Warmup+dep.Measure)
	}
	for i := range res.Committed {
		if int(res.Committed[i]) != r.rec.committed[i] || int(res.Aborted[i]) != r.rec.aborted[i] {
			return nil, fmt.Errorf("engine wrapper saw %v/%v committed/aborted, driver %v/%v",
				r.rec.committed, r.rec.aborted, res.Committed, res.Aborted)
		}
	}
	if traced {
		r.profile = prof.Bytes()
		rep := s.hist.Check()
		r.anomalies = len(rep.Anomalies)
		r.historyReport = rep.String()
	}
	return r, nil
}

// virtualOf computes the virtual-plane metrics with exp.RunTell's
// definitions: TpmC and Tps over the measured window; messages and bytes
// over the whole run (warm-up and drain included) per measured commit.
func virtualOf(res *tpcc.Result, rec *txnRecorder, msgs, bytes uint64) virtualPlane {
	v := virtualPlane{TpmC: res.TpmC(), Tps: res.Tps(), Failed: rec.failed,
		ElapsedVirtualSec: res.Elapsed.Seconds()}
	var all []float64
	for i := range v.Committed {
		v.Committed[i], v.Aborted[i] = rec.committed[i], rec.aborted[i]
		all = append(all, rec.latMs[i]...)
	}
	all = sorted(all)
	v.P50Ms, _ = quantile(all, 0.50)
	v.P99Ms, v.P99OK = quantile(all, 0.99)
	if c := res.TotalCommitted(); c > 0 {
		v.MsgsPerTxn = float64(msgs) / float64(c)
		v.BytesPerTxn = float64(bytes) / float64(c)
	}
	return v
}
