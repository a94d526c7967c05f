package main

import (
	"fmt"
	"sort"
	"time"

	"tell/internal/tpcc"
	"tell/internal/transport"
	"tell/internal/wire"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics, and the ones that could not be measured with
// the reason.
type report struct {
	metrics     map[string]metric
	unavailable map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, unavailable: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// ratio sets name to num/den, or records it unavailable when den is 0.
func (r *report) ratio(name, unit string, num, den float64) {
	if den == 0 {
		r.unavailable[name] = "no denominator events in the measured window"
		return
	}
	r.set(name, unit, num/den)
}

// quantile sets name from the q-quantile of samples (sorted) or records why
// it is unavailable.
func (r *report) quantile(name, unit string, s []float64, q float64) {
	v, ok := quantile(s, q)
	if !ok {
		r.unavailable[name] = fmt.Sprintf("%d samples; p%v needs at least %d beyond it", len(s), q*100, minTail)
		return
	}
	r.set(name, unit, v)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// requiredPkgs are the engine packages whose CPU share is always reported,
// 0 when the profile has no sample in them.
var requiredPkgs = []string{"core", "btree", "store", "resil", "commitmgr", "wire",
	"transport", "mvcc", "relational", "sim", "txlog", "tpcc", "env", "runtime", "bench"}

var requiredRoles = []string{"sim", "pn", "sn", "cm"}

// layerMetrics derives the per-layer metrics of a traced round, apart from
// the host-plane ones an untraced round supplies (hostMetrics).
func layerMetrics(traced *round) (*report, error) {
	rep := newReport()
	c := float64(traced.virt.committed())
	rec := traced.rec

	for t := tpcc.TxType(0); t < nClasses; t++ {
		name := "tpcc." + t.String()
		s := sorted(rec.latMs[t])
		rep.set(name+".n", "count", float64(len(s)))
		rep.quantile(name+".p50_ms", "ms", s, 0.50)
		rep.quantile(name+".p99_ms", "ms", s, 0.99)
	}
	rep.set("abort_rate", "share", float64(sum(rec.aborted[:]))/float64(traced.virt.attempted()))
	rep.set("failed_share", "share", float64(rec.failed)/float64(traced.virt.attempted()))

	d0, d1 := traced.c0, traced.c1
	rep.ratio("core.store_ops_per_txn", "ops/txn", float64(d1.storeOps-d0.storeOps), c)
	rep.ratio("store.client.ops_per_batch", "ops/batch", float64(d1.storeOps-d0.storeOps), float64(d1.storeBatches-d0.storeBatches))
	reads, hits := float64(d1.treeReads-d0.treeReads), float64(d1.treeHits-d0.treeHits)
	rep.ratio("btree.node_reads_per_txn", "reads/txn", reads, c)
	rep.ratio("btree.inner_hit_ratio", "share", hits, hits+reads)
	o0, o1 := d0.ops, d1.ops
	rep.ratio("btree.leaf_condputs_per_txn", "ops/txn", float64(o1.idxCondPuts-o0.idxCondPuts), c)
	rep.ratio("btree.leaf_condput_fail_ratio", "share", float64(o1.idxCondPutConflicts-o0.idxCondPutConflicts), float64(o1.idxCondPuts-o0.idxCondPuts))
	rep.ratio("store.node.condput_fail_per_txn.rec", "ops/txn", float64(o1.recCondPutConflicts-o0.recCondPutConflicts), c)
	rep.ratio("txlog.writes_per_txn", "ops/txn", float64(o1.txlogWrites-o0.txlogWrites), c)
	rep.ratio("commitmgr.msgs_per_txn", "msgs/txn", float64(d1.cmMsgs-d0.cmMsgs), c)
	rep.ratio("resil.retries_per_txn", "retries/txn", float64(d1.retries-d0.retries), c)
	rep.set("resil.replays", "count", float64(d1.replays-d0.replays))
	rep.set("store.node.sheds", "count", float64(d1.sheds-d0.sheds))

	spanMetrics(rep, traced, c)
	rep.set("trace.spans", "count", float64(len(traced.tr.spans)))

	byPkg, byRole, err := cpuShares(traced.profile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, p := range requiredPkgs {
		rep.set("host.cpu_share."+p, "share", byPkg[p])
	}
	for p, v := range byPkg {
		rep.set("host.cpu_share."+p, "share", v)
	}
	for _, r := range requiredRoles {
		rep.set("host.cpu_share.role."+r, "share", byRole[r])
	}
	for r, v := range byRole {
		rep.set("host.cpu_share.role."+r, "share", v)
	}
	return rep, nil
}

// hostMetrics adds the Go runtime's counters over an untraced round's
// measured window; a traced round's would include the tracer's own
// allocations.
func hostMetrics(rep *report, plain *round) {
	h0, h1 := plain.h0, plain.h1
	c := float64(plain.virt.committed())
	rep.ratio("host.allocs_per_txn", "allocs/txn", float64(h1.allocObjs-h0.allocObjs), c)
	rep.ratio("host.alloc_kb_per_txn", "KiB/txn", float64(h1.allocBytes-h0.allocBytes)/1024, c)
	rep.ratio("host.gc_cpu_share", "share", h1.gcCPU-h0.gcCPU, h1.allCPU-h0.allCPU)
	rep.ratio("host.gc_cycles_per_ktxn", "cycles/ktxn", float64(h1.gcCycles-h0.gcCycles)*1000, c)
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// spanMetrics derives round-trip, service, self and wait times from the
// spans that started inside the measured window.
func spanMetrics(rep *report, r *round, c float64) {
	wireTime := transport.InfiniBand().TransferTime
	var clientRTT, wait, service, self, replRTT, cmRTT, cmService []float64
	var storeReqs, replMsgs, replBytes float64
	// Union of child round trips per handler, for self time. Children of a
	// handler are issued in parallel, so their intervals overlap.
	children := map[uint64][][2]time.Duration{}
	for i := range r.tr.spans {
		s := &r.tr.spans[i]
		if s.kind == spanRT && s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	for i := range r.tr.spans {
		s := &r.tr.spans[i]
		if s.start < r.vStart || s.start >= r.vEnd {
			continue
		}
		d := s.end - s.start
		switch {
		case s.kind == spanRT && s.msg == wire.KindStoreReq && roleOf(s.node) == rolePN && roleOf(s.name) == roleSN:
			clientRTT = append(clientRTT, us(d))
			if s.service >= 0 {
				wait = append(wait, us(d-s.service-wireTime(s.reqBytes)-wireTime(s.respBytes)))
			}
		case s.kind == spanRT && s.msg == wire.KindReplicate:
			replMsgs++
			replBytes += float64(s.reqBytes + s.respBytes)
			replRTT = append(replRTT, us(d))
		case s.kind == spanRT && s.msg == wire.KindCMReq && roleOf(s.node) == rolePN:
			cmRTT = append(cmRTT, us(d))
		case s.kind == spanHandler && s.msg == wire.KindStoreReq && roleOf(s.node) == roleSN:
			storeReqs++
			service = append(service, us(d))
			self = append(self, us(d-covered(children[s.id])))
		case s.kind == spanHandler && s.msg == wire.KindCMReq:
			cmService = append(cmService, us(d))
		}
	}
	sortAll := func(xs ...*[]float64) {
		for _, x := range xs {
			sort.Float64s(*x)
		}
	}
	sortAll(&clientRTT, &wait, &service, &self, &replRTT, &cmRTT, &cmService)
	rep.quantile("store.client.rtt_us_p50", "us", clientRTT, 0.50)
	rep.quantile("store.client.rtt_us_p99", "us", clientRTT, 0.99)
	rep.ratio("store.node.reqs_per_txn", "reqs/txn", storeReqs, c)
	rep.quantile("store.node.service_us_p50", "us", service, 0.50)
	rep.quantile("store.node.service_us_p99", "us", service, 0.99)
	rep.quantile("store.node.self_us_p50", "us", self, 0.50)
	rep.quantile("store.node.wait_us_p50", "us", wait, 0.50)
	rep.ratio("store.repl.msgs_per_txn", "msgs/txn", replMsgs, c)
	rep.ratio("store.repl.bytes_per_txn", "B/txn", replBytes, c)
	if replMsgs == 0 {
		rep.unavailable["store.repl.rtt_us_p50"] = "no replication round trips"
	} else {
		rep.quantile("store.repl.rtt_us_p50", "us", replRTT, 0.50)
	}
	rep.quantile("commitmgr.rtt_us_p50", "us", cmRTT, 0.50)
	rep.quantile("commitmgr.service_us_p50", "us", cmService, 0.50)
}

// covered is the total length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
