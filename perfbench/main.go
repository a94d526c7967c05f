// Command perfbench is the repository's benchmark. It drives the TPC-C
// engine on the deterministic simulator and reports two planes from one
// command: the virtual plane the paper measures (tpmC, latency, messages
// and bytes per transaction; identical for a given seed) and the host plane
// the Go code costs on this machine (CPU, wall time, set-up, heap). With
// -trace 1 it runs the same seed twice, untraced and traced, and reports
// per-layer metrics from the traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"tell/internal/tpcc"
)

// base is the deployment both workloads share (§6.2): 2 PNs, 3 SNs, 2 CMs,
// RF3 on InfiniBand; 16 warehouses at scale 0.05; 32 closed-loop terminals
// without think time. The dataset lives in the in-memory store and the
// inner-node cache is unbounded, so both workloads fit in the program's
// caches by construction.
func base() Deployment {
	return Deployment{PNs: 2, SNs: 3, CMs: 2, RF: 3, Workers: 8, TerminalsPerWorker: 2,
		Warehouses: 16, Scale: 0.05, Warmup: 200}
}

// workloads: one loads the write path, one bypasses it. Measured
// transaction counts are fixed so the virtual plane is a function of the
// seed alone; they are sized so each run measures about the same host time.
func workloads() map[string]Deployment {
	write := base()
	write.Mix = tpcc.StandardMix()
	write.Measure = 2500
	read := base()
	read.Mix = tpcc.ReadIntensiveMix()
	read.Measure = 8000
	return map[string]Deployment{"tpcc-write": write, "tpcc-read": read}
}

// setupSamples is how many set-ups a run times at least; setup_s is their
// median.
const setupSamples = 3

// endToEnd lists the metrics a plain run's result line carries, with units.
// CPU and wall time per transaction are not among them: on a shared host
// they drift by a quarter within minutes (see README.md), more than any
// regression bound could absorb, so they are per-layer metrics.
var endToEnd = []struct{ name, unit string }{
	{"tpmc", "tpmC"},
	{"tps", "txn/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"commit_rate", "share"},
	{"msgs_per_txn", "msgs/txn"},
	{"bytes_per_txn", "B/txn"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

// perLayer lists the per-layer metrics the result line of a traced run
// carries: the ones every workload produces. The run's report holds more
// (per-class p99s where the sample count supports them, every package's
// CPU share) and lists what it could not measure, with the reason.
var perLayer = []struct{ name, unit string }{
	{"tpcc.new-order.p50_ms", "ms"},
	{"tpcc.order-status.p50_ms", "ms"},
	{"tpcc.stock-level.p50_ms", "ms"},
	{"tpcc.new-order.n", "count"},
	{"tpcc.payment.n", "count"},
	{"tpcc.order-status.n", "count"},
	{"tpcc.delivery.n", "count"},
	{"tpcc.stock-level.n", "count"},
	{"abort_rate", "share"},
	{"failed_share", "share"},
	{"host_cpu_ms_per_txn", "ms"},
	{"host_wall_ms_per_txn", "ms"},
	{"core.store_ops_per_txn", "ops/txn"},
	{"btree.node_reads_per_txn", "reads/txn"},
	{"btree.inner_hit_ratio", "share"},
	{"btree.leaf_condputs_per_txn", "ops/txn"},
	{"btree.leaf_condput_fail_ratio", "share"},
	{"store.client.ops_per_batch", "ops/batch"},
	{"store.client.rtt_us_p50", "us"},
	{"store.client.rtt_us_p99", "us"},
	{"store.node.reqs_per_txn", "reqs/txn"},
	{"store.node.service_us_p50", "us"},
	{"store.node.service_us_p99", "us"},
	{"store.node.self_us_p50", "us"},
	{"store.node.wait_us_p50", "us"},
	{"store.node.condput_fail_per_txn.rec", "ops/txn"},
	{"store.node.sheds", "count"},
	{"store.repl.msgs_per_txn", "msgs/txn"},
	{"store.repl.bytes_per_txn", "B/txn"},
	{"store.repl.rtt_us_p50", "us"},
	{"resil.retries_per_txn", "retries/txn"},
	{"resil.replays", "count"},
	{"commitmgr.msgs_per_txn", "msgs/txn"},
	{"commitmgr.rtt_us_p50", "us"},
	{"commitmgr.service_us_p50", "us"},
	{"txlog.writes_per_txn", "ops/txn"},
	{"host.cpu_share.core", "share"},
	{"host.cpu_share.btree", "share"},
	{"host.cpu_share.store", "share"},
	{"host.cpu_share.resil", "share"},
	{"host.cpu_share.commitmgr", "share"},
	{"host.cpu_share.wire", "share"},
	{"host.cpu_share.transport", "share"},
	{"host.cpu_share.mvcc", "share"},
	{"host.cpu_share.relational", "share"},
	{"host.cpu_share.sim", "share"},
	{"host.cpu_share.txlog", "share"},
	{"host.cpu_share.tpcc", "share"},
	{"host.cpu_share.env", "share"},
	{"host.cpu_share.runtime", "share"},
	{"host.cpu_share.bench", "share"},
	{"host.cpu_share.role.sim", "share"},
	{"host.cpu_share.role.pn", "share"},
	{"host.cpu_share.role.sn", "share"},
	{"host.cpu_share.role.cm", "share"},
	{"host.allocs_per_txn", "allocs/txn"},
	{"host.alloc_kb_per_txn", "KiB/txn"},
	{"host.gc_cpu_share", "share"},
	{"host.gc_cycles_per_ktxn", "cycles/ktxn"},
	{"trace.overhead_cpu", "share"},
	{"trace.overhead_wall", "share"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "tpcc-write or tpcc-read")
	seed := flag.Int64("seed", 1, "workload seed: TPC-C data, inputs and the simulator")
	seconds := flag.Int("seconds", 10, "repeat the seed's run until this much wall time has passed (plain runs)")
	traceFlag := flag.Int("trace", 0, "1: run untraced then traced and report per-layer metrics")
	out := flag.String("out", "perfbench-out", "directory for the report, spans and CPU profile")
	child := flag.String("child", "", "internal: run one deployment (plain, traced or setup) and print its summary")
	flag.Parse()
	dep, ok := workloads()[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *seed == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload tpcc-write|tpcc-read -seed n (n != 0) -seconds s -trace 0|1")
		os.Exit(2)
	}
	// The simulator runs one activity at a time, so one P is all it can
	// use: activity hand-offs stay on one thread, and the host figures do
	// not depend on whether a second core happens to be free.
	runtime.GOMAXPROCS(1)

	if *child != "" {
		sum, err := runChild(*child, dep, *seed, *workload, *out)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(sum)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d: %v\n", *child, *workload, *seed, err)
			os.Exit(1)
		}
		return
	}
	p := parent{workload: *workload, seed: *seed, out: *out}
	var res *result
	var full *report
	var err error
	if *traceFlag == 1 {
		res, full, err = p.tracedRun()
	} else {
		res, full, err = p.plainRun(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		os.Exit(1)
	}
	printReport(full)
	if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traceFlag)),
		map[string]any{"workload": *workload, "seed": *seed, "metrics": full.metrics, "unavailable": full.unavailable}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summary is what a child process reports about its one deployment.
type summary struct {
	Virt         virtualPlane
	SetupS       float64
	CPUMsPerTxn  float64
	WallMsPerTxn float64
	HeapMB       float64
	Metrics      map[string]metric `json:",omitempty"`
	Unavailable  map[string]string `json:",omitempty"`
}

// runChild runs one deployment in this process. Every deployment gets a
// process of its own: the engine keeps per-environment client counters in
// package-level maps, so a finished deployment stays reachable and would
// inflate the next one's heap, GC work and set-up time.
func runChild(kind string, dep Deployment, seed int64, workload, out string) (*summary, error) {
	if kind == "setup" {
		d, err := setupOnly(dep, seed)
		return &summary{SetupS: d.Seconds()}, err
	}
	if kind != "plain" && kind != "traced" {
		return nil, fmt.Errorf("unknown child kind %q", kind)
	}
	r, err := runRound(dep, seed, kind == "traced")
	if err != nil {
		return nil, err
	}
	sum, err := summarize(r)
	if err != nil || r.tr == nil {
		return sum, err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := writeSpans(stem+"-spans.jsonl.gz", r.tr.spans); err != nil {
		return nil, err
	}
	return sum, os.WriteFile(stem+"-cpu.pprof", r.profile, 0o644)
}

// summarize reduces a round to what its process reports: the Go runtime's
// counters for an untraced round, the per-layer metrics for a traced one.
func summarize(r *round) (*summary, error) {
	sum := &summary{Virt: r.virt, SetupS: r.setup.Seconds(), CPUMsPerTxn: r.cpuMsPerTxn(),
		WallMsPerTxn: r.wallMsPerTxn(), HeapMB: r.heapMB}
	rep := newReport()
	if r.tr == nil {
		hostMetrics(rep, r)
	} else {
		if r.anomalies > 0 {
			return nil, fmt.Errorf("snapshot-isolation anomalies in the traced run:\n%s", r.historyReport)
		}
		var err error
		if rep, err = layerMetrics(r); err != nil {
			return nil, err
		}
	}
	sum.Metrics, sum.Unavailable = rep.metrics, rep.unavailable
	return sum, nil
}

// combine joins an untraced and a traced run of one seed into the
// per-layer report. The two must agree exactly on the virtual plane.
func combine(plain, traced *summary) (*report, error) {
	if traced.Virt != plain.Virt {
		return nil, fmt.Errorf("tracing changed the virtual plane: %+v vs %+v", traced.Virt, plain.Virt)
	}
	rep := newReport()
	for _, s := range []*summary{traced, plain} {
		for n, m := range s.Metrics {
			rep.metrics[n] = m
		}
		for n, why := range s.Unavailable {
			rep.unavailable[n] = why
		}
	}
	rep.set("host_cpu_ms_per_txn", "ms", plain.CPUMsPerTxn)
	rep.set("host_wall_ms_per_txn", "ms", plain.WallMsPerTxn)
	rep.set("trace.overhead_cpu", "share", traced.CPUMsPerTxn/plain.CPUMsPerTxn-1)
	rep.set("trace.overhead_wall", "share", traced.WallMsPerTxn/plain.WallMsPerTxn-1)
	return rep, nil
}

// parent runs each deployment of a benchmark run in a child process and
// combines their summaries.
type parent struct {
	workload string
	seed     int64
	out      string
}

func (p parent) spawn(kind string) (*summary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", kind, "-workload", p.workload,
		"-seed", strconv.FormatInt(p.seed, 10), "-out", p.out)
	cmd.Stderr = os.Stderr
	// A child must not outlive this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s deployment: %w", kind, err)
	}
	var sum summary
	if err := json.Unmarshal(b, &sum); err != nil {
		return nil, fmt.Errorf("%s deployment: %w", kind, err)
	}
	return &sum, nil
}

// plainRun repeats the seed's run until budget has passed and reports the
// end-to-end metrics: the virtual plane, which every repeat must reproduce
// exactly, and the medians of the host plane.
func (p parent) plainRun(budget time.Duration) (*result, *report, error) {
	start := time.Now()
	var rounds []*summary
	var setups, cpu, wall, heap []float64
	for len(rounds) == 0 || time.Since(start) < budget {
		r, err := p.spawn("plain")
		if err != nil {
			return nil, nil, err
		}
		if len(rounds) > 0 && r.Virt != rounds[0].Virt {
			return nil, nil, fmt.Errorf("repeat %d is not a replay of the first run: %+v vs %+v", len(rounds), r.Virt, rounds[0].Virt)
		}
		rounds = append(rounds, r)
		setups = append(setups, r.SetupS)
		cpu = append(cpu, r.CPUMsPerTxn)
		wall = append(wall, r.WallMsPerTxn)
		heap = append(heap, r.HeapMB)
	}
	for len(setups) < setupSamples {
		r, err := p.spawn("setup")
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, r.SetupS)
	}
	v := rounds[0].Virt
	if !v.P99OK {
		return nil, nil, fmt.Errorf("%d committed transactions cannot support a p99", v.committed())
	}
	rep := newReport()
	rep.set("tpmc", "tpmC", v.TpmC)
	rep.set("tps", "txn/s", v.Tps)
	rep.set("txn_p50_ms", "ms", v.P50Ms)
	rep.set("txn_p99_ms", "ms", v.P99Ms)
	rep.set("commit_rate", "share", float64(v.committed())/float64(v.attempted()))
	rep.set("abort_rate", "share", float64(sum(v.Aborted[:]))/float64(v.attempted()))
	rep.set("failed_share", "share", float64(v.Failed)/float64(v.attempted()))
	rep.set("msgs_per_txn", "msgs/txn", v.MsgsPerTxn)
	rep.set("bytes_per_txn", "B/txn", v.BytesPerTxn)
	rep.set("host_cpu_ms_per_txn", "ms", median(cpu))
	rep.set("host_wall_ms_per_txn", "ms", median(wall))
	rep.set("setup_s", "s", median(setups))
	rep.set("heap_mb", "MiB", median(heap))
	rep.set("repeats", "count", float64(len(rounds)))
	rep.set("committed", "count", float64(v.committed()))
	rep.set("virtual_elapsed_s", "s", v.ElapsedVirtualSec)
	res, err := resultLine(v, rep, endToEnd)
	return res, rep, err
}

// tracedRun runs the seed untraced, then traced, requires both to agree on
// the virtual plane, and reports the per-layer metrics.
func (p parent) tracedRun() (*result, *report, error) {
	plain, err := p.spawn("plain")
	if err != nil {
		return nil, nil, err
	}
	traced, err := p.spawn("traced")
	if err != nil {
		return nil, nil, err
	}
	rep, err := combine(plain, traced)
	if err != nil {
		return nil, nil, err
	}
	res, err := resultLine(traced.Virt, rep, perLayer)
	return res, rep, err
}

// resultLine builds the final JSON line from the listed metrics, all of
// which must have been measured.
func resultLine(v virtualPlane, rep *report, names []struct{ name, unit string }) (*result, error) {
	res := &result{Correct: true, Attempted: v.attempted(), Failed: v.Failed, Metrics: map[string]metric{}}
	for _, m := range names {
		got, ok := rep.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s unavailable: %s", m.name, rep.unavailable[m.name])
		}
		if got.Unit != m.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
		res.Metrics[m.name] = got
	}
	return res, nil
}

func printReport(rep *report) {
	var names []string
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	names = names[:0]
	for n := range rep.unavailable {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s unavailable: %s\n", n, rep.unavailable[n])
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
