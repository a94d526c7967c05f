package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/exp"
	"tell/internal/sim"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// small is a deployment shaped like the benchmark's, scaled down so a test
// runs in seconds.
func small(mix tpcc.Mix) Deployment {
	d := base()
	d.Warehouses, d.Scale = 4, 0.02
	d.Warmup, d.Measure = 30, 300
	d.Mix = mix
	return d
}

func TestAssemblyMatchesRunTell(t *testing.T) {
	for _, mix := range []tpcc.Mix{tpcc.StandardMix(), tpcc.ReadIntensiveMix()} {
		dep := small(mix)
		const seed = 7
		r, err := runRound(dep, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := exp.RunTell(exp.Options{Warehouses: dep.Warehouses, Scale: dep.Scale,
			Warmup: dep.Warmup, Measure: dep.Measure, TerminalsPerWorker: dep.TerminalsPerWorker, Seed: seed},
			exp.TellParams{PNs: dep.PNs, SNs: dep.SNs, CMs: dep.CMs, ReplicationFactor: dep.RF,
				Workers: dep.Workers, Mix: mix})
		if err != nil {
			t.Fatal(err)
		}
		if r.virt.TpmC != ref.Result.TpmC() || r.virt.MsgsPerTxn != ref.MsgsPerTxn || r.virt.BytesPerTxn != ref.BytesPerTxn {
			t.Errorf("%s: benchmark tpmC=%v msgs/txn=%v bytes/txn=%v, exp.RunTell %v %v %v", mix.Name,
				r.virt.TpmC, r.virt.MsgsPerTxn, r.virt.BytesPerTxn, ref.Result.TpmC(), ref.MsgsPerTxn, ref.BytesPerTxn)
		}
	}
}

func TestTracedTransportPassesBytesThrough(t *testing.T) {
	k := sim.NewKernel(1)
	envr := env.NewSim(k)
	tr := newTracer()
	net := &tracedNet{inner: transport.NewSimNet(k, transport.InfiniBand()), t: tr}
	srv, cli := envr.NewNode("sn0", 1), envr.NewNode("pn0", 1)
	var seen []byte
	resp := []byte{9, 8, 7, 6}
	if err := net.Listen("sn0", srv, func(ctx env.Ctx, req []byte) []byte {
		seen = append([]byte(nil), req...)
		return resp
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial(cli, "sn0")
	if err != nil {
		t.Fatal(err)
	}
	req := []byte{1, 2, 3, 4, 5}
	var got []byte
	cli.Go("client", func(ctx env.Ctx) {
		defer k.Stop()
		got, err = conn.RoundTrip(ctx, req)
	})
	if rerr := k.RunUntil(sim.Time(time.Second)); rerr != nil {
		t.Fatal(rerr)
	}
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, req) || !bytes.Equal(got, resp) || &got[0] != &resp[0] {
		t.Fatalf("request %v arrived as %v; response %v returned as %v", req, seen, resp, got)
	}
	if tt, ok := conn.(transport.TransferTimer); !ok || tt.TransferTime(100) != transport.InfiniBand().TransferTime(100) {
		t.Fatal("wrapped connection does not forward the wire-time model")
	}
	var rt, h *span
	for i := range tr.spans {
		switch tr.spans[i].kind {
		case spanRT:
			rt = &tr.spans[i]
		case spanHandler:
			h = &tr.spans[i]
		}
	}
	if rt == nil || h == nil || h.parent != rt.id || rt.service != h.end-h.start {
		t.Fatalf("spans not linked: rt=%+v handler=%+v", rt, h)
	}
}

// namedLayerMetrics are the per-layer metrics the benchmark's definition names.
// Every one must be measured on a traced run or listed as unavailable.
var namedLayerMetrics = []string{
	"core.store_ops_per_txn", "host.cpu_share.core",
	"btree.node_reads_per_txn", "btree.inner_hit_ratio", "btree.leaf_condputs_per_txn",
	"btree.leaf_condput_fail_ratio", "host.cpu_share.btree",
	"store.client.ops_per_batch", "store.client.rtt_us_p50", "store.client.rtt_us_p99",
	"store.node.reqs_per_txn", "store.node.service_us_p50", "store.node.service_us_p99",
	"store.node.self_us_p50", "store.node.wait_us_p50", "store.node.condput_fail_per_txn.rec",
	"host.cpu_share.store", "host.cpu_share.role.sn",
	"store.repl.msgs_per_txn", "store.repl.bytes_per_txn", "store.repl.rtt_us_p50",
	"host.cpu_share.resil", "resil.retries_per_txn", "resil.replays", "store.node.sheds",
	"commitmgr.msgs_per_txn", "commitmgr.rtt_us_p50", "commitmgr.service_us_p50",
	"host.cpu_share.commitmgr", "host.cpu_share.role.cm", "txlog.writes_per_txn",
	"host.cpu_share.wire", "host.cpu_share.transport", "host.cpu_share.mvcc", "host.cpu_share.relational",
	"host.cpu_share.sim", "host.cpu_share.role.sim",
	"host.allocs_per_txn", "host.alloc_kb_per_txn", "host.gc_cpu_share", "host.gc_cycles_per_ktxn",
	"trace.overhead_cpu", "trace.overhead_wall", "host_cpu_ms_per_txn", "host_wall_ms_per_txn",
	"abort_rate", "failed_share",
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestTracedRun checks that tracing leaves the virtual plane exactly as the
// untraced run of the same seed has it, and that every metric is emitted
// with a unit or listed as unavailable with a reason.
func TestTracedRun(t *testing.T) {
	dep := small(tpcc.StandardMix())
	plain, err := runRound(dep, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(dep, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if traced.virt != plain.virt {
		t.Fatalf("tracing changed the virtual plane:\n traced %+v\nplain  %+v", traced.virt, plain.virt)
	}
	if len(traced.tr.spans) == 0 || len(traced.profile) == 0 {
		t.Fatal("traced run recorded no spans or no profile")
	}
	plainSum, err := summarize(plain)
	if err != nil {
		t.Fatal(err)
	}
	tracedSum, err := summarize(traced)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := combine(plainSum, tracedSum)
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string(nil), namedLayerMetrics...)
	for c := tpcc.TxType(0); c < nClasses; c++ {
		names = append(names, "tpcc."+c.String()+".p50_ms", "tpcc."+c.String()+".p99_ms", "tpcc."+c.String()+".n")
	}
	for _, n := range names {
		m, ok := rep.metrics[n]
		why, skipped := rep.unavailable[n]
		switch {
		case ok && m.Unit == "":
			t.Errorf("%s has no unit", n)
		case !ok && (!skipped || why == ""):
			t.Errorf("%s neither emitted nor listed as unavailable with a reason", n)
		}
	}
	for n, m := range rep.metrics {
		if !nameRE.MatchString(n) || m.Unit == "" {
			t.Errorf("bad metric %q unit %q", n, m.Unit)
		}
	}
	if _, err := resultLine(plain.virt, rep, perLayer); err != nil {
		// The small run cannot support every listed quantile; all others
		// must be there.
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok && rep.unavailable[m.name] == "" {
				t.Errorf("listed metric %s missing", m.name)
			}
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists in step with
// what the program emits.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || !nameRE.MatchString(got[i].Name) {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	for _, w := range file.Workloads {
		if _, ok := workloads()[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
}
