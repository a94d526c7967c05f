// Command telld runs one Tell cluster role as a real network daemon over
// TCP: a storage node, a commit manager, or the storage management node
// (the lookup service). A minimal three-machine cluster:
//
//	host0$ telld -role manager -listen host0:7000 -storage host1:7001,host2:7001 -rf 2
//	host1$ telld -role storage -listen host1:7001 -manager host0:7000
//	host2$ telld -role storage -listen host2:7001 -manager host0:7000
//	host0$ telld -role cm -listen host0:7002 -manager host0:7000 -id cm0
//
// Clients (cmd/tellcli, or an embedded processing node built on the
// internal packages) connect through the manager's lookup service.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/store"
	"tell/internal/trace"
	"tell/internal/transport"
)

func main() {
	var (
		role        = flag.String("role", "", "manager | storage | cm")
		listen      = flag.String("listen", "", "host:port to serve on")
		manager     = flag.String("manager", "", "management node address (storage, cm)")
		storageList = flag.String("storage", "", "comma-separated storage addresses (manager)")
		rf          = flag.Int("rf", 1, "replication factor (manager)")
		parts       = flag.Int("partitions-per-node", 1, "partitions per storage node (manager)")
		id          = flag.String("id", "", "unique id (cm role)")
		peers       = flag.String("peers", "", "comma-separated commit-manager ids (cm role)")
		walDir      = flag.String("wal-dir", "", "directory for the WAL and checkpoints (storage role); empty runs the node volatile")
		ckptBytes   = flag.Int("checkpoint-bytes", 64<<20, "WAL bytes between automatic fuzzy checkpoints (storage role with -wal-dir)")
		metricsAddr = flag.String("metrics", "", "host:port for the HTTP telemetry endpoint (/metrics Prometheus text, /telemetry full dump); empty disables")
	)
	flag.Parse()
	if *listen == "" || *role == "" {
		fmt.Fprintln(os.Stderr, "telld: -role and -listen are required")
		os.Exit(2)
	}

	// TELL_SEED pins the daemon's RNG for reproducible runs; without it
	// the seed is arbitrary (real deployments need no replayability).
	envr := env.NewReal(env.SeedFromEnv(time.Now().UnixNano()))
	// Counters-only tracing: running totals that ride the stats snapshot
	// as trace/* counter rows, no event buffering (full traces come from
	// the simulator).
	rec := trace.NewCounters(envr.Now)
	env.SetTracer(envr, rec)
	// Windowed series + heat + flight recorder: answers the stats protocol
	// (`tellcli stats`, `tellcli top`) and, with -metrics, a Prometheus
	// scrape.
	// Daemons use 1s windows; the 100ms default is sized for simulated runs.
	pipe := obs.New(obs.Config{Window: time.Second, AdaptiveOutliers: true}, envr.Now)
	rec.SetTap(pipe.Flight())
	if *metricsAddr != "" {
		serveMetrics(*metricsAddr, pipe)
	}
	tr := transport.NewTCPNet()
	node := envr.NewNode(*listen, 4)

	switch *role {
	case "manager":
		addrs := splitList(*storageList)
		if len(addrs) == 0 {
			log.Fatal("telld: manager needs -storage")
		}
		m := store.NewManager(*listen, envr, node, tr)
		m.ReplicationFactor = *rf
		m.PingInterval = 500 * time.Millisecond
		partsList := store.EvenPartitions(len(addrs) * *parts)
		for i := range partsList {
			owner := i % len(addrs)
			partsList[i].Master = addrs[owner]
			for r := 1; r < *rf; r++ {
				partsList[i].Replicas = append(partsList[i].Replicas, addrs[(owner+r)%len(addrs)])
			}
		}
		m.SetMap(&store.PartitionMap{Epoch: 1, Partitions: partsList})
		if err := m.Start(); err != nil {
			log.Fatalf("telld: %v", err)
		}
		log.Printf("management node serving on %s (%d storage nodes, rf=%d)", *listen, len(addrs), *rf)

	case "storage":
		if *manager == "" {
			log.Fatal("telld: storage needs -manager")
		}
		sn := store.NewNode(*listen, envr, node, tr, store.DefaultCosts())
		sn.SetObs(pipe)
		if *walDir != "" {
			be, err := durable.NewFile(*walDir)
			if err != nil {
				log.Fatalf("telld: wal dir: %v", err)
			}
			sn.AttachDurability(store.DurOptions{Backend: be, CheckpointBytes: *ckptBytes})
			// Replay checkpoint + WAL before serving: a restarted daemon
			// comes back with every acknowledged write it ever logged.
			ctx, _ := env.DetachedCtx(node)
			stats, err := sn.RecoverLocal(ctx)
			if err != nil {
				log.Fatalf("telld: wal replay: %v", err)
			}
			log.Printf("replayed %d records from %d segments (torn tail: %v)",
				stats.Records, stats.Segments, stats.Torn)
		}
		if err := sn.Start(); err != nil {
			log.Fatalf("telld: %v", err)
		}
		// Bootstrap: fetch the partition map from the lookup service.
		go bootstrapStorage(envr, node, tr, sn, *manager)
		log.Printf("storage node serving on %s", *listen)

	case "cm":
		if *manager == "" || *id == "" {
			log.Fatal("telld: cm needs -manager and -id")
		}
		sc := store.NewClient(envr, node, tr, *manager)
		cm := commitmgr.New(*id, *listen, envr, node, tr, sc)
		cm.SetObs(pipe)
		if p := splitList(*peers); len(p) > 0 {
			cm.Peers = p
		}
		// Adopt state a previous incarnation of this id published to the
		// store (no-op on a fresh cluster): with WAL-backed storage nodes
		// the store outlives the commit managers, and a cold start at
		// snapshot base 0 would hide every committed version.
		cmCtx, _ := env.DetachedCtx(node)
		cm.Resume(cmCtx)
		if err := cm.Start(); err != nil {
			log.Fatalf("telld: %v", err)
		}
		log.Printf("commit manager %s serving on %s", *id, *listen)

	default:
		log.Fatalf("telld: unknown role %q", *role)
	}
	select {} // serve forever
}

// serveMetrics starts the HTTP telemetry endpoint: /metrics is the
// Prometheus text exposition of the daemon's windowed series, heat rows and
// flight state; /telemetry is the full human-readable dump.
func serveMetrics(addr string, p *obs.Pipeline) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := p.WritePrometheus(w, p.Now()); err != nil {
			log.Printf("telld: metrics write: %v", err)
		}
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := p.WriteDump(w, p.Now()); err != nil {
			log.Printf("telld: telemetry write: %v", err)
		}
	})
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Fatalf("telld: metrics endpoint: %v", err)
		}
	}()
	log.Printf("telemetry endpoint on http://%s/metrics", addr)
}

// bootstrapStorage pulls the partition map until the manager is reachable.
func bootstrapStorage(envr env.Full, node env.Node, tr transport.Transport, sn *store.Node, manager string) {
	client := store.NewClient(envr, node, tr, manager)
	ctx, _ := env.DetachedCtx(node)
	for {
		if m, err := client.FetchMap(ctx); err == nil {
			sn.Configure(m)
			log.Printf("configured from %s (epoch %d, %d partitions)",
				manager, m.Epoch, len(m.Partitions))
			return
		}
		ctx.Sleep(time.Second)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
