package main

import (
	"fmt"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/histcheck"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// Deployment is the shape of the system under test. The defaults mirror
// exp.RunTell's (8 workers per PN, 2 terminals per worker, greedy store
// batching, 1 ms CM sync, inner-node cache on); the assembly is repeated
// here because RunTell builds its simnet internally, where no wrapper can
// reach it. TestAssemblyMatchesRunTell keeps the two in step.
type Deployment struct {
	PNs, SNs, CMs      int
	RF                 int
	Workers            int // per PN
	TerminalsPerWorker int
	Warehouses         int
	Scale              float64
	Mix                tpcc.Mix
	Warmup, Measure    int // transactions
}

func (d Deployment) terminals() int { return d.PNs * d.Workers * d.TerminalsPerWorker }

func (d Deployment) tpccConfig(seed int64) tpcc.Config {
	return tpcc.Config{Warehouses: d.Warehouses, Scale: d.Scale, Seed: seed}
}

// system is one assembled deployment on a fresh simulator.
type system struct {
	dep       Deployment
	seed      int64
	k         *sim.Kernel
	envr      env.Full
	net       *transport.SimNet
	cluster   *store.Cluster
	cms       []*commitmgr.Server
	pns       []*core.PN
	clients   []*store.Client
	cmClients []*commitmgr.Client
	hist      *histcheck.History // traced rounds only
	tr        *tracer            // traced rounds only
	tables    []*core.TableInfo  // every PN's open tables, once the engines are open
}

// assemble builds and loads a deployment. With a tracer, every component is
// handed the tracing wrapper around the simnet, and the goroutines each
// component starts are labelled with its role for the CPU profile.
func assemble(dep Deployment, seed int64, t *tracer) (*system, error) {
	s := &system{dep: dep, seed: seed, tr: t}
	s.k = sim.NewKernel(seed)
	s.envr = env.NewSim(s.k)
	s.net = transport.NewSimNet(s.k, transport.InfiniBand())
	var tr transport.Transport = s.net
	if t != nil {
		tr = &tracedNet{inner: s.net, t: t}
	}

	t.label(roleSN)
	cluster, err := store.NewCluster(s.envr, tr, store.ClusterConfig{NumNodes: dep.SNs, ReplicationFactor: dep.RF})
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	if _, err := tpcc.Load(cluster, dep.tpccConfig(seed)); err != nil {
		return nil, err
	}

	t.label(roleCM)
	var cmIDs []string
	for i := 0; i < dep.CMs; i++ {
		cmIDs = append(cmIDs, fmt.Sprintf("cm%d", i))
	}
	for _, addr := range cmIDs {
		node := s.envr.NewNode(addr, 2)
		cm := commitmgr.New(addr, addr, s.envr, node, tr, cluster.NewClient(node))
		cm.Peers = cmIDs
		cm.SyncInterval = time.Millisecond
		if err := cm.Start(); err != nil {
			return nil, err
		}
		s.cms = append(s.cms, cm)
	}

	t.label(rolePN)
	for i := 0; i < dep.PNs; i++ {
		name := fmt.Sprintf("pn%d", i)
		node := s.envr.NewNode(name, 4)
		sc := cluster.NewClient(node)
		sc.BatchWindow = 0 // greedy, as RunTell on the simulated fabric
		order := append([]string{cmIDs[i%len(cmIDs)]}, cmIDs...)
		cmc := commitmgr.NewClient(s.envr, node, tr, order)
		cmc.Coalesce = true
		cmc.DeltaSnapshots = true
		pn := core.New(core.Config{ID: name, Workers: dep.Workers, CacheIndexInner: true},
			s.envr, node, tr, sc, cmc)
		pn.StartWorkers()
		s.pns = append(s.pns, pn)
		s.clients = append(s.clients, sc)
		s.cmClients = append(s.cmClients, cmc)
	}
	t.label(roleSim)
	return s, nil
}

// recordHistory installs an SI history recorder on every PN.
func (s *system) recordHistory() {
	s.hist = histcheck.New()
	for _, pn := range s.pns {
		pn.SetRecorder(s.hist)
	}
}

// drive opens the engines and runs the TPC-C driver as RunTell does.
// opened is called (on the simulator) once the engines are open, which ends
// set-up; wrap wraps each engine before the driver sees it. After the
// driver returns, final is called before the kernel stops, still on the
// simulator, so it reads counters exactly where RunTell reads them. With a
// nil final the kernel stops right after the engines open.
func (s *system) drive(opened func(), wrap func(tpcc.Engine) tpcc.Engine,
	final func(ctx env.Ctx, res *tpcc.Result)) error {
	driverNode := s.envr.NewNode("terminals", 4)
	var runErr error
	done := false
	s.tr.label(rolePN) // the driver and its terminals inherit the label
	driverNode.Go("driver", func(ctx env.Ctx) {
		defer s.k.Stop()
		var engines []tpcc.Engine
		for _, pn := range s.pns {
			eng, err := tpcc.NewTellEngine(ctx, pn)
			if err != nil {
				runErr = err
				return
			}
			engines = append(engines, wrap(eng))
			for _, name := range pn.Catalog().Tables() {
				t, err := pn.Catalog().OpenTable(ctx, name) // cached by the engine
				if err != nil {
					runErr = err
					return
				}
				s.tables = append(s.tables, t)
			}
		}
		opened()
		if final == nil {
			done = true
			return
		}
		drv := tpcc.NewDriver(s.dep.tpccConfig(s.seed), s.dep.Mix, engines, s.dep.terminals(), s.seed)
		res := drv.Run(ctx, s.envr, driverNode, s.dep.Warmup, s.dep.Measure)
		final(ctx, res)
		done = true
	})
	s.tr.label(roleSim)
	err := s.k.RunUntil(sim.Time(6 * time.Hour))
	if err == nil {
		err = runErr
	}
	if err == nil && !done {
		err = fmt.Errorf("run did not complete within the virtual deadline")
	}
	return err
}

// shutdown ends every simulated process of the deployment.
func (s *system) shutdown() { s.k.Shutdown() }
