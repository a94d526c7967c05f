package btree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tell/internal/btree"
	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
	"tell/internal/wire"
)

type treeHarness struct {
	k       *sim.Kernel
	envr    env.Full
	net     *transport.SimNet
	cluster *store.Cluster
	pn      env.Node
	client  *store.Client
}

func newTreeHarness(t *testing.T, nodes int) *treeHarness {
	t.Helper()
	k := sim.NewKernel(testutil.Seed(t, 11))
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	pn := envr.NewNode("pn0", 4)
	return &treeHarness{k: k, envr: envr, net: net, cluster: cl, pn: pn, client: cl.NewClient(pn)}
}

func (h *treeHarness) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	done := false
	h.pn.Go("test", func(ctx env.Ctx) {
		fn(ctx)
		done = true
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test activity did not finish")
	}
	h.k.Shutdown()
}

func key(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

func TestInsertLookupSmall(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		if err := btree.Create(ctx, "t", h.client); err != nil {
			t.Fatal(err)
		}
		tr := btree.New("t", h.client)
		for i := 0; i < 10; i++ {
			existed, err := tr.Insert(ctx, key(i), val(i))
			if err != nil || existed {
				t.Fatalf("insert %d: existed=%v err=%v", i, existed, err)
			}
		}
		// Duplicate insert reports existed.
		existed, err := tr.Insert(ctx, key(3), []byte("other"))
		if err != nil || !existed {
			t.Fatalf("dup insert: existed=%v err=%v", existed, err)
		}
		for i := 0; i < 10; i++ {
			v, ok, err := tr.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("lookup %d: %q %v %v", i, v, ok, err)
			}
		}
		if _, ok, _ := tr.Lookup(ctx, []byte("nope")); ok {
			t.Fatal("phantom key found")
		}
	})
}

func TestInsertCausesSplitsAndStaysConsistent(t *testing.T) {
	h := newTreeHarness(t, 3)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8 // force deep trees quickly
		const n = 500
		perm := rand.New(rand.NewSource(1)).Perm(n)
		for _, i := range perm {
			if _, err := tr.Insert(ctx, key(i), val(i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			v, ok, err := tr.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("lookup %d after splits: %v %v", i, ok, err)
			}
		}
		// Full scan returns everything in order.
		var got []string
		if err := tr.Scan(ctx, nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("scan returned %d keys, want %d", len(got), n)
		}
		if !sort.StringsAreSorted(got) {
			t.Fatal("scan out of order")
		}
	})
}

func TestUpdateAndDelete(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8
		for i := 0; i < 100; i++ {
			tr.Insert(ctx, key(i), val(i))
		}
		ok, err := tr.Update(ctx, key(42), []byte("updated"))
		if err != nil || !ok {
			t.Fatalf("update: %v %v", ok, err)
		}
		v, _, _ := tr.Lookup(ctx, key(42))
		if string(v) != "updated" {
			t.Fatalf("value = %q", v)
		}
		if ok, _ := tr.Update(ctx, []byte("ghost"), nil); ok {
			t.Fatal("update of missing key reported ok")
		}
		// Delete half the keys.
		for i := 0; i < 100; i += 2 {
			ok, err := tr.Delete(ctx, key(i))
			if err != nil || !ok {
				t.Fatalf("delete %d: %v %v", i, ok, err)
			}
		}
		if ok, _ := tr.Delete(ctx, key(2)); ok {
			t.Fatal("double delete reported ok")
		}
		for i := 0; i < 100; i++ {
			_, ok, _ := tr.Lookup(ctx, key(i))
			if want := i%2 == 1; ok != want {
				t.Fatalf("key %d present=%v want %v", i, ok, want)
			}
		}
	})
}

func TestScanRange(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8
		for i := 0; i < 200; i++ {
			tr.Insert(ctx, key(i), val(i))
		}
		var got []string
		tr.Scan(ctx, key(50), key(60), func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
		if len(got) != 10 || got[0] != string(key(50)) || got[9] != string(key(59)) {
			t.Fatalf("got %v", got)
		}
		// Early termination.
		n := 0
		tr.Scan(ctx, key(0), nil, func(k, v []byte) bool {
			n++
			return n < 7
		})
		if n != 7 {
			t.Fatalf("early stop at %d", n)
		}
	})
}

func TestConcurrentInsertsFromMultiplePNs(t *testing.T) {
	// The latch-free property: several PNs (each with its own Tree handle
	// and cache) insert concurrently; every key must be found afterwards.
	h := newTreeHarness(t, 3)
	const pns = 4
	const perPN = 150
	done := 0
	var trees []*btree.Tree
	setup := false
	h.pn.Go("create", func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		setup = true
	})
	for p := 0; p < pns; p++ {
		p := p
		node := h.envr.NewNode(fmt.Sprintf("pn%d", p+1), 4)
		client := h.cluster.NewClient(node)
		tr := btree.New("t", client)
		tr.MaxKeys = 8
		trees = append(trees, tr)
		node.Go("inserter", func(ctx env.Ctx) {
			for !setup {
				ctx.Sleep(time.Millisecond)
			}
			for i := 0; i < perPN; i++ {
				k := key(p*perPN + i)
				if _, err := tr.Insert(ctx, k, val(i)); err != nil {
					t.Errorf("pn%d insert %d: %v", p, i, err)
					break
				}
			}
			done++
		})
	}
	h.pn.Go("checker", func(ctx env.Ctx) {
		for done < pns {
			ctx.Sleep(time.Millisecond)
		}
		// Verify through a fresh handle (no warm cache).
		verify := btree.New("t", h.client)
		for i := 0; i < pns*perPN; i++ {
			_, ok, err := verify.Lookup(ctx, key(i))
			if err != nil || !ok {
				t.Errorf("key %d missing after concurrent inserts: %v", i, err)
			}
		}
		count := 0
		verify.Scan(ctx, nil, nil, func(k, v []byte) bool {
			count++
			return true
		})
		if count != pns*perPN {
			t.Errorf("scan count %d, want %d", count, pns*perPN)
		}
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if done != pns {
		t.Fatalf("only %d/%d inserters finished", done, pns)
	}
	h.k.Shutdown()
}

func TestConcurrentSameKeyInsertOnlyOneWins(t *testing.T) {
	h := newTreeHarness(t, 2)
	const pns = 4
	existedCount, insertedCount := 0, 0
	done := 0
	setup := false
	h.pn.Go("create", func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		setup = true
	})
	for p := 0; p < pns; p++ {
		node := h.envr.NewNode(fmt.Sprintf("pn%d", p+1), 2)
		tr := btree.New("t", h.cluster.NewClient(node))
		node.Go("racer", func(ctx env.Ctx) {
			for !setup {
				ctx.Sleep(time.Millisecond)
			}
			existed, err := tr.Insert(ctx, []byte("contended"), []byte("x"))
			if err != nil {
				t.Errorf("insert: %v", err)
			} else if existed {
				existedCount++
			} else {
				insertedCount++
			}
			done++
			if done == pns {
				h.k.Stop()
			}
		})
	}
	if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if insertedCount != 1 || existedCount != pns-1 {
		t.Fatalf("inserted=%d existed=%d", insertedCount, existedCount)
	}
	h.k.Shutdown()
}

func TestInnerNodeCachingReducesReads(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		loader := btree.New("t", h.client)
		loader.MaxKeys = 8
		for i := 0; i < 300; i++ {
			loader.Insert(ctx, key(i), val(i))
		}
		lookups := func(cache bool) (reads uint64) {
			tr := btree.New("t", h.cluster.NewClient(h.pn))
			tr.CacheInner = cache
			for i := 0; i < 200; i++ {
				if _, ok, err := tr.Lookup(ctx, key(i%300)); !ok || err != nil {
					t.Fatalf("lookup: %v %v", ok, err)
				}
			}
			r, _ := tr.Stats()
			return r
		}
		withCache := lookups(true)
		withoutCache := lookups(false)
		if withCache >= withoutCache {
			t.Fatalf("caching did not reduce reads: %d >= %d", withCache, withoutCache)
		}
		t.Logf("store reads: cached=%d uncached=%d", withCache, withoutCache)
	})
}

// nodeGet is one observed store Get of a tree node: the stamp the request
// carried and what the response shipped back.
type nodeGet struct {
	sent   uint64
	status wire.Status
	valLen int
	stamp  uint64
}

// nodeGetRecorder watches the simulated network (through the fault hook,
// injecting nothing) and records every Get of a key under prefix, pairing
// each single-op request with the response that follows it.
type nodeGetRecorder struct {
	prefix  []byte
	pending []*nodeGet // requests awaiting their response; nil = not a node Get
	gets    []*nodeGet
}

func (r *nodeGetRecorder) observe(_, _ string, payload []byte) transport.Fault {
	switch wire.PeekKind(payload) {
	case wire.KindStoreReq:
		req, err := wire.DecodeStoreRequest(payload)
		if err != nil || len(req.Ops) != 1 {
			return transport.Fault{}
		}
		var g *nodeGet
		if op := req.Ops[0]; op.Code == wire.OpGet && bytes.HasPrefix(op.Key, r.prefix) {
			g = &nodeGet{sent: op.Stamp}
			r.gets = append(r.gets, g)
		}
		r.pending = append(r.pending, g)
	case wire.KindStoreResp:
		resp, err := wire.DecodeStoreResponse(payload)
		if err != nil || len(r.pending) == 0 {
			return transport.Fault{}
		}
		g := r.pending[0]
		r.pending = r.pending[1:]
		if g != nil && len(resp.Results) == 1 {
			g.status, g.valLen, g.stamp = resp.Results[0].Status, len(resp.Results[0].Val), resp.Results[0].Stamp
		}
	}
	return transport.Fault{}
}

// TestUnchangedLeafShipsNoBytes pins the leaf cache: a second lookup of an
// unchanged leaf still costs exactly one store Get, which returns the
// leaf's current LL stamp but ships no value bytes. Once another handle
// rewrites the leaf, the next lookup ships the new image under a new stamp.
func TestUnchangedLeafShipsNoBytes(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		loader := btree.New("t", h.client)
		loader.MaxKeys = 8
		for i := 0; i < 40; i++ {
			loader.Insert(ctx, key(i), val(i))
		}
		tr := btree.New("t", h.cluster.NewClient(h.pn))
		rec := &nodeGetRecorder{prefix: []byte("idx/t/n/")}
		h.net.SetFaultFn(rec.observe)
		// lookup runs one Lookup of key 17 and returns the node Gets it
		// issued; the last one is the leaf (no right-moves in a quiet tree).
		lookup := func(want []byte) []*nodeGet {
			t.Helper()
			before := len(rec.gets)
			v, ok, err := tr.Lookup(ctx, key(17))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("lookup: %q %v %v", v, ok, err)
			}
			return rec.gets[before:]
		}
		first := lookup(val(17))
		leaf := first[len(first)-1]
		if leaf.sent != 0 || leaf.status != wire.StatusOK || leaf.valLen == 0 {
			t.Fatalf("cold leaf read: %+v, want an unconditional read shipping the leaf", *leaf)
		}
		second := lookup(val(17))
		if len(second) != 1 {
			t.Fatalf("warm lookup issued %d node Gets, want 1 (the leaf)", len(second))
		}
		if g := second[0]; g.sent != leaf.stamp || g.status != wire.StatusUnchanged || g.valLen != 0 || g.stamp != leaf.stamp {
			t.Fatalf("warm leaf read: %+v, want Unchanged at stamp %d with no value bytes", *g, leaf.stamp)
		}
		// Another handle rewrites the leaf: the next revalidation ships it.
		other := btree.New("t", h.client)
		if ok, err := other.Update(ctx, key(17), []byte("new")); !ok || err != nil {
			t.Fatalf("update: %v %v", ok, err)
		}
		third := lookup([]byte("new"))
		if len(third) != 1 {
			t.Fatalf("lookup after a remote write issued %d node Gets, want 1", len(third))
		}
		if g := third[0]; g.sent != leaf.stamp || g.status != wire.StatusOK || g.valLen == 0 || g.stamp <= leaf.stamp {
			t.Fatalf("leaf read after a remote write: %+v, want the new image under a stamp above %d", *g, leaf.stamp)
		}
		h.net.SetFaultFn(nil)
	})
}

func TestCacheStaysCorrectAcrossRemoteSplits(t *testing.T) {
	// PN A warms its cache, PN B splits nodes; A's reads must stay correct
	// via right-moves and parent refreshes (§5.3.1).
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		a := btree.New("t", h.client)
		a.MaxKeys = 8
		for i := 0; i < 50; i++ {
			a.Insert(ctx, key(i*10), val(i*10)) // sparse keys
		}
		// Warm A's cache.
		for i := 0; i < 50; i++ {
			a.Lookup(ctx, key(i*10))
		}
		// B inserts many keys between A's, splitting leaves A knows.
		nodeB := h.envr.NewNode("pnB", 4)
		b := btree.New("t", h.cluster.NewClient(nodeB))
		b.MaxKeys = 8
		for i := 0; i < 500; i++ {
			if _, err := b.Insert(ctx, key(i), val(i)); err != nil {
				t.Fatalf("b insert: %v", err)
			}
		}
		// A (with its stale cache) must see everything.
		for i := 0; i < 500; i++ {
			v, ok, err := a.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("stale-cache lookup %d: %v %v", i, ok, err)
			}
		}
	})
}

func TestBulkBuildMatchesInsertedTree(t *testing.T) {
	h := newTreeHarness(t, 3)
	const n = 400
	var pairs []btree.Pair
	for i := 0; i < n; i++ {
		pairs = append(pairs, btree.Pair{Key: key(i), Val: val(i)})
	}
	err := btree.BulkBuild("bulk", pairs, 16, h.cluster.BulkLoad, h.cluster.BulkLoadCounter)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, func(ctx env.Ctx) {
		tr := btree.New("bulk", h.client)
		tr.MaxKeys = 16
		for i := 0; i < n; i++ {
			v, ok, err := tr.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("lookup %d: %v %v", i, ok, err)
			}
		}
		// The bulk-built tree supports normal inserts (ids must not
		// collide with preallocated nodes).
		for i := n; i < n+100; i++ {
			if _, err := tr.Insert(ctx, key(i), val(i)); err != nil {
				t.Fatalf("post-bulk insert %d: %v", i, err)
			}
		}
		count := 0
		tr.Scan(ctx, nil, nil, func(k, v []byte) bool { count++; return true })
		if count != n+100 {
			t.Fatalf("scan count %d, want %d", count, n+100)
		}
	})
}

func TestBulkBuildRejectsUnsortedInput(t *testing.T) {
	pairs := []btree.Pair{{Key: []byte("b")}, {Key: []byte("a")}}
	err := btree.BulkBuild("x", pairs, 16,
		func(k, v []byte) error { return nil },
		func(k []byte, v int64) error { return nil })
	if err == nil {
		t.Fatal("unsorted input accepted")
	}
}

func TestBulkBuildEmpty(t *testing.T) {
	h := newTreeHarness(t, 1)
	if err := btree.BulkBuild("empty", nil, 16, h.cluster.BulkLoad, h.cluster.BulkLoadCounter); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(ctx env.Ctx) {
		tr := btree.New("empty", h.client)
		if _, ok, err := tr.Lookup(ctx, []byte("k")); ok || err != nil {
			t.Fatalf("lookup on empty: %v %v", ok, err)
		}
		if _, err := tr.Insert(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("insert into empty bulk tree: %v", err)
		}
	})
}

// TestTreePropertyRandomOpsAgainstMap runs randomized operations against a
// reference map.
func TestTreePropertyRandomOpsAgainstMap(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8
		rng := rand.New(rand.NewSource(99))
		ref := make(map[string]string)
		for step := 0; step < 1500; step++ {
			i := rng.Intn(300)
			k := key(i)
			switch rng.Intn(4) {
			case 0, 1:
				v := fmt.Sprintf("v%d-%d", i, step)
				if _, ok := ref[string(k)]; ok {
					tr.Update(ctx, k, []byte(v))
				} else if _, err := tr.Insert(ctx, k, []byte(v)); err != nil {
					t.Fatalf("insert: %v", err)
				}
				ref[string(k)] = v
			case 2:
				ok, err := tr.Delete(ctx, k)
				if err != nil {
					t.Fatalf("delete: %v", err)
				}
				if _, inRef := ref[string(k)]; inRef != ok {
					t.Fatalf("delete presence mismatch for %s", k)
				}
				delete(ref, string(k))
			case 3:
				v, ok, err := tr.Lookup(ctx, k)
				if err != nil {
					t.Fatalf("lookup: %v", err)
				}
				want, inRef := ref[string(k)]
				if ok != inRef || (ok && string(v) != want) {
					t.Fatalf("lookup mismatch for %s: got %q/%v want %q/%v", k, v, ok, want, inRef)
				}
			}
		}
		// Final full comparison via scan.
		got := make(map[string]string)
		tr.Scan(ctx, nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
		if len(got) != len(ref) {
			t.Fatalf("scan size %d, ref %d", len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("mismatch at %s: %q != %q", k, got[k], v)
			}
		}
	})
}
