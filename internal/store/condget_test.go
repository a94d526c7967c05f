package store_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/store"
)

// held is a copy of a cell a caller keeps, with the stamp it was read at.
type held struct {
	key, val []byte
	stamp    uint64
}

// hold reads key and returns the caller's copy.
func hold(t *testing.T, ctx env.Ctx, c *store.Client, key string) held {
	t.Helper()
	val, stamp, err := c.Get(ctx, []byte(key))
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return held{key: []byte(key), val: append([]byte(nil), val...), stamp: stamp}
}

// revalidate runs a conditional Get for h and checks it against an
// unconditional Get of the same key: Unchanged is only allowed when the
// store still holds exactly h's bytes under h's stamp, and a changed answer
// must carry the current value and stamp. It returns whether the cell
// changed.
func revalidate(t *testing.T, ctx env.Ctx, c *store.Client, h held) bool {
	t.Helper()
	val, stamp, changed, err := c.GetIfChanged(ctx, h.key, h.stamp)
	if err != nil {
		t.Fatalf("get-if-changed %s@%d: %v", h.key, h.stamp, err)
	}
	cur, curStamp, err := c.Get(ctx, h.key)
	if err != nil {
		t.Fatalf("get %s: %v", h.key, err)
	}
	if !changed {
		if val != nil || stamp != h.stamp {
			t.Fatalf("%s@%d: unchanged answer carries val %q stamp %d", h.key, h.stamp, val, stamp)
		}
		if curStamp != h.stamp || !bytes.Equal(cur, h.val) {
			t.Fatalf("%s@%d: unchanged, but the store holds %q@%d, not %q", h.key, h.stamp, cur, curStamp, h.val)
		}
		return false
	}
	if stamp == h.stamp {
		t.Fatalf("%s@%d: changed answer repeats the held stamp", h.key, h.stamp)
	}
	if stamp != curStamp || !bytes.Equal(val, cur) {
		t.Fatalf("%s@%d: changed answer %q@%d, store holds %q@%d", h.key, h.stamp, val, stamp, cur, curStamp)
	}
	return true
}

func TestGetIfChangedCells(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		if _, _, _, err := h.client.GetIfChanged(ctx, []byte("missing"), 7); err != store.ErrNotFound {
			t.Fatalf("missing key: %v", err)
		}
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v1")); err != nil {
			t.Fatal(err)
		}
		v1 := hold(t, ctx, h.client, "k")
		// have = 0 is an unconditional read.
		if val, stamp, changed, err := h.client.GetIfChanged(ctx, v1.key, 0); err != nil || !changed || string(val) != "v1" || stamp != v1.stamp {
			t.Fatalf("unconditional: %q@%d changed=%v err=%v", val, stamp, changed, err)
		}
		if revalidate(t, ctx, h.client, v1) {
			t.Fatal("untouched cell reported changed")
		}
		if _, err := h.client.CondPut(ctx, v1.key, []byte("v2"), v1.stamp); err != nil {
			t.Fatal(err)
		}
		if !revalidate(t, ctx, h.client, v1) {
			t.Fatal("overwritten cell reported unchanged")
		}
		// Rewriting the same bytes still moves the stamp: the copy is
		// re-shipped, never matched by content.
		v2 := hold(t, ctx, h.client, "k")
		if _, err := h.client.Put(ctx, v2.key, v2.val); err != nil {
			t.Fatal(err)
		}
		if !revalidate(t, ctx, h.client, v2) {
			t.Fatal("rewritten cell reported unchanged")
		}
	})
}

func TestGetIfChangedAcrossTombstone(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		if _, err := h.client.CondPut(ctx, []byte("k"), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		before := hold(t, ctx, h.client, "k")
		if err := h.client.Delete(ctx, before.key, before.stamp); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := h.client.GetIfChanged(ctx, before.key, before.stamp); err != store.ErrNotFound {
			t.Fatalf("tombstoned cell: %v, want not found", err)
		}
		// Re-insert the very same bytes: the new cell has a new stamp, so
		// the pre-delete copy must not validate against it.
		if _, err := h.client.CondPut(ctx, before.key, before.val, 0); err != nil {
			t.Fatal(err)
		}
		if !revalidate(t, ctx, h.client, before) {
			t.Fatal("re-inserted cell validated a pre-delete stamp")
		}
	})
}

func TestGetIfChangedReplicaRead(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 2, ReplicationFactor: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v1")); err != nil {
			t.Fatal(err)
		}
		old := hold(t, ctx, h.client, "k")
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v2")); err != nil {
			t.Fatal(err)
		}
		cur := hold(t, ctx, h.client, "k")
		pm, err := h.client.FetchMap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		part, _ := pm.LookupKey(old.key)
		for i := 0; i < 8; i++ {
			h.client.Resil.Breakers.Failure(part.Master, ctx.Now())
		}
		if !h.client.Resil.Breakers.Open(part.Master, ctx.Now()) {
			t.Fatal("breaker did not open")
		}
		// Both reads of revalidate go to the replica while the breaker is
		// open.
		if !revalidate(t, ctx, h.client, old) {
			t.Fatal("replica validated a superseded stamp")
		}
		if revalidate(t, ctx, h.client, cur) {
			t.Fatal("replica re-shipped an unchanged cell")
		}
	})
}

// checkHeld writes every other held key anew, then revalidates all of them:
// the rewritten ones must report changed, the others must still validate.
func checkHeld(t *testing.T, ctx env.Ctx, c *store.Client, hs []held) {
	t.Helper()
	for i, x := range hs {
		if i%2 == 0 {
			if _, err := c.Put(ctx, x.key, []byte("after")); err != nil {
				t.Fatalf("put %s: %v", x.key, err)
			}
		}
	}
	for i, x := range hs {
		if changed, rewritten := revalidate(t, ctx, c, x), i%2 == 0; changed != rewritten {
			t.Fatalf("%s: changed=%v, rewritten=%v", x.key, changed, rewritten)
		}
	}
}

func holdMany(t *testing.T, ctx env.Ctx, c *store.Client, n int) []held {
	t.Helper()
	hs := make([]held, n)
	for i := range hs {
		k := fmt.Sprintf("%03d-held", i) // leading digits spread FNV hashes
		if _, err := c.Put(ctx, []byte(k), []byte("before-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		hs[i] = hold(t, ctx, c, k)
	}
	return hs
}

// heldOn counts the held keys whose partition satisfies pred.
func heldOn(t *testing.T, ctx env.Ctx, c *store.Client, hs []held, pred func(*store.Partition) bool) int {
	t.Helper()
	pm, err := c.FetchMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, x := range hs {
		if p, ok := pm.LookupKey(x.key); ok && pred(p) {
			n++
		}
	}
	return n
}

func TestGetIfChangedAcrossPromotion(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, ReplicationFactor: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		hs := holdMany(t, ctx, h.client, 40)
		if n := heldOn(t, ctx, h.client, hs, func(p *store.Partition) bool { return p.Master == "sn0" }); n == 0 {
			t.Fatal("no held key is mastered by the node about to fail")
		}
		h.net.SetDown("sn0", true)
		ctx.Sleep(500 * time.Millisecond)
		checkHeld(t, ctx, h.client, hs)
	})
	if h.cluster.Manager.Failovers() != 1 {
		t.Fatalf("failovers = %d", h.cluster.Manager.Failovers())
	}
}

func TestGetIfChangedAcrossMigration(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 2, PartitionsPerNode: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		hs := holdMany(t, ctx, h.client, 40)
		pid := pickPartition(t, h.cluster.Manager, "sn0")
		if n := heldOn(t, ctx, h.client, hs, func(p *store.Partition) bool { return p.ID == pid }); n == 0 {
			t.Fatal("no held key lies in the migrating partition")
		}
		mig := h.envr.NewFuture()
		h.cluster.Manager.Node().Go("migrate", func(mctx env.Ctx) {
			mig.Set(errWrap{h.cluster.Manager.MigratePartition(mctx, pid, "sn1")})
		})
		if err := mig.Get(ctx).(errWrap).err; err != nil {
			t.Fatalf("migrate: %v", err)
		}
		if got := masterOf(t, h.cluster.Manager, pid); got != "sn1" {
			t.Fatalf("post-cutover master = %s, want sn1", got)
		}
		checkHeld(t, ctx, h.client, hs)
	})
}
