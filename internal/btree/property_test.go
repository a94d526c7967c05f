package btree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tell/internal/btree"
	"tell/internal/env"
	"tell/internal/testutil"
)

// treeOp is one step of a generated operation log.
type treeOp struct {
	kind byte // 'i' insert, 'd' delete, 'u' update, 'l' lookup, 's' scan, 'b' batches
	key  int
	val  int
	// h is the Tree handle a single-key op or scan runs on, so handles
	// read leaves that other handles wrote into their caches.
	h int
	// batches holds, for kind 'b', one InsertMany batch per Tree handle;
	// the handles run their batches concurrently.
	batches [][]kv
}

// kv is one (key, val) pair of an InsertMany batch.
type kv struct{ key, val int }

func (o treeOp) String() string {
	switch o.kind {
	case 'i':
		return fmt.Sprintf("h%d.insert(%d,%d)", o.h, o.key, o.val)
	case 'd':
		return fmt.Sprintf("h%d.delete(%d)", o.h, o.key)
	case 'u':
		return fmt.Sprintf("h%d.update(%d,%d)", o.h, o.key, o.val)
	case 'l':
		return fmt.Sprintf("h%d.lookup(%d)", o.h, o.key)
	case 'b':
		parts := make([]string, len(o.batches))
		for j, b := range o.batches {
			pairs := make([]string, len(b))
			for i, e := range b {
				pairs[i] = fmt.Sprintf("%d:%d", e.key, e.val)
			}
			parts[j] = "[" + strings.Join(pairs, " ") + "]"
		}
		return "batch(" + strings.Join(parts, " | ") + ")"
	default:
		return fmt.Sprintf("h%d.scan()", o.h)
	}
}

func opLogString(ops []treeOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// applyOps replays an operation log against a fresh tree and a model map,
// comparing results step by step and the full scan at the end. It returns a
// description of the first divergence, or "" when the tree matches the
// model throughout.
func applyOps(t *testing.T, ops []treeOp) string {
	t.Helper()
	h := newTreeHarness(t, 2)
	var failure string
	h.run(t, func(ctx env.Ctx) {
		if err := btree.Create(ctx, "prop", h.client); err != nil {
			failure = fmt.Sprintf("create: %v", err)
			return
		}
		// Three handles share the stored tree, each with its own node
		// cache; every op names the handle it runs on.
		handles := make([]*btree.Tree, 3)
		for j := range handles {
			handles[j] = btree.New("prop", h.client)
			handles[j].MaxKeys = 4 // tiny fanout: a few dozen keys exercise splits and depth
		}
		model := make(map[string][]byte)
		for i, o := range ops {
			k, v := key(o.key), val(o.val)
			tr := handles[o.h]
			switch o.kind {
			case 'i':
				existed, err := tr.Insert(ctx, k, v)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				_, inModel := model[string(k)]
				if existed != inModel {
					failure = fmt.Sprintf("op %d %s: existed=%v, model=%v", i, o, existed, inModel)
					return
				}
				if !existed {
					model[string(k)] = v
				}
			case 'd':
				removed, err := tr.Delete(ctx, k)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				_, inModel := model[string(k)]
				if removed != inModel {
					failure = fmt.Sprintf("op %d %s: removed=%v, model=%v", i, o, removed, inModel)
					return
				}
				delete(model, string(k))
			case 'u':
				updated, err := tr.Update(ctx, k, v)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				_, inModel := model[string(k)]
				if updated != inModel {
					failure = fmt.Sprintf("op %d %s: updated=%v, model=%v", i, o, updated, inModel)
					return
				}
				if updated {
					model[string(k)] = v
				}
			case 'l':
				got, found, err := tr.Lookup(ctx, k)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				want, inModel := model[string(k)]
				if found != inModel || (found && !bytes.Equal(got, want)) {
					failure = fmt.Sprintf("op %d %s: got (%q,%v), model (%q,%v)",
						i, o, got, found, want, inModel)
					return
				}
			case 'b':
				res := make([][]bool, len(o.batches))
				errs := make([]error, len(o.batches))
				futs := make([]env.Future, len(o.batches))
				for j, b := range o.batches {
					j, keys, vals := j, make([][]byte, len(b)), make([][]byte, len(b))
					for i, e := range b {
						keys[i], vals[i] = key(e.key), val(e.val)
					}
					futs[j] = h.envr.NewFuture()
					ctx.Go("insert-many", func(bctx env.Ctx) {
						res[j], errs[j] = handles[j].InsertMany(bctx, keys, vals)
						futs[j].Set(nil)
					})
				}
				for _, f := range futs {
					f.Get(ctx)
				}
				for _, err := range errs {
					if err != nil {
						failure = fmt.Sprintf("op %d %s: %v", i, o, err)
						return
					}
				}
				if failure = batchesMatchModel(o.batches, res, model); failure != "" {
					failure = fmt.Sprintf("op %d %s: %s", i, o, failure)
					return
				}
			case 's':
				if failure = scanMatchesModel(ctx, tr, model); failure != "" {
					failure = fmt.Sprintf("op %d %s: %s", i, o, failure)
					return
				}
			}
		}
		for j, tr := range handles {
			if failure = scanMatchesModel(ctx, tr, model); failure != "" {
				failure = fmt.Sprintf("final scan on h%d: %s", j, failure)
				return
			}
		}
	})
	return failure
}

// batchesMatchModel checks the existed flags of concurrently run batches
// and folds the inserted pairs into the model. A key absent from the model
// must be inserted exactly once over all batches, by the first occurrence
// of the key within the winning batch; every other occurrence, and every
// occurrence of a key already in the model, reports existed.
func batchesMatchModel(batches [][]kv, res [][]bool, model map[string][]byte) string {
	winner := make(map[string][]byte)
	for j, b := range batches {
		if len(res[j]) != len(b) {
			return fmt.Sprintf("batch %d: %d flags for %d keys", j, len(res[j]), len(b))
		}
		seen := make(map[int]bool)
		for i, e := range b {
			k := string(key(e.key))
			_, before := model[k]
			mayInsert := !before && !seen[e.key]
			seen[e.key] = true
			if res[j][i] {
				continue
			}
			if !mayInsert {
				return fmt.Sprintf("batch %d pos %d (key %d): inserted, want existed", j, i, e.key)
			}
			if _, dup := winner[k]; dup {
				return fmt.Sprintf("batch %d pos %d (key %d): inserted twice", j, i, e.key)
			}
			winner[k] = val(e.val)
		}
	}
	for _, b := range batches {
		for _, e := range b {
			k := string(key(e.key))
			if _, before := model[k]; !before && winner[k] == nil {
				return fmt.Sprintf("key %d: absent but no batch inserted it", e.key)
			}
		}
	}
	for k, v := range winner {
		model[k] = v
	}
	return ""
}

// randomBatch returns 1–20 pairs: either a contiguous key run (like a
// new-order's order lines, spanning several MaxKeys=4 leaves) or keys drawn
// at random, with an occasional repeat of a key already in the batch.
func randomBatch(rng *rand.Rand, keySpace int) []kv {
	n := 1 + rng.Intn(20)
	b := make([]kv, n)
	start := rng.Intn(keySpace)
	contiguous := rng.Intn(2) == 0
	for i := range b {
		b[i] = kv{key: rng.Intn(keySpace), val: rng.Intn(1000)}
		if contiguous {
			b[i].key = (start + i) % keySpace
		}
		if i > 0 && rng.Intn(5) == 0 {
			b[i].key = b[rng.Intn(i)].key
		}
	}
	return b
}

// scanMatchesModel compares a full scan with the sorted model content.
func scanMatchesModel(ctx env.Ctx, tr *btree.Tree, model map[string][]byte) string {
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	mismatch := ""
	err := tr.Scan(ctx, nil, nil, func(k, v []byte) bool {
		if i >= len(want) {
			mismatch = fmt.Sprintf("scan: extra key %q", k)
			return false
		}
		if string(k) != want[i] || !bytes.Equal(v, model[want[i]]) {
			mismatch = fmt.Sprintf("scan at %d: got (%q,%q), want (%q,%q)",
				i, k, v, want[i], model[want[i]])
			return false
		}
		i++
		return true
	})
	if err != nil {
		return fmt.Sprintf("scan: %v", err)
	}
	if mismatch != "" {
		return mismatch
	}
	if i != len(want) {
		return fmt.Sprintf("scan: %d keys, want %d", i, len(want))
	}
	return ""
}

// shrinkOps greedily removes chunks of a failing op log while the failure
// persists, then whole batches and single pairs from the batch ops that
// remain, ending with a (locally) minimal reproduction.
func shrinkOps(t *testing.T, ops []treeOp) []treeOp {
	t.Helper()
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for at := 0; at+chunk <= len(ops); {
			cand := append(append([]treeOp{}, ops[:at]...), ops[at+chunk:]...)
			if applyOps(t, cand) != "" {
				ops = cand // still failing without this chunk: drop it
			} else {
				at += chunk
			}
		}
	}
	// tryBatches swaps in op i's candidate batches if the log still fails.
	tryBatches := func(i int, batches [][]kv) bool {
		cand := append([]treeOp{}, ops...)
		cand[i].batches = batches
		if applyOps(t, cand) == "" {
			return false
		}
		ops = cand
		return true
	}
	for i := range ops {
		for j := 0; j < len(ops[i].batches) && len(ops[i].batches) > 1; {
			bs := ops[i].batches
			if !tryBatches(i, append(append([][]kv{}, bs[:j]...), bs[j+1:]...)) {
				j++
			}
		}
		for j := range ops[i].batches {
			for p := 0; p < len(ops[i].batches[j]) && len(ops[i].batches[j]) > 1; {
				bs := append([][]kv{}, ops[i].batches...)
				bs[j] = append(append([]kv{}, bs[j][:p]...), bs[j][p+1:]...)
				if !tryBatches(i, bs) {
					p++
				}
			}
		}
	}
	return ops
}

// TestTreePropertyVsModel drives random op logs against a model-map oracle.
// Batch ops run InsertMany with duplicate keys, runs spanning several leaves
// and splits in the middle of a batch, from up to three handles at once.
// Single-key ops and scans rotate over the same three handles, so a handle
// keeps revalidating cached leaves that the others have since rewritten.
// On failure it shrinks the log to a minimal reproduction and prints it with
// the seed (replay with TELL_SEED).
func TestTreePropertyVsModel(t *testing.T) {
	seed := testutil.Seed(t, 13)
	rng := rand.New(rand.NewSource(seed))
	const rounds = 5
	const opsPerRound = 300
	const keySpace = 60 // small enough that deletes hit live keys often
	for round := 0; round < rounds; round++ {
		ops := make([]treeOp, opsPerRound)
		for i := range ops {
			o := treeOp{key: rng.Intn(keySpace), val: rng.Intn(1000), h: rng.Intn(3)}
			switch r := rng.Intn(12); {
			case r < 4:
				o.kind = 'i'
			case r < 6:
				o.kind = 'd'
			case r < 7:
				o.kind = 'u'
			case r < 9:
				o.kind = 'l'
			case r < 10:
				o.kind = 's'
			default:
				// One batch, or 2–3 handles inserting concurrently.
				o.kind = 'b'
				o.batches = make([][]kv, 1)
				if rng.Intn(2) == 0 {
					o.batches = make([][]kv, 2+rng.Intn(2))
				}
				for j := range o.batches {
					o.batches[j] = randomBatch(rng, keySpace)
				}
			}
			ops[i] = o
		}
		if failure := applyOps(t, ops); failure != "" {
			min := shrinkOps(t, ops)
			t.Fatalf("round %d: %s\nminimal op log (%d of %d ops): %s",
				round, failure, len(min), len(ops), opLogString(min))
		}
	}
}
