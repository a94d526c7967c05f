package core_test

import (
	"bytes"
	"testing"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/transport"
	"tell/internal/wire"
)

// orderLineSchema mirrors TPC-C's order-line key shape: the lines of one
// order have contiguous primary keys, so they land in one B+tree leaf.
func orderLineSchema() *relational.TableSchema {
	return &relational.TableSchema{
		Name: "order_line",
		Cols: []relational.Column{
			{Name: "o_id", Type: relational.TInt64},
			{Name: "number", Type: relational.TInt64},
			{Name: "item", Type: relational.TInt64},
		},
		PKCols: []int{0, 1},
	}
}

// storeOpCounter watches every store request and response on the simulated
// network (through the fault hook, injecting nothing) and counts the
// conditional puts aimed at keys under prefix and every conflict status.
type storeOpCounter struct {
	prefix    []byte
	condPuts  int
	conflicts int
}

func (c *storeOpCounter) observe(_, _ string, payload []byte) transport.Fault {
	switch wire.PeekKind(payload) {
	case wire.KindStoreReq:
		if req, err := wire.DecodeStoreRequest(payload); err == nil {
			for _, op := range req.Ops {
				if op.Code == wire.OpCondPut && bytes.HasPrefix(op.Key, c.prefix) {
					c.condPuts++
				}
			}
		}
	case wire.KindStoreResp:
		if resp, err := wire.DecodeStoreResponse(payload); err == nil {
			for _, r := range resp.Results {
				if r.Status == wire.StatusConflict {
					c.conflicts++
				}
			}
		}
	}
	return transport.Fault{}
}

// TestOrderLinesShareOneLeafCondPut pins the batched index path: a
// transaction inserting 15 contiguous order lines writes their primary-key
// entries with one conditional put on the shared leaf (two if it splits),
// not one racing put per line, and sees no conflict at all.
func TestOrderLinesShareOneLeafCondPut(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.pns[0]
		table, err := pn.Catalog().CreateTable(ctx, orderLineSchema())
		if err != nil {
			t.Fatal(err)
		}
		line := func(o, n int64) relational.Row {
			return relational.Row{relational.I64(o), relational.I64(n), relational.I64(o*100 + n)}
		}
		// Earlier orders fill the leaf partly.
		setup, _ := pn.Begin(ctx)
		for o := int64(1); o <= 3; o++ {
			for n := int64(1); n <= 10; n++ {
				if _, err := setup.Insert(ctx, table, line(o, n)); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustCommit(t, ctx, setup)

		c := &storeOpCounter{prefix: []byte("idx/" + relational.PKIndexName("order_line") + "/n/")}
		e.net.SetFaultFn(c.observe)
		txn, _ := pn.Begin(ctx)
		for n := int64(1); n <= 15; n++ {
			if _, err := txn.Insert(ctx, table, line(4, n)); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, ctx, txn)
		e.net.SetFaultFn(nil)
		if c.conflicts != 0 || c.condPuts < 1 || c.condPuts > 2 {
			t.Fatalf("15 order lines: %d leaf CondPuts with %d conflicts, want 1–2 and 0",
				c.condPuts, c.conflicts)
		}

		check, _ := pn.Begin(ctx)
		for n := int64(1); n <= 15; n++ {
			if _, row, found, err := check.LookupPK(ctx, table, relational.I64(4), relational.I64(n)); err != nil || !found || row[2].I != 400+n {
				t.Fatalf("line %d: row=%v found=%v err=%v", n, row, found, err)
			}
		}
		mustCommit(t, ctx, check)
	})
}

// TestDuplicatePKInsideOneTxn inserts the same primary key twice in one
// transaction: both entries go into one batched insert, the second reports
// the key as existing, and the commit still aborts with ErrDuplicateKey and
// rolls every row back.
func TestDuplicatePKInsideOneTxn(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.pns[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		txn, _ := pn.Begin(ctx)
		for _, row := range []relational.Row{
			account(1, "a", 10), account(3, "first", 30), account(2, "b", 20), account(3, "second", 31),
		} {
			if _, err := txn.Insert(ctx, table, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(ctx); err != core.ErrDuplicateKey {
			t.Fatalf("want ErrDuplicateKey, got %v", err)
		}
		check, _ := pn.Begin(ctx)
		for id := int64(1); id <= 3; id++ {
			if _, row, found, err := check.LookupPK(ctx, table, relational.I64(id)); err != nil || found {
				t.Fatalf("id %d visible after abort: %v %v", id, row, err)
			}
		}
		mustCommit(t, ctx, check)
	})
}

// TestStalePKEntryReplacedOnBatchedPath leaves a primary-key entry behind
// whose record is gone (an aborted insert: records roll back, index entries
// stay for the reader GC). A later batched insert of the same key finds the
// entry, sees its record is dead, and repoints it through Update.
func TestStalePKEntryReplacedOnBatchedPath(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.pns[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		first, _ := pn.Begin(ctx)
		first.Insert(ctx, table, account(7, "owner", 70))
		mustCommit(t, ctx, first)

		// Inserting 5 alongside a duplicate 7 aborts; 5's record is rolled
		// back but its PK entry stays.
		aborted, _ := pn.Begin(ctx)
		deadRid, _ := aborted.Insert(ctx, table, account(5, "ghost", 0))
		aborted.Insert(ctx, table, account(7, "dup", 0))
		if err := aborted.Commit(ctx); err != core.ErrDuplicateKey {
			t.Fatalf("want ErrDuplicateKey, got %v", err)
		}
		pk5 := table.PKKey(account(5, "", 0))
		val, ok, err := table.PK.Lookup(ctx, pk5)
		if err != nil || !ok || relational.RidFromIndexVal(val) != deadRid {
			t.Fatalf("stale entry for 5: ok=%v err=%v", ok, err)
		}

		txn, _ := pn.Begin(ctx)
		var rid5 uint64
		for _, row := range []relational.Row{account(4, "d", 40), account(5, "e", 50), account(6, "f", 60)} {
			rid, err := txn.Insert(ctx, table, row)
			if err != nil {
				t.Fatal(err)
			}
			if row[0].I == 5 {
				rid5 = rid
			}
		}
		mustCommit(t, ctx, txn)
		if val, ok, err := table.PK.Lookup(ctx, pk5); err != nil || !ok || relational.RidFromIndexVal(val) != rid5 {
			t.Fatalf("entry for 5 not repointed: ok=%v err=%v", ok, err)
		}
		check, _ := pn.Begin(ctx)
		for id := int64(4); id <= 7; id++ {
			if _, row, found, err := check.LookupPK(ctx, table, relational.I64(id)); err != nil || !found || (id != 7 && row[2].I != id*10) {
				t.Fatalf("id %d: row=%v found=%v err=%v", id, row, found, err)
			}
		}
		mustCommit(t, ctx, check)
	})
}
