package main

import (
	"fmt"
	"math"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/tpcc"
)

// checkConsistency verifies TPC-C consistency conditions 1 and 2 (clause
// 3.3.2.1-2) in one snapshot, through core's public read API:
//
//  1. W_YTD = Σ D_YTD over the warehouse's districts;
//  2. D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) for every district
//     (a district whose NEW-ORDER rows were all delivered has no NO_O_ID).
//
// Orders and new-orders are scanned from D_NEXT_O_ID - 1 upwards, so each
// district costs two short scans, not a scan of its whole history.
func checkConsistency(ctx env.Ctx, pn *core.PN, warehouses int) error {
	open := func(name string) (*core.TableInfo, error) { return pn.Catalog().OpenTable(ctx, name) }
	wh, err := open(tpcc.TWarehouse)
	if err != nil {
		return err
	}
	dist, err := open(tpcc.TDistrict)
	if err != nil {
		return err
	}
	ords, err := open(tpcc.TOrders)
	if err != nil {
		return err
	}
	newOrds, err := open(tpcc.TNewOrder)
	if err != nil {
		return err
	}
	txn, err := pn.Begin(ctx)
	if err != nil {
		return err
	}
	defer txn.Abort(ctx)
	i64 := func(v int) relational.Value { return relational.I64(int64(v)) }
	// oids returns the O_IDs of table's rows of district (w, d) from o_id lo
	// upwards; with first set it stops after one row.
	oids := func(t *core.TableInfo, w, d int, lo int64, first bool) ([]int64, error) {
		var out []int64
		err := txn.ScanPK(ctx, t,
			[]relational.Value{i64(w), i64(d), relational.I64(lo)},
			[]relational.Value{i64(w), i64(d + 1)},
			func(e core.IndexEntry) bool {
				out = append(out, e.Row[len(t.Schema.PKCols)-1].I)
				return !first
			})
		return out, err
	}
	for w := 1; w <= warehouses; w++ {
		_, wRow, found, err := txn.LookupPK(ctx, wh, i64(w))
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("warehouse %d missing", w)
		}
		var sum float64
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			_, dRow, found, err := txn.LookupPK(ctx, dist, i64(w), i64(d))
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("district %d/%d missing", w, d)
			}
			sum += dRow[tpcc.DYtd].F
			last := dRow[tpcc.DNextOID].I - 1
			got, err := oids(ords, w, d, last, false)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != last {
				return fmt.Errorf("condition 2: w%d d%d: D_NEXT_O_ID-1=%d but orders from there are %v", w, d, last, got)
			}
			got, err = oids(newOrds, w, d, last, false)
			if err != nil {
				return err
			}
			if len(got) == 1 && got[0] == last {
				continue
			}
			if len(got) == 0 {
				rest, err := oids(newOrds, w, d, 0, true)
				if err != nil {
					return err
				}
				if len(rest) == 0 {
					continue
				}
			}
			return fmt.Errorf("condition 2: w%d d%d: D_NEXT_O_ID-1=%d but new-orders from there are %v", w, d, last, got)
		}
		if wYtd := wRow[tpcc.WYtd].F; math.Abs(wYtd-sum) > 1e-6*math.Max(1, math.Abs(wYtd)) {
			return fmt.Errorf("condition 1: w%d: W_YTD=%.2f but sum of D_YTD=%.2f", w, wYtd, sum)
		}
	}
	return nil
}
