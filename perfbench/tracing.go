package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/transport"
	"tell/internal/wire"
)

// The wrappers below measure each layer from outside. They read ctx.Now()
// and message bytes only: they never charge Work, never yield and never
// alter a message, so a traced run's virtual plane equals the untraced
// run's exactly (checked on every traced run). The simulator runs one
// activity at a time with channel hand-offs between them, so the tracer's
// state needs no lock.

// role is the kind of process a goroutine works for, the pprof label the
// CPU profile is split by.
type role int

const (
	roleSim role = iota // the kernel loop and its callbacks
	rolePN
	roleSN
	roleCM
	roleMgmt
	nRoles
)

var roleNames = [nRoles]string{"sim", "pn", "sn", "cm", "mgmt"}

func roleOf(addr string) role {
	switch {
	case strings.HasPrefix(addr, "pn"), addr == "terminals":
		return rolePN
	case strings.HasPrefix(addr, "sn"):
		return roleSN
	case strings.HasPrefix(addr, "cm"):
		return roleCM
	case addr == "mgmt":
		return roleMgmt
	}
	return roleSim
}

type spanKind uint8

const (
	spanTxn     spanKind = iota // one tpcc.Engine call
	spanRT                      // one client round trip
	spanHandler                 // one server handler execution
)

var spanKindNames = [...]string{"txn", "rt", "handler"}

// span is one traced interval in virtual time. parent is 0 for a root.
type span struct {
	id, parent uint64
	kind       spanKind
	msg        wire.Kind // rt and handler: the request's kind
	name       string    // txn: class; rt: destination; handler: serving address
	node       string    // txn, rt: the calling node; handler: serving address
	start, end time.Duration
	reqBytes   int
	respBytes  int
	// service is, for a round trip, the duration of the handler that
	// served it (-1 when none was matched).
	service time.Duration
	ok      bool // txn: committed; rt: no transport error
}

// openStore is a store handler in progress on a storage node, with the
// keys it writes, so replication round trips its child activities issue can
// be nested under it.
type openStore struct {
	id   uint64
	keys [][]byte
}

// opCounts are store operations seen on PN→SN requests, classified by key
// class (idx/ B+tree nodes, d/ records, sys/txlog/ log entries).
type opCounts struct {
	idxCondPuts, idxCondPutConflicts uint64
	recCondPutConflicts              uint64
	txlogWrites                      uint64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	labels  [nRoles]context.Context
	spans   []span
	nextID  uint64
	open    map[env.Ctx]uint64 // activity → innermost open span
	sending map[*byte]uint64   // request buffer → round-trip span
	served  map[*byte]time.Duration
	stores  map[string][]openStore // storage node → open store handlers
	ops     opCounts
}

func newTracer() *tracer {
	t := &tracer{
		open:    make(map[env.Ctx]uint64),
		sending: make(map[*byte]uint64),
		served:  make(map[*byte]time.Duration),
		stores:  make(map[string][]openStore),
	}
	for r := role(0); r < nRoles; r++ {
		t.labels[r] = pprof.WithLabels(context.Background(), pprof.Labels("role", roleNames[r]))
	}
	return t
}

// label tags the calling goroutine, and every goroutine it starts from now
// on, with role r. Nil-safe: untraced runs set no labels.
func (t *tracer) label(r role) {
	if t != nil {
		pprof.SetGoroutineLabels(t.labels[r])
	}
}

func (t *tracer) newID() uint64 {
	t.nextID++
	return t.nextID
}

// enter opens span id on the calling activity and returns the span it
// nests under.
func (t *tracer) enter(ctx env.Ctx, id uint64) (parent uint64) {
	parent = t.open[ctx]
	t.open[ctx] = id
	return parent
}

func (t *tracer) leave(ctx env.Ctx, parent uint64) {
	if parent == 0 {
		delete(t.open, ctx)
	} else {
		t.open[ctx] = parent
	}
}

// txnBegin and txnEnd bracket one engine call.
func (t *tracer) txnBegin(ctx env.Ctx) (id, parent uint64) {
	id = t.newID()
	return id, t.enter(ctx, id)
}

func (t *tracer) txnEnd(ctx env.Ctx, id, parent uint64, class string, start time.Duration, committed bool) {
	t.leave(ctx, parent)
	t.spans = append(t.spans, span{id: id, parent: parent, kind: spanTxn, name: class,
		node: ctx.Node().Name(), start: start, end: ctx.Now(), service: -1, ok: committed})
}

// rtBegin opens a round-trip span. Its parent is the span open on the
// calling activity; a replication round trip issued by a child activity of
// a store handler is matched to that handler by the first key it ships.
func (t *tracer) rtBegin(ctx env.Ctx, src string, req []byte) (id, parent uint64) {
	id = t.newID()
	parent = t.open[ctx]
	if parent == 0 && wire.PeekKind(req) == wire.KindReplicate {
		parent = t.replicationParent(src, req)
	}
	if len(req) > 0 {
		t.sending[&req[0]] = id
	}
	return id, parent
}

func (t *tracer) replicationParent(node string, req []byte) uint64 {
	rr, err := wire.DecodeReplicateRequest(req)
	if err != nil || len(rr.Mutations) == 0 {
		return 0
	}
	key := rr.Mutations[0].Key
	open := t.stores[node]
	for i := len(open) - 1; i >= 0; i-- {
		for _, k := range open[i].keys {
			if bytes.Equal(k, key) {
				return open[i].id
			}
		}
	}
	return 0
}

func (t *tracer) rtEnd(ctx env.Ctx, id, parent uint64, src, dst string, start time.Duration,
	req, resp []byte, err error) {
	service := time.Duration(-1)
	if len(req) > 0 {
		if d, ok := t.served[&req[0]]; ok {
			service = d
		}
		delete(t.served, &req[0])
		delete(t.sending, &req[0])
	}
	kind := wire.PeekKind(req)
	t.spans = append(t.spans, span{id: id, parent: parent, kind: spanRT, msg: kind, name: dst,
		node: src, start: start, end: ctx.Now(), reqBytes: len(req), respBytes: len(resp),
		service: service, ok: err == nil})
	if err == nil && kind == wire.KindStoreReq && roleOf(src) == rolePN {
		t.countOps(req, resp)
	}
}

var (
	idxPrefix   = []byte("idx/")
	recPrefix   = []byte("d/")
	txlogPrefix = []byte("sys/txlog/")
)

func (t *tracer) countOps(req, resp []byte) {
	rq, err := wire.DecodeStoreRequest(req)
	if err != nil {
		return
	}
	rs, err := wire.DecodeStoreResponse(resp)
	if err != nil || len(rs.Results) != len(rq.Ops) {
		return
	}
	for i := range rq.Ops {
		op := &rq.Ops[i]
		conflict := rs.Results[i].Status == wire.StatusConflict
		switch {
		case op.Code == wire.OpCondPut && bytes.HasPrefix(op.Key, idxPrefix):
			t.ops.idxCondPuts++
			if conflict {
				t.ops.idxCondPutConflicts++
			}
		case op.Code == wire.OpCondPut && bytes.HasPrefix(op.Key, recPrefix):
			if conflict {
				t.ops.recCondPutConflicts++
			}
		case op.Code.IsWrite() && bytes.HasPrefix(op.Key, txlogPrefix):
			t.ops.txlogWrites++
		}
	}
}

// handlerBegin opens a handler span, nested under the round trip that
// delivered the request.
func (t *tracer) handlerBegin(ctx env.Ctx, addr string, req []byte) (id, parent uint64) {
	id = t.newID()
	if len(req) > 0 {
		parent = t.sending[&req[0]]
	}
	t.enter(ctx, id)
	if wire.PeekKind(req) == wire.KindStoreReq && roleOf(addr) == roleSN {
		if rq, err := wire.DecodeStoreRequest(req); err == nil {
			var keys [][]byte
			for i := range rq.Ops {
				if rq.Ops[i].Code.IsWrite() {
					keys = append(keys, rq.Ops[i].Key)
				}
			}
			t.stores[addr] = append(t.stores[addr], openStore{id: id, keys: keys})
		}
	}
	return id, parent
}

func (t *tracer) handlerEnd(ctx env.Ctx, addr string, id, parent uint64, start time.Duration, req, resp []byte) {
	delete(t.open, ctx)
	open := t.stores[addr]
	for i := range open {
		if open[i].id == id {
			t.stores[addr] = append(open[:i:i], open[i+1:]...)
			break
		}
	}
	end := ctx.Now()
	if len(req) > 0 {
		t.served[&req[0]] = end - start
	}
	t.spans = append(t.spans, span{id: id, parent: parent, kind: spanHandler, msg: wire.PeekKind(req),
		name: addr, node: addr, start: start, end: end, reqBytes: len(req), respBytes: len(resp), service: -1})
}

// tracedNet wraps the transport every component is handed.
type tracedNet struct {
	inner transport.Transport
	t     *tracer
}

func (n *tracedNet) Listen(addr string, node env.Node, h transport.Handler) error {
	t, r := n.t, roleOf(addr)
	return n.inner.Listen(addr, node, func(ctx env.Ctx, req []byte) []byte {
		t.label(r)
		start := ctx.Now()
		id, parent := t.handlerBegin(ctx, addr, req)
		resp := h(ctx, req)
		t.handlerEnd(ctx, addr, id, parent, start, req, resp)
		return resp
	})
}

func (n *tracedNet) Dial(node env.Node, addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(node, addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, src: node.Name(), dst: addr, t: n.t}, nil
}

type tracedConn struct {
	inner    transport.Conn
	src, dst string
	t        *tracer
}

func (c *tracedConn) RoundTrip(ctx env.Ctx, req []byte) ([]byte, error) {
	start := ctx.Now()
	id, parent := c.t.rtBegin(ctx, c.src, req)
	resp, err := c.inner.RoundTrip(ctx, req)
	c.t.rtEnd(ctx, id, parent, c.src, c.dst, start, req, resp, err)
	return resp, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// TransferTime forwards the simnet's wire-time model, which clients consult
// through transport.TransferTimer.
func (c *tracedConn) TransferTime(n int) time.Duration {
	return c.inner.(transport.TransferTimer).TransferTime(n)
}

// txnRecorder sees every finished transaction of a run, in the order the
// driver accounts them, and keeps the measured window's raw latencies.
type txnRecorder struct {
	warmup, measure int
	t               *tracer // nil when untraced
	counted         int     // transactions the driver accounts (no infrastructure error)
	failed          int     // infrastructure errors in the measured window
	committed       [nClasses]int
	aborted         [nClasses]int
	latMs           [nClasses][]float64 // committed, measured window
	// onStart runs when the warm-up ends, onEnd when the measured window
	// closes; both on the simulator, between two events.
	onStart, onEnd func(now time.Duration)
}

const nClasses = 5

func (r *txnRecorder) begin(ctx env.Ctx) (id, parent uint64, start time.Duration) {
	start = ctx.Now()
	if r.t != nil {
		id, parent = r.t.txnBegin(ctx)
	}
	return id, parent, start
}

func (r *txnRecorder) end(ctx env.Ctx, class tpcc.TxType, id, parent uint64, start time.Duration, committed bool, err error) {
	now := ctx.Now()
	if r.t != nil {
		r.t.txnEnd(ctx, id, parent, class.String(), start, committed)
	}
	i := r.counted
	if err != nil {
		// The driver does not account a failed transaction; count it
		// against the window it fell in.
		if i >= r.warmup && i < r.warmup+r.measure {
			r.failed++
		}
		return
	}
	r.counted++
	if i == r.warmup-1 && r.onStart != nil {
		r.onStart(now)
	}
	if i < r.warmup || i >= r.warmup+r.measure {
		return
	}
	if committed {
		r.committed[class]++
		r.latMs[class] = append(r.latMs[class], float64(now-start)/float64(time.Millisecond))
	} else {
		r.aborted[class]++
	}
	if i == r.warmup+r.measure-1 && r.onEnd != nil {
		r.onEnd(now)
	}
}

// engine wraps a tpcc.Engine with the recorder.
type engine struct {
	inner tpcc.Engine
	r     *txnRecorder
}

func (e engine) NewOrder(ctx env.Ctx, in *tpcc.NewOrderInput) (bool, error) {
	id, parent, start := e.r.begin(ctx)
	ok, err := e.inner.NewOrder(ctx, in)
	e.r.end(ctx, tpcc.TxNewOrder, id, parent, start, ok, err)
	return ok, err
}

func (e engine) Payment(ctx env.Ctx, in *tpcc.PaymentInput) (bool, error) {
	id, parent, start := e.r.begin(ctx)
	ok, err := e.inner.Payment(ctx, in)
	e.r.end(ctx, tpcc.TxPayment, id, parent, start, ok, err)
	return ok, err
}

func (e engine) OrderStatus(ctx env.Ctx, in *tpcc.OrderStatusInput) (bool, error) {
	id, parent, start := e.r.begin(ctx)
	ok, err := e.inner.OrderStatus(ctx, in)
	e.r.end(ctx, tpcc.TxOrderStatus, id, parent, start, ok, err)
	return ok, err
}

func (e engine) Delivery(ctx env.Ctx, in *tpcc.DeliveryInput) (bool, error) {
	id, parent, start := e.r.begin(ctx)
	ok, err := e.inner.Delivery(ctx, in)
	e.r.end(ctx, tpcc.TxDelivery, id, parent, start, ok, err)
	return ok, err
}

func (e engine) StockLevel(ctx env.Ctx, in *tpcc.StockLevelInput) (bool, error) {
	id, parent, start := e.r.begin(ctx)
	ok, err := e.inner.StockLevel(ctx, in)
	e.r.end(ctx, tpcc.TxStockLevel, id, parent, start, ok, err)
	return ok, err
}

// writeSpans writes spans as gzipped JSON lines, one span per line.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"kind":%q,"msg":%d,"name":%q,"node":%q,"start_ns":%d,"end_ns":%d,"req_bytes":%d,"resp_bytes":%d,"ok":%t}`+"\n",
			s.id, s.parent, spanKindNames[s.kind], s.msg, s.name, s.node, s.start, s.end, s.reqBytes, s.respBytes, s.ok)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
