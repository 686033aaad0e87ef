package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dtio/internal/storage"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// The traced run wraps the program's public seams — the client and
// server transport.Network and every object store pvfs.Server.NewStore
// creates — and records, per call, when each layer held the call. Only
// one call is outstanding at a time (a closed loop with one client), so
// every event between a call's start and end belongs to that call and
// attribution by interval is exact.

// ival is a half-open time interval in nanoseconds since the recorder's
// base.
type ival struct{ lo, hi int64 }

func (v ival) len() int64 { return v.hi - v.lo }

// reqSpan is one server's handling of one request: from the handler
// receiving the request frame to its last reply frame sent.
type reqSpan struct {
	server int
	ival
}

// storeSpan is one data call into an object store.
type storeSpan struct {
	server int
	ival
	bytes int64
	read  bool
}

// callTrace is everything recorded while one call was outstanding.
type callTrace struct {
	id        int64
	call      ival
	recvs     []ival // client goroutines blocked in Recv
	reqs      []reqSpan
	stores    []storeSpan
	frames    int64 // frames the client sent or received
	bytes     int64 // their bytes
	reqMsgs   int64 // request frames the client sent (not stream chunks or acks)
	descBytes int64 // request frame bytes that are not payload
}

// recorder collects the events of the current call.
type recorder struct {
	base    time.Time
	active  atomic.Bool  // a traced call is outstanding
	pending atomic.Int64 // server sends that may still record into it
	capture atomic.Bool  // keep copies of request frames (layer replay input)

	mu       sync.Mutex
	cur      callTrace
	open     [nServers]int // index in cur.reqs of each server's open request
	captured [][]byte
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens call id; events are recorded until end.
func (r *recorder) begin(id int64) {
	r.mu.Lock()
	r.cur = callTrace{
		id: id, recvs: r.cur.recvs[:0], reqs: r.cur.reqs[:0], stores: r.cur.stores[:0],
	}
	for i := range r.open {
		r.open[i] = -1
	}
	r.cur.call.lo = r.now()
	r.mu.Unlock()
	r.active.Store(true)
}

// end closes the current call at its end time and returns its trace,
// valid until the next begin. It waits out server sends that started
// while the call was open: the client can receive a reply frame before
// the server's Send returns.
func (r *recorder) end() *callTrace {
	t := r.now()
	r.active.Store(false)
	for r.pending.Load() != 0 {
		runtime.Gosched()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur.call.hi = t
	return &r.cur
}

// isRequest reports whether a frame starts a request, as opposed to a
// stream segment or its acknowledgement.
func isRequest(msg []byte) bool {
	if len(msg) == 0 {
		return false
	}
	t := wire.MsgType(msg[0])
	return t != wire.MTStreamChunk && t != wire.MTStreamAck
}

// descBytes is the part of a request frame that is not payload: the
// header plus the access description (region list or encoded dataloop).
func descBytes(msg []byte) int64 {
	_, v, err := wire.DecodeMsg(msg)
	if err != nil {
		return int64(len(msg))
	}
	var data []byte
	switch m := v.(type) {
	case *wire.ContigReq:
		data = m.Data
	case *wire.ListIOReq:
		data = m.Data
	case *wire.DtypeReq:
		data = m.Data
	}
	return int64(len(msg) - len(data))
}

// clientNet wraps the client side: connections to the I/O servers are
// recorded, metadata connections pass through.
func (r *recorder) clientNet(inner transport.Network, ioAddrs []string) transport.Network {
	return &tracedNet{rec: r, inner: inner, servers: indexOf(ioAddrs), client: true}
}

// serverNet wraps the I/O servers' listeners.
func (r *recorder) serverNet(inner transport.Network, ioAddrs []string) transport.Network {
	return &tracedNet{rec: r, inner: inner, servers: indexOf(ioAddrs)}
}

func indexOf(addrs []string) map[string]int {
	m := make(map[string]int, len(addrs))
	for i, a := range addrs {
		m[a] = i
	}
	return m
}

type tracedNet struct {
	rec     *recorder
	inner   transport.Network
	servers map[string]int
	client  bool
}

func (n *tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	idx, ok := n.servers[addr]
	if err != nil || n.client || !ok {
		return l, err
	}
	return &tracedListener{rec: n.rec, inner: l, server: idx}, nil
}

func (n *tracedNet) Dial(env transport.Env, addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(env, addr)
	if _, ok := n.servers[addr]; err != nil || !n.client || !ok {
		return c, err
	}
	return &clientConn{rec: n.rec, inner: c}, nil
}

type tracedListener struct {
	rec    *recorder
	inner  transport.Listener
	server int
}

func (l *tracedListener) Accept(env transport.Env) (transport.Conn, error) {
	c, err := l.inner.Accept(env)
	if err != nil {
		return c, err
	}
	return &serverConn{rec: l.rec, inner: c, server: l.server}, nil
}

func (l *tracedListener) Close() error { return l.inner.Close() }

// clientConn records the client's frames and its time blocked in Recv.
type clientConn struct {
	rec   *recorder
	inner transport.Conn
}

func (c *clientConn) Send(env transport.Env, msg []byte) error {
	r := c.rec
	if r.active.Load() {
		req := isRequest(msg)
		var desc int64
		if req {
			desc = descBytes(msg)
		}
		r.mu.Lock()
		r.cur.frames++
		r.cur.bytes += int64(len(msg))
		if req {
			r.cur.reqMsgs++
			r.cur.descBytes += desc
			if r.capture.Load() {
				r.captured = append(r.captured, append([]byte(nil), msg...))
			}
		}
		r.mu.Unlock()
	}
	return c.inner.Send(env, msg)
}

func (c *clientConn) Recv(env transport.Env) ([]byte, error) {
	return c.recv(func() ([]byte, error) { return c.inner.Recv(env) })
}

func (c *clientConn) RecvTimeout(env transport.Env, d time.Duration) ([]byte, error) {
	return c.recv(func() ([]byte, error) { return transport.RecvTimeout(env, c.inner, d) })
}

func (c *clientConn) recv(fn func() ([]byte, error)) ([]byte, error) {
	r := c.rec
	if !r.active.Load() {
		return fn()
	}
	lo := r.now()
	msg, err := fn()
	hi := r.now()
	r.mu.Lock()
	r.cur.recvs = append(r.cur.recvs, ival{lo, hi})
	if err == nil {
		r.cur.frames++
		r.cur.bytes += int64(len(msg))
	}
	r.mu.Unlock()
	return msg, err
}

func (c *clientConn) Close() error { return c.inner.Close() }

// serverConn opens a request span when the handler receives a request
// frame and extends it to the end of each reply frame it sends.
type serverConn struct {
	rec    *recorder
	inner  transport.Conn
	server int
}

func (c *serverConn) Recv(env transport.Env) ([]byte, error) {
	msg, err := c.inner.Recv(env)
	r := c.rec
	if err == nil && r.active.Load() && isRequest(msg) {
		t := r.now()
		r.mu.Lock()
		r.open[c.server] = len(r.cur.reqs)
		r.cur.reqs = append(r.cur.reqs, reqSpan{c.server, ival{t, t}})
		r.mu.Unlock()
	}
	return msg, err
}

func (c *serverConn) Send(env transport.Env, msg []byte) error {
	r := c.rec
	// Count the send as pending before looking at active, so end()
	// either sees it pending or this send sees the call closed.
	r.pending.Add(1)
	defer r.pending.Add(-1)
	if !r.active.Load() {
		return c.inner.Send(env, msg)
	}
	err := c.inner.Send(env, msg)
	t := r.now()
	r.mu.Lock()
	if i := r.open[c.server]; i >= 0 {
		r.cur.reqs[i].hi = t
	}
	r.mu.Unlock()
	return err
}

func (c *serverConn) Close() error { return c.inner.Close() }

// store wraps server idx's object store.
func (r *recorder) store(idx int, inner storage.Store) storage.Store {
	return &tracedStore{rec: r, inner: inner, server: idx}
}

type tracedStore struct {
	rec    *recorder
	inner  storage.Store
	server int
}

func (s *tracedStore) timed(n int64, read bool, fn func() error) error {
	r := s.rec
	if !r.active.Load() {
		return fn()
	}
	lo := r.now()
	err := fn()
	hi := r.now()
	r.mu.Lock()
	r.cur.stores = append(r.cur.stores, storeSpan{s.server, ival{lo, hi}, n, read})
	r.mu.Unlock()
	return err
}

func vecLen(bufs [][]byte) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n
}

func (s *tracedStore) WriteAt(p []byte, off int64) error {
	return s.timed(int64(len(p)), false, func() error { return s.inner.WriteAt(p, off) })
}

func (s *tracedStore) ReadAt(p []byte, off int64) error {
	return s.timed(int64(len(p)), true, func() error { return s.inner.ReadAt(p, off) })
}

func (s *tracedStore) WriteAtv(bufs [][]byte, off int64) error {
	return s.timed(vecLen(bufs), false, func() error { return s.inner.WriteAtv(bufs, off) })
}

func (s *tracedStore) ReadAtv(bufs [][]byte, off int64) error {
	return s.timed(vecLen(bufs), true, func() error { return s.inner.ReadAtv(bufs, off) })
}

func (s *tracedStore) Size() int64               { return s.inner.Size() }
func (s *tracedStore) Truncate(size int64) error { return s.inner.Truncate(size) }

// split is one call's time charged to the layers, in nanoseconds, and
// its counts.
type split struct {
	call        int64 // call wall time
	clientSelf  int64 // call time not blocked in a client Recv
	recvWait    int64 // union of client Recv waits
	covered     int64 // part of recvWait some server was handling a request
	transit     int64 // part of recvWait no server was handling a request
	serverBusy  int64 // sum of request spans over servers
	serverSelf  int64 // request spans minus their storage calls
	storageBusy int64 // sum of storage call durations

	storageCalls, storageBytes, storageReadBytes int64
	serverReqs, frames, bytes, reqMsgs, desc     int64
}

// analyze charges a finished call's time to the layers.
func analyze(ct *callTrace) split {
	s := split{
		call: ct.call.len(), frames: ct.frames, bytes: ct.bytes,
		reqMsgs: ct.reqMsgs, desc: ct.descBytes, serverReqs: int64(len(ct.reqs)),
	}
	recv := union(ct.recvs)
	s.recvWait = total(recv)
	s.clientSelf = s.call - s.recvWait
	reqs := make([]ival, 0, len(ct.reqs))
	for _, q := range ct.reqs {
		v := clip(q.ival, ct.call)
		reqs = append(reqs, v)
		s.serverBusy += v.len()
	}
	served := union(reqs)
	s.covered = total(intersect(recv, served))
	s.transit = total(subtract(recv, served))
	for _, st := range ct.stores {
		s.storageCalls++
		s.storageBytes += st.bytes
		s.storageBusy += st.len()
		if st.read {
			s.storageReadBytes += st.bytes
		}
	}
	// A server handles its requests one at a time, so a storage call
	// belongs to the request span of its server that contains it.
	kids := make([][]ival, len(ct.reqs))
	for _, st := range ct.stores {
		if i := parentOf(ct, st); i >= 0 {
			kids[i] = append(kids[i], st.ival)
		}
	}
	s.serverSelf = s.serverBusy
	for i := range ct.reqs {
		s.serverSelf -= total(intersect(union(kids[i]), reqs[i:i+1]))
	}
	return s
}

// parentOf returns the index of the request span containing st, or -1.
func parentOf(ct *callTrace, st storeSpan) int {
	for i, q := range ct.reqs {
		if q.server == st.server && q.lo <= st.lo && st.lo <= q.hi {
			return i
		}
	}
	return -1
}

// span is one exported trace span; times are nanoseconds since the
// recorder's base and Parent indexes the call's span list (-1: root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Call   int64  `json:"call"`
	Server int    `json:"server,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// spans exports a call as a span tree: the call, its client.recv
// waits, its server.req spans and their storage.* children.
func spans(ct *callTrace) []span {
	out := []span{{Name: "call", Start: ct.call.lo, End: ct.call.hi, Parent: -1, Call: ct.id}}
	for _, v := range ct.recvs {
		out = append(out, span{Name: "client.recv", Start: v.lo, End: v.hi, Parent: 0, Call: ct.id})
	}
	reqBase := len(out)
	for _, q := range ct.reqs {
		out = append(out, span{Name: "server.req", Start: q.lo, End: q.hi, Parent: 0, Call: ct.id, Server: q.server})
	}
	for _, st := range ct.stores {
		name := "storage.write"
		if st.read {
			name = "storage.read"
		}
		parent := 0
		if i := parentOf(ct, st); i >= 0 {
			parent = reqBase + i
		}
		out = append(out, span{Name: name, Start: st.lo, End: st.hi, Parent: parent, Call: ct.id, Server: st.server, Bytes: st.bytes})
	}
	return out
}

// union merges intervals into a sorted, disjoint list.
func union(in []ival) []ival {
	if len(in) == 0 {
		return nil
	}
	v := append([]ival(nil), in...)
	sort.Slice(v, func(i, j int) bool { return v[i].lo < v[j].lo })
	out := v[:1]
	for _, x := range v[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			if x.hi > last.hi {
				last.hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func total(v []ival) int64 {
	var n int64
	for _, x := range v {
		n += x.len()
	}
	return n
}

func clip(v, to ival) ival {
	if v.lo < to.lo {
		v.lo = to.lo
	}
	if v.hi > to.hi {
		v.hi = to.hi
	}
	if v.hi < v.lo {
		v.hi = v.lo
	}
	return v
}

// intersect returns the overlap of two sorted, disjoint lists.
func intersect(a, b []ival) []ival {
	var out []ival
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if lo < hi {
			out = append(out, ival{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// subtract returns the parts of sorted, disjoint list a outside b.
func subtract(a, b []ival) []ival {
	var out []ival
	j := 0
	for _, x := range a {
		lo := x.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < x.hi; k++ {
			if b[k].lo > lo {
				out = append(out, ival{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
		}
		if lo < x.hi {
			out = append(out, ival{lo, x.hi})
		}
	}
	return out
}
