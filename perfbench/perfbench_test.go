package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// drive sets a cluster up for workload name and issues calls, traced
// or not, returning a digest of every byte read and the servers'
// counters. If each is not nil, the calls are traced and each is called
// with every call's trace and its wall time measured outside the
// recorder.
func drive(t *testing.T, name string, sz sizes, seed int64, calls int, each func(*callTrace, time.Duration)) (uint64, []int64) {
	t.Helper()
	w, err := newWorkload(name, sz, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{o: options{workload: name, seed: seed}, w: w, next: sequence(w, seed), stderr: io.Discard}
	if each != nil {
		b.rec = newRecorder()
	}
	if err := b.setUp(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer b.tearDown()
	h := fnv.New64a()
	for i := 0; i < calls; i++ {
		c := b.next()
		start := time.Now()
		if each != nil {
			b.rec.begin(int64(i + 1))
		}
		_, err := w.do(b.c.env, c)
		if each != nil {
			ct := b.rec.end()
			each(ct, time.Since(start))
		}
		if err != nil {
			t.Fatalf("call %+v: %v", c, err)
		}
		if !c.write {
			if err := w.check(c); err != nil {
				t.Fatal(err)
			}
		}
		switch w := w.(type) {
		case *tileRead:
			h.Write(w.buf)
		case *block3D:
			if !c.write {
				h.Write(w.buf)
			}
		}
	}
	if err := w.finish(b.c.env); err != nil {
		t.Fatal(err)
	}
	if fl, ok := w.(*flashCkpt); ok {
		back := make([]byte, fl.cfg.TotalBytes())
		if err := fl.pv.ReadContig(b.c.env, 0, back); err != nil {
			t.Fatal(err)
		}
		h.Write(back)
	}
	snaps, err := b.c.serverStats(b.cl)
	if err != nil {
		t.Fatal(err)
	}
	// The request count is left out: the start-up probe retries until
	// every server listens, so it varies with timing.
	var counters []int64
	for _, s := range snaps {
		counters = append(counters, s.IOStats.DiskOps, s.IOStats.DiskOpsMerged, s.IOStats.DiskVecOps,
			s.IOStats.SeekBytes, s.CompiledReplays, s.CacheHits, s.CacheMisses)
	}
	return h.Sum64(), counters
}

// The wrappers must not change what the program does: the same calls
// read the same bytes and leave the same server counters with and
// without them.
func TestWrappersTransparent(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			d0, c0 := drive(t, name, smokeSizes(), 7, 40, nil)
			d1, c1 := drive(t, name, smokeSizes(), 7, 40, func(*callTrace, time.Duration) {})
			if d0 != d1 {
				t.Errorf("read digest %016x untraced, %016x traced", d0, d1)
			}
			if len(c0) != len(c1) {
				t.Fatalf("counter lists differ in length")
			}
			for i := range c0 {
				if c0[i] != c1[i] {
					t.Errorf("server counters differ: untraced %v, traced %v", c0, c1)
					break
				}
			}
		})
	}
}

// Each call's split must account for its time, and every span must
// sit where the attribution assumes: client receive waits and server
// requests start inside the call, every storage call lies inside a
// request of its own server (so none is left out of server self time),
// and no server spends longer in storage than in its requests. The
// parts of the split must add up to the call's wall time measured
// outside the recorder, less the recorder's own begin and end.
func TestSplitSumsToCallTime(t *testing.T) {
	const recorderSlack = 20 * time.Microsecond // median begin+end cost allowed
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			i := 0
			var gaps []time.Duration
			drive(t, name, smokeSizes(), 3, 30, func(ct *callTrace, wall time.Duration) {
				defer func() { i++ }()
				s := analyze(ct)
				gap := wall - time.Duration(s.clientSelf+s.covered+s.transit)
				if gap < 0 {
					t.Errorf("call %d: self %d + covered %d + transit %d ns exceeds the wall time %v",
						i, s.clientSelf, s.covered, s.transit, wall)
				}
				gaps = append(gaps, gap)
				for _, v := range ct.recvs {
					if v.lo < ct.call.lo || v.hi > ct.call.hi {
						t.Errorf("call %d: receive wait %+v outside the call %+v", i, v, ct.call)
					}
				}
				var reqTime, storeTime [nServers][]ival
				for _, q := range ct.reqs {
					if q.lo < ct.call.lo || q.lo > ct.call.hi || q.hi < q.lo {
						t.Errorf("call %d: server %d request %+v does not start inside the call %+v", i, q.server, q.ival, ct.call)
					}
					reqTime[q.server] = append(reqTime[q.server], q.ival)
				}
				for _, st := range ct.stores {
					p := parentOf(ct, st)
					if p < 0 || st.hi > ct.reqs[p].hi {
						t.Errorf("call %d: server %d storage call %+v lies in none of its requests %+v", i, st.server, st.ival, ct.reqs)
					}
					storeTime[st.server] = append(storeTime[st.server], st.ival)
				}
				for srv := range reqTime {
					if st, rq := total(union(storeTime[srv])), total(union(reqTime[srv])); st > rq {
						t.Errorf("call %d: server %d in storage %d ns, in requests only %d ns", i, srv, st, rq)
					}
				}
				if s.storageCalls == 0 || s.reqMsgs == 0 || s.serverReqs == 0 {
					t.Errorf("call %d: a wrapper recorded nothing: %+v", i, s)
				}
			})
			sort.Slice(gaps, func(a, b int) bool { return gaps[a] < gaps[b] })
			if g := gaps[len(gaps)/2]; g > recorderSlack {
				t.Errorf("median call time outside the split %v, want at most %v", g, recorderSlack)
			}
		})
	}
}

// At full size the census counts are fixed by the access patterns:
// datatype I/O sends one request per server, list I/O one per 64
// regions, and none depends on the seed.
func TestCensusCountsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size cluster")
	}
	for _, name := range []string{"block3d-dtype", "block3d-list", "flash-ckpt"} {
		t.Run(name, func(t *testing.T) {
			count := func(seed int64) (msgs, stores float64) {
				w, err := newWorkload(name, fullSizes(), seed)
				if err != nil {
					t.Fatal(err)
				}
				b := &bench{o: options{workload: name, seed: seed}, w: w, next: sequence(w, seed), rec: newRecorder(), stderr: io.Discard}
				if err := b.setUp(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				defer b.tearDown()
				var lay layerTally
				var tl tally
				for _, c := range w.distinct() {
					b.one(c, &tl, true, &lay)
				}
				if tl.failed != 0 {
					t.Fatalf("%d calls failed", tl.failed)
				}
				return per(lay.sum.reqMsgs, lay.calls), per(lay.sum.storageCalls, lay.calls)
			}
			m1, s1 := count(1)
			m2, s2 := count(2)
			want := float64(nServers)
			if name == "block3d-list" {
				want = 64
			}
			if m1 != want || m2 != want {
				t.Errorf("wire messages per call %v and %v, want %v", m1, m2, want)
			}
			if s1 != s2 {
				t.Errorf("storage calls per call %v with seed 1, %v with seed 2", s1, s2)
			}
		})
	}
}

// A short run of every workload, untraced and traced, passes its checks
// and reports every metric BENCHMARK.json declares, with its unit.
func TestSmokeRun(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench runs %d", len(decl.Workloads), len(workloadNames))
	}
	for _, wl := range decl.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
			var out, errOut bytes.Buffer
			o := options{workload: wl.Name, seed: 5, seconds: 0.6, trace: trace == 1, out: t.TempDir(), sizes: smokeSizes()}
			args := fmt.Sprintf("%s trace %v", o.workload, o.trace)
			if code := emit(o, &out, &errOut); code != 0 {
				t.Fatalf("%s: exit %d\n%s%s", args, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s: last line: %v", args, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: %+v", args, r)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", args, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
			}
		}
	}
}
