package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dtio/internal/iostats"
	"dtio/internal/pvfs"
)

// layerUnits lists every per-layer metric a traced run reports, with
// its unit. Counts are per call; times are means per call.
var layerUnits = map[string]string{
	"storage.calls":               "count",
	"storage.bytes":               "B",
	"storage.busy_us":             "us",
	"storage.share":               "ratio",
	"storage.read_amplification":  "ratio",
	"sched.runs_in":               "count",
	"sched.ops_out":               "count",
	"sched.vec_ops":               "count",
	"sched.seek_bytes":            "B",
	"server.busy_us":              "us",
	"server.self_us":              "us",
	"server.requests":             "count",
	"server.compiled_replays":     "count",
	"server.loopcache_hit_ratio":  "ratio",
	"net.frames":                  "count",
	"net.bytes":                   "B",
	"net.transit_us":              "us",
	"client.self_us":              "us",
	"client.recv_wait_us":         "us",
	"client.wire_msgs":            "count",
	"client.req_desc_bytes":       "B",
	"dataloop.fromtype_us":        "us",
	"dataloop.encoded_bytes":      "B",
	"dataloop.decode_us":          "us",
	"flatten.compile_us":          "us",
	"flatten.replay_ns_per_run":   "ns",
	"flatten.iter_ns_per_run":     "ns",
	"striping.split_ns_per_piece": "ns",
	"wire.decode_ns_per_frame":    "ns",
	"trace.call_us":               "us",
	"trace.overhead_ratio":        "ratio",
}

// layerTally sums the splits of traced calls.
type layerTally struct {
	calls     int64
	sum       split
	readBytes int64 // useful bytes of read calls
	kept      [][]span
}

func (l *layerTally) add(ct *callTrace, c call, n int64) {
	s := analyze(ct)
	l.calls++
	l.sum.call += s.call
	l.sum.clientSelf += s.clientSelf
	l.sum.recvWait += s.recvWait
	l.sum.transit += s.transit
	l.sum.serverBusy += s.serverBusy
	l.sum.serverSelf += s.serverSelf
	l.sum.storageBusy += s.storageBusy
	l.sum.storageCalls += s.storageCalls
	l.sum.storageBytes += s.storageBytes
	l.sum.storageReadBytes += s.storageReadBytes
	l.sum.serverReqs += s.serverReqs
	l.sum.frames += s.frames
	l.sum.bytes += s.bytes
	l.sum.reqMsgs += s.reqMsgs
	l.sum.desc += s.desc
	if !c.write {
		l.readBytes += n
	}
	if len(l.kept) < keptCalls {
		l.kept = append(l.kept, spans(ct))
	}
}

// per divides, reporting 0 for an empty denominator.
func per(v, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// sumStats adds the servers' I/O counters.
func sumStats(snaps []*pvfs.ServerSnapshot) (io iostats.Snapshot, replays, hits, misses int64) {
	for _, s := range snaps {
		io.DiskOps += s.IOStats.DiskOps
		io.DiskOpsMerged += s.IOStats.DiskOpsMerged
		io.DiskVecOps += s.IOStats.DiskVecOps
		io.SeekBytes += s.IOStats.SeekBytes
		replays += s.CompiledReplays
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	return
}

// traced runs the census and the timed blocks of a traced run and
// fills m with the per-layer metrics.
//
// Counts come from a census: every distinct call once, in a fixed
// order, so they repeat exactly run to run whatever the seed. Times
// come from blockDur blocks that alternate traced and untraced calls;
// the untraced blocks go through the same wrappers switched off and
// give the tracing overhead.
func (b *bench) traced(t *tally, m map[string]metric, stdout io.Writer) error {
	before, err := b.c.serverStats(b.cl)
	if err != nil {
		return fmt.Errorf("server stats: %w", err)
	}
	var census layerTally
	var ct tally
	b.rec.capture.Store(true)
	for _, c := range b.w.distinct() {
		b.one(c, &ct, true, &census)
	}
	b.rec.capture.Store(false)
	after, err := b.c.serverStats(b.cl)
	if err != nil {
		return fmt.Errorf("server stats: %w", err)
	}

	var on, off tally
	var timed layerTally
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		end := time.Now().Add(blockDur)
		if end.After(deadline) {
			end = deadline
		}
		if i%2 == 0 {
			b.loop(end, &on, true, &timed)
		} else {
			b.loop(end, &off, false, nil)
		}
	}
	for _, x := range []*tally{&ct, &on, &off} {
		t.attempted += x.attempted
		t.failed += x.failed
		for i := range t.ops {
			t.ops[i].lat = append(t.ops[i].lat, x.ops[i].lat...)
			t.ops[i].bytes += x.ops[i].bytes
			t.ops[i].busy += x.ops[i].busy
		}
	}

	v := map[string]float64{}
	cn, cs := census.calls, &census.sum
	io0, rep0, hit0, miss0 := sumStats(before)
	io1, rep1, hit1, miss1 := sumStats(after)
	v["storage.calls"] = per(cs.storageCalls, cn)
	v["storage.bytes"] = per(cs.storageBytes, cn)
	v["storage.read_amplification"] = per(cs.storageReadBytes, census.readBytes)
	v["sched.runs_in"] = per(io1.DiskOps-io0.DiskOps, cn)
	v["sched.ops_out"] = per(io1.DiskOpsMerged-io0.DiskOpsMerged, cn)
	v["sched.vec_ops"] = per(io1.DiskVecOps-io0.DiskVecOps, cn)
	v["sched.seek_bytes"] = per(io1.SeekBytes-io0.SeekBytes, cn)
	v["server.requests"] = per(cs.serverReqs, cn)
	v["server.compiled_replays"] = per(rep1-rep0, cn)
	v["server.loopcache_hit_ratio"] = per(hit1-hit0, hit1-hit0+miss1-miss0)
	v["net.frames"] = per(cs.frames, cn)
	v["net.bytes"] = per(cs.bytes, cn)
	v["client.wire_msgs"] = per(cs.reqMsgs, cn)
	v["client.req_desc_bytes"] = per(cs.desc, cn)

	tn, ts := timed.calls, &timed.sum
	us := func(ns int64) float64 { return per(ns, tn) / 1e3 }
	v["trace.call_us"] = us(ts.call)
	v["client.self_us"] = us(ts.clientSelf)
	v["client.recv_wait_us"] = us(ts.recvWait)
	v["net.transit_us"] = us(ts.transit)
	v["server.busy_us"] = us(ts.serverBusy)
	v["server.self_us"] = us(ts.serverSelf)
	v["storage.busy_us"] = us(ts.storageBusy)
	v["storage.share"] = per(ts.storageBusy, ts.call)
	onP50, offP50 := on.p50(), off.p50()
	v["trace.overhead_ratio"] = 0
	if offP50 > 0 {
		v["trace.overhead_ratio"] = onP50/offP50 - 1
	}
	replayed, err := replayLayers(b.w, b.rec.captured)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	for k, x := range replayed {
		v[k] = x
	}

	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m[k] = metric{v[k], layerUnits[k]}
		fmt.Fprintf(stdout, "  %-28s %14.3f %s\n", k, v[k], layerUnits[k])
	}
	fmt.Fprintf(stdout, "  census %d calls; timed %d traced + %d untraced calls\n", cn, tn, off.attempted)
	return b.writeSpans(&census, &timed)
}

// writeSpans writes the kept calls' span trees to the output directory.
func (b *bench) writeSpans(census, timed *layerTally) error {
	path := filepath.Join(b.o.out, fmt.Sprintf("perfbench-spans-%s-seed%d.json", b.o.workload, b.o.seed))
	doc := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Census   [][]span `json:"census"`
		Timed    [][]span `json:"timed"`
	}{b.o.workload, b.o.seed, census.kept, timed.kept}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
