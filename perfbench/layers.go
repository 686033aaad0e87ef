package main

import (
	"fmt"
	"time"

	"dtio/internal/dataloop"
	"dtio/internal/flatten"
	"dtio/internal/striping"
	"dtio/internal/wire"
)

// replayBudget is how long each layer function is repeated for.
const replayBudget = 25 * time.Millisecond

// repeat runs fn until replayBudget has passed and returns the mean
// time of one run and the mean of the unit counts fn returned.
func repeat(fn func() int64) (ns, units float64) {
	var n, u int64
	start := time.Now()
	for time.Since(start) < replayBudget {
		u += fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), float64(u) / float64(n)
}

// sink keeps the compiler from discarding results of timed calls.
var sink any

// replayLayers times each layer's public functions on the workload's
// own views and memory type, and wire.DecodeMsg on request frames the
// traced run captured. Results are per call (one view plus one memory
// type), per run emitted, per striping piece or per frame.
func replayLayers(w workload, frames [][]byte) (map[string]float64, error) {
	views, mem := w.types()
	nv := float64(len(views))
	loops := make([]*dataloop.Loop, len(views))
	encs := make([][]byte, len(views))
	progs := make([]*flatten.Program, len(views))
	var encBytes int
	for i, v := range views {
		loops[i] = dataloop.FromType(v)
		encs[i] = loops[i].Encode(nil)
		encBytes += len(encs[i])
		progs[i] = flatten.Compile(loops[i])
	}
	m := map[string]float64{"dataloop.encoded_bytes": float64(encBytes) / nv}

	ns, _ := repeat(func() int64 {
		for _, v := range views {
			sink = dataloop.FromType(v)
			sink = dataloop.FromType(mem)
		}
		return 0
	})
	m["dataloop.fromtype_us"] = ns / nv / 1e3
	for _, e := range encs {
		if _, _, err := dataloop.Decode(e); err != nil {
			return nil, fmt.Errorf("decode an encoded view: %w", err)
		}
	}
	ns, _ = repeat(func() int64 {
		for _, e := range encs {
			sink, _, _ = dataloop.Decode(e)
		}
		return 0
	})
	m["dataloop.decode_us"] = ns / nv / 1e3
	ns, _ = repeat(func() int64 {
		for _, l := range loops {
			sink = flatten.Compile(l)
		}
		return 0
	})
	m["flatten.compile_us"] = ns / nv / 1e3

	ns, runs := repeat(func() int64 {
		var n int64
		for _, p := range progs {
			p.Replay(1, 0, 0, p.Size(), func(off, ln int64) error { n++; return nil })
		}
		return n
	})
	m["flatten.replay_ns_per_run"] = ns / runs
	ns, runs = repeat(func() int64 {
		var n int64
		for _, l := range loops {
			it := flatten.NewIter(l, 1, 0, true)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				n++
			}
		}
		return n
	})
	m["flatten.iter_ns_per_run"] = ns / runs

	var regs []flatten.Region
	for _, l := range loops {
		regs = append(regs, flatten.NewIter(l, 1, 0, true).Collect()...)
	}
	lay := striping.Layout{StripSize: stripBytes, NServers: nServers}
	ns, pieces := repeat(func() int64 {
		var n int64
		for _, r := range regs {
			lay.Split(r.Off, r.Len, func(striping.Piece) bool { n++; return true })
		}
		return n
	})
	m["striping.split_ns_per_piece"] = ns / pieces

	m["wire.decode_ns_per_frame"] = 0
	if len(frames) == 0 {
		return m, nil
	}
	for _, f := range frames {
		if _, _, err := wire.DecodeMsg(f); err != nil {
			return nil, fmt.Errorf("decode a captured request frame: %w", err)
		}
	}
	ns, _ = repeat(func() int64 {
		for _, f := range frames {
			_, sink, _ = wire.DecodeMsg(f)
		}
		return 0
	})
	m["wire.decode_ns_per_frame"] = ns / float64(len(frames))
	return m, nil
}
