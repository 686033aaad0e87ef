// Command perfbench is the wall-clock benchmark for datatype I/O. It
// brings up one metadata server and two I/O servers in this process,
// over loopback TCP with file-backed objects, and drives them with one
// closed-loop client issuing one MPI-IO call at a time, as an MPI rank
// waits for each reply. See README.md for the workloads and metrics.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// wraps the client and server networks and the object stores, and
// prints per-layer metrics instead. The last line of standard output is
// one JSON object; the exit code is nonzero if any call failed or read
// a wrong byte.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"dtio/internal/pvfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how many times an untraced run sets the cluster up; it
// reports the median set-up time and measures on the last cluster.
const setups = 9

// blockDur is the length of one traced or untraced block in a traced
// run; the two alternate so drift hits both alike.
const blockDur = 250 * time.Millisecond

// keptCalls is how many traced calls have their spans written out.
const keptCalls = 8

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for objects and the span file
	sizes    sizes
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for data contents and call order")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for object files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	o.trace = trace == 1
	o.sizes = fullSizes()
	return emit(o, stdout, stderr)
}

// emit measures and prints the result line, returning the exit code.
func emit(o options, stdout, stderr io.Writer) int {
	r, err := measure(o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opStats collects one op type's timed calls.
type opStats struct {
	lat   []time.Duration
	bytes int64
	busy  time.Duration // summed call time
}

// tally is the outcome of a set of calls, by op type (0 read, 1 write).
type tally struct {
	ops               [2]opStats
	attempted, failed int
}

func opIndex(c call) int {
	if c.write {
		return 1
	}
	return 0
}

// geomean returns the geometric mean of f over the op types issued, so
// that a change of r% in one op type moves it by the same share
// whichever op type is the slower one.
func (t *tally) geomean(f func(*opStats) float64) float64 {
	logSum, n := 0.0, 0
	for i := range t.ops {
		if len(t.ops[i].lat) > 0 {
			logSum += math.Log(f(&t.ops[i]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// p50 is the median call time in microseconds, taken per op type
// issued, combined by geometric mean.
func (t *tally) p50() float64 {
	return t.geomean(func(s *opStats) float64 { return quantile(s.lat, 0.50) })
}

// mbps is useful bytes over the summed time of the calls that moved
// them.
func (s *opStats) mbps() float64 {
	if s.busy == 0 {
		return 0
	}
	return float64(s.bytes) / 1e6 / s.busy.Seconds()
}

// mbps is the per-op-type MB/s, combined by geometric mean.
func (t *tally) mbps() float64 {
	return t.geomean((*opStats).mbps)
}

// quantile returns the nearest-rank q-quantile in microseconds.
func quantile(d []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i].Nanoseconds()) / 1e3
}

// bench is one run's state: the workload, its call order, and the
// cluster it measures.
type bench struct {
	o      options
	w      workload
	next   func() call
	rec    *recorder
	c      *cluster
	cl     *pvfs.Client
	stderr io.Writer
	errs   int // failures reported so far
}

// setUp brings a fresh cluster up under dir, lays the workload's file
// down and runs every distinct call once, untimed.
func (b *bench) setUp(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := startCluster(dir, b.rec)
	if err != nil {
		return err
	}
	b.c, b.cl = c, c.client()
	if err := b.w.open(c.env, b.cl); err != nil {
		return err
	}
	for _, cc := range b.w.distinct() {
		if _, err := b.w.do(c.env, cc); err != nil {
			return fmt.Errorf("warm-up %+v: %w", cc, err)
		}
		if !cc.write {
			if err := b.w.check(cc); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// tearDown stops the cluster and returns its memory to the OS, so the
// next set-up starts from the same heap and peak_rss_MB reflects one
// cluster, not the garbage of earlier ones.
func (b *bench) tearDown() {
	if b.c != nil {
		b.cl.Close()
		b.c.stop()
		b.c, b.cl = nil, nil
		debug.FreeOSMemory()
	}
}

// one issues call c and adds it to t. A call that errors or reads a
// wrong byte counts as failed and adds no latency sample.
func (b *bench) one(c call, t *tally, traced bool, lay *layerTally) {
	env := b.c.env
	if traced {
		b.rec.begin(int64(t.attempted + 1))
	}
	start := time.Now()
	n, err := b.w.do(env, c)
	d := time.Since(start)
	if traced {
		ct := b.rec.end()
		if err == nil {
			lay.add(ct, c, n)
		}
	}
	t.attempted++
	if err == nil && !c.write {
		err = b.w.check(c)
	}
	if err != nil {
		t.failed++
		if b.errs++; b.errs <= 5 {
			fmt.Fprintf(b.stderr, "perfbench: call %+v: %v\n", c, err)
		}
		return
	}
	s := &t.ops[opIndex(c)]
	s.lat = append(s.lat, d)
	s.bytes += n
	s.busy += d
}

// loop issues calls into t until the deadline.
func (b *bench) loop(until time.Time, t *tally, traced bool, lay *layerTally) {
	for time.Now().Before(until) {
		b.one(b.next(), t, traced, lay)
	}
}

// measure runs the whole benchmark and prints the human-readable lines.
func measure(o options, stdout, stderr io.Writer) (*report, error) {
	w, err := newWorkload(o.workload, o.sizes, o.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, next: sequence(w, o.seed), stderr: stderr}
	if o.trace {
		b.rec = newRecorder()
	}
	root := filepath.Join(o.out, fmt.Sprintf("perfbench-%d", os.Getpid()))
	defer os.RemoveAll(root)
	defer b.tearDown()

	fmt.Fprintf(stdout, "perfbench: workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "  cluster: 1 metadata + %d I/O servers, %d KiB strips, loopback TCP, file-backed objects, no fsync\n", nServers, stripBytes/1024)
	fmt.Fprintln(stdout, "  client: 1 closed-loop client, 1 MPI-IO call outstanding")

	n := setups
	if o.trace {
		n = 1
	}
	var setupS []float64
	for k := 0; k < n; k++ {
		b.tearDown()
		start := time.Now()
		if err := b.setUp(filepath.Join(root, strconv.Itoa(k))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	rep := &report{Metrics: map[string]metric{}}
	var t tally
	if o.trace {
		if err := b.traced(&t, rep.Metrics, stdout); err != nil {
			return nil, err
		}
	} else {
		b.loop(time.Now().Add(time.Duration(o.seconds*float64(time.Second))), &t, false, nil)
	}
	if err := w.finish(b.c.env); err != nil {
		t.failed++
		fmt.Fprintf(stderr, "perfbench: final check: %v\n", err)
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	rep.Correct = t.failed == 0 && t.attempted > 0

	for i, name := range []string{"read", "write"} {
		s := &t.ops[i]
		if len(s.lat) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %s_p50_us %.1f us\n  %s_p95_us %.1f us\n  %s_p99_us %.1f us\n  %s_MBps %.1f MB/s  (%d calls)\n",
			name, quantile(s.lat, 0.5), name, quantile(s.lat, 0.95), name, quantile(s.lat, 0.99), name, s.mbps(), len(s.lat))
	}
	fmt.Fprintf(stdout, "  failed_ratio %g  (%d of %d calls)\n", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	if !o.trace {
		p50 := t.p50()
		rss := peakRSSMB()
		setup := median(setupS)
		rep.Metrics["p50_us"] = metric{p50, "us"}
		rep.Metrics["MBps"] = metric{t.mbps(), "MB/s"}
		rep.Metrics["setup_s"] = metric{setup, "s"}
		rep.Metrics["peak_rss_MB"] = metric{rss, "MB"}
		fmt.Fprintf(stdout, "  setup_s %.3f s  (median of %d set-ups)\n  peak_rss_MB %.1f MB\n", setup, len(setupS), rss)
	}
	return rep, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
