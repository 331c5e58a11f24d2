// Command perfbench is the repository benchmark. It runs one workload
// (jvm98 or mesh) against the interpreter, scheduler,
// serving pool, OSGi registry and RPC layers through their public
// functions, checks every output against an oracle, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of standard output.
//
//	go run . --workload mesh --seed 1 --seconds 10 --trace 0
//
// The line before the result is a report: provenance, workload
// parameters, and the spread (n, median, quartiles, min/max) of every
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// bench is one set-up workload. measure runs operations until the
// deadline, recording spans in tr while tracing is on; layers adds the
// workload's per-layer metrics after the traced blocks; collect runs
// the VM collectors, so that mem_mb counts live data, not garbage the
// VM has not yet swept.
type bench interface {
	measure(deadline time.Time, tr *tracer, t *tally) error
	layers(m map[string]float64, tr *tracer) error
	collect()
	close()
}

// rater is implemented by workloads whose ops_s is not a plain count
// over wall time (jvm98: geometric mean of per-program run rates).
type rater interface {
	opsPerSec(blocks []*tally) float64
}

// tally is what one measurement block observed.
type tally struct {
	attempted, failed int64
	ops               int64     // operations that count toward ops_s
	lats              []float64 // per-operation wall latency, ms
	wall              time.Duration
	steal, busy       int64 // machine CPU ticks over the block (see cpuTimes)
	firstErr          error
	// jvm98: run times per CPU, program and mode (ms), the CPU each of
	// lats was measured on, and per CPU the steal and busy ticks over
	// the passes it ran and the host-speed reference's times after them.
	progs             map[string][]float64
	cpus              []int
	cpuSteal, cpuBusy map[int]int64
	cpuRef            map[int][]float64
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// merge adds what another driver goroutine observed in the same block.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.lats = append(t.lats, o.lats...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// workloadDef is a workload: its set-up, its parameters for the
// report, and how many Go Ps (GOMAXPROCS) its load needs. jvm98 runs on
// one goroutine; mesh's frontends and links hand work back and forth
// and need no more Ps than CPUs (the siege phase of its traced run sets
// its own, see siegeProcs).
type workloadDef struct {
	setup  func(seed int64) (bench, error)
	params map[string]any
	procs  int
}

var workloadDefs = map[string]workloadDef{
	"jvm98": {setupJVM98, jvm98Params(), 1},
	"mesh":  {setupMesh, meshParams(), 2},
}

// metricDef is one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"mem_mb", "MB"},
	{"setup_s", "s"},
}

// specSlugs names the jvm98 programs in metric keys.
var specSlugs = []string{"intra", "inter", "alloc", "static", "compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack"}

func perLayer() []metricDef {
	var out []metricDef
	for _, p := range specSlugs {
		out = append(out, metricDef{"interp.run_ms." + p + ".ijvm", "ms"}, metricDef{"interp.run_ms." + p + ".shared", "ms"})
	}
	out = append(out, []metricDef{
		{"interp.overhead_x", "x"},
		{"interp.instrs_per_pass", "count"},
		{"interp.first_run_ms", "ms"},
		{"interp.spawn_us.p50", "us"}, {"interp.spawn_us.p99", "us"},
		{"interp.snapshot_ms", "ms"},
		{"interp.clone_us.p50", "us"}, {"interp.clone_us.p99", "us"},
		{"interp.kill_us.p50", "us"}, {"interp.kill_us.p99", "us"},
		{"interp.free_us.p50", "us"}, {"interp.free_us.p99", "us"},
		{"heap.collect_ms.p50", "ms"}, {"heap.collect_ms.p99", "ms"},
		{"heap.gc_count", "count"},
		{"heap.alloc_bytes_per_pass", "bytes"},
		{"heap.footprint_mb", "MB"},
		{"core.snapshots_us", "us"},
		{"core.attacker_instr_frac", "fraction"},
		{"loader.define_ms", "ms"},
		{"sched.wait_ticks.p50", "ticks"}, {"sched.wait_ticks.p99", "ticks"},
		{"sched.useful_frac", "fraction"},
		{"sched.gov.ticks", "count"}, {"sched.gov.deprioritizations", "count"},
		{"sched.gov.throttles", "count"}, {"sched.gov.kills", "count"}, {"sched.gov.restores", "count"},
		{"sched.contain_ticks.p50", "ticks"}, {"sched.contain_ticks.max", "ticks"},
		{"serve.acquire_us.p50", "us"}, {"serve.acquire_us.p99", "us"}, {"serve.release_us.p50", "us"},
		{"serve.saturated", "count"}, {"serve.recycled", "count"}, {"serve.clone_failures", "count"},
		{"osgi.fanout_us.scalar.p50", "us"}, {"osgi.fanout_us.scalar.p99", "us"},
		{"osgi.fanout_us.payload.p50", "us"}, {"osgi.fanout_us.payload.p99", "us"},
		{"rpc.wait_us.scalar.p50", "us"}, {"rpc.wait_us.scalar.p99", "us"},
		{"rpc.wait_us.payload.p50", "us"}, {"rpc.wait_us.payload.p99", "us"},
		{"rpc.rejected", "count"}, {"rpc.failed", "count"},
		{"rpc.copy_us.p50", "us"},
		{"osgi.install_ms", "ms"},
		{"jvm98.self_ms", "ms"}, {"mesh.self_ms", "ms"}, {"siege.self_ms", "ms"},
		{"trace.overhead_frac", "fraction"},
	}...)
	return out
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up system is the one measured.
const setupReps = 9

// blockLen is the length of one measurement block. Traced runs
// alternate untraced and traced blocks so both see the same system
// state; the difference between them is the tracing overhead.
const blockLen = time.Second

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	GitSHA     string             `json:"git_sha"`
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	GoVersion  string             `json:"go_version"`
	Params     map[string]any     `json:"params"`
	Blocks     int                `json:"blocks"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FailFrac   float64            `json:"fail_frac"`
	FirstError string             `json:"first_error,omitempty"`
	TailPct    float64            `json:"lat_tail_percentile"`
	OverheadX  float64            `json:"overhead_x,omitempty"`
	Spread     map[string]summary `json:"spread"`
	Spans      string             `json:"spans,omitempty"`
	StealShare float64            `json:"steal_share"`
	LatTail    float64            `json:"lat_tail_ms"`
	HostRefMs  float64            `json:"host_ref_ms,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: jvm98 or mesh")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps")
	sha := flag.String("sha", "unknown", "git revision of the measured tree (provenance only)")
	flag.Parse()
	def, ok := workloadDefs[*workload]
	// A traced run alternates untraced and traced blocks, so it needs two.
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 1 && *seconds < 2) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload jvm98|mesh --seed N --seconds S --trace 0|1 (S >= 2 when traced)")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(def.procs)
	rep := &report{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		GitSHA: *sha, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Params: def.params,
	}
	res, err := execute(def, rep, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	repJSON, err := json.Marshal(map[string]*report{"report": rep})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(repJSON))
	fmt.Println(string(resJSON))
}

// execute sets the workload up setupReps times, measures it for
// rep.Seconds in blocks, and derives the metrics.
func execute(def workloadDef, rep *report, outDir string) (*result, error) {
	var (
		b                  bench
		setups, setupsWall []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		// Set-up time is scaled to the nominal host speed by the
		// host-speed reference timed just before it (see hostref.go).
		ref := median([]float64{hostRefMs(), hostRefMs(), hostRefMs()})
		start := time.Now()
		nb, err := def.setup(rep.Seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		wall := time.Since(start).Seconds()
		setupsWall = append(setupsWall, wall)
		setups = append(setups, wall*refNominalMs/ref)
		b = nb
	}
	defer b.close()

	tr := &tracer{}
	t0 := time.Now()
	var plain, traced []*tally
	nBlocks := int(time.Duration(rep.Seconds) * time.Second / blockLen)
	for i := 0; i < nBlocks; i++ {
		on := rep.Trace && i%2 == 1
		tr.on.Store(on)
		t := &tally{}
		steal0, busy0, _ := cpuTimes(-1)
		start := time.Now()
		if err := b.measure(start.Add(blockLen), tr, t); err != nil {
			return nil, err
		}
		t.wall = time.Since(start)
		if steal1, busy1, ok := cpuTimes(-1); ok {
			t.steal, t.busy = steal1-steal0, busy1-busy0
		}

		if on {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	tr.on.Store(false)
	rep.Blocks = nBlocks

	var firstErr error
	for _, blocks := range [][]*tally{plain, traced} {
		for _, t := range blocks {
			rep.Attempted += t.attempted
			rep.Failed += t.failed
			if firstErr == nil {
				firstErr = t.firstErr
			}
		}
	}
	if rep.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}
	rep.FailFrac = float64(rep.Failed) / float64(rep.Attempted)
	res := &result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricOut{}}

	rep.Spread = map[string]summary{}
	opsPlain := opsPerSec(b, plain, rep.Spread)
	if !rep.Trace {
		var lats []float64
		for _, t := range plain {
			lats = append(lats, t.lats...)
		}
		rep.Spread["lat_ms"] = summarize(lats)
		var p50s []float64
		for _, t := range plain {
			p50s = append(p50s, pct(t.lats, 0.5))
		}
		rep.Spread["lat_p50_ms_per_block"] = summarize(p50s)
		rep.Spread["setup_s"] = summarize(setups)
		rep.Spread["setup_s_wall"] = summarize(setupsWall)
		var steal, busy int64
		for _, t := range plain {
			steal, busy = steal+t.steal, busy+t.busy
		}
		rep.StealShare = stealShare(steal, busy)
		vals := map[string]float64{
			"ops_s":      opsPlain,
			"lat_p50_ms": rep.Spread["lat_ms"].Median,
			"setup_s":    median(setups),
		}
		if j, ok := b.(*jvm98); ok {
			rep.OverheadX = j.overhead(plain)
			vals["lat_p50_ms"], rep.LatTail, rep.TailPct = j.latency(plain)
			rep.HostRefMs = j.hostRef(plain)
		} else {
			rep.LatTail, rep.TailPct = latencyTail(plain, lats, rep.Spread)
		}
		// mem_mb counts the system's live data: drop the benchmark's own
		// samples and let the VMs sweep their garbage first.
		plain, lats = nil, nil
		b.collect()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		vals["mem_mb"] = float64(ms.HeapAlloc) / 1e6
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{vals[m.name], m.unit}
		}
		return res, nil
	}

	// Traced run: per-layer metrics. Layers a workload bypasses stay 0.
	vals := map[string]float64{}
	for _, m := range perLayer() {
		vals[m.name] = 0
	}
	opsTraced := opsPerSec(b, traced, map[string]summary{})
	if opsPlain > 0 {
		vals["trace.overhead_frac"] = (opsPlain - opsTraced) / opsPlain
	}
	if err := tr.check(); err != nil {
		return nil, err
	}
	// Side phases inside layers are traced too.
	tr.on.Store(true)
	err := b.layers(vals, tr)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep.Spans = filepath.Join(outDir, "spans-"+rep.Workload+".tsv")
	if err := tr.write(rep.Spans, t0); err != nil {
		return nil, err
	}
	for _, m := range perLayer() {
		res.Metrics[m.name] = metricOut{vals[m.name], m.unit}
	}
	if len(res.Metrics) != len(vals) {
		return nil, fmt.Errorf("a workload reported a per-layer metric that is not declared: %d declared, %d reported", len(res.Metrics), len(vals))
	}
	return res, nil
}

// latencyTail is the latency at the highest percentile that has at
// least ten samples beyond it, taken in every block, and reported as
// the interquartile mean over blocks (over the pooled samples when a
// block holds too few; 0 when those are too few too). It is in the
// report, not the result: see perfbench/README.md.
func latencyTail(blocks []*tally, pooled []float64, spread map[string]summary) (tail, tailPct float64) {
	var tails, pcts []float64
	for _, t := range blocks {
		v, p, ok := tailOf(t.lats)
		if !ok {
			tails, pcts = nil, nil
			break
		}
		tails, pcts = append(tails, v), append(pcts, p)
	}
	if tails == nil {
		v, p, ok := tailOf(pooled)
		if !ok {
			return 0, 0
		}
		tails, pcts = []float64{v}, []float64{p}
	}
	spread["lat_tail_ms_per_block"] = summarize(tails)
	return interquartileMean(tails), median(pcts)
}

// opsPerSec is the median over blocks of operations per second of the
// CPU time the hypervisor gave the machine, unless the workload defines
// its own rate. On a shared host the hypervisor takes from 1% to over
// 20% of the machine's wanted CPU time within minutes (steal time), and
// the raw rate follows it; the block's wall time is scaled by the share
// of wanted CPU time the machine actually got.
func opsPerSec(b bench, blocks []*tally, spread map[string]summary) float64 {
	if r, ok := b.(rater); ok {
		return r.opsPerSec(blocks)
	}
	var per []float64
	for _, t := range blocks {
		per = append(per, float64(t.ops)/t.wall.Seconds()/(1-stealShare(t.steal, t.busy)))
	}
	spread["ops_s_per_block"] = summarize(per)
	return median(per)
}
