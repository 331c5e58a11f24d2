package main

import (
	"fmt"
	"math/rand"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/workloads"
)

// jvm98 runs the paper's own programs — the four Figure 1 micro
// benchmarks and the seven Figure 2 SPEC JVM98 analogues — one isolate
// per VM on the sequential engine, each program in an Isolated (I-JVM)
// and a Shared (baseline) VM.

// fig1Iters is the Figure 1 micro-benchmark iteration count.
const fig1Iters = 100_000

// jvm98Checksums are the recorded results of each program's first run;
// jvm98Deltas are what each further run of the same VM adds (the
// inter-isolate and static-access drivers accumulate into state that
// survives the run). Both modes must produce exactly these.
var (
	jvm98Checksums = map[string]int64{
		"intra": 100000, "inter": 100000, "alloc": 100000, "static": 100000,
		"compress": 1441540, "jess": 15568800, "db": 15184, "javac": 15600,
		"mpegaudio": 4315, "mtrt": 18000, "jack": 9500,
	}
	jvm98Deltas = map[string]int64{"inter": 100000, "static": 100000}
)

var jvm98Modes = [2]struct {
	slug string
	mode core.Mode
}{{"ijvm", core.ModeIsolated}, {"shared", core.ModeShared}}

func jvm98Params() map[string]any {
	n := map[string]int64{}
	for _, s := range workloads.SpecJVM98() {
		n[s.Name] = s.DefaultN
	}
	return map[string]any{
		"engine": "sequential CallRoot, one isolate per VM", "micro_iters": fig1Iters, "spec_n": n,
		"pass": "every program once per mode; seeded program order and first mode",
	}
}

type jvm98Prog struct {
	slug    string
	runners [2]*workloads.Runner
	runs    [2]int64
}

type jvm98 struct {
	rng        *rand.Rand
	progs      []*jvm98Prog
	pass       int64
	firstRunMs float64
	// traced-block counters
	instrs, allocBytes []float64
	gcCount            int64
	// affinity is the process's CPU mask at set-up; measurement passes
	// take turns over its CPUs (see measure).
	affinity cpuSet
	cpus     []int
}

func newJVM98Runner(slug string, mode core.Mode) (*workloads.Runner, error) {
	for i, k := range workloads.MicroKinds() {
		if specSlugs[i] == slug {
			return workloads.NewMicroRunner(mode, k, fig1Iters)
		}
	}
	spec := workloads.SpecByName(slug)
	if spec == nil {
		return nil, fmt.Errorf("jvm98: unknown program %s", slug)
	}
	return workloads.NewSpecRunner(mode, *spec, spec.DefaultN)
}

// setupJVM98 builds the 22 VMs and runs each program once (the warm-up:
// code preparation and hot-tier promotion), checking the results.
func setupJVM98(seed int64) (bench, error) {
	j := &jvm98{rng: rand.New(rand.NewSource(seed))}
	// Passes take turns over the CPUs only where the process may pin
	// itself; elsewhere the kernel places it.
	if set, ok := getAffinity(); ok && len(set.cpus()) > 1 && pinProcess(set.cpus()[0]) == nil {
		if err := setProcessAffinity(&set); err != nil {
			return nil, err
		}
		j.affinity, j.cpus = set, set.cpus()
	}
	var first time.Duration
	for _, slug := range specSlugs {
		p := &jvm98Prog{slug: slug}
		for mi, m := range jvm98Modes {
			r, err := newJVM98Runner(slug, m.mode)
			if err != nil {
				return nil, err
			}
			p.runners[mi] = r
			start := time.Now()
			err = p.run(mi)
			first += time.Since(start)
			if err != nil {
				return nil, err
			}
		}
		j.progs = append(j.progs, p)
	}
	j.firstRunMs = float64(first) / float64(time.Millisecond)
	return j, nil
}

// run executes one run of the program in mode mi and checks its result.
func (p *jvm98Prog) run(mi int) error {
	v, err := p.runners[mi].Run()
	if err != nil {
		return fmt.Errorf("%s/%s: %w", p.slug, jvm98Modes[mi].slug, err)
	}
	want := jvm98Checksums[p.slug] + p.runs[mi]*jvm98Deltas[p.slug]
	p.runs[mi]++
	if v != want {
		return fmt.Errorf("%s/%s: checksum %d, want %d", p.slug, jvm98Modes[mi].slug, v, want)
	}
	return nil
}

func (j *jvm98) vmTotals() (instrs, alloc, gcs int64) {
	for _, p := range j.progs {
		for _, r := range p.runners {
			vm := r.VM()
			instrs += vm.TotalInstructions()
			gcs += vm.Heap().GCCount()
			for _, s := range vm.Snapshots() {
				alloc += s.AllocatedBytes
			}
		}
	}
	return
}

// measure runs whole passes until the deadline. One pass runs every
// program once in each mode, in a seeded order.
//
// On a shared host one CPU can run the interpreter 1.6 times slower
// than another for minutes while a plain arithmetic loop runs at the
// same speed on both, so the CPU a single-threaded run lands on would
// decide its result. The passes therefore take turns over the CPUs the
// process may use, the process pinned to one CPU for a whole pass, and
// every timing is summarized per CPU and then averaged over the CPUs.
func (j *jvm98) measure(deadline time.Time, tr *tracer, t *tally) error {
	t.progs, t.cpuSteal, t.cpuBusy, t.cpuRef = map[string][]float64{}, map[int]int64{}, map[int]int64{}, map[int][]float64{}
	if len(j.cpus) > 1 {
		defer setProcessAffinity(&j.affinity)
	}
	for {
		j.pass++
		cpu, hostCPU := int(j.pass)%max(len(j.cpus), 1), -1
		if len(j.cpus) > 1 {
			hostCPU = j.cpus[cpu]
			if err := pinProcess(hostCPU); err != nil {
				return fmt.Errorf("jvm98: pin to CPU %d: %w", hostCPU, err)
			}
		}
		steal0, busy0, _ := cpuTimes(hostCPU)
		traced := tr.on.Load()
		var i0, a0, g0 int64
		if traced {
			i0, a0, g0 = j.vmTotals()
		}
		passID := tr.id()
		passStart := time.Now()
		var ijvm []float64
		for _, pi := range j.rng.Perm(len(j.progs)) {
			p := j.progs[pi]
			firstMode := j.rng.Intn(2)
			for k := 0; k < 2; k++ {
				mi := (firstMode + k) % 2
				t.attempted++
				start := time.Now()
				err := p.run(mi)
				end := time.Now()
				if err != nil {
					t.fail(err)
					continue
				}
				ms := float64(end.Sub(start)) / float64(time.Millisecond)
				key := p.slug + "." + jvm98Modes[mi].slug
				t.progs[cpuKey(cpu, key)] = append(t.progs[cpuKey(cpu, key)], ms)
				tr.add(0, passID, j.pass, "interp.run_ms."+key, start, end)
				if mi == 0 {
					ijvm = append(ijvm, ms)
				}
			}
		}
		tr.add(passID, 0, j.pass, "jvm98.request", passStart, time.Now())
		if steal1, busy1, ok := cpuTimes(hostCPU); ok {
			t.cpuSteal[cpu] += steal1 - steal0
			t.cpuBusy[cpu] += busy1 - busy0
		}
		// Collect every VM between passes, untimed: with the programs'
		// 512 MiB modelled heap limit, garbage would otherwise pile up
		// in the host heap for the whole run, and the host collector's
		// work would leak into the timings.
		j.collectAll(tr, j.pass)
		t.cpuRef[cpu] = append(t.cpuRef[cpu], hostRefMs())
		if len(ijvm) == len(j.progs) {
			t.ops++
			t.lats = append(t.lats, geomean(ijvm))
			t.cpus = append(t.cpus, cpu)
		}
		if traced {
			i1, a1, g1 := j.vmTotals()
			j.instrs = append(j.instrs, float64(i1-i0))
			j.allocBytes = append(j.allocBytes, float64(a1-a0))
			j.gcCount += g1 - g0
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

func cpuKey(cpu int, key string) string { return fmt.Sprintf("%d/%s", cpu, key) }

// perCPU applies f to the run times measured on each CPU that has any,
// scales each result to the CPU time the hypervisor gave that CPU
// during its passes (see opsPerSec in main.go: a pass is long enough to
// see the CPU's steal in proportion) and to the nominal host speed (the
// median of the reference's times on that CPU against refNominalMs,
// see hostref.go), and returns the mean over the CPUs (ok is false if
// no CPU has samples).
func (j *jvm98) perCPU(blocks []*tally, samples func(cpu int) []float64, f func([]float64) float64) (mean float64, ok bool) {
	var sum float64
	n := 0
	for cpu := 0; cpu < max(len(j.cpus), 1); cpu++ {
		var steal, busy int64
		var refs []float64
		for _, t := range blocks {
			steal, busy = steal+t.cpuSteal[cpu], busy+t.cpuBusy[cpu]
			refs = append(refs, t.cpuRef[cpu]...)
		}
		if xs := samples(cpu); len(xs) > 0 && len(refs) > 0 {
			sum += f(xs) * (1 - stealShare(steal, busy)) * refNominalMs / median(refs)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// progMedians returns each program's run time per mode, in the order
// of specSlugs: its median run time on each CPU, averaged over the CPUs.
func (j *jvm98) progMedians(blocks []*tally) (ijvm, shared []float64) {
	for _, slug := range specSlugs {
		for mi, mode := range jvm98Modes {
			v, ok := j.perCPU(blocks, func(cpu int) []float64 {
				var xs []float64
				for _, t := range blocks {
					xs = append(xs, t.progs[cpuKey(cpu, slug+"."+mode.slug)]...)
				}
				return xs
			}, median)
			if !ok {
				return nil, nil
			}
			if mi == 0 {
				ijvm = append(ijvm, v)
			} else {
				shared = append(shared, v)
			}
		}
	}
	return ijvm, shared
}

// latency summarizes the passes' geometric-mean I-JVM run times per CPU
// (median, and the tail over the pooled blocks: a block holds only a
// few passes), averaged over the CPUs. The tail is 0 when a CPU ran too
// few passes to have one.
func (j *jvm98) latency(blocks []*tally) (p50, tail, tailPct float64) {
	onCPU := func(cpu int) []float64 {
		var xs []float64
		for _, t := range blocks {
			for i, c := range t.cpus {
				if c == cpu {
					xs = append(xs, t.lats[i])
				}
			}
		}
		return xs
	}
	var pcts []float64
	for cpu := 0; cpu < max(len(j.cpus), 1); cpu++ {
		if xs := onCPU(cpu); len(xs) > 0 {
			_, p, ok := tailOf(xs)
			if !ok {
				pcts = nil
				break
			}
			pcts = append(pcts, p)
		}
	}
	p50, _ = j.perCPU(blocks, onCPU, median)
	if pcts == nil {
		return p50, 0, 0
	}
	tail, _ = j.perCPU(blocks, onCPU, func(xs []float64) float64 {
		v, _, _ := tailOf(xs)
		return v
	})
	return p50, tail, median(pcts)
}

// hostRef is the host-speed reference's median time over the blocks,
// for the report.
func (j *jvm98) hostRef(blocks []*tally) float64 {
	var refs []float64
	for _, t := range blocks {
		for _, xs := range t.cpuRef {
			refs = append(refs, xs...)
		}
	}
	return median(refs)
}

// opsPerSec is the geometric mean over the programs of I-JVM runs per
// second, each program's rate taken from its run time (progMedians), so
// every program weighs the same; like every workload's ops_s it counts
// only the CPU time the hypervisor gave the machine (see opsPerSec in
// main.go), and it is scaled to the nominal host speed (perCPU).
func (j *jvm98) opsPerSec(blocks []*tally) float64 {
	ijvm, _ := j.progMedians(blocks)
	if ijvm == nil {
		return 0
	}
	return 1000 / geomean(ijvm)
}

// overhead is the paper's Figure 1/2 headline: the geometric mean over
// the programs of I-JVM time divided by Shared time.
func (j *jvm98) overhead(blocks []*tally) float64 {
	ijvm, shared := j.progMedians(blocks)
	if ijvm == nil {
		return 0
	}
	return overheadX(ijvm, shared)
}

// overheadX is the geometric mean of the per-program I-JVM/Shared ratios.
func overheadX(ijvm, shared []float64) float64 {
	ratios := make([]float64, len(ijvm))
	for i := range ijvm {
		ratios[i] = ijvm[i] / shared[i]
	}
	return geomean(ratios)
}

func (j *jvm98) layers(m map[string]float64, tr *tracer) error {
	var ijvm, shared []float64
	for _, slug := range specSlugs {
		for mi, mode := range jvm98Modes {
			key := slug + "." + mode.slug
			d := pct(tr.durations("interp.run_ms."+key, time.Millisecond), 0.5)
			m["interp.run_ms."+key] = d
			if mi == 0 {
				ijvm = append(ijvm, d)
			} else {
				shared = append(shared, d)
			}
		}
	}
	m["interp.overhead_x"] = overheadX(ijvm, shared)
	m["interp.instrs_per_pass"] = median(j.instrs)
	m["interp.first_run_ms"] = j.firstRunMs
	m["heap.alloc_bytes_per_pass"] = median(j.allocBytes)
	m["heap.gc_count"] = float64(j.gcCount)
	m["heap.collect_ms.p50"] = pct(tr.durations("heap.collect", time.Millisecond), 0.5)
	m["heap.collect_ms.p99"] = pct(tr.durations("heap.collect", time.Millisecond), 0.99)
	var foot int64
	for _, p := range j.progs {
		for _, r := range p.runners {
			foot += r.VM().MemoryFootprint()
		}
	}
	m["heap.footprint_mb"] = float64(foot) / 1e6
	m["jvm98.self_ms"] = median(tr.selfTimes("jvm98.request", time.Millisecond))
	d, err := defineMs(tr, func() [][]*classfile.Class {
		sets := [][]*classfile.Class{
			workloads.IntraCallClasses(), workloads.ServiceClasses(), workloads.CallerClasses(),
			workloads.AllocClasses(), workloads.StaticAccessClasses(),
		}
		for _, s := range workloads.SpecJVM98() {
			sets = append(sets, s.Classes())
		}
		return sets
	})
	if err != nil {
		return err
	}
	m["loader.define_ms"] = d
	return nil
}

func (j *jvm98) collect() { j.collectAll(untraced, 0) }

func (j *jvm98) collectAll(tr *tracer, pass int64) {
	for _, p := range j.progs {
		for _, r := range p.runners {
			tr.timed(0, pass, "heap.collect", func() { r.VM().CollectGarbage(nil) })
		}
	}
}

func (j *jvm98) close() {}
