// Command benchtable regenerates the paper's evaluation tables and
// figures (§4) as printed tables:
//
//	benchtable -table1      cost of 200 inter-bundle calls per mechanism
//	benchtable -fig1        micro-benchmark overhead, I-JVM vs baseline
//	benchtable -fig2        SPEC JVM98-analogue overhead, I-JVM vs baseline
//	benchtable -fig3        OSGi memory consumption, I-JVM vs baseline
//	benchtable -limits      §4.4 accounting-precision experiments
//	benchtable -all         everything
//
// Absolute times are host-dependent; the paper's claims are about
// *relative* numbers (ratios and orderings), which these tables print.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/limits"
	"ijvm/internal/osgi"
	"ijvm/internal/rpc"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
	"ijvm/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtable:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("benchtable", flag.ContinueOnError)
	t1 := fs.Bool("table1", false, "Table 1: inter-bundle call mechanisms")
	f1 := fs.Bool("fig1", false, "Figure 1: micro-benchmarks")
	f2 := fs.Bool("fig2", false, "Figure 2: SPEC JVM98 analogues")
	f3 := fs.Bool("fig3", false, "Figure 3: OSGi memory consumption")
	lim := fs.Bool("limits", false, "§4.4 accounting-precision experiments")
	qos := fs.Bool("qos", false, "scheduler QoS: adversarial SLO legs (tail latency under attack)")
	serve := fs.Bool("serve", false, "gateway serving density: cold vs clone vs recycled tenant spawns")
	all := fs.Bool("all", false, "run everything")
	reps := fs.Int("reps", 5, "repetitions per measurement (median reported)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *all {
		*t1, *f1, *f2, *f3, *lim, *qos, *serve = true, true, true, true, true, true, true
	}
	if !*t1 && !*f1 && !*f2 && !*f3 && !*lim && !*qos && !*serve {
		fs.Usage()
		return fmt.Errorf("select at least one table/figure")
	}
	if *t1 {
		if err := table1(*reps); err != nil {
			return err
		}
	}
	if *f1 {
		if err := fig1(*reps); err != nil {
			return err
		}
	}
	if *f2 {
		if err := fig2(*reps); err != nil {
			return err
		}
	}
	if *f3 {
		if err := fig3(); err != nil {
			return err
		}
	}
	if *lim {
		if err := limitsTable(); err != nil {
			return err
		}
	}
	if *qos {
		if err := qosTable(); err != nil {
			return err
		}
	}
	if *serve {
		if err := serveTable(); err != nil {
			return err
		}
	}
	return nil
}

// median runs fn reps times and returns the median duration. The host GC
// runs before every timed repetition so measurements of one mode are not
// skewed by garbage left behind by the previous one.
func median(reps int, fn func() error) (time.Duration, error) {
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// --- Table 1 -----------------------------------------------------------------

func table1(reps int) error {
	const calls = 200
	fmt.Println("Table 1: cost of 200 inter-bundle calls, by communication model")
	fmt.Println("(paper, Pentium D:  local 20us | RMI 90ms | Incommunicado 9ms | I-JVM 24us)")
	fmt.Println()

	// Local and I-JVM: guest-level drag loops.
	for _, row := range []struct {
		name string
		kind workloads.MicroKind
	}{
		{"Local method call", workloads.MicroIntra},
		{"I-JVM inter-bundle call", workloads.MicroInter},
	} {
		r, err := workloads.NewMicroRunner(core.ModeIsolated, row.kind, calls)
		if err != nil {
			return err
		}
		if r, err = r.WithDriver(workloads.DragDriverMethod); err != nil {
			return err
		}
		if _, err := r.Run(); err != nil { // warm up
			return err
		}
		d, err := median(reps, func() error { _, err := r.Run(); return err })
		if err != nil {
			return err
		}
		printTable1Row(row.name, d, calls)
	}

	// RPC baselines.
	vm, caller, callee, recv, err := rpcEnv()
	if err != nil {
		return err
	}
	svcClass, err := callee.Loader().Lookup(workloads.ServiceClassName)
	if err != nil {
		return err
	}
	dragM, err := svcClass.LookupMethod("drag", "(Ljava/lang/Object;)I")
	if err != nil {
		return err
	}
	event, err := dragEvent(vm, caller)
	if err != nil {
		return err
	}

	link := rpc.NewLink(vm, caller, callee, dragM, recv)
	if _, err := link.Call([]heap.Value{event}); err != nil {
		return err
	}
	d, err := median(reps, func() error {
		for i := 0; i < calls; i++ {
			if _, err := link.Call([]heap.Value{event}); err != nil {
				return err
			}
		}
		return nil
	})
	link.Close()
	if err != nil {
		return err
	}
	printTable1Row("Incommunicado (copy+handoff)", d, calls)

	srv, err := rpc.NewRMIServer(vm, callee, dragM, recv)
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := rpc.NewRMIClient(vm, caller, srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	if _, err := client.Call([]heap.Value{event}); err != nil {
		return err
	}
	d, err = median(reps, func() error {
		for i := 0; i < calls; i++ {
			if _, err := client.Call([]heap.Value{event}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	printTable1Row("RMI local call (serialize+TCP)", d, calls)
	fmt.Println()
	return nil
}

func printTable1Row(name string, total time.Duration, calls int) {
	fmt.Printf("  %-32s %12v total   %10.2f us/call\n",
		name, total.Round(time.Microsecond), float64(total.Nanoseconds())/float64(calls)/1000)
}

func rpcEnv() (*interp.VM, *core.Isolate, *core.Isolate, heap.Value, error) {
	r, err := workloads.NewMicroRunner(core.ModeIsolated, workloads.MicroInter, 1)
	if err != nil {
		return nil, nil, nil, heap.Value{}, err
	}
	vm := r.VM()
	callee := vm.World().IsolateByID(0)
	caller := r.Isolate()
	svcClass, err := callee.Loader().Lookup(workloads.ServiceClassName)
	if err != nil {
		return nil, nil, nil, heap.Value{}, err
	}
	makeM, err := svcClass.LookupMethod("make", "()Ljava/lang/Object;")
	if err != nil {
		return nil, nil, nil, heap.Value{}, err
	}
	recv, th, err := vm.CallRoot(callee, makeM, nil, 1_000_000)
	if err != nil {
		return nil, nil, nil, heap.Value{}, err
	}
	if th.Failure() != nil {
		return nil, nil, nil, heap.Value{}, fmt.Errorf("make: %s", th.FailureString())
	}
	return vm, caller, callee, recv, nil
}

func dragEvent(vm *interp.VM, iso *core.Isolate) (heap.Value, error) {
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return heap.Value{}, err
	}
	arr, err := vm.AllocArrayIn(nil, objClass, 8, iso)
	if err != nil {
		return heap.Value{}, err
	}
	str, err := vm.NewStringObject(nil, iso, "drag-event")
	if err != nil {
		return heap.Value{}, err
	}
	arr.Elems[0] = heap.RefVal(str)
	for i := 1; i < 4; i++ {
		arr.Elems[i] = heap.IntVal(int64(i) * 10)
	}
	return heap.RefVal(arr), nil
}

// --- Figure 1 -------------------------------------------------------------------

func fig1(reps int) error {
	const iters = 100_000
	fmt.Println("Figure 1: micro-benchmark performance of I-JVM relative to the baseline VM")
	fmt.Println("(paper: intra-call +14%, inter-call +16%, allocation +18%, static access +46% unoptimized)")
	fmt.Println()
	fmt.Printf("  %-26s %14s %14s %10s\n", "benchmark", "baseline ns/op", "I-JVM ns/op", "overhead")
	for _, kind := range workloads.MicroKinds() {
		var perMode [2]float64
		for i, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			r, err := workloads.NewMicroRunner(mode, kind, iters)
			if err != nil {
				return err
			}
			if _, err := r.Run(); err != nil { // warm up
				return err
			}
			d, err := median(reps, func() error { _, err := r.Run(); return err })
			if err != nil {
				return err
			}
			perMode[i] = float64(d.Nanoseconds()) / iters
		}
		fmt.Printf("  %-26s %14.1f %14.1f %+9.1f%%\n",
			kind.String(), perMode[0], perMode[1], 100*(perMode[1]-perMode[0])/perMode[0])
	}
	fmt.Println()
	return nil
}

// --- Figure 2 --------------------------------------------------------------------

func fig2(reps int) error {
	fmt.Println("Figure 2: SPEC JVM98-analogue overhead of I-JVM relative to the baseline VM")
	fmt.Println("(paper: below 20% for all benchmarks)")
	fmt.Println()
	fmt.Printf("  %-12s %14s %14s %10s   %s\n", "workload", "baseline ms", "I-JVM ms", "overhead", "profile")
	for _, spec := range workloads.SpecJVM98() {
		var perMode [2]float64
		for i, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			r, err := workloads.NewSpecRunner(mode, spec, spec.DefaultN)
			if err != nil {
				return err
			}
			if _, err := r.Run(); err != nil {
				return err
			}
			d, err := median(reps, func() error { _, err := r.Run(); return err })
			if err != nil {
				return err
			}
			perMode[i] = float64(d.Microseconds()) / 1000
		}
		fmt.Printf("  %-12s %14.2f %14.2f %+9.1f%%   %s\n",
			spec.Name, perMode[0], perMode[1], 100*(perMode[1]-perMode[0])/perMode[0], spec.Profile)
	}
	fmt.Println()
	return nil
}

// --- Figure 3 ---------------------------------------------------------------------

func fig3() error {
	fmt.Println("Figure 3: memory consumption of OSGi configurations, I-JVM vs baseline VM")
	fmt.Println("(paper: overhead below 16% for both Felix and Equinox)")
	fmt.Println()
	fmt.Printf("  %-26s %14s %14s %10s\n", "configuration", "baseline bytes", "I-JVM bytes", "overhead")
	for _, cfg := range []struct {
		name  string
		specs func() []osgi.BundleSpec
	}{
		{"Felix (runtime + 3 mgmt)", osgi.FelixConfig},
		{"Equinox (runtime + 22 mgmt)", osgi.EquinoxConfig},
	} {
		var perMode [2]int64
		for i, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			vm := interp.NewVM(interp.Options{Mode: mode, HeapLimit: 256 << 20})
			if err := syslib.Install(vm); err != nil {
				return err
			}
			fw, err := osgi.NewFramework(vm)
			if err != nil {
				return err
			}
			if _, err := osgi.InstallAndStart(fw, cfg.specs()); err != nil {
				return err
			}
			vm.CollectGarbage(nil)
			perMode[i] = vm.MemoryFootprint()
		}
		fmt.Printf("  %-26s %14d %14d %+9.1f%%\n",
			cfg.name, perMode[0], perMode[1], 100*float64(perMode[1]-perMode[0])/float64(perMode[0]))
	}
	fmt.Println()
	return nil
}

// --- §4.4 -------------------------------------------------------------------------

func limitsTable() error {
	fmt.Println("§4.4: limits of the resource accounting")
	fmt.Println()

	callee, caller, err := limits.CPUDistribution(200_000)
	if err != nil {
		return err
	}
	fmt.Printf("  1. CPU sampling over a 200k cross-bundle call loop:\n")
	fmt.Printf("     callee charged %.1f%%, caller charged %.1f%% (paper: ~75%% / ~25%%)\n\n", callee, caller)

	svcGCs, drvGCs, err := limits.GCAttribution(200_000)
	if err != nil {
		return err
	}
	fmt.Printf("  2. Collections from per-call allocations inside the callee:\n")
	fmt.Printf("     callee charged %d GCs, caller charged %d (paper: charged to the callee)\n\n", svcGCs, drvGCs)

	svcBytes, drvBytes, err := limits.SharedMemoryCharge(100_000)
	if err != nil {
		return err
	}
	fmt.Printf("  3. Large object returned by a service and retained by its caller:\n")
	fmt.Printf("     service charged %d bytes, caller charged %d bytes (paper: charged to the callers)\n\n",
		svcBytes, drvBytes)
	return nil
}

// --- Gateway serving density ------------------------------------------------------

// serveTable runs the high-density gateway serving benchmark: sequential
// tenant sessions (spawn, serve, kill) provisioned cold (full class load +
// <clinit>), from a warmed-isolate snapshot (copy-on-write clone), or
// through the isolate-recycling pool. The acceptance criterion is about
// the spawn-latency ratio: clone p99 must beat cold p99 by an order of
// magnitude.
func serveTable() error {
	fmt.Println("Gateway serving density: tenant spawn latency and steady-state throughput")
	fmt.Println("(64 sequential sessions x 16 serves; spawn = provisioning to first request ready)")
	fmt.Println()
	fmt.Printf("  %-9s %12s %12s %12s %12s %10s %8s\n",
		"mode", "spawn p50", "spawn p99", "spawn max", "serves/sec", "recycled", "gcs")
	var coldP99, cloneP99 time.Duration
	for _, mode := range []workloads.GatewayMode{
		workloads.GatewayCold, workloads.GatewayClone, workloads.GatewayRecycled,
	} {
		res, err := workloads.RunGateway(workloads.GatewayConfig{
			Mode: mode, Sessions: 64, Requests: 16, HeapLimit: 64 << 20,
		})
		if err != nil {
			return err
		}
		switch mode {
		case workloads.GatewayCold:
			coldP99 = res.SpawnP99
		case workloads.GatewayClone:
			cloneP99 = res.SpawnP99
		}
		fmt.Printf("  %-9s %12s %12s %12s %12.0f %10d %8d\n",
			res.Mode, res.SpawnP50, res.SpawnP99, res.SpawnMax,
			res.ServesPerSec, res.RecycledIDs, res.GCs)
	}
	if cloneP99 > 0 {
		fmt.Printf("\n  clone vs cold spawn p99 speedup: %.1fx\n\n",
			float64(coldP99)/float64(cloneP99))
	}
	return serveConcurrentTable()
}

// serveConcurrentTable runs the concurrent leg: N closed-loop tenant
// clients in flight at once against a live scheduler, provisioned cold
// (define + link + <clinit> while everyone else's instructions advance
// the clock) vs from the bounded pre-warmed clone pool behind the
// admission edge. Latencies are virtual ticks — the clock interval the
// tenant observed — because wall clock on a small host would measure Go
// runtime preemption of the client goroutines, not scheduler progress.
// Serves/sec stays wall-clock (a work-conservation number).
func serveConcurrentTable() error {
	fmt.Println("Concurrent serving density: in-flight tenants, cold vs pre-warmed clone pool")
	fmt.Println("(spawn/serve latency in virtual ticks; pool spawn of 0 = warm Acquire, no guest work)")
	fmt.Println()
	fmt.Printf("  %-8s %-6s %12s %12s %12s %12s %10s %8s\n",
		"tenants", "mode", "spawn p50", "spawn p99", "serve p99", "serves/sec", "recycled", "sat")
	for _, tenants := range []int{16, 64} {
		var coldP99, poolP99 int64
		for _, usePool := range []bool{false, true} {
			res, err := workloads.RunGatewayConcurrent(workloads.GatewayConcurrentConfig{
				Tenants: tenants, Requests: 8, HeapLimit: 128 << 20,
				UsePool: usePool,
			})
			if err != nil {
				return err
			}
			if usePool {
				poolP99 = res.SpawnP99Ticks
			} else {
				coldP99 = res.SpawnP99Ticks
			}
			fmt.Printf("  %-8d %-6s %12d %12d %12d %12.0f %10d %8d\n",
				tenants, res.Mode, res.SpawnP50Ticks, res.SpawnP99Ticks,
				res.ServeP99Ticks, res.ServesPerSec, res.Recycled, res.SaturatedRejects)
		}
		if poolP99 < 1 {
			poolP99 = 1
		}
		fmt.Printf("  %-8d pool vs cold spawn p99 speedup: %.1fx\n", tenants,
			float64(coldP99)/float64(poolP99))
	}
	fmt.Println()
	return nil
}

// --- Scheduler QoS ----------------------------------------------------------------

// qosGovernor is the tuned governor the SLO legs and the BenchmarkQoS_*
// benchmarks share: small windows so escalation happens early in short
// runs, and thresholds low enough that the §4.3-style attackers trip
// them while the tenants never do.
func qosGovernor() *sched.GovernorConfig {
	return &sched.GovernorConfig{
		// Window ≫ slice (16 slices) and ≫ one tenant request: a bursty
		// interactive request is a small fraction of any window, while a
		// dominance attacker is hot in every window.
		WindowInstrs:        131072,
		SleepersMax:         8,
		AllocBytesPerWindow: 64 << 10,
		// Two consecutive hot windows before deprioritization: attackers
		// are hot every window, tenants only in the isolated window their
		// request bursts through.
		DeprioritizeAfter: 2,
		ThrottleAfter:     3,
	}
}

// qosTable runs the adversarial SLO harness's three legs — no-attack
// baseline, attacked round-robin (the starvation baseline), attacked
// proportional+governed — and prints the tail-latency and goodput
// comparison the acceptance criterion is about: the governed leg's p99
// stays within a small factor of the no-attack baseline while the
// round-robin leg degrades with the attacker count.
func qosTable() error {
	fmt.Println("Scheduler QoS: tenant SLOs under the §4.3 attack suite")
	fmt.Println("(4 tenants, 25 req each; attackers: spin, allocflood, monitorhog, callflood)")
	fmt.Println()

	// One worker: the virtual clock then advances only by what the
	// scheduler chose to interleave, so the latency ratios measure the
	// scheduling policy itself identically on any host CPU count (with
	// N workers the clock advances by the other workers' concurrent
	// progress, scaling the attacked legs by min(N, cores)).
	base := workloads.SLOConfig{
		Tenants:           4,
		RequestsPerTenant: 25,
		WorkIters:         2000,
		Workers:           1,
	}
	type leg struct {
		name string
		cfg  workloads.SLOConfig
	}
	attacked := base
	attacked.Attackers = workloads.AllAttackers()
	rr := attacked
	rr.RoundRobin = true
	governed := attacked
	governed.Governor = qosGovernor()
	legs := []leg{
		{"no attack, proportional+governed", func() workloads.SLOConfig {
			c := base
			c.Governor = qosGovernor()
			return c
		}()},
		{"attacked, round-robin ungoverned", rr},
		{"attacked, proportional+governed", governed},
	}

	fmt.Println("(latencies in virtual ms: VM clock ticks / 1000, stamped at thread spawn/finish)")
	fmt.Printf("  %-34s %10s %10s %10s %12s %8s\n", "leg", "p50", "p99", "p999", "goodput", "failed")
	for _, l := range legs {
		res, err := workloads.RunSLO(l.cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %-34s %10s %10s %10s %8.0f/s %8d\n",
			l.name, workloads.VirtualMS(res.P50), workloads.VirtualMS(res.P99), workloads.VirtualMS(res.P999),
			res.Goodput, res.Failed)
		if len(res.Attackers) > 0 {
			fmt.Printf("  %-34s tenant/attacker instrs %d/%d", "", res.TenantInstructions, res.AttackerInstructions)
			if l.cfg.Governor != nil {
				fmt.Printf("; governor %+v", res.Governor)
			}
			fmt.Println()
			for _, f := range res.Attackers {
				fmt.Printf("  %-36s %-10s stage=%-14s killed=%-5v instrs=%d\n", "", f.Kind, f.Stage, f.Killed, f.Instructions)
			}
		}
	}
	fmt.Println()
	return nil
}
