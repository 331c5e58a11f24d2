// slo.go is the adversarial SLO harness: N well-behaved tenant isolates
// serve closed-loop requests while §4.3-style attackers (CPU spinners,
// allocation floods, monitor hogs, cross-isolate call floods) run beside
// them on the concurrent scheduler. The harness runs one scheduling leg
// per configuration — round-robin vs proportional-share, governed vs
// not — and reports tail-latency percentiles (live.go's virtual-tick
// contract) and goodput, turning the attack suite from a pass/fail gate
// into a continuous isolation-quality metric.
package workloads

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
)

// AttackerKind names one adversarial tenant in the SLO harness.
type AttackerKind string

// Attacker kinds (the §4.3 classes expressible under the concurrent
// scheduler; RPC-hub floods need the sequential engine and are covered
// by the rpc package's own saturation tests).
const (
	// AttackSpin is the A6 standalone infinite loop: one thread burning
	// CPU forever.
	AttackSpin AttackerKind = "spin"
	// AttackAllocFlood allocates garbage arrays as fast as possible
	// (A1/A4 style memory and GC-churn pressure).
	AttackAllocFlood AttackerKind = "allocflood"
	// AttackMonitorHog spawns threads that sleep forever (A5/A7 style
	// thread and sleeper-slot exhaustion), then spins.
	AttackMonitorHog AttackerKind = "monitorhog"
	// AttackCallFlood hammers cross-isolate static calls into a second
	// attacker-owned isolate (migration churn + CPU dominance).
	AttackCallFlood AttackerKind = "callflood"
)

// AllAttackers lists every attacker kind in presentation order.
func AllAttackers() []AttackerKind {
	return []AttackerKind{AttackSpin, AttackAllocFlood, AttackMonitorHog, AttackCallFlood}
}

// SLOConfig sizes one SLO harness leg.
type SLOConfig struct {
	// Tenants is the number of well-behaved tenant isolates (each gets
	// one closed-loop client goroutine). Default 4.
	Tenants int
	// RequestsPerTenant is the per-tenant request count. Default 50.
	RequestsPerTenant int
	// WorkIters is the tenant request cost in spin-loop iterations
	// (~5 instructions each). Default 2000.
	WorkIters int
	// Attackers selects the adversarial tenants running beside the
	// well-behaved ones (empty = no-attack baseline).
	Attackers []AttackerKind
	// RoundRobin selects the FIFO baseline scheduler leg instead of
	// proportional share.
	RoundRobin bool
	// Governor, when non-nil, attaches a governor with this tuning
	// (admission control / load shedding); nil runs ungoverned.
	Governor *sched.GovernorConfig
	// Workers is the scheduler worker count. Default 2.
	Workers int
}

// The SLO VM's heap size and thread-table bound.
const (
	sloHeapLimit  = 32 << 20
	sloMaxThreads = 256
)

func (c *SLOConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.RequestsPerTenant <= 0 {
		c.RequestsPerTenant = 50
	}
	if c.WorkIters <= 0 {
		c.WorkIters = 2000
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
}

// AttackerFate is one attacker's end-of-run condition.
type AttackerFate struct {
	Kind AttackerKind
	// Stage is the governor's final escalation stage for the attacker
	// (StageNormal when ungoverned).
	Stage sched.Stage
	// Killed reports the isolate was dead when the run ended.
	Killed bool
	// Instructions the attacker's isolate executed (its obtained CPU).
	Instructions int64
}

// SLOResult aggregates one leg of the SLO harness.
type SLOResult struct {
	Requests  int   // issued tenant requests
	Completed int64 // requests that finished with the right result
	Failed    int64 // requests lost (spawn refused, wrong result, attacker damage)
	Wall      time.Duration
	// P50/P99/P999 are tenant request latencies in virtual ticks
	// (spawn to finish on the VM clock; 1000 ticks = 1 virtual ms).
	P50, P99, P999 int64
	// TotalTicks is the VM clock when the last tenant request finished.
	TotalTicks int64
	// Goodput is completed tenant requests per second of wall time.
	// (Virtual-time goodput would penalize work conservation: between
	// closed-loop requests the scheduler rightly hands the CPU to
	// whoever is runnable, advancing the clock without tenant work.)
	Goodput float64
	// TenantInstructions / AttackerInstructions split the executed
	// instructions between the well-behaved and adversarial tenants
	// (the obtained-share view of proportional fairness). Attacker
	// figures and fates cover the whole leg, including the tail an
	// attacked governed leg runs after the tenants finish
	// (governedMinWindows).
	TenantInstructions   int64
	AttackerInstructions int64
	// Governor is the governor's counter snapshot (zero when
	// ungoverned).
	Governor sched.GovernorStats
	// Attackers reports each adversarial tenant's fate.
	Attackers []AttackerFate
}

// VirtualMS renders a tick latency as virtual milliseconds.
func VirtualMS(ticks int64) string {
	return fmt.Sprintf("%.2fvms", float64(ticks)/1000)
}

func (r *SLOResult) String() string {
	return fmt.Sprintf("slo: %d req, %d ok / %d failed, p50=%s p99=%s p999=%s, %.1f req/s, tenant/attacker instrs %d/%d",
		r.Requests, r.Completed, r.Failed, VirtualMS(r.P50), VirtualMS(r.P99), VirtualMS(r.P999),
		r.Goodput, r.TenantInstructions, r.AttackerInstructions)
}

// tenantClasses builds the tenant service: work(n) burns n loop
// iterations and returns n (checkable result).
func tenantClasses(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("work", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(0).IReturn()
		}).MustBuild()
}

// spinForeverClasses builds the A6-style spinner.
func spinForeverClasses(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop")
			a.IInc(0, 1)
			a.Goto("loop")
		}).MustBuild()
}

// allocFloodClasses builds the garbage-flood attacker: an endless loop
// allocating len-element Object[] arrays and dropping them.
func allocFloodClasses(cn string, arrLen int) *classfile.Class {
	return classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Label("loop")
			a.Const(int64(arrLen)).NewArray(classfile.ObjectClassName).Pop()
			a.Goto("loop")
		}).MustBuild()
}

// monitorHogClasses builds the sleeper-spawn attacker: attack(n) starts
// n guest threads that sleep forever (catching the refusal once the
// governor throttles or the thread limit bites), then spins.
func monitorHogClasses(cn string) []*classfile.Class {
	sleeper := cn + "$Sleeper"
	s := classfile.NewClass(sleeper).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		Method("run", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).InvokeStatic("java/lang/Thread", "sleep", "(I)V").Return()
		}).MustBuild()
	h := classfile.NewClass(cn).
		Method("attack", "(I)V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("spin")
			a.Label("try")
			a.New(sleeper).Dup().InvokeSpecial(sleeper, classfile.InitName, "()V").AStore(2)
			a.New("java/lang/Thread").Dup().ALoad(2).
				InvokeSpecial("java/lang/Thread", classfile.InitName, "(Ljava/lang/Object;)V").AStore(3)
			a.ALoad(3).InvokeVirtual("java/lang/Thread", "start", "()V")
			a.Label("endtry")
			a.IInc(1, 1).Goto("loop")
			// A refused spawn (throttle, thread limit) ends the spawn
			// phase; the hog keeps burning CPU either way.
			a.Label("catch")
			a.Pop().Goto("spin")
			a.Label("spin")
			a.Const(0).IStore(1)
			a.Label("spinloop")
			a.IInc(1, 1).Goto("spinloop")
			a.Handler("try", "endtry", "catch", "java/lang/Throwable")
		}).MustBuild()
	return []*classfile.Class{s, h}
}

// callFloodClasses builds the cross-isolate call flood: main's attack()
// loops invoking peerCn.ping(x) (defined in a second attacker-owned
// isolate), migrating the thread on every call and return.
func callFloodClasses(cn, peerCn string) (main, peer *classfile.Class) {
	peer = classfile.NewClass(peerCn).
		Method("ping", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).MustBuild()
	main = classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop")
			a.ILoad(0).InvokeStatic(peerCn, "ping", "(I)I").IStore(0)
			a.Goto("loop")
		}).MustBuild()
	return main, peer
}

// attacker is one adversarial isolate whose thread is spawned before
// the scheduler starts, so the governor sees its burn from the first
// window.
type attacker struct {
	kind AttackerKind
	iso  *core.Isolate
	// peer is the second attacker-owned isolate a call flood calls into.
	peer *core.Isolate
}

// hogThreads is how many sleepers a monitor hog starts: half the SLO
// VM's thread table, enough to trip any sleeper gauge many times over
// but never enough to wedge the VM — an exhausted global table would
// turn every leg (including the ungoverned baseline) into a deadlock
// instead of a latency measurement.
const hogThreads = sloMaxThreads / 2

// spawnAttacker builds the i-th attacker of the given kind and spawns
// its thread; floodLen sizes an allocation flood's arrays.
func spawnAttacker(vm *interp.VM, i int, kind AttackerKind, floodLen int) (*attacker, error) {
	iso, err := vm.NewIsolate(fmt.Sprintf("attacker%d-%s", i, kind))
	if err != nil {
		return nil, err
	}
	a := &attacker{kind: kind, iso: iso}
	cn := fmt.Sprintf("atk/Attack%d", i)
	entry := "()V"
	var args []heap.Value
	switch kind {
	case AttackSpin:
		err = iso.Loader().Define(spinForeverClasses(cn))
	case AttackAllocFlood:
		err = iso.Loader().Define(allocFloodClasses(cn, floodLen))
	case AttackMonitorHog:
		err = iso.Loader().DefineAll(monitorHogClasses(cn))
		entry = "(I)V"
		args = []heap.Value{heap.IntVal(hogThreads)}
	case AttackCallFlood:
		a.peer, err = vm.NewIsolate(fmt.Sprintf("attacker%d-peer", i))
		if err != nil {
			return nil, err
		}
		peerCn := fmt.Sprintf("atkpeer/Peer%d", i)
		mainC, peerC := callFloodClasses(cn, peerCn)
		if err := a.peer.Loader().Define(peerC); err != nil {
			return nil, err
		}
		iso.Loader().AddDelegate(a.peer.Loader())
		err = iso.Loader().Define(mainC)
	default:
		return nil, fmt.Errorf("unknown attacker kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	c, err := iso.Loader().Lookup(cn)
	if err != nil {
		return nil, err
	}
	m, err := c.LookupMethod("attack", entry)
	if err != nil {
		return nil, err
	}
	if _, err := vm.SpawnThread(fmt.Sprintf("atk:%s", kind), iso, m, args); err != nil {
		return nil, err
	}
	return a, nil
}

// governedMinWindows is the fewest governor windows an attacked governed
// leg lasts: the attackers keep running after the tenants finish until
// the governor has sampled this many. That is room for the default
// escalation ladder (one priming window, then deprioritize after 2,
// throttle after 3 and kill after 6 consecutive hot windows) twice over,
// so the attackers' fates do not depend on how fast the tenants
// finished.
const governedMinWindows = 16

// RunSLO executes one leg of the adversarial SLO harness and returns
// its latency/goodput aggregate: host-side closed-loop clients, one per
// tenant, issue requests into the live scheduler while the attackers run.
func RunSLO(cfg SLOConfig) (*SLOResult, error) {
	cfg.fill()
	l, err := newLiveRun(interp.Options{HeapLimit: sloHeapLimit, MaxThreads: sloMaxThreads}, cfg.Governor)
	if err != nil {
		return nil, err
	}
	vm := l.vm

	// Tenants: interactive class, default weight.
	type tenant struct {
		iso  *core.Isolate
		work *classfile.Method
	}
	tenants := make([]*tenant, cfg.Tenants)
	for i := range tenants {
		iso, err := vm.NewIsolate(fmt.Sprintf("tenant%d", i))
		if err != nil {
			return nil, err
		}
		cn := fmt.Sprintf("slo/Tenant%d", i)
		if err := iso.Loader().Define(tenantClasses(cn)); err != nil {
			return nil, err
		}
		c, err := iso.Loader().Lookup(cn)
		if err != nil {
			return nil, err
		}
		m, err := c.LookupMethod("work", "(I)I")
		if err != nil {
			return nil, err
		}
		iso.SetQoS(core.QoSInteractive)
		tenants[i] = &tenant{iso: iso, work: m}
	}

	attackers := make([]*attacker, 0, len(cfg.Attackers))
	for i, kind := range cfg.Attackers {
		a, err := spawnAttacker(vm, i, kind, 64)
		if err != nil {
			return nil, fmt.Errorf("slo: %w", err)
		}
		attackers = append(attackers, a)
	}

	policy := sched.PolicyProportional
	if cfg.RoundRobin {
		policy = sched.PolicyRoundRobin
	}
	if err := l.start(cfg.Workers, policy); err != nil {
		return nil, err
	}

	var completed, failed int64
	latMu := sync.Mutex{}
	lats := make([]int64, 0, cfg.Tenants*cfg.RequestsPerTenant)
	start := time.Now()
	var wg sync.WaitGroup
	for ti, tn := range tenants {
		wg.Add(1)
		go func(ti int, tn *tenant) {
			defer wg.Done()
			myLats := make([]int64, 0, cfg.RequestsPerTenant)
			for r := 0; r < cfg.RequestsPerTenant; r++ {
				result, lat, err := l.request(fmt.Sprintf("req:t%d-%d", ti, r), tn.iso, tn.work, int64(cfg.WorkIters))
				if err != nil || result != int64(cfg.WorkIters) {
					atomic.AddInt64(&failed, 1)
					continue
				}
				atomic.AddInt64(&completed, 1)
				myLats = append(myLats, lat)
			}
			latMu.Lock()
			lats = append(lats, myLats...)
			latMu.Unlock()
		}(ti, tn)
	}
	wg.Wait()
	wall := time.Since(start)
	totalTicks := vm.Clock()
	if l.gov != nil && len(attackers) > 0 {
		l.awaitGovernor(governedMinWindows, nil)
	}
	runRes := l.stop()

	slices.Sort(lats)
	res := &SLOResult{
		Requests:   cfg.Tenants * cfg.RequestsPerTenant,
		Completed:  completed,
		Failed:     failed,
		Wall:       wall,
		P50:        Quantile(lats, 0.50),
		P99:        Quantile(lats, 0.99),
		P999:       Quantile(lats, 0.999),
		TotalTicks: totalTicks,
	}
	if wall > 0 {
		res.Goodput = float64(completed) / wall.Seconds()
	}
	if l.gov != nil {
		res.Governor = l.gov.Stats()
	}
	byName := make(map[string]interp.IsolateRun, len(runRes.PerIsolate))
	for _, ir := range runRes.PerIsolate {
		byName[ir.Name] = ir
	}
	for _, tn := range tenants {
		res.TenantInstructions += byName[tn.iso.Name()].Instructions
	}
	for _, a := range attackers {
		ir := byName[a.iso.Name()]
		res.AttackerInstructions += ir.Instructions
		if a.peer != nil { // call-flood peers are attacker CPU too
			res.AttackerInstructions += byName[a.peer.Name()].Instructions
		}
		fate := AttackerFate{Kind: a.kind, Killed: ir.Killed, Instructions: ir.Instructions}
		if l.gov != nil {
			fate.Stage = l.gov.StageOf(a.iso)
		}
		res.Attackers = append(res.Attackers, fate)
	}
	return res, nil
}
