// live.go is the live-scheduler harness the concurrent workloads
// (RunSLO, RunGatewayConcurrent) share: a VM whose Isolate0 keeper holds
// the concurrent scheduler open while host-side clients spawn request
// threads into it.
//
// Latency contract: request latencies are virtual ticks on the VM clock
// (1 tick per executed instruction; 1000 ticks = 1 virtual millisecond,
// the syslib currentTimeMillis convention), stamped by the workers that
// spawn and finish the request thread (FinishTick - SpawnTick). Wall-clock
// latency on a host with few CPUs measures Go runtime goroutine
// scheduling — a client goroutine can wait ~10ms for a sysmon preemption
// while VM workers saturate GOMAXPROCS — whereas virtual-clock latency
// measures exactly what the VM scheduler controls: how many instructions
// the rest of the world executed while a request waited and ran.
// Throughput figures (SLO goodput, serves/s) stay wall-clock on purpose:
// they are work-conservation numbers, not latencies.
package workloads

import (
	"cmp"
	"fmt"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

// Quantile returns the p-quantile of an ascending sample: the element at
// index floor(p·(n−1)), or the zero value for an empty sample.
func Quantile[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

const keeperClassName = "live/Keeper"

// liveRun is one VM under the concurrent scheduler, held open by a
// weight-1 keeper thread in Isolate0.
type liveRun struct {
	vm     *interp.VM
	keeper *core.Isolate
	gov    *sched.Governor // nil when ungoverned
	// started is closed by the keeper's first instruction.
	started chan struct{}
	result  chan interp.RunResult
}

// newLiveRun builds an isolated-mode VM from opts, its keeper, and the
// governor when govCfg is non-nil. The keeper is created first so it
// becomes Isolate0, the OSGi runtime: exempt from governance, unkillable,
// and the governor's killer credential for the §3.3 path. At weight 1 it
// only consumes CPU nobody else wants; its spin keeps the scheduler from
// quiescing to AllDone between requests until stop.
func newLiveRun(opts interp.Options, govCfg *sched.GovernorConfig) (*liveRun, error) {
	opts.Mode = core.ModeIsolated
	vm := interp.NewVM(opts)
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	keeper, err := vm.NewIsolate("keeper")
	if err != nil {
		return nil, err
	}
	keeper.SetWeight(1)
	l := &liveRun{vm: vm, keeper: keeper, started: make(chan struct{})}
	if err := keeper.Loader().Define(l.keeperClass()); err != nil {
		return nil, err
	}
	if govCfg != nil {
		l.gov = sched.NewGovernor(*govCfg)
	}
	return l, nil
}

// keeperClass builds the keeper: run() announces itself through the
// native started() and then spins forever.
func (l *liveRun) keeperClass() *classfile.Class {
	return classfile.NewClass(keeperClassName).
		NativeMethod("started", "()V", classfile.FlagStatic|classfile.FlagPublic, interp.NativeFunc(
			func(*interp.VM, *interp.Thread, heap.Value, []heap.Value) (interp.NativeResult, error) {
				close(l.started)
				return interp.NativeVoid()
			})).
		Method("run", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.InvokeStatic(keeperClassName, "started", "()V")
			a.Const(0).IStore(0)
			a.Label("loop")
			a.IInc(0, 1)
			a.Goto("loop")
		}).MustBuild()
}

// start spawns the keeper, runs the scheduler on its own goroutine and
// returns once the keeper has executed, so host-side spawns, kills and
// pool operations are safe. Call it after every CallRoot of the set-up:
// CallRoot drives the sequential engine, which runs every runnable
// thread, and a keeper run there would announce a scheduler that is not
// running yet — a client spawn could then land between the scheduler's
// thread enumeration and its hook installation and never be scheduled.
func (l *liveRun) start(workers int, policy sched.Policy) error {
	kc, err := l.keeper.Loader().Lookup(keeperClassName)
	if err != nil {
		return err
	}
	km, err := kc.LookupMethod("run", "()V")
	if err != nil {
		return err
	}
	if _, err := l.vm.SpawnThread("keeper", l.keeper, km, nil); err != nil {
		return err
	}
	l.result = make(chan interp.RunResult, 1)
	go func() {
		l.result <- sched.RunConfig(l.vm, sched.Config{Workers: workers, Policy: policy, Governor: l.gov})
	}()
	select {
	case <-l.started:
		return nil
	case res := <-l.result:
		return fmt.Errorf("scheduler ended before the keeper ran: %+v", res)
	}
}

// request spawns a request thread running m(arg) in iso, waits for it,
// and returns its int result and its latency in virtual ticks. The
// error is the spawn refusal (unwrapped, so callers can match
// core.ErrThrottled) or the thread's failure.
func (l *liveRun) request(name string, iso *core.Isolate, m *classfile.Method, arg int64) (result, ticks int64, err error) {
	th, err := l.vm.SpawnThread(name, iso, m, []heap.Value{heap.IntVal(arg)})
	if err != nil {
		return 0, 0, err
	}
	// The poll only detects completion; the latency is the worker-stamped
	// virtual interval, so poll granularity does not distort it.
	for !th.Done() {
		time.Sleep(20 * time.Microsecond)
	}
	if th.Err() != nil || th.Failure() != nil {
		return 0, 0, fmt.Errorf("%s: %v / %s", name, th.Err(), th.FailureString())
	}
	return th.Result().I, th.FinishTick() - th.SpawnTick(), nil
}

// awaitGovernor blocks until done reports true or the governor has
// sampled n windows in all, and reports whether done became true (a nil
// done waits for the n windows). Windows are counted in
// scheduler-executed instructions and the keeper never stops running,
// so it always returns; the poll only detects the condition, which is
// set on the virtual clock.
func (l *liveRun) awaitGovernor(n int64, done func() bool) bool {
	for done == nil || !done() {
		if l.gov.Stats().Ticks >= n {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// stop shuts the scheduler down and returns its run result.
func (l *liveRun) stop() interp.RunResult {
	l.vm.Shutdown()
	return <-l.result
}
