package main

import (
	"errors"
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

// Guest classes of the live-scheduler workloads. A request's guest
// entry ends by calling the native bench/Signal.done(id, result), which
// stamps the wall clock on the scheduler worker and wakes the driver
// through a channel: the driver never sleep-polls for VM progress.

const signalClass = "bench/Signal"

// completion is one request's reply, as the native saw it.
type completion struct {
	id, result int64
	at         time.Time
}

// signal routes replies to the driver. Requests with id < 0 (set-up
// calls) and the keeper's start-up call are not routed.
type signal struct {
	done    chan completion
	started chan struct{}
}

// signalBuffer bounds the replies in flight; the drivers keep at most
// this many requests outstanding, so the native's send never blocks.
const signalBuffer = 1024

func newSignal() *signal {
	return &signal{done: make(chan completion, signalBuffer), started: make(chan struct{})}
}

// class builds a fresh bench/Signal for one loader.
func (s *signal) class() *classfile.Class {
	return classfile.NewClass(signalClass).
		NativeMethod("done", "(II)V", classfile.FlagStatic|classfile.FlagPublic, interp.NativeFunc(
			func(vm *interp.VM, t *interp.Thread, _ heap.Value, args []heap.Value) (interp.NativeResult, error) {
				c := completion{id: args[0].I, result: args[1].I, at: time.Now()}
				if c.id >= 0 {
					select {
					case s.done <- c:
					default:
						return interp.NativeResult{}, errors.New("bench: reply buffer full")
					}
				}
				return interp.NativeVoid()
			})).
		NativeMethod("started", "()V", classfile.FlagStatic|classfile.FlagPublic, interp.NativeFunc(
			func(vm *interp.VM, t *interp.Thread, _ heap.Value, args []heap.Value) (interp.NativeResult, error) {
				close(s.started)
				return interp.NativeVoid()
			})).
		MustBuild()
}

// keeperClasses is the weight-1 spinner that holds the scheduler open
// between requests; it announces the first instruction the scheduler
// runs, which is when host-side spawns become safe.
func keeperClasses(s *signal) []*classfile.Class {
	k := classfile.NewClass("bench/Keeper").
		Method("run", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.InvokeStatic(signalClass, "started", "()V")
			a.Const(0).IStore(0)
			a.Label("loop")
			a.IInc(0, 1)
			a.Goto("loop")
		}).MustBuild()
	return []*classfile.Class{s.class(), k}
}

// spinClass is the A6-style attacker: one thread burning CPU forever.
func spinClass(cn string) []*classfile.Class {
	return []*classfile.Class{classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop")
			a.IInc(0, 1)
			a.Goto("loop")
		}).MustBuild()}
}

// allocFloodClass allocates and drops 64-element Object[] arrays forever.
func allocFloodClass(cn string) []*classfile.Class {
	return []*classfile.Class{classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Label("loop")
			a.Const(64).NewArray(classfile.ObjectClassName).Pop()
			a.Goto("loop")
		}).MustBuild()}
}

// hogThreads is how many sleepers a thread-hog attacker tries to start:
// four times the governor's default sleeper limit.
const hogThreads = 64

// threadHogClasses starts hogThreads guest threads that sleep forever
// (a refused spawn ends the spawn phase), then spins.
func threadHogClasses(cn string) []*classfile.Class {
	sleeper := cn + "$Sleeper"
	s := classfile.NewClass(sleeper).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		Method("run", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).InvokeStatic("java/lang/Thread", "sleep", "(I)V").Return()
		}).MustBuild()
	h := classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).Const(hogThreads).IfICmpGe("spin")
			a.Label("try")
			a.New(sleeper).Dup().InvokeSpecial(sleeper, classfile.InitName, "()V").AStore(2)
			a.New("java/lang/Thread").Dup().ALoad(2).
				InvokeSpecial("java/lang/Thread", classfile.InitName, "(Ljava/lang/Object;)V").AStore(3)
			a.ALoad(3).InvokeVirtual("java/lang/Thread", "start", "()V")
			a.Label("endtry")
			a.IInc(1, 1).Goto("loop")
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

// waits collects the request threads of the traced blocks. The reply
// comes just before a thread returns, so its scheduler-stamped finish
// tick is read once the block has drained: a request waited its
// FinishTick - SpawnTick minus its own instructions. A thread still
// unwinding then is skipped.
type waits struct {
	own     int64 // one request's own instruction count
	pending map[*interp.Thread]bool
	ticks   []float64
}

func (w *waits) add(th *interp.Thread) {
	if w.pending == nil {
		w.pending = map[*interp.Thread]bool{}
	}
	w.pending[th] = true
}

// settleOne records a finished thread's wait if it is pending; it is
// called before the thread is re-armed for another request.
func (w *waits) settleOne(th *interp.Thread) {
	if w.pending[th] && th.Done() {
		w.ticks = append(w.ticks, float64(th.FinishTick()-th.SpawnTick()-w.own))
		delete(w.pending, th)
	}
}

func (w *waits) settle() {
	for th := range w.pending {
		w.settleOne(th)
	}
	clear(w.pending)
}

// liveVM is a VM under the proportional, governed scheduler with
// schedWorkers workers, held open by the keeper in Isolate0.
type liveVM struct {
	vm     *interp.VM
	host   *core.Isolate // Isolate0: the keeper, exempt from governance
	sig    *signal
	gov    *sched.Governor
	result chan interp.RunResult
}

// schedWorkers is the scheduler worker count of every live workload.
const schedWorkers = 2

// newLiveVM builds the VM and its Isolate0 keeper; start launches the
// scheduler once the workload's isolates are in place.
func newLiveVM(opts interp.Options, govCfg sched.GovernorConfig) (*liveVM, error) {
	vm := interp.NewVM(opts)
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	host, err := vm.NewIsolate("keeper")
	if err != nil {
		return nil, err
	}
	l := &liveVM{vm: vm, host: host, sig: newSignal(), gov: sched.NewGovernor(govCfg)}
	host.SetWeight(1)
	if err := host.Loader().DefineAll(keeperClasses(l.sig)); err != nil {
		return nil, err
	}
	return l, nil
}

// start spawns the keeper, runs the scheduler on its own goroutine and
// returns once the keeper has executed, so host-side spawns and kills
// are safe. The keeper is spawned here, not earlier: a CallRoot made
// during set-up runs every runnable thread on the sequential engine,
// and a keeper run there would announce a scheduler that is not
// running yet.
func (l *liveVM) start() error {
	m, err := lookup(l.host.Loader().Lookup, "bench/Keeper", "run", "()V")
	if err != nil {
		return err
	}
	if _, err := l.vm.SpawnThread("keeper", l.host, m, nil); err != nil {
		return err
	}
	l.result = make(chan interp.RunResult, 1)
	go func() {
		l.result <- sched.RunConfig(l.vm, sched.Config{
			Workers: schedWorkers, Policy: sched.PolicyProportional, Governor: l.gov,
		})
	}()
	select {
	case <-l.sig.started:
		return nil
	case res := <-l.result:
		l.result <- res
		return fmt.Errorf("scheduler ended before the keeper ran: %+v", res)
	}
}

// stop shuts the scheduler down and waits for it.
func (l *liveVM) stop() {
	if l.result == nil {
		return
	}
	l.vm.Shutdown()
	<-l.result
	l.result = nil
}

// lookup resolves a class through find and one of its methods.
func lookup(find func(string) (*classfile.Class, error), class, name, desc string) (*classfile.Method, error) {
	c, err := find(class)
	if err != nil {
		return nil, err
	}
	return c.LookupMethod(name, desc)
}
