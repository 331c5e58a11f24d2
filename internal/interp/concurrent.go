package interp

// This file is the integration surface between the interpreter and the
// concurrent isolate scheduler (internal/sched). The scheduler installs
// two callbacks for the duration of a concurrent run:
//
//   - SchedHooks let the interpreter tell the scheduler that threads
//     appeared, woke up, or that a global condition changed (a monitor
//     freed, a thread finished) so idle shards re-poll. Hooks are always
//     invoked WITHOUT schedMu held, so implementations may take their
//     own locks freely.
//   - Safepointer lets stop-the-world operations (accounting GC, isolate
//     kill) park every worker at an instruction boundary first.
//
// Both are nil in sequential runs, turning the call sites into direct
// passthroughs.

// SchedHooks is implemented by the concurrent scheduler's pool.
type SchedHooks interface {
	// ThreadSpawned reports a newly created runnable thread (its creator
	// isolate decides the shard it lands on).
	ThreadSpawned(t *Thread)
	// ThreadUnparked reports that t may have become runnable (notify,
	// interrupt, forced wake).
	ThreadUnparked(t *Thread)
	// ThreadsChanged reports a global scheduling event without a single
	// affected thread: a monitor was freed or a thread finished, so
	// blocked and joining threads anywhere may now be promotable.
	ThreadsChanged()
}

// Safepointer stops every scheduler worker at an instruction boundary,
// runs fn alone, and resumes the world. Implementations must be
// reentrant: fn may itself request a stop (a kill patching threads can
// trigger an allocation-pressure collection).
type Safepointer interface {
	StopTheWorld(fn func())
}

type hookBox struct{ h SchedHooks }
type safeBox struct{ s Safepointer }

// SetSchedHooks installs (or, with nil, removes) the scheduler hooks.
func (vm *VM) SetSchedHooks(h SchedHooks) {
	if h == nil {
		vm.hooks.Store(nil)
		return
	}
	vm.hooks.Store(&hookBox{h: h})
}

// SetSafepointer installs (or, with nil, removes) the stop-the-world
// provider.
func (vm *VM) SetSafepointer(s Safepointer) {
	if s == nil {
		vm.safe.Store(nil)
		return
	}
	vm.safe.Store(&safeBox{s: s})
}

// withWorldStopped runs fn with every concurrent worker parked; in
// sequential runs it is a direct call on the run-loop goroutine, with
// the sequential engine's pending batched charges flushed first so the
// stopped-world observer sees exact counters (the sequential safepoint).
func (vm *VM) withWorldStopped(fn func()) {
	if b := vm.safe.Load(); b != nil {
		b.s.StopTheWorld(fn)
		return
	}
	vm.flushEngine(vm.seq)
	fn()
	// fn may have armed or disarmed the incremental collector's write
	// barrier (cycle open/terminate). A mid-quantum sequential safepoint
	// resumes stepping without passing a quantum start, so the cached
	// per-quantum flag must be refreshed here (see EngineState.barrierOn).
	vm.seq.barrierOn = vm.heap.BarrierActive()
}

func (vm *VM) notifyThreadSpawned(t *Thread) {
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadSpawned(t)
	}
}

func (vm *VM) notifyUnparked(t *Thread) {
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadUnparked(t)
	}
}

func (vm *VM) notifyMonitorFreed() {
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadsChanged()
	}
}

func (vm *VM) notifyThreadsChanged() {
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadsChanged()
	}
}

// Waking reports whether the thread is in the transient staging window
// of a cross-shard wake (see stateStaging): not runnable yet, but about
// to be. The concurrent scheduler's quiescence detector treats such
// threads as pending work rather than as deadlocked.
func (t *Thread) Waking() bool { return t.State() == stateStaging }

// PromoteRunnable attempts to make one thread runnable (elapsed sleep,
// free monitor, notified wait, finished join). The concurrent scheduler
// polls shard threads through it.
func (vm *VM) PromoteRunnable(t *Thread) bool {
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	return vm.promoteLocked(t)
}

// WakeDeadline returns t's virtual-time wake deadline when it is parked
// in a timed sleep or timed wait. The concurrent scheduler uses it to
// re-queue idle shards once the global clock passes the deadline.
func (vm *VM) WakeDeadline(t *Thread) (int64, bool) {
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	switch t.State() {
	case StateSleeping, StateWaitingMonitor:
		if t.wakeAt != SleepForever && t.wakeAt > 0 {
			return t.wakeAt, true
		}
	}
	return 0, false
}
