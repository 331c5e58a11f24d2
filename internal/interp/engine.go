package interp

import (
	"sync/atomic"

	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// This file is the one quantum loop both execution engines run. The
// sequential engine (Run/RunUntil) drives it with the VM's own engine
// state (vm.seq); every concurrent scheduler worker (internal/sched)
// drives it with an engine state acquired from the VM's pool. The
// accounting contract is therefore written once: every instruction is
// charged to the isolate current after it runs (§3.2), CPU is sampled
// every sampleEvery instructions from the running isolate, and the
// virtual clock advances by one per instruction.

// sampleEvery is the CPU-sampling period in instructions. Sampling only
// runs in Isolated mode.
const sampleEvery = 127

// EngineState is one goroutine's execution state across quanta: its
// shard-local allocation domain with the batched per-isolate byte
// accounting and SATB buffer, the batched per-isolate instruction
// charges, the pending clock ticks, the CPU-sampling countdown, and the
// accounting of the quantum in flight.
//
// # Ownership
//
// An EngineState is single-goroutine state with the same contract as
// core.InstrBatch: the sequential engine owns one (vm.seq), each
// concurrent worker owns one (AcquireEngineState at start,
// ReleaseEngineState at exit, recycled through the VM's pool across
// runs), and RunQuantum installs it on the stepping thread (Thread.es)
// only for the duration of a quantum. Code running on the executing
// goroutine — prepared handlers, superinstructions and closure blocks,
// the reference switch path, natives, vm.Throw — allocates and charges
// through it; everything else (host-side setup, RPC copies, wake-side
// throwable allocation such as InterruptThread, tests) passes a nil
// thread or a thread without an installed state and falls back to the
// heap's mutex-guarded host path, which charges counters directly and
// therefore needs no flush.
//
// # Exactness
//
// Instruction and byte batches flush when the charged isolate changes,
// at every quantum end (flushEngine; workers flush before parking for a
// stop-the-world), at sequential safepoints (withWorldStopped), and the
// byte batch before any allocation-pressure collection — so the STW
// accounting GC, kills and precise accounting always observe exact
// per-isolate totals, while mid-quantum host-side snapshot reads may
// trail by at most one quantum.
type EngineState struct {
	dom   *heap.AllocDomain
	bytes core.ByteBatch
	// satb buffers the shard's SATB write-barrier records while a mark
	// phase is open, handed to the heap's gray machinery at quantum
	// ends, before allocation-pressure collections, and when the buffer
	// fills.
	satb []*heap.Object
	// gcIso, when non-nil, is the isolate whose allocation on this shard
	// crossed the background-cycle occupancy threshold; the shard's next
	// quantum boundary starts the cycle and charges the activation to it
	// (§4.4: collections are attributed to the allocator that forces
	// them, not to whoever happens to run at the boundary).
	gcIso *core.Isolate
	// barrierOn caches heap.BarrierActive for the current quantum, so the
	// reference-store fast paths read a plain bool instead of an atomic
	// per store. Refreshed at quantum starts and after sequential
	// stopped-world sections. Soundness: the barrier is only ever armed
	// inside a stop-the-world (cycle open), and every mutator passes a
	// quantum start or a sequential safepoint — hence a refresh — before
	// executing again, so the flag can never be stale-false while a mark
	// phase is open. A stale-true flag merely records SATB entries the
	// heap drops when no cycle is active.
	barrierOn bool

	instrs core.InstrBatch
	// pending counts executed instructions not yet published to the
	// virtual clock and the instruction total (flushEngine).
	pending int64
	// sample counts Isolated-mode instructions since the last CPU sample.
	sample int

	// steps and limit are the quantum in flight: instructions retired so
	// far and the quantum's budget. isolated is the isolation mode the
	// next charge is made under.
	steps    int64
	limit    int64
	isolated bool
}

// AcquireEngineState returns a recycled (or fresh) engine state for a
// concurrent scheduler worker. The heap's domain registry is
// append-only, so states are pooled on the VM and reused across runs
// instead of growing the registry per run.
func (vm *VM) AcquireEngineState() *EngineState {
	vm.allocFreeMu.Lock()
	defer vm.allocFreeMu.Unlock()
	if n := len(vm.allocFree); n > 0 {
		es := vm.allocFree[n-1]
		vm.allocFree[n-1] = nil
		vm.allocFree = vm.allocFree[:n-1]
		return es
	}
	return &EngineState{dom: vm.heap.NewDomain()}
}

// ReleaseEngineState flushes es and returns it to the VM's pool. Workers
// call it when they exit; the next run's worker starts a fresh
// CPU-sampling countdown.
func (vm *VM) ReleaseEngineState(es *EngineState) {
	vm.flushEngine(es)
	es.gcIso = nil
	es.sample = 0
	vm.allocFreeMu.Lock()
	vm.allocFree = append(vm.allocFree, es)
	vm.allocFreeMu.Unlock()
}

// QuantumResult reports why RunQuantum stopped stepping.
type QuantumResult struct {
	// Instructions executed in this quantum.
	Instructions int64
	// Migrated reports the thread's current isolate left the home
	// isolate (inter-isolate call or return): the thread must be handed
	// to the target isolate's shard.
	Migrated bool
	// Stopped reports the stop flag was observed (stop-the-world pending
	// or budget exhausted globally).
	Stopped bool
	// Shutdown reports the platform was shut down during the quantum.
	Shutdown bool
	// TargetDone reports the run's target thread finished during the
	// quantum.
	TargetDone bool
	// Err is the host-level error that aborted the thread, if any (the
	// thread has already been finished).
	Err error
}

// RunQuantum executes up to budget instructions of t on the calling
// goroutine with its engine state es, stopping early when the thread
// parks or finishes, the platform shuts down, the (optional) target
// thread finishes, the (optional) stop flag rises, or the thread's
// current isolate leaves the (optional) home isolate. The sequential
// engine passes vm.seq with no home and no stop flag; a scheduler
// worker passes its own state, its shard's isolate and the pool's stop
// flag.
//
// Per-isolate charges go through es's InstrBatch and the clock and
// instruction totals through es.pending, all published by flushEngine
// at quantum end, so the per-instruction hot path performs no atomic
// read-modify-write.
func (vm *VM) RunQuantum(t *Thread, es *EngineState, home *core.Isolate, budget int64, stop *atomic.Bool, target *Thread) QuantumResult {
	var res QuantumResult
	// Quantum-start refresh of the cached write-barrier flag (see
	// EngineState.barrierOn).
	es.barrierOn = vm.heap.BarrierActive()
	// Install es on the thread for the quantum: allocation goes through
	// its domain, and superinstruction handlers and closure blocks
	// reserve and charge their extra covered instructions against it
	// (reserve, chargeSubs) with the loop's own charge sequence.
	es.steps, es.limit = 0, budget
	t.es = es
	for es.steps < budget && t.State() == StateRunnable {
		if stop != nil && stop.Load() {
			res.Stopped = true
			break
		}
		// The mode is read before the step for its fused/closure prefix
		// sub-charges, and again after it for the step's own charge: the
		// mode cannot flip mid-step except by the step's own guest/native
		// code (other flips stop the world at step boundaries), whose
		// trailing instruction and the rest of the quantum are charged
		// under the new mode.
		es.isolated = vm.world.Isolated()
		err := vm.stepThread(t)
		es.isolated = vm.world.Isolated()
		es.chargeSubs(t, 1)
		if err != nil {
			t.err = err
			vm.finishThread(t)
			res.Err = err
			break
		}
		if vm.IsShutdown() {
			res.Shutdown = true
			break
		}
		if target != nil && target.Done() {
			res.TargetDone = true
			break
		}
		if home != nil && t.cur != home {
			res.Migrated = true
			break
		}
	}
	res.Instructions = es.steps
	t.es = nil
	vm.flushEngine(es)
	vm.noteQuantumHeat(t, res.Instructions)
	return res
}

// reserve reports whether a fused group with extra prefix sub-instructions
// (on top of the final one the loop charges) still fits in the quantum.
func (es *EngineState) reserve(extra int64) bool {
	return es.steps+extra < es.limit
}

// chargeSubs retires k instructions executed by t: the quantum's step
// count and the pending clock advance by k, and in Isolated mode the
// isolate current after them is charged k instructions and the
// CPU-sampling countdown advances by k, folded modulo sampleEvery
// (floor((old+k)/every) samples, remainder kept) — exactly what k unit
// steps with reset-at-threshold produce. The loop charges each step's
// final instruction through it with k = 1; superinstruction handlers
// and closure blocks charge their inlined prefix sub-instructions.
// Prefixes cannot migrate the thread, flip the isolation mode or finish
// the thread, and nothing can observe the counters mid-step (no
// safepoint, throw, park or batch flush is reachable from a prefix), so
// batching them is invisible to the differential oracle.
func (es *EngineState) chargeSubs(t *Thread, k int64) {
	es.steps += k
	es.pending += k
	if es.isolated {
		acct := t.cur.Account()
		es.instrs.NoteN(acct, k)
		if es.sample += int(k); es.sample >= sampleEvery {
			// The paper's CPU accounting: sample the isolate reference
			// of the running thread (§3.2).
			acct.CPUSamples.Add(int64(es.sample / sampleEvery))
			es.sample %= sampleEvery
		}
	}
}

// flushEngine publishes es's batched charges: per-isolate instructions
// and allocations, buffered SATB records, and the pending clock and
// instruction-total ticks. It runs at every quantum end and, for
// vm.seq, at sequential safepoints (withWorldStopped), so stopped-world
// observers — the accounting GC, isolate kills, precise accounting —
// always see exact counters.
func (vm *VM) flushEngine(es *EngineState) {
	es.instrs.Flush()
	es.bytes.Flush()
	es.flushSATB(vm.heap)
	if es.pending != 0 {
		vm.clock.Add(es.pending)
		vm.totalInstrs.Add(es.pending)
		es.pending = 0
	}
}
