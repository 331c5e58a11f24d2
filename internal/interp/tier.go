package interp

import (
	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
)

// Superinstruction handlers (fused_handlers.go) and closure-threaded
// blocks (closure.go) execute several guest instructions inside one
// engine step without disturbing any observable contract:
//
//   - instruction counts: every sub-instruction is charged through the
//     engine loop's own charge sequence (EngineState.chargeSubs,
//     engine.go), so per-isolate accounts, CPU sampling and the virtual
//     clock advance at identical points to unfused execution;
//   - quantum/budget boundaries: a group only executes fused when the
//     whole group fits in the remaining quantum (EngineState.reserve);
//     otherwise the head executes as its original single instruction and
//     the boundary lands exactly where the unfused engine would put it.
//     The engines already clamp the quantum to the remaining run budget,
//     so budget exhaustion is covered by the same check;
//   - safepoints: kill, SetIsolationMode and STW parking act only between
//     engine steps. A fused group completes (or delegates its final
//     sub-instruction) within one step, and its non-throwing prefix
//     cannot reach a safepoint, so no partially-applied group state is
//     ever observable.
//
// The engine state lives on the Thread (t.es) only while RunQuantum is
// driving it; fused handlers bail to single-step execution when it is
// absent (host-driven stepping) or the group does not fit.

// barrierOn is the per-quantum cached SATB barrier flag used by the fused
// and closure store paths (and the interpreter store handlers) in place
// of the heap's per-store atomic load. The flag is refreshed at every
// quantum start and after a sequential-engine world-stop (the only point
// where the barrier can arm or disarm mid-quantum on the executing
// goroutine); concurrent workers always end their quantum at a
// world-stop, so their next quantum re-reads the flag. A transiently
// stale ON is harmless (the heap drops SATB records when no cycle is
// open); a stale OFF cannot occur because arming happens only with the
// world stopped.
func (vm *VM) barrierOn(t *Thread) bool {
	if es := t.es; es != nil {
		return es.barrierOn
	}
	return vm.heap.BarrierActive()
}

// --- Closure-tier promotion ---------------------------------------------

// tierThreshold returns the activation-heat threshold for promoting a
// prepared method to the closure-threaded tier, or 0 when the tier is
// disabled.
func (vm *VM) tierThreshold() int64 {
	th := vm.opts.TierPromoteThreshold
	if th < 0 {
		return 0
	}
	return int64(th)
}

// noteActivation accumulates one activation of p's method and adopts (or
// builds) the closure-threaded program when the method is hot. Called by
// pushFrame after the frame's prepared code is installed. The published
// program is adopted with one atomic load in the steady state; heat only
// accumulates while no program is published.
func (vm *VM) noteActivation(f *Frame, m *classfile.Method, p *bytecode.PCode) {
	th := vm.tierThreshold()
	if th == 0 {
		return
	}
	if hot := p.Tier.Hot(); hot != nil {
		f.hot = hot.(*closureProgram)
		return
	}
	if p.Tier.AddHeat(1) >= th {
		f.hot = vm.promoteHot(m, p)
	}
}

// noteQuantumHeat credits a finished quantum's n executed instructions as
// heat to the thread's top frame, so a hot loop inside one long-lived
// activation still promotes (pushFrame heat alone would never see it).
// Runs at quantum end while the engine still owns the thread; adoption
// of a program published by another worker also happens here, giving
// running frames a bounded promotion latency of one quantum.
func (vm *VM) noteQuantumHeat(t *Thread, n int64) {
	th := vm.tierThreshold()
	if th == 0 || n <= 0 {
		return
	}
	f := t.top()
	if f == nil || f.hot != nil {
		return
	}
	p := f.pcode
	if p == nil {
		return
	}
	if hot := p.Tier.Hot(); hot != nil {
		f.hot = hot.(*closureProgram)
		return
	}
	if p.Tier.AddHeat(n) >= th {
		f.hot = vm.promoteHot(f.method, p)
	}
}

// promoteHot compiles the closure-threaded program for a hot method and
// publishes it with a first-wins CAS; racing promoters build redundantly
// but all adopt the single published program (same discipline as IC
// lines).
func (vm *VM) promoteHot(m *classfile.Method, p *bytecode.PCode) *closureProgram {
	if hot := p.Tier.Hot(); hot != nil {
		return hot.(*closureProgram)
	}
	cp := buildClosureProgram(m, p)
	if p.Tier.PublishHot(cp) {
		return cp
	}
	return p.Tier.Hot().(*closureProgram)
}
