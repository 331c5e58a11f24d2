package interp

import (
	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/heap"
)

// Superinstruction handlers. The preparation pass (prepare.go,
// fuseSuperinstructions) rewrites the head instruction's handler index of
// common quickened sequences; followers keep their original form, so every
// operand a handler needs is read from p.Instrs[pc+1..] and an entry at a
// follower pc (branch target, handler target, re-quickened resume) simply
// executes the original single instruction.
//
// Contracts, shared with tier.go:
//
//   - Before any state mutation, a handler reserves its prefix
//     sub-instructions against the quantum (t.es). When the group does not
//     fit — or no engine loop owns the thread — it bails to the head's
//     base handler, executing exactly one original instruction.
//   - Full-inline shapes contain only non-throwing sub-instructions and
//     return nil; the engine loop's post-step charge covers the last
//     sub-instruction, and chargeSubs covers the w-1 before it.
//   - Delegated-final shapes materialize the prefix's exact stack effect,
//     advance f.pc to the final sub-instruction, and tail-dispatch it
//     through the live handler table: throws, allocation, invocation,
//     mode-specialized quickenings and a final that is itself a fused
//     head (the group then charges its own subs) all behave exactly as
//     unfused execution.
//   - Net-zero stack traffic is elided (e.g. load/load/compare-branch
//     never touches f.stack): nothing can observe the intermediate stack
//     inside one step — no safepoint, no throw, no GC root scan.
//
// Follower handler indices are read at group-match time from the original
// opcodes, so reading a follower's H at run time is safe: branches,
// arithmetic, stores and invokes are never fusion heads (only loads,
// iconst, iinc and getfield are), so their H is always the original
// opcode value.

// registerFusedHandlers installs the superinstruction handlers into a
// base dispatch table (called from handlers.go's init before the base is
// copied into the mode-specialized tables). The handlers themselves are
// mode-neutral: anything mode-specialized appears only as a delegated
// final, dispatched through the VM's live table.
func registerFusedHandlers(base *[256]phandler) {
	reg := func(h uint8, fn phandler) { base[h] = fn }
	reg(bytecode.FusedLLOpStore, pFusedLLOpStore)
	reg(bytecode.FusedLCOpStore, pFusedLCOpStore)
	reg(bytecode.FusedLLOp, pFusedLLOp)
	reg(bytecode.FusedLCOp, pFusedLCOp)
	reg(bytecode.FusedLLCmpBr, pFusedLLCmpBr)
	reg(bytecode.FusedLCCmpBr, pFusedLCCmpBr)
	reg(bytecode.FusedIncGoto, pFusedIncGoto)
	reg(bytecode.FusedConstStore, pFusedConstStore)
	reg(bytecode.FusedLLThen, pFusedLLThen)
	reg(bytecode.FusedLCThen, pFusedLCThen)
	reg(bytecode.FusedLThen, pFusedLThen)
	reg(bytecode.FusedGetFieldThen, pFusedGetFieldThen)
}

// pureBinop evaluates one of the nine non-throwing int ops (the fusion
// matcher admits no others into inline op positions), mirroring the base
// handlers bit for bit (shift counts masked to 63).
func pureBinop(h uint8, a, b int64) int64 {
	switch bytecode.Opcode(h) {
	case bytecode.OpIAdd:
		return a + b
	case bytecode.OpISub:
		return a - b
	case bytecode.OpIMul:
		return a * b
	case bytecode.OpIAnd:
		return a & b
	case bytecode.OpIOr:
		return a | b
	case bytecode.OpIXor:
		return a ^ b
	case bytecode.OpIShl:
		return a << (uint64(b) & 63)
	case bytecode.OpIShr:
		return a >> (uint64(b) & 63)
	default: // OpIUshr
		return int64(uint64(a) >> (uint64(b) & 63))
	}
}

// --- Full-inline shapes --------------------------------------------------

func pFusedLLOpStore(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(3) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	a := f.locals[in.A].I
	b := f.locals[ins[pc+1].A].I
	f.locals[ins[pc+3].A] = heap.IntVal(pureBinop(ins[pc+2].H, a, b))
	q.chargeSubs(t, 3)
	f.pc = pc + 4
	return nil
}

func pFusedLCOpStore(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(3) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	a := f.locals[in.A].I
	b := ins[pc+1].I
	f.locals[ins[pc+3].A] = heap.IntVal(pureBinop(ins[pc+2].H, a, b))
	q.chargeSubs(t, 3)
	f.pc = pc + 4
	return nil
}

func pFusedLLOp(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(2) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	a := f.locals[in.A].I
	b := f.locals[ins[pc+1].A].I
	f.push(heap.IntVal(pureBinop(ins[pc+2].H, a, b)))
	q.chargeSubs(t, 2)
	f.pc = pc + 3
	return nil
}

func pFusedLCOp(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(2) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	a := f.locals[in.A].I
	b := ins[pc+1].I
	f.push(heap.IntVal(pureBinop(ins[pc+2].H, a, b)))
	q.chargeSubs(t, 2)
	f.pc = pc + 3
	return nil
}

func pFusedLLCmpBr(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(2) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	a := f.locals[in.A].I
	b := f.locals[ins[pc+1].A].I
	in3 := &ins[pc+2]
	q.chargeSubs(t, 2)
	if intCmpCondition(bytecode.Opcode(in3.H), a, b) {
		f.pc = in3.A
	} else {
		f.pc = pc + 3
	}
	return nil
}

func pFusedLCCmpBr(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(2) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	a := f.locals[in.A].I
	b := ins[pc+1].I
	in3 := &ins[pc+2]
	q.chargeSubs(t, 2)
	if intCmpCondition(bytecode.Opcode(in3.H), a, b) {
		f.pc = in3.A
	} else {
		f.pc = pc + 3
	}
	return nil
}

func pFusedIncGoto(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(1) {
		return pIInc(vm, t, f, in)
	}
	f.locals[in.A].I += int64(in.B)
	f.locals[in.A].Kind = classfile.KindInt
	q.chargeSubs(t, 1)
	f.pc = f.pcode.Instrs[f.pc+1].A
	return nil
}

func pFusedConstStore(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(1) {
		return pIConst(vm, t, f, in)
	}
	pc := f.pc
	f.locals[f.pcode.Instrs[pc+1].A] = heap.IntVal(in.I)
	q.chargeSubs(t, 1)
	f.pc = pc + 2
	return nil
}

// --- Delegated-final shapes ----------------------------------------------

func pFusedLLThen(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(2) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	f.push(f.locals[in.A])
	f.push(f.locals[ins[pc+1].A])
	q.chargeSubs(t, 2)
	f.pc = pc + 2
	inL := &ins[pc+2]
	return vm.ptable[inL.H](vm, t, f, inL)
}

func pFusedLCThen(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(2) {
		return pLoad(vm, t, f, in)
	}
	ins := f.pcode.Instrs
	pc := f.pc
	f.push(f.locals[in.A])
	f.push(heap.IntVal(ins[pc+1].I))
	q.chargeSubs(t, 2)
	f.pc = pc + 2
	inL := &ins[pc+2]
	return vm.ptable[inL.H](vm, t, f, inL)
}

func pFusedLThen(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(1) {
		return pLoad(vm, t, f, in)
	}
	pc := f.pc
	f.push(f.locals[in.A])
	q.chargeSubs(t, 1)
	f.pc = pc + 1
	inL := &f.pcode.Instrs[pc+1]
	return vm.ptable[inL.H](vm, t, f, inL)
}

// pFusedGetFieldThen inlines a resolved, non-faulting getfield and
// delegates the following invoke. The guards run before any mutation: an
// unresolved slot or null receiver bails to the base getfield handler,
// which resolves/throws with the frame exactly as the unfused engine
// would have it.
func pFusedGetFieldThen(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	q := t.es
	if q == nil || !q.reserve(1) {
		return pGetField(vm, t, f, in)
	}
	slot := in.FS.Get()
	if slot < 0 {
		return pGetField(vm, t, f, in)
	}
	recv := f.upeek()
	if recv.R == nil {
		return pGetField(vm, t, f, in)
	}
	pc := f.pc
	f.upop()
	f.push(recv.R.Fields[slot])
	q.chargeSubs(t, 1)
	f.pc = pc + 1
	inL := &f.pcode.Instrs[pc+1]
	return vm.ptable[inL.H](vm, t, f, inL)
}
