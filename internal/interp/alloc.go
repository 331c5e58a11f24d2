package interp

import (
	"errors"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// This file is the interpreter's allocation layer: it threads the
// executing shard's allocation domain (heap.AllocDomain) and batched
// per-isolate byte accounting (core.ByteBatch) through every guest
// allocation site, so the allocation fast path is a shard-local bump —
// one atomic reservation CAS against the heap limit, an append to the
// domain's private object list, and a plain-counter batch note — with no
// global mutex and no shared statistic atomics. The domain, the byte
// batch and the SATB buffer live in the executing goroutine's
// EngineState (engine.go), which documents their ownership and
// exactness contract.

// satbFlushAt bounds the barrier buffer between flush points.
const satbFlushAt = 128

// recordSATB buffers one overwritten reference, spilling to the heap
// when the buffer fills mid-quantum.
func (es *EngineState) recordSATB(h *heap.Heap, old *heap.Object) {
	es.satb = append(es.satb, old)
	if len(es.satb) >= satbFlushAt {
		es.flushSATB(h)
	}
}

// flushSATB hands buffered barrier records to the heap (no-op when
// empty). It must run before the owning goroutine parks for a
// stop-the-world: the terminal mark phase is sound only if every
// mutator's records are visible.
func (es *EngineState) flushSATB(h *heap.Heap) {
	if len(es.satb) == 0 {
		return
	}
	h.FlushSATB(es.satb)
	for i := range es.satb {
		es.satb[i] = nil
	}
	es.satb = es.satb[:0]
}

// allocOf returns the engine state installed on t for the current
// quantum, or nil when the caller must use the host path.
func allocOf(t *Thread) *EngineState {
	if t == nil {
		return nil
	}
	return t.es
}

// domainAlloc runs fn against the executing shard's domain, charging the
// batched per-isolate counters on success; on heap exhaustion it flushes
// the batch (exact accounts for the stopped-world collection), runs an
// accounting collection charged to iso, and retries once.
func (vm *VM) domainAlloc(a *EngineState, iso *core.Isolate, fn func() (*heap.Object, error)) (*heap.Object, error) {
	obj, err := fn()
	if err != nil {
		if !errors.Is(err, heap.ErrOutOfMemory) {
			return nil, err
		}
		a.bytes.Flush()
		a.flushSATB(vm.heap)
		vm.CollectGarbage(iso)
		obj, err = fn()
		if err != nil {
			return nil, err
		}
	}
	if vm.heap.TrackAlloc() {
		a.bytes.Note(vm.heap.CountersFor(iso.ID()), obj.Size(), obj.IsConnection)
	}
	if a.gcIso == nil && vm.heap.CrossedThreshold() {
		a.gcIso = iso
	}
	return obj, nil
}

// allocRetry is the host-path twin of domainAlloc: fn goes through the
// heap's mutex-guarded host domain (which charges counters directly), and
// heap exhaustion triggers an accounting collection and one retry. The
// second failure is surfaced to the caller, which raises
// OutOfMemoryError in the guest.
func (vm *VM) allocRetry(iso *core.Isolate, fn func() (*heap.Object, error)) (*heap.Object, error) {
	obj, err := fn()
	if err == nil {
		return obj, nil
	}
	if !errors.Is(err, heap.ErrOutOfMemory) {
		return nil, err
	}
	vm.CollectGarbage(iso)
	return fn()
}

// AllocObjectIn allocates an instance of class charged to iso, collecting
// on pressure. t, when executing, selects the shard-local allocation
// domain; a nil t (host-side callers) selects the host path.
func (vm *VM) AllocObjectIn(t *Thread, class *classfile.Class, iso *core.Isolate) (*heap.Object, error) {
	if a := allocOf(t); a != nil {
		return vm.domainAlloc(a, iso, func() (*heap.Object, error) {
			return a.dom.AllocObject(class, iso.ID())
		})
	}
	return vm.allocRetry(iso, func() (*heap.Object, error) {
		return vm.heap.AllocObject(class, iso.ID())
	})
}

// AllocArrayIn allocates an array charged to iso, collecting on pressure.
func (vm *VM) AllocArrayIn(t *Thread, class *classfile.Class, n int, iso *core.Isolate) (*heap.Object, error) {
	if a := allocOf(t); a != nil {
		return vm.domainAlloc(a, iso, func() (*heap.Object, error) {
			return a.dom.AllocArray(class, n, iso.ID())
		})
	}
	return vm.allocRetry(iso, func() (*heap.Object, error) {
		return vm.heap.AllocArray(class, n, iso.ID())
	})
}

// allocStringRaw allocates a guest string charged to iso.
func (vm *VM) allocStringRaw(t *Thread, class *classfile.Class, s string, iso *core.Isolate) (*heap.Object, error) {
	if a := allocOf(t); a != nil {
		return vm.domainAlloc(a, iso, func() (*heap.Object, error) {
			return a.dom.AllocString(class, s, iso.ID())
		})
	}
	return vm.allocRetry(iso, func() (*heap.Object, error) {
		return vm.heap.AllocString(class, s, iso.ID())
	})
}

// allocNativeRaw allocates a native-payload object charged to iso.
func (vm *VM) allocNativeRaw(t *Thread, class *classfile.Class, payload any, size int64, conn bool, iso *core.Isolate) (*heap.Object, error) {
	if a := allocOf(t); a != nil {
		return vm.domainAlloc(a, iso, func() (*heap.Object, error) {
			return a.dom.AllocNative(class, payload, size, conn, iso.ID())
		})
	}
	return vm.allocRetry(iso, func() (*heap.Object, error) {
		return vm.heap.AllocNative(class, payload, size, conn, iso.ID())
	})
}

// AllocNativeIn allocates a native-payload object charged to iso.
func (vm *VM) AllocNativeIn(t *Thread, class *classfile.Class, payload any, size int64, conn bool, iso *core.Isolate) (*heap.Object, error) {
	if conn {
		iso.Account().ConnectionsOpened.Add(1)
	}
	return vm.allocNativeRaw(t, class, payload, size, conn, iso)
}
