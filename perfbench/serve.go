package main

import (
	"fmt"
	"math/rand"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/serve"
	"ijvm/internal/workloads"
)

// The serving layer (snapshot, clone pool, clone/kill/free) is measured
// in a side phase of the siege phase of mesh's traced run, on siege's
// live, governed VM
// beside the attackers: a template of the gateway tenant application
// (workloads.GatewayClasses) is warmed and captured in set-up, then
// served from a serve.Pool one session at a time. The open-loop gateway
// workload this layer was first measured with is not in the benchmark;
// see README.md.

const (
	// sideReps is how many times a side phase repeats its operation.
	sideReps = 200
	// serveCapacity is the pool's warm-set size; serveSessions stays
	// below it, because sessions run back to back outrun the refiller
	// and an empty pool refuses.
	serveCapacity = 64
	serveSessions = 48
	// drainTimeout bounds the wait for a reply; a reply that never
	// comes is a lost call.
	drainTimeout = 10 * time.Second
	// gwWarmCalls is how many serve calls the template makes before the
	// snapshot; a clone's first request therefore sees hits = gwWarmCalls+1.
	gwWarmCalls = 2
)

const gwEntryClass = "bench/gw/Entry"

// gwEntryClasses wraps the tenant's serve(I)I: req(x, id) serves x and
// signals the reply.
func gwEntryClasses() []*classfile.Class {
	return []*classfile.Class{classfile.NewClass(gwEntryClass).
		Method("req", "(II)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).InvokeStatic(workloads.GatewayAppClass, "serve", "(I)I").IStore(2)
			a.ILoad(1).ILoad(2).InvokeStatic(signalClass, "done", "(II)V")
			a.ILoad(2).IReturn()
		}).MustBuild()}
}

// gwServe is the host-side reference of gw/App.serve: 32 table-walk
// steps over table[i] = i*i+7, plus the tenant's hit count.
func gwServe(x, hits int64) int64 {
	for i := 0; i < 32; i++ {
		k := x & 255
		x = (x + k*k + 7 + 1) & 0x7FFFFF
	}
	return x + hits
}

// servingTemplate is the captured gateway tenant.
type servingTemplate struct {
	sig        *signal
	entry      *classfile.Method
	snap       *interp.Snapshot
	snapshotMs float64
}

// newServingTemplate defines, warms and captures the template. It uses
// the sequential engine, so it runs before the scheduler starts.
func newServingTemplate(vm *interp.VM) (*servingTemplate, error) {
	st := &servingTemplate{sig: newSignal()}
	tl := vm.Registry().NewLoader("gw-template")
	if err := tl.DefineAll(append(workloads.GatewayClasses(), append(gwEntryClasses(), st.sig.class())...)); err != nil {
		return nil, err
	}
	wl := vm.Registry().NewLoader("gw-warmer")
	wl.AddDelegate(tl)
	warmer, err := vm.World().NewIsolate("gw-warmer", wl)
	if err != nil {
		return nil, err
	}
	if st.entry, err = lookup(tl.Lookup, gwEntryClass, "req", "(II)I"); err != nil {
		return nil, err
	}
	for i := int64(1); i <= gwWarmCalls; i++ {
		v, th, err := vm.CallRoot(warmer, st.entry, []heap.Value{heap.IntVal(7), heap.IntVal(-1)}, 0)
		if err != nil || th.Failure() != nil {
			return nil, fmt.Errorf("serving template warm-up: %v / %s", err, th.FailureString())
		}
		if want := gwServe(7, i); v.I != want {
			return nil, fmt.Errorf("serving template warm-up: serve(7) = %d, want %d", v.I, want)
		}
	}
	start := time.Now()
	if st.snap, err = vm.CaptureSnapshot(warmer, interp.SnapshotOptions{}); err != nil {
		return nil, err
	}
	st.snapshotMs = float64(time.Since(start)) / float64(time.Millisecond)
	return st, nil
}

// measure is the side phase: serveSessions acquire → serve → release
// sessions through a fresh pool, then sideReps runs of the pool's clone
// → kill → collect → free pipeline driven directly. Every reply is
// checked against gwServe.
func (st *servingTemplate) measure(vm *interp.VM, rng *rand.Rand, m map[string]float64, tr *tracer) error {
	pool, err := serve.NewPool(vm, st.snap, serve.Config{Capacity: serveCapacity, NamePrefix: "gw"})
	if err != nil {
		return err
	}
	defer pool.Close()
	st0 := pool.Stats()
	for i := int64(1); i <= serveSessions; i++ {
		var iso *core.Isolate
		tr.timed(0, i, "serve.acquire", func() { iso, err = pool.Acquire(nil) })
		if err != nil {
			return fmt.Errorf("serve session %d: %w", i, err)
		}
		x := rng.Int63n(1 << 20)
		var th *interp.Thread
		tr.timed(0, i, "serve.spawn", func() {
			th, err = vm.SpawnThread("gw-req", iso, st.entry, []heap.Value{heap.IntVal(x), heap.IntVal(i)})
		})
		if err != nil {
			return fmt.Errorf("serve session %d: %w", i, err)
		}
		select {
		case c := <-st.sig.done:
			if want := gwServe(x, gwWarmCalls+1); c.id != i || c.result != want {
				return fmt.Errorf("serve session %d: reply %d for request %d, want %d", i, c.result, c.id, want)
			}
		case <-time.After(drainTimeout):
			return fmt.Errorf("serve session %d: reply lost (thread %s)", i, th.State())
		}
		tr.timed(0, i, "serve.release", func() { pool.Release(iso) })
	}
	stats := pool.Stats()
	m["serve.saturated"] = float64(stats.Saturated - st0.Saturated)
	m["serve.recycled"] = float64(stats.Recycled - st0.Recycled)
	m["serve.clone_failures"] = float64(stats.CloneFailures - st0.CloneFailures)

	for i := 0; i < sideReps; i++ {
		var iso *core.Isolate
		tr.timed(0, 0, "interp.clone", func() { iso, err = vm.CloneIsolate(st.snap, fmt.Sprintf("side-%d", i)) })
		if err != nil {
			return fmt.Errorf("side clone: %w", err)
		}
		tr.timed(0, 0, "interp.kill", func() { err = vm.KillIsolate(nil, iso) })
		if err != nil {
			return fmt.Errorf("side kill: %w", err)
		}
		tr.timed(0, 0, "serve.collect", func() { vm.CollectGarbage(nil) })
		if !iso.Disposed() {
			return fmt.Errorf("side clone %s not disposed after collection", iso.Name())
		}
		tr.timed(0, 0, "interp.free", func() { err = vm.FreeIsolate(iso) })
		if err != nil {
			return fmt.Errorf("side free: %w", err)
		}
	}
	us := time.Microsecond
	for _, n := range []string{"clone", "kill", "free"} {
		d := tr.durations("interp."+n, us)
		m["interp."+n+"_us.p50"], m["interp."+n+"_us.p99"] = pct(d, 0.5), pct(d, 0.99)
	}
	acq := tr.durations("serve.acquire", us)
	m["serve.acquire_us.p50"], m["serve.acquire_us.p99"] = pct(acq, 0.5), pct(acq, 0.99)
	m["serve.release_us.p50"] = pct(tr.durations("serve.release", us), 0.5)
	m["interp.snapshot_ms"] = st.snapshotMs
	return nil
}

func setGovernor(m map[string]float64, st sched.GovernorStats) {
	m["sched.gov.ticks"] = float64(st.Ticks)
	m["sched.gov.deprioritizations"] = float64(st.Deprioritizations)
	m["sched.gov.throttles"] = float64(st.Throttles)
	m["sched.gov.kills"] = float64(st.Kills)
	m["sched.gov.restores"] = float64(st.Restores)
}
