package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
)

// allocClasses builds churn(n): allocate n 16-slot arrays, parking each in
// a static so the previous one becomes garbage, and return n.
func allocClasses(name string) *classfile.Class {
	return classfile.NewClass(name).
		StaticField("last", classfile.KindRef).
		Method("churn", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.Const(16).NewArray("").PutStatic(name, "last")
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(1).IReturn()
		}).MustBuild()
}

// parityRun executes a fixed four-isolate workload — per isolate a spin
// loop (hot enough for the closure tier), a caller whose every ping is
// an inter-isolate call into the next isolate (ping itself is called
// often enough to be promoted on activation heat), and an allocation
// churner — on the sequential engine (workers == 0) or the concurrent
// scheduler, and returns the total instruction count, the total CPU
// samples and a per-isolate fingerprint of instructions and allocated
// bytes. None of the threads sleeps, waits or depends on another, so
// the per-isolate figures are a property of the program alone.
func parityRun(t *testing.T, workers int) (instrs, samples int64, perIso string) {
	t.Helper()
	vm := newIsolatedVM(t, interp.Options{})
	const n = 4
	isos := make([]*core.Isolate, n)
	for i := range isos {
		iso, err := vm.NewIsolate(fmt.Sprintf("par%d", i))
		if err != nil {
			t.Fatal(err)
		}
		isos[i] = iso
	}
	type entry struct{ cn, mn string }
	var entries [][]entry
	for i, iso := range isos {
		spin, ping, alloc := fmt.Sprintf("par/Spin%d", i), fmt.Sprintf("par/Ping%d", i), fmt.Sprintf("par/Alloc%d", i)
		for _, c := range []*classfile.Class{spinClasses(spin), pingClasses(ping), allocClasses(alloc)} {
			if err := iso.Loader().Define(c); err != nil {
				t.Fatal(err)
			}
		}
		es := []entry{{spin, "run"}, {alloc, "churn"}}
		if i+1 < n {
			// Acyclic delegation: isolate i calls the ping of isolate i+1.
			iso.Loader().AddDelegate(isos[i+1].Loader())
			caller := fmt.Sprintf("par/Call%d", i)
			if err := iso.Loader().Define(callerClasses(caller, fmt.Sprintf("par/Ping%d", i+1))); err != nil {
				t.Fatal(err)
			}
			es = append(es, entry{caller, "call"})
		}
		entries = append(entries, es)
	}
	args := map[string]int64{"run": 20_000, "churn": 1_500, "call": 3_000}
	var threads []*interp.Thread
	for i, es := range entries {
		for _, e := range es {
			c, err := isos[i].Loader().Lookup(e.cn)
			if err != nil {
				t.Fatal(err)
			}
			m, err := c.LookupMethod(e.mn, "(I)I")
			if err != nil {
				t.Fatal(err)
			}
			arg := args[e.mn] + int64(i*37)
			th, err := vm.SpawnThread(e.cn, isos[i], m, []heap.Value{heap.IntVal(arg)})
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
	}
	var res interp.RunResult
	if workers == 0 {
		res = vm.Run(0)
	} else {
		res = sched.Run(vm, workers, 0)
	}
	if !res.AllDone {
		t.Fatalf("workers=%d: run did not finish: %+v", workers, res)
	}
	for _, th := range threads {
		if th.Failure() != nil {
			t.Fatalf("workers=%d: thread failed: %s", workers, th.FailureString())
		}
	}
	var b strings.Builder
	for _, iso := range isos {
		s := vm.SnapshotOf(iso)
		samples += s.CPUSamples
		fmt.Fprintf(&b, "%s: instrs=%d allocBytes=%d\n", s.IsolateName, s.Instructions, s.AllocatedBytes)
	}
	return res.Instructions, samples, b.String()
}

// TestEngineParity pins the accounting contract shared by the sequential
// engine and the concurrent scheduler: every instruction is charged to
// the isolate current after it runs, and every allocation to its
// isolate, whatever engine or worker count drives the program. One
// worker also keeps the sequential engine's single CPU-sampling cadence,
// so its total sample count matches vm.Run exactly.
func TestEngineParity(t *testing.T) {
	seqInstrs, seqSamples, seqIso := parityRun(t, 0)
	if seqSamples == 0 {
		t.Fatal("sequential run took no CPU samples")
	}
	for _, workers := range []int{1, 4} {
		instrs, samples, iso := parityRun(t, workers)
		if instrs != seqInstrs {
			t.Errorf("workers=%d: %d instructions, sequential engine ran %d", workers, instrs, seqInstrs)
		}
		if iso != seqIso {
			t.Errorf("workers=%d: per-isolate accounting diverges:\n--- sequential\n%s--- concurrent\n%s", workers, seqIso, iso)
		}
		if workers == 1 && samples != seqSamples {
			t.Errorf("workers=1: %d CPU samples, sequential engine took %d", samples, seqSamples)
		}
	}
}
