package interp_test

import (
	"fmt"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// icSiteVM builds a VM with a Base + k-impl hierarchy and a driver whose
// single invokevirtual site dispatches over all k receiver classes
// round-robin (k must be a power of two). It returns the VM, isolate and
// driver method.
func icSiteVM(t *testing.T, k int, opts interp.Options) (*interp.VM, *core.Isolate, *classfile.Method) {
	t.Helper()
	vm := interp.NewVM(opts)
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	classes := icHierarchy("icb/Base", k)
	driver := classfile.NewClass("icb/Driver").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// receivers in an array local; one call site, receiver chosen
			// by i & (k-1).
			a.Const(int64(k)).NewArray("").AStore(1)
			for i := 0; i < k; i++ {
				a.ALoad(1).Const(int64(i))
				a.New(icImplName("icb/Base", i)).Dup().
					InvokeSpecial(icImplName("icb/Base", i), classfile.InitName, "()V")
				a.ArrayStore()
			}
			a.Const(0).IStore(2) // acc
			a.Const(0).IStore(3) // i
			a.Label("loop")
			a.ILoad(3).ILoad(0).IfICmpGe("done")
			a.ALoad(1).ILoad(3).Const(int64(k - 1)).IAnd().ArrayLoad()
			a.ILoad(2).InvokeVirtual("icb/Base", "f", "(I)I").IStore(2)
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(2).IReturn()
		}).MustBuild()
	if err := iso.Loader().DefineAll(append(classes, driver)); err != nil {
		t.Fatal(err)
	}
	c, err := iso.Loader().Lookup("icb/Driver")
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	return vm, iso, m
}

func icImplName(base string, i int) string { return fmt.Sprintf("%s%d", base[:len(base)-4]+"Impl", i) }

// icHierarchy builds Base plus k subclasses overriding f(I)I.
func icHierarchy(base string, k int) []*classfile.Class {
	init := func(super string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
		}
	}
	out := []*classfile.Class{classfile.NewClass(base).
		Method(classfile.InitName, "()V", 0, init(classfile.ObjectClassName)).
		Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).Const(1).IAdd().IReturn()
		}).MustBuild()}
	for i := 0; i < k; i++ {
		add := int64(i + 2)
		out = append(out, classfile.NewClass(icImplName(base, i)).Super(base).
			Method(classfile.InitName, "()V", 0, init(base)).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(add).IAdd().IReturn()
			}).MustBuild())
	}
	return out
}

// icSiteLine digs the single invokevirtual site's cache line out of the
// driver's prepared form.
func icSiteLine(t *testing.T, m *classfile.Method, mode int) *bytecode.ICLine {
	t.Helper()
	p := m.Code.Prepared(mode)
	if p == nil {
		t.Fatal("driver was not prepared")
	}
	for i := range p.Instrs {
		if p.Instrs[i].IC != nil {
			return p.Instrs[i].IC.Line()
		}
	}
	t.Fatal("no inline-cached site in prepared driver")
	return nil
}

// expectedICSum mirrors the driver's guest computation in Go.
func expectedICSum(k int, n int64) int64 {
	var acc int64
	for i := int64(0); i < n; i++ {
		acc += int64(int(i)&(k-1)) + 2
	}
	return acc
}

// TestInlineCacheStates drives one call site through the monomorphic,
// polymorphic and megamorphic states and checks both the cached line
// shape and the guest results.
func TestInlineCacheStates(t *testing.T) {
	cases := []struct {
		k        int
		wantN    int
		wantMega bool
	}{
		{1, 1, false},                        // monomorphic
		{bytecode.ICMaxEntries, 4, false},    // full polymorphic
		{2 * bytecode.ICMaxEntries, 0, true}, // megamorphic marker
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			vm, iso, m := icSiteVM(t, tc.k, interp.Options{Mode: core.ModeIsolated})
			const n = 64
			v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(n)}, 1_000_000)
			if err != nil || th.Failure() != nil {
				t.Fatalf("run: %v / %v", err, th.FailureString())
			}
			if want := expectedICSum(tc.k, n); v.I != want {
				t.Fatalf("result %d, want %d", v.I, want)
			}
			line := icSiteLine(t, m, bytecode.PModeIsolated)
			if line == nil {
				t.Fatal("site has no published cache line")
			}
			if line.N != tc.wantN || line.Mega != tc.wantMega {
				t.Fatalf("line {N:%d Mega:%v}, want {N:%d Mega:%v}",
					line.N, line.Mega, tc.wantN, tc.wantMega)
			}
		})
	}
}
