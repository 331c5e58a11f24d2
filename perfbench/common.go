package main

import (
	"fmt"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// defineReps is how many times the class-definition side phase runs.
const defineReps = 5

// defineMs times defining a workload's class sets, each on a fresh
// loader of a fresh VM (the VM build is not timed), summed over the
// sets; it returns the median over defineReps repetitions.
func defineMs(tr *tracer, sets func() [][]*classfile.Class) (float64, error) {
	for rep := 0; rep < defineReps; rep++ {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
		if err := syslib.Install(vm); err != nil {
			return 0, err
		}
		id := tr.id()
		start := time.Now()
		for i, set := range sets() {
			l := vm.Registry().NewLoader(fmt.Sprintf("define-%d", i))
			var err error
			tr.timed(id, 0, "loader.define_set", func() { err = l.DefineAll(set) })
			if err != nil {
				return 0, fmt.Errorf("define: %w", err)
			}
		}
		tr.add(id, 0, 0, "loader.define", start, time.Now())
	}
	return pct(tr.durations("loader.define", time.Millisecond), 0.5), nil
}
