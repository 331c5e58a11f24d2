package workloads_test

import (
	"testing"

	"ijvm/internal/core"
	"ijvm/internal/workloads"
)

// TestMicroRunnersBothModes verifies each micro benchmark runs to
// completion in both modes with matching checksums (mode must not change
// observable semantics).
func TestMicroRunnersBothModes(t *testing.T) {
	const n = 1000
	for _, kind := range workloads.MicroKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			var results [2]int64
			for i, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
				r, err := workloads.NewMicroRunner(mode, kind, n)
				if err != nil {
					t.Fatalf("%v runner: %v", mode, err)
				}
				v, err := r.Run()
				if err != nil {
					t.Fatalf("%v run: %v", mode, err)
				}
				results[i] = v
			}
			if results[0] != results[1] {
				t.Fatalf("checksum differs between modes: shared=%d isolated=%d", results[0], results[1])
			}
		})
	}
}

// TestInterIsolateCallsCounted verifies the inter-isolate benchmark really
// migrates threads n times.
func TestInterIsolateCallsCounted(t *testing.T) {
	const n = 500
	r, err := workloads.NewMicroRunner(core.ModeIsolated, workloads.MicroInter, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	out := r.Isolate().Account().InterBundleCallsOut.Load()
	if out < n {
		t.Fatalf("InterBundleCallsOut = %d, want >= %d", out, n)
	}
}

// TestSpecWorkloadsDeterministicAcrossModes runs every SPEC analogue in
// both modes with a reduced iteration count and checks checksums match and
// are non-trivial.
func TestSpecWorkloadsDeterministicAcrossModes(t *testing.T) {
	for _, spec := range workloads.SpecJVM98() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			n := spec.DefaultN / 10
			if n < 2 {
				n = 2
			}
			var results [2]int64
			for i, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
				r, err := workloads.NewSpecRunner(mode, spec, n)
				if err != nil {
					t.Fatalf("%v runner: %v", mode, err)
				}
				v, err := r.Run()
				if err != nil {
					t.Fatalf("%v run: %v", mode, err)
				}
				results[i] = v
			}
			if results[0] != results[1] {
				t.Fatalf("checksum differs: shared=%d isolated=%d", results[0], results[1])
			}
			if results[0] == 0 && spec.Name != "mpegaudio" {
				t.Fatalf("suspicious zero checksum for %s", spec.Name)
			}
		})
	}
}

// TestSpecRunnerRepeatable ensures re-running the same runner is
// deterministic (the VM clock advances but results must not change).
func TestSpecRunnerRepeatable(t *testing.T) {
	spec := workloads.SpecByName("compress")
	if spec == nil {
		t.Fatal("compress spec missing")
	}
	r, err := workloads.NewSpecRunner(core.ModeIsolated, *spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("non-deterministic workload: %d then %d", first, second)
	}
}

// TestQuantileIndex pins the floor(p·(n−1)) index every latency
// percentile in the workloads uses, so a change to the helper cannot
// silently shift a reported p99.
func TestQuantileIndex(t *testing.T) {
	ps := []float64{0.5, 0.99, 0.999}
	for _, tc := range []struct {
		n    int
		want []int64 // index picked for each p; -1 = empty sample
	}{
		{0, []int64{-1, -1, -1}},
		{1, []int64{0, 0, 0}},
		{2, []int64{0, 0, 0}},
		{100, []int64{49, 98, 98}},
		{1000, []int64{499, 989, 998}},
	} {
		sample := make([]int64, tc.n)
		for i := range sample {
			sample[i] = 10 * int64(i)
		}
		for i, p := range ps {
			want := int64(0)
			if tc.want[i] >= 0 {
				want = sample[tc.want[i]]
			}
			if got := workloads.Quantile(sample, p); got != want {
				t.Errorf("Quantile(n=%d, p=%v) = %d, want %d", tc.n, p, got, want)
			}
		}
	}
}
