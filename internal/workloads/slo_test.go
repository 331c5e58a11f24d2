package workloads_test

import (
	"testing"

	"ijvm/internal/sched"
	"ijvm/internal/workloads"
)

// TestSLONoAttackBaseline: with no adversaries every tenant request
// completes with the right result and all measured CPU is tenant CPU.
func TestSLONoAttackBaseline(t *testing.T) {
	res, err := workloads.RunSLO(workloads.SLOConfig{
		Tenants:           2,
		RequestsPerTenant: 8,
		WorkIters:         1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != int64(res.Requests) {
		t.Fatalf("baseline lost requests: %s", res)
	}
	if res.TenantInstructions == 0 || res.AttackerInstructions != 0 {
		t.Fatalf("instruction split wrong: %s", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("percentiles malformed: %s", res)
	}
}

// TestSLOGovernedUnderAttack is the governed smoke leg: the full
// attacker suite runs beside two tenants, yet every tenant request
// completes, and the governor escalates the monitor hog at least to the
// throttle stage (its sleeper gauge never calms down).
//
// An attacked governed leg runs until the governor has sampled a fixed
// number of windows, however fast the tenants finish, so a throttle
// streak always fits. The CPU criterion is disabled outright (CPUFactor
// 100): this test asserts the sleeper/alloc escalation paths, and with a
// window this small the CPU path could misfire on a bursty tenant (see
// the README tuning note — the latency acceptance tests keep the big
// window instead).
func TestSLOGovernedUnderAttack(t *testing.T) {
	res, err := workloads.RunSLO(workloads.SLOConfig{
		Tenants:           2,
		RequestsPerTenant: 8,
		WorkIters:         1500,
		Attackers:         workloads.AllAttackers(),
		Governor: &sched.GovernorConfig{
			WindowInstrs:        32768,
			CPUFactor:           100,
			SleepersMax:         8,
			AllocBytesPerWindow: 32 << 10,
			DeprioritizeAfter:   2,
			ThrottleAfter:       3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != int64(res.Requests) {
		t.Fatalf("governed leg lost requests: %s", res)
	}
	if len(res.Attackers) != len(workloads.AllAttackers()) {
		t.Fatalf("attacker fates missing: %+v", res.Attackers)
	}
	var hog workloads.AttackerFate
	for _, f := range res.Attackers {
		if f.Kind == workloads.AttackMonitorHog {
			hog = f
		}
	}
	if hog.Stage < sched.StageThrottled {
		t.Fatalf("monitor hog reached only %v, want at least throttled; governor %+v",
			hog.Stage, res.Governor)
	}
	if res.Governor.Ticks == 0 || res.Governor.Deprioritizations == 0 || res.Governor.Throttles == 0 {
		t.Fatalf("governor never intervened: %+v", res.Governor)
	}
}

// TestSLOGovernedTailWithinBaseline is the graceful-degradation
// acceptance gate: with one worker (so the virtual clock advances only
// by scheduler-chosen interleaving, independent of host CPU count), the
// governed proportional leg's p99 under a CPU-dominance attack stays
// within 3x of the no-attack baseline.
func TestSLOGovernedTailWithinBaseline(t *testing.T) {
	leg := func(attackers []workloads.AttackerKind) *workloads.SLOResult {
		t.Helper()
		res, err := workloads.RunSLO(workloads.SLOConfig{
			Tenants:           2,
			RequestsPerTenant: 10,
			WorkIters:         2000,
			Workers:           1,
			Attackers:         attackers,
			Governor:          &sched.GovernorConfig{WindowInstrs: 131072},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("leg lost requests: %s", res)
		}
		return res
	}
	baseline := leg(nil)
	attacked := leg([]workloads.AttackerKind{workloads.AttackSpin})
	if attacked.P99 > 3*baseline.P99 {
		t.Fatalf("governed p99 %s exceeds 3x no-attack baseline %s",
			workloads.VirtualMS(attacked.P99), workloads.VirtualMS(baseline.P99))
	}
}

// TestSLORoundRobinUngoverned pins the baseline leg the benchmarks
// compare against: round-robin without a governor still completes all
// tenant requests (the attack degrades latency, not correctness).
func TestSLORoundRobinUngoverned(t *testing.T) {
	res, err := workloads.RunSLO(workloads.SLOConfig{
		Tenants:           2,
		RequestsPerTenant: 6,
		WorkIters:         1500,
		Attackers:         []workloads.AttackerKind{workloads.AttackSpin},
		RoundRobin:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != int64(res.Requests) {
		t.Fatalf("round-robin leg lost requests: %s", res)
	}
	if res.AttackerInstructions == 0 {
		t.Fatalf("spin attacker never ran: %s", res)
	}
	for _, f := range res.Attackers {
		if f.Stage != sched.StageNormal || f.Killed {
			t.Fatalf("ungoverned leg intervened: %+v", f)
		}
	}
}
