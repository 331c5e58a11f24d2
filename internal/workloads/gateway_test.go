package workloads

import (
	"testing"

	"ijvm/internal/sched"
)

func TestGatewayModesAgree(t *testing.T) {
	base := GatewayConfig{Sessions: 6, Requests: 8, HeapLimit: 32 << 20}
	var checksums []int64
	var serves []int
	for _, mode := range []GatewayMode{GatewayCold, GatewayClone, GatewayRecycled} {
		cfg := base
		cfg.Mode = mode
		res, err := RunGateway(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Serves == 0 || res.SpawnP50 <= 0 {
			t.Fatalf("%v: degenerate result %+v", mode, res)
		}
		checksums = append(checksums, res.Checksum)
		serves = append(serves, res.Serves-boolToInt(mode == GatewayCold)*cfg.Sessions)
		if mode == GatewayRecycled && res.RecycledIDs != cfg.Sessions {
			t.Fatalf("recycled: want %d freed slots, got %d", cfg.Sessions, res.RecycledIDs)
		}
	}
	// The serve sequences are identical across provisioning strategies
	// (cold additionally serves once during spawn, excluded above), so the
	// checksums and serve counts must agree byte-for-byte.
	for i := 1; i < len(checksums); i++ {
		if checksums[i] != checksums[0] || serves[i] != serves[0] {
			t.Fatalf("mode results diverge: checksums %v serves %v", checksums, serves)
		}
	}
}

func TestGatewayFreezeShared(t *testing.T) {
	res, err := RunGateway(GatewayConfig{
		Mode: GatewayClone, Sessions: 4, Requests: 4,
		HeapLimit: 32 << 20, FreezeShared: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunGateway(GatewayConfig{
		Mode: GatewayClone, Sessions: 4, Requests: 4, HeapLimit: 32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != plain.Checksum {
		t.Fatalf("frozen-shared clones diverge: %d vs %d", res.Checksum, plain.Checksum)
	}
}

func TestGatewayInstrLimit(t *testing.T) {
	// Greedy sessions (every 8th, 4x requests) blow a budget sized for
	// normal sessions and get admin-killed early.
	res, err := RunGateway(GatewayConfig{
		Mode: GatewayClone, Sessions: 16, Requests: 8,
		HeapLimit: 32 << 20, InstrLimit: 8 * 40 * 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LimitKills == 0 {
		t.Fatalf("expected limit kills, got none (serves=%d)", res.Serves)
	}
	if res.LimitKills > res.Sessions {
		t.Fatalf("more kills than sessions: %+v", res)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestGatewayConcurrentChecksumAgreesWithSequential is the differential
// oracle for the concurrent path: a pool-mode concurrent run serves the
// same request-argument sequence as the sequential clone-mode gateway,
// so the checksums must agree byte-for-byte — concurrency, pool
// recycling, and refill ordering must not change results. The cold
// concurrent leg must agree too (its warm serves are counted but, like
// the sequential cold leg, excluded from the checksum).
func TestGatewayConcurrentChecksumAgreesWithSequential(t *testing.T) {
	const tenants, perTenant, requests = 4, 2, 6
	seq, err := RunGateway(GatewayConfig{
		Mode: GatewayClone, Sessions: tenants * perTenant, Requests: requests,
		HeapLimit: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, usePool := range []bool{true, false} {
		res, err := RunGatewayConcurrent(GatewayConcurrentConfig{
			Tenants: tenants, SessionsPerTenant: perTenant, Requests: requests,
			UsePool: usePool,
		})
		if err != nil {
			t.Fatalf("%s: %v", res.Mode, err)
		}
		if res.Checksum != seq.Checksum {
			t.Fatalf("%s checksum %d != sequential clone checksum %d", res.Mode, res.Checksum, seq.Checksum)
		}
		wantServes := tenants * perTenant * requests
		if !usePool {
			wantServes += tenants * perTenant // cold warm serves
		}
		if res.Serves != wantServes {
			t.Fatalf("%s serves %d, want %d", res.Mode, res.Serves, wantServes)
		}
		// Pool spawn can legitimately be 0 ticks (a warm Acquire executes
		// no guest instructions); cold spawn always pays clinit ticks.
		if res.ServeP99Ticks <= 0 || (!usePool && res.SpawnP99Ticks <= 0) {
			t.Fatalf("%s: degenerate tick percentiles %+v", res.Mode, res)
		}
		if usePool && res.Recycled < int64(tenants*perTenant) {
			t.Fatalf("pool recycled %d sessions, want >= %d", res.Recycled, tenants*perTenant)
		}
	}
}

// TestGatewayConcurrentPoolSpawnSpeedup is the acceptance gate: with 64
// in-flight tenants, provisioning from a pool sized for the load must
// put concurrent spawn p99 (virtual ticks) at least 5x under concurrent
// cold provisioning, which pays define+link+clinit per session while
// every other tenant's instructions advance the clock.
func TestGatewayConcurrentPoolSpawnSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("64-tenant concurrent run in -short mode")
	}
	const tenants = 64
	cold, err := RunGatewayConcurrent(GatewayConcurrentConfig{
		Tenants: tenants, Requests: 2, HeapLimit: 128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := RunGatewayConcurrent(GatewayConcurrentConfig{
		Tenants: tenants, Requests: 2, HeapLimit: 128 << 20,
		UsePool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.SpawnP99Ticks <= 0 {
		t.Fatalf("degenerate cold spawn ticks: %+v", cold)
	}
	// A warm Acquire can be 0 ticks; floor it at 1 so the ratio is
	// well-defined.
	p99 := pool.SpawnP99Ticks
	if p99 < 1 {
		p99 = 1
	}
	if p99*5 > cold.SpawnP99Ticks {
		t.Fatalf("pool spawn p99 %d ticks not 5x under cold %d ticks",
			pool.SpawnP99Ticks, cold.SpawnP99Ticks)
	}
	if pool.Checksum != cold.Checksum {
		t.Fatalf("pool checksum %d != cold checksum %d", pool.Checksum, cold.Checksum)
	}
}

// TestGatewayConcurrentGovernedSheds: throttled abusers hammering the
// admission edge are refused with core.ErrThrottled before any warm
// slot is spent, while the tenants' sessions complete with the right
// results. The governor tuning mirrors the benchtable QoS legs: small
// windows and low thresholds so escalation lands within a short run.
func TestGatewayConcurrentGovernedSheds(t *testing.T) {
	res, err := RunGatewayConcurrent(GatewayConcurrentConfig{
		Tenants: 4, SessionsPerTenant: 2, Requests: 4,
		UsePool: true, Abusers: 2,
		// The TestSLOGovernedUnderAttack tuning: windows small enough that
		// a throttle streak fits in a short run, CPU criterion disabled so
		// only the alloc/sleeper escalation paths fire.
		// The qos_test small-window tuning: most of a gateway run's ticks
		// are host-side warm-up, so windows must fit the scheduler's own
		// instruction budget for a throttle streak to complete. The CPU
		// criterion is disabled (only the alloc path should fire) and the
		// stage-one weight cut is kept gentle so the flood still trips the
		// alloc criterion on the way to throttle.
		Governor: &sched.GovernorConfig{
			WindowInstrs:        4096,
			CPUFactor:           100,
			SleepersMax:         8,
			AllocBytesPerWindow: 8 << 10,
			DeprioritizeAfter:   2,
			ThrottleAfter:       3,
			DeprioritizeDivisor: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("governed run shed no abuser admissions: %+v", res)
	}
	if res.Serves != 4*2*4 {
		t.Fatalf("governed tenants served %d, want %d", res.Serves, 4*2*4)
	}
	if res.Governor.Throttles == 0 {
		t.Fatalf("governor never reached the throttle stage: %+v", res.Governor)
	}
}
