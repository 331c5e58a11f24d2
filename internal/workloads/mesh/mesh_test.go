package mesh_test

import (
	"testing"

	"ijvm/internal/workloads/mesh"
)

// A quiet mesh loses nothing: every leg completes and the aggregate
// checksum is exactly Σ over requests of Services*(x+1).
func TestMeshNoChurnIsLossless(t *testing.T) {
	cfg := mesh.Config{Services: 3, Frontends: 2, Requests: 20, QueueDepth: 8}
	res, err := mesh.Run(cfg)
	if err != nil {
		t.Fatalf("mesh: %v (%s)", err, res)
	}
	wantLegs := int64(cfg.Frontends * cfg.Requests * cfg.Services)
	if res.Completed != wantLegs || res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("lossy quiet mesh: %s", res)
	}
	var want int64
	for r := 0; r < cfg.Requests; r++ {
		want += int64(cfg.Frontends*cfg.Services) * int64(r%1000+1)
	}
	if res.Checksum != want {
		t.Fatalf("checksum %d, want %d (%s)", res.Checksum, want, res)
	}
}

// Under tenant churn the mesh keeps serving: kills surface as failed
// legs (cascading timeouts), never as wrong answers or a wedged run.
func TestMeshSurvivesChurn(t *testing.T) {
	cfg := mesh.Config{Services: 3, Frontends: 3, Requests: 25, QueueDepth: 8, ChurnEvery: 10}
	res, err := mesh.Run(cfg)
	if err != nil {
		t.Fatalf("mesh: %v (%s)", err, res)
	}
	if want := cfg.Frontends * cfg.Requests / cfg.ChurnEvery; res.Churns != want {
		t.Fatalf("churned %d times, want %d: %s", res.Churns, want, res)
	}
	if res.Completed == 0 {
		t.Fatalf("no leg completed under churn: %s", res)
	}
	t.Logf("%s", res)
}

// Frozen-payload runs share the argument graph instead of copying it;
// the run must stay lossless and the payload reusable across all legs.
func TestMeshZeroCopyPayload(t *testing.T) {
	cfg := mesh.Config{Services: 2, Frontends: 2, Requests: 15, QueueDepth: 8,
		PayloadLen: 6, ZeroCopy: true}
	res, err := mesh.Run(cfg)
	if err != nil {
		t.Fatalf("mesh: %v (%s)", err, res)
	}
	wantLegs := int64(cfg.Frontends * cfg.Requests * cfg.Services)
	if res.Completed != wantLegs || res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("lossy zero-copy mesh: %s", res)
	}
}
