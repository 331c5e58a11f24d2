package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
	"ijvm/internal/workloads"
)

// mesh is a closed loop of inter-bundle fan-out: meshFrontends caller
// isolates each send a request to every service bundle through
// osgi.ServiceRegistry.FanOut over rpc.Hub and wait for all its legs
// before sending the next. The seed picks each request's shape: scalar
// fstatic(x) legs, or drag legs carrying a deep-copied Object[] payload.
const (
	meshServices  = 4
	meshFrontends = 2
	meshPayload   = 64
	meshQueue     = 16
	meshPrefix    = "mesh/svc/"
	// meshTraceEvery samples the requests a traced block records: at
	// tens of thousands of requests a second, spans of every request
	// would take hundreds of megabytes.
	meshTraceEvery = 16
	// meshWarmRequests is each frontend's set-up traffic.
	meshWarmRequests = 500
)

var meshShapes = [2]string{"scalar", "payload"}

func meshParams() map[string]any {
	return map[string]any{
		"services": meshServices, "frontends": meshFrontends, "loop": "closed",
		"shapes":      "seeded choice per request: scalar fstatic(I)I or drag(Object[64]) deep copy",
		"queue_depth": meshQueue, "zero_copy": false, "churn": false,
		"traced_run_siege_phase": siegeParams(),
	}
}

type meshFront struct {
	iso     *core.Isolate
	roots   *interp.HostRoots
	payload heap.Value
	rng     *rand.Rand
}

type mesh struct {
	seed      int64
	vm        *interp.VM
	hub       *rpc.Hub
	reg       *osgi.ServiceRegistry
	fronts    []*meshFront
	installMs []float64
	nextReq   int64

	// drag oracle: each service's instance counts its drags, so over a
	// run the payload legs to one service must return 64+1, 64+2, ...,
	// each exactly once. issued counts drags sent; seen the values back.
	mu     sync.Mutex
	issued map[string]int64
	seen   map[string]*bitset

	// traced-block observations
	rejected, failed, gcs int64
}

func meshService(slot int) string { return fmt.Sprintf("%s%02d", meshPrefix, slot) }

func setupMesh(seed int64) (bench, error) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	fw, err := osgi.NewFramework(vm)
	if err != nil {
		return nil, err
	}
	m := &mesh{seed: seed, vm: vm, hub: rpc.NewHub(vm), reg: fw.Registry(), issued: map[string]int64{}, seen: map[string]*bitset{}}
	ok := false
	defer func() {
		if !ok {
			m.close()
		}
	}()
	for slot := 0; slot < meshServices; slot++ {
		start := time.Now()
		b, err := fw.Install(osgi.Manifest{Name: fmt.Sprintf("mesh-svc-%d", slot), Version: "1.0.0"}, workloads.ServiceClasses())
		if err != nil {
			return nil, err
		}
		m.installMs = append(m.installMs, float64(time.Since(start))/float64(time.Millisecond))
		mk, err := lookup(b.Loader().Lookup, workloads.ServiceClassName, "make", "()Ljava/lang/Object;")
		if err != nil {
			return nil, err
		}
		v, th, err := vm.CallRoot(b.Isolate(), mk, nil, 10_000_000)
		if err != nil || th.Failure() != nil {
			return nil, fmt.Errorf("mesh: make service: %v / %s", err, th.FailureString())
		}
		if err := m.reg.Register(meshService(slot), v.R, b); err != nil {
			return nil, err
		}
		m.seen[meshService(slot)] = &bitset{}
	}
	obj, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return nil, err
	}
	for i := 0; i < meshFrontends; i++ {
		name := fmt.Sprintf("mesh-frontend-%d", i)
		iso, err := vm.World().NewIsolate(name, vm.Registry().NewLoader(name))
		if err != nil {
			return nil, err
		}
		f := &meshFront{iso: iso, roots: vm.NewHostRoots(iso), rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
		m.fronts = append(m.fronts, f)
		arr, err := vm.AllocArrayRooted(f.roots, obj, meshPayload, iso)
		if err != nil {
			return nil, err
		}
		for j := range arr.Elems {
			arr.Elems[j] = heap.IntVal(int64(j))
		}
		f.payload = heap.RefVal(arr)
	}
	var warm tally
	for _, f := range m.fronts {
		for i := 0; i < meshWarmRequests; i++ {
			m.request(f, &tracer{}, &warm)
		}
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("mesh warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	ok = true
	return m, nil
}

func (m *mesh) collect() { m.hub.Collect(nil) }

func (m *mesh) close() {
	for slot := 0; slot < meshServices; slot++ {
		m.reg.Unregister(meshService(slot))
	}
	m.hub.Close()
	for _, f := range m.fronts {
		f.roots.Release()
	}
}

// request runs one fan-out, waits for all its legs and records the
// outcome in t: a request fails if any of its legs does.
func (m *mesh) request(f *meshFront, tr *tracer, t *tally) {
	shape := f.rng.Intn(2)
	x := f.rng.Int63n(1 << 20)
	method, desc, args := "fstatic", "(I)I", []heap.Value{heap.IntVal(x)}
	if shape == 1 {
		method, desc, args = "drag", "(Ljava/lang/Object;)I", []heap.Value{f.payload}
		m.mu.Lock()
		for slot := 0; slot < meshServices; slot++ {
			m.issued[meshService(slot)]++
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.nextReq++
	req := m.nextReq
	m.mu.Unlock()
	traced := tr.on.Load()
	if req%meshTraceEvery != 0 {
		tr = untraced
	}
	root := tr.id()
	start := time.Now()
	var legs []osgi.FanOutCall
	tr.timed(root, req, "osgi.fanout."+meshShapes[shape], func() {
		legs = m.reg.FanOut(m.hub, f.iso, meshPrefix, method, desc, rpc.LinkOptions{QueueDepth: meshQueue}, args)
	})
	var err error
	if len(legs) != meshServices {
		err = fmt.Errorf("mesh: fan-out reached %d services, want %d", len(legs), meshServices)
	}
	for _, leg := range legs {
		lerr := leg.Err
		var v heap.Value
		if lerr == nil {
			tr.timed(root, req, "rpc.wait."+meshShapes[shape], func() { v, lerr = leg.Fut.Wait() })
			leg.Fut.Release()
		}
		if lerr == nil {
			lerr = m.check(leg.Service, shape, x, v.I)
		} else if traced {
			m.mu.Lock()
			if errors.Is(lerr, rpc.ErrSaturated) {
				m.rejected++
			} else {
				m.failed++
			}
			m.mu.Unlock()
		}
		if lerr != nil && err == nil {
			err = fmt.Errorf("mesh %s leg to %s: %w", method, leg.Service, lerr)
		}
	}
	end := time.Now()
	tr.add(root, 0, req, "mesh.request", start, end)
	t.attempted++
	if err != nil {
		t.fail(err)
		return
	}
	t.ops++
	t.lats = append(t.lats, float64(end.Sub(start))/float64(time.Millisecond))
}

// check is the leg oracle: fstatic(x) returns x+1; the k-th drag to a
// service returns 64+k, so a value outside the drags issued so far, or
// one seen before, is wrong.
func (m *mesh) check(service string, shape int, x, v int64) error {
	if shape == 0 {
		if v != x+1 {
			return fmt.Errorf("fstatic(%d) = %d", x, v)
		}
		return nil
	}
	k := v - meshPayload
	m.mu.Lock()
	defer m.mu.Unlock()
	if k < 1 || k > m.issued[service] || !m.seen[service].add(k) {
		return fmt.Errorf("drag returned %d: not a fresh value in 65..%d", v, meshPayload+m.issued[service])
	}
	return nil
}

// measure runs the frontends' closed loops until the deadline.
func (m *mesh) measure(deadline time.Time, tr *tracer, t *tally) error {
	g0 := m.vm.Heap().GCCount()
	tallies := make([]tally, len(m.fronts))
	var wg sync.WaitGroup
	for i, f := range m.fronts {
		wg.Add(1)
		go func(f *meshFront, ft *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				m.request(f, tr, ft)
			}
		}(f, &tallies[i])
	}
	wg.Wait()
	for i := range tallies {
		t.merge(&tallies[i])
	}
	// Every drag sent has come back: the values seen must be exactly 1..issued.
	m.mu.Lock()
	for svc, n := range m.issued {
		if m.seen[svc].n != n {
			t.fail(fmt.Errorf("mesh: %s returned %d distinct drag values for %d drags", svc, m.seen[svc].n, n))
		}
	}
	m.mu.Unlock()
	if tr.on.Load() {
		m.gcs += m.vm.Heap().GCCount() - g0
	}
	return nil
}

func (m *mesh) layers(out map[string]float64, tr *tracer) error {
	// The siege phase first: it reports heap figures of its own VM,
	// which mesh's own then replace.
	if err := siegePhase(m.seed, out, tr); err != nil {
		return err
	}
	// Side phase: deep-copy the payload into a service isolate, with no
	// traffic running.
	src := m.fronts[0]
	target, err := m.vm.World().NewIsolate("copy-target", m.vm.Registry().NewLoader("copy-target"))
	if err != nil {
		return err
	}
	for i := 0; i < sideReps; i++ {
		var cerr error
		m.hub.Sync(func() {
			tr.timed(0, 0, "rpc.copy", func() { _, cerr = rpc.DeepCopyValue(m.vm, src.payload, target) })
		})
		if cerr != nil {
			return fmt.Errorf("side copy: %w", cerr)
		}
	}
	us, ms := time.Microsecond, time.Millisecond
	out["rpc.copy_us.p50"] = pct(tr.durations("rpc.copy", us), 0.5)
	for _, shape := range meshShapes {
		f := tr.durations("osgi.fanout."+shape, us)
		out["osgi.fanout_us."+shape+".p50"], out["osgi.fanout_us."+shape+".p99"] = pct(f, 0.5), pct(f, 0.99)
		w := tr.durations("rpc.wait."+shape, us)
		out["rpc.wait_us."+shape+".p50"], out["rpc.wait_us."+shape+".p99"] = pct(w, 0.5), pct(w, 0.99)
	}
	out["rpc.rejected"] = float64(m.rejected)
	out["rpc.failed"] = float64(m.failed)
	out["osgi.install_ms"] = median(m.installMs)
	out["heap.gc_count"] = float64(m.gcs)
	out["heap.footprint_mb"] = float64(m.vm.MemoryFootprint()) / 1e6
	out["mesh.self_ms"] = median(tr.selfTimes("mesh.request", ms))
	d, err := defineMs(tr, func() [][]*classfile.Class {
		sets := make([][]*classfile.Class, meshServices)
		for i := range sets {
			sets[i] = workloads.ServiceClasses()
		}
		return sets
	})
	if err != nil {
		return err
	}
	out["loader.define_ms"] = d
	return nil
}

// bitset records which drag values a service has returned.
type bitset struct {
	words []uint64
	n     int64
}

// add sets bit k and reports whether it was clear.
func (b *bitset) add(k int64) bool {
	w := int(k / 64)
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	bit := uint64(1) << (k % 64)
	if b.words[w]&bit != 0 {
		return false
	}
	b.words[w] |= bit
	b.n++
	return true
}
