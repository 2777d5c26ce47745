// Package faultinject provides deterministic, test-only fault hooks for
// the Ligra runtime. The parallel runtime calls OnChunk once per
// dispatched loop chunk, the core operators call OnRound once per
// EdgeMap invocation, and the graph IO layer calls OnLoad once per file
// load; when disarmed (the default) each is a single atomic pointer load
// and does nothing.
//
// Tests arm the hooks to exercise containment paths that are otherwise
// timing-dependent:
//
//   - PanicOnChunk(n, v) panics with v on the n-th dispatched chunk,
//     proving worker panics surface as *parallel.PanicError.
//   - PanicOnRound(n, v) panics with v on the n-th EdgeMap round,
//     proving between-round panics are contained at the query boundary.
//   - SlowChunk(n, d) sleeps d on the n-th dispatched chunk, simulating
//     a stuck worker (the sleep is deliberately not context-aware, so a
//     query wedges past its deadline and the server watchdog must
//     notice).
//   - HoldRound(n) blocks the n-th EdgeMap round until released,
//     parking a query mid-traversal so others can queue behind it.
//   - CancelOnRound(parent, n) returns a context cancelled on the n-th
//     EdgeMap round, proving mid-algorithm cancellation yields a usable
//     partial result.
//   - FailLoad(n, err) makes the next n graph file loads fail with err,
//     proving transient IO blips are absorbed by the registry's
//     retry-with-budget.
//
// The hooks are process-global; tests using them must not run in
// parallel with each other and must disarm (defer the returned func).
// Arming a slot that is already armed panics with a diagnostic rather
// than silently replacing the other test's hook — overlapping tests are
// a test-suite bug this package refuses to hide. Disarm functions are
// idempotent and only clear the hook they armed, so a stale deferred
// disarm can never clobber a hook armed later.
package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// hook is one armed fault: fire runs exactly once, on the call that
// takes remaining from 1 to 0.
type hook struct {
	remaining atomic.Int64
	fire      func()
}

// slot is one global hook point with panic-on-double-arm semantics.
type slot struct {
	name string
	p    atomic.Pointer[hook]
}

func (s *slot) arm(h *hook) {
	if !s.p.CompareAndSwap(nil, h) {
		panic("faultinject: " + s.name + " hook already armed " +
			"(overlapping tests? disarm the previous hook first)")
	}
}

// disarm clears the slot only if it still holds h, so disarming twice —
// or after another test armed its own hook — is harmless.
func (s *slot) disarm(h *hook) func() {
	return func() { s.p.CompareAndSwap(h, nil) }
}

func (s *slot) trip() {
	h := s.p.Load()
	if h == nil {
		return
	}
	if h.remaining.Add(-1) == 0 {
		h.fire()
	}
}

var (
	chunkSlot = &slot{name: "chunk"}
	roundSlot = &slot{name: "round"}
	loadSlot  = &slot{name: "load"}
)

// OnChunk is called by internal/parallel once per dispatched chunk.
func OnChunk() { chunkSlot.trip() }

// OnRound is called by internal/core once per EdgeMap invocation.
func OnRound() { roundSlot.trip() }

// loadHook fails OnLoad with err while remaining calls are left.
type loadHook struct {
	remaining atomic.Int64
	err       error
}

var loadHookPtr atomic.Pointer[loadHook]

// OnLoad is called by internal/graph once per file load; a non-nil
// return is the injected IO error the load must surface.
func OnLoad() error {
	h := loadHookPtr.Load()
	if h == nil {
		return nil
	}
	if h.remaining.Add(-1) >= 0 {
		return h.err
	}
	return nil
}

// PanicOnChunk arms OnChunk to panic with value on its n-th call
// (1-based). It returns a disarm function that must be deferred.
func PanicOnChunk(n int, value any) (disarm func()) {
	h := &hook{fire: func() { panic(value) }}
	h.remaining.Store(int64(n))
	chunkSlot.arm(h)
	return chunkSlot.disarm(h)
}

// SlowChunk arms OnChunk to sleep d on its n-th call (1-based),
// simulating a worker stuck in user code. The sleep ignores every
// context on purpose: cooperative cancellation cannot reach it, which is
// exactly the failure mode the server's query watchdog exists to detect.
func SlowChunk(n int, d time.Duration) (disarm func()) {
	h := &hook{fire: func() { time.Sleep(d) }}
	h.remaining.Store(int64(n))
	chunkSlot.arm(h)
	return chunkSlot.disarm(h)
}

// PanicOnRound arms OnRound to panic with value on its n-th call
// (1-based). It returns a disarm function that must be deferred.
func PanicOnRound(n int, value any) (disarm func()) {
	h := &hook{fire: func() { panic(value) }}
	h.remaining.Store(int64(n))
	roundSlot.arm(h)
	return roundSlot.disarm(h)
}

// HoldRound arms OnRound to block on its n-th call (1-based) until the
// returned release is called, parking one traversal mid-run so a test can
// line other work up behind it. release also disarms, is idempotent, and
// must be deferred.
func HoldRound(n int) (release func()) {
	gate := make(chan struct{})
	h := &hook{fire: func() { <-gate }}
	h.remaining.Store(int64(n))
	roundSlot.arm(h)
	disarm := roundSlot.disarm(h)
	var once sync.Once
	return func() {
		once.Do(func() {
			disarm()
			close(gate)
		})
	}
}

// CancelOnRound returns a child context of parent that is cancelled when
// OnRound has been called n times (1-based), together with a disarm
// function that must be deferred (it also releases the context).
func CancelOnRound(parent context.Context, n int) (ctx context.Context, disarm func()) {
	ctx, cancel := context.WithCancel(parent)
	h := &hook{fire: cancel}
	h.remaining.Store(int64(n))
	roundSlot.arm(h)
	clear := roundSlot.disarm(h)
	return ctx, func() {
		clear()
		cancel()
	}
}

// FailLoad arms OnLoad to return err on its next n calls (after which
// loads succeed again — the shape of a transient IO blip). It panics if
// a load hook is already armed and returns a disarm function that must
// be deferred.
func FailLoad(n int, err error) (disarm func()) {
	h := &loadHook{err: err}
	h.remaining.Store(int64(n))
	if !loadHookPtr.CompareAndSwap(nil, h) {
		panic("faultinject: load hook already armed " +
			"(overlapping tests? disarm the previous hook first)")
	}
	return func() { loadHookPtr.CompareAndSwap(h, nil) }
}
