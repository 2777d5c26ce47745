package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDoubleArmPanics proves the concurrent-arming hardening: arming a
// slot that is already armed panics with a diagnostic instead of
// silently replacing the first test's hook.
func TestDoubleArmPanics(t *testing.T) {
	disarm := PanicOnChunk(1000, "unused")
	defer disarm()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second arm of the chunk hook did not panic")
		}
		if !strings.Contains(r.(string), "already armed") {
			t.Fatalf("double-arm panic %q does not explain the conflict", r)
		}
	}()
	SlowChunk(1, time.Millisecond) // same slot as PanicOnChunk
}

// TestStaleDisarmIsHarmless proves a deferred disarm from an earlier
// arming cannot clear a hook armed after it.
func TestStaleDisarmIsHarmless(t *testing.T) {
	disarm1 := PanicOnRound(1000, "first")
	disarm1()
	disarm1() // idempotent
	disarm2 := PanicOnRound(1000, "second")
	defer disarm2()
	disarm1() // stale: must not clear the second hook
	if roundSlot.p.Load() == nil {
		t.Fatal("stale disarm cleared a hook it did not arm")
	}
}

// TestFailLoad proves the load hook fails exactly the next n calls and
// then lets loads succeed again.
func TestFailLoad(t *testing.T) {
	blip := errors.New("injected io blip")
	disarm := FailLoad(2, blip)
	defer disarm()
	for i := 0; i < 2; i++ {
		if err := OnLoad(); !errors.Is(err, blip) {
			t.Fatalf("load %d: err = %v, want injected blip", i, err)
		}
	}
	if err := OnLoad(); err != nil {
		t.Fatalf("load after blips cleared: err = %v, want nil", err)
	}
	disarm()
	if err := OnLoad(); err != nil {
		t.Fatalf("disarmed load: err = %v, want nil", err)
	}
}

// TestSlowChunkDelays proves SlowChunk stalls its n-th call for the
// configured duration and leaves other calls untouched.
func TestSlowChunkDelays(t *testing.T) {
	const d = 30 * time.Millisecond
	disarm := SlowChunk(2, d)
	defer disarm()
	start := time.Now()
	OnChunk() // call 1: fast
	if e := time.Since(start); e > d/2 {
		t.Fatalf("first chunk was slowed (%v)", e)
	}
	start = time.Now()
	OnChunk() // call 2: sleeps
	if e := time.Since(start); e < d {
		t.Fatalf("second chunk slept %v, want >= %v", e, d)
	}
}

// TestPanicOnRound proves the round hook fires on exactly the n-th call.
func TestPanicOnRound(t *testing.T) {
	disarm := PanicOnRound(2, "round boom")
	defer disarm()
	OnRound() // call 1: no fire
	func() {
		defer func() {
			if r := recover(); r != "round boom" {
				t.Fatalf("recover() = %v, want injected value", r)
			}
		}()
		OnRound() // call 2: fires
		t.Fatal("n-th round did not panic")
	}()
}

// TestHoldRound proves HoldRound parks exactly the n-th call until
// release, and that release frees the slot for the next hook.
func TestHoldRound(t *testing.T) {
	release := HoldRound(2)
	defer release()
	OnRound() // call 1: passes straight through
	returned := make(chan struct{})
	go func() {
		OnRound() // call 2: parks
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("n-th round was not held")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-returned
	release()                  // idempotent
	PanicOnRound(1, "rearm")() // the slot is free again
}
