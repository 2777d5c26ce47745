package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It sorts a copy, so xs is left as given. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond reports how many of n samples lie strictly above the
// nearest-rank p-th percentile: the sample count a tail figure rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a ratio over no attempts).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// opResult is one operation as the client saw it.
type opResult struct {
	op *op
	// scheduled is when the operation was due to be sent; sent is when
	// the generator actually sent it; done is when the reply arrived.
	scheduled, sent, done time.Time
	status                int
	// meta and update are what the metrics and the version-chain check
	// keep of the reply. The body itself is checked on arrival and
	// dropped, so reply bodies stay out of memory_mb.
	meta   replyMeta
	update updateReply
	// failed is set by the output check: a non-2xx reply, or an answer
	// that disagrees with the oracle.
	failed bool
	reason string
}

// latency is the client-visible latency, timed from the scheduled send
// time so that a stall also charges the wait it imposes on later sends.
func (r *opResult) latency() time.Duration { return r.done.Sub(r.scheduled) }

// lateness is how far behind its schedule the generator sent r.
func (r *opResult) lateness() time.Duration { return r.sent.Sub(r.scheduled) }

// tally counts attempted and failed operations, queries and updates
// together: a failure is a non-2xx reply (a 429 shed or 503 breaker
// reply included) or an answer that fails the output check.
type tally struct {
	attempted, failed int
}

func (t *tally) add(results []*opResult) {
	for _, r := range results {
		t.attempted++
		if r.failed {
			t.failed++
		}
	}
}

// latencies collects the client latencies in milliseconds of the
// successful results of one kind.
func latencies(results []*opResult, kind opKind) []float64 {
	var out []float64
	for _, r := range results {
		if r.op.kind == kind && !r.failed {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}
