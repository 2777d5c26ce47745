package parallel

// Number is the constraint satisfied by the built-in numeric types used
// throughout the framework (vertex IDs, degrees, weights, ranks).
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Reduce combines fn(i) for i in [0, n) with the associative operation
// combine, starting from the identity element id. The reduction tree shape
// is unspecified, so combine must be associative; it need not be
// commutative only if the per-block order is acceptable, so in practice use
// associative+commutative operations or order-insensitive ones.
func Reduce[T any](n int, id T, fn func(i int) T, combine func(a, b T) T) T {
	acc, err := ReduceCtx(nil, n, id, fn, combine)
	if err != nil {
		panic(err)
	}
	return acc
}

// SumFunc returns the sum of fn(i) over [0, n) computed in parallel.
func SumFunc[T Number](n int, fn func(i int) T) T {
	var zero T
	return Reduce(n, zero, fn, func(a, b T) T { return a + b })
}

// Sum returns the sum of the elements of s computed in parallel.
func Sum[T Number](s []T) T {
	return SumFunc(len(s), func(i int) T { return s[i] })
}

// MaxFunc returns the maximum of fn(i) over [0, n). n must be positive.
func MaxFunc[T Number](n int, fn func(i int) T) T {
	if n <= 0 {
		panic("parallel: MaxFunc on empty range")
	}
	first := fn(0)
	return Reduce(n, first, fn, func(a, b T) T {
		if a > b {
			return a
		}
		return b
	})
}

// MinFunc returns the minimum of fn(i) over [0, n). n must be positive.
func MinFunc[T Number](n int, fn func(i int) T) T {
	if n <= 0 {
		panic("parallel: MinFunc on empty range")
	}
	first := fn(0)
	return Reduce(n, first, fn, func(a, b T) T {
		if a < b {
			return a
		}
		return b
	})
}

// Max returns the maximum element of s. s must be non-empty.
func Max[T Number](s []T) T {
	return MaxFunc(len(s), func(i int) T { return s[i] })
}

// Min returns the minimum element of s. s must be non-empty.
func Min[T Number](s []T) T {
	return MinFunc(len(s), func(i int) T { return s[i] })
}

// CountFunc returns the number of i in [0, n) for which pred(i) is true.
func CountFunc(n int, pred func(i int) bool) int {
	return SumFunc(n, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// Count returns the number of elements of s satisfying pred.
func Count[T any](s []T, pred func(T) bool) int {
	return CountFunc(len(s), func(i int) bool { return pred(s[i]) })
}

// Any reports whether pred(i) holds for at least one i in [0, n).
// It does not guarantee early exit but short-circuits per block.
func Any(n int, pred func(i int) bool) bool {
	blocks := numBlocks(n)
	if blocks == 1 {
		for i := 0; i < n; i++ {
			if pred(i) {
				return true
			}
		}
		return false
	}
	found := make([]bool, blocks)
	ForGrain(blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		for i := lo; i < hi; i++ {
			if pred(i) {
				found[b] = true
				return
			}
		}
	})
	for _, f := range found {
		if f {
			return true
		}
	}
	return false
}

// All reports whether pred(i) holds for every i in [0, n).
func All(n int, pred func(i int) bool) bool {
	return !Any(n, func(i int) bool { return !pred(i) })
}

// MaxIndexFunc returns the index i in [0, n) maximizing key(i), breaking
// ties toward the smallest index. n must be positive.
func MaxIndexFunc[T Number](n int, key func(i int) T) int {
	if n <= 0 {
		panic("parallel: MaxIndexFunc on empty range")
	}
	type kv struct {
		i int
		k T
	}
	best := Reduce(n, kv{0, key(0)},
		func(i int) kv { return kv{i, key(i)} },
		func(a, b kv) kv {
			if b.k > a.k || (b.k == a.k && b.i < a.i) {
				return b
			}
			return a
		})
	return best.i
}
