package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/llvmir"
)

// The inputs. Every workload draws its functions from the reference
// corpus — corpus.GCCLike with its own seed, the corpus every cmd/tv
// experiment validates — and the run's seed sets the order they are
// submitted in. That order decides which functions share the worker
// pool, which VC-cache entries one function reuses from another, and
// which function is last in the tail.
//
// The seed does not pick the functions themselves: validation cost is so
// heavy-tailed (a few division-heavy functions take most of the time)
// that a fresh GCCLike corpus per seed moves throughput by 13–27% from
// seed to seed on its own, which would bury any change a bound could
// catch.

// smallInstrs bounds the functions of the untimed workloads: below 40
// LLVM instructions and under the per-query conflict budget a validation
// takes a few seconds at most, while larger GCCLike functions can run
// for minutes.
const smallInstrs = 40

// referenceCorpus returns the first n functions of the reference corpus
// that keep accepts (nil: all of them).
func referenceCorpus(n int, keep func(corpus.Function) bool) []corpus.Function {
	for pool := 2 * n; ; pool *= 2 {
		var out []corpus.Function
		for _, f := range corpus.Generate(corpus.GCCLike(pool)) {
			if keep == nil || keep(f) {
				out = append(out, f)
			}
			if len(out) == n {
				return out
			}
		}
	}
}

// small reports whether f has fewer than smallInstrs instructions.
func small(f corpus.Function) bool { return instrCount(f) < smallInstrs }

// cheap reports whether f is small and free of division and remainder,
// the instructions that make bit-blasted queries hard: such a function
// validates in milliseconds.
func cheap(f corpus.Function) bool {
	for _, op := range []string{" udiv ", " sdiv ", " urem ", " srem "} {
		if strings.Contains(f.Src, op) {
			return false
		}
	}
	return small(f)
}

// instrCount is a generated function's LLVM instruction count.
func instrCount(f corpus.Function) int {
	m, err := llvmir.Parse(f.Src)
	if err != nil {
		panic(fmt.Sprintf("benchmark: generated function %s does not parse: %v", f.Name, err))
	}
	return m.Func(f.Name).NumInstrs()
}

// permute returns fns in the order seed derives.
func permute(fns []corpus.Function, seed int64) []corpus.Function {
	out := make([]corpus.Function, len(fns))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(fns)) {
		out[i] = fns[j]
	}
	return out
}

// unseenStream hands out functions the daemon's store has never seen:
// copies of a fixed pool, each renamed with a fresh suffix. A new name
// is a new module text and so a new store key, while the validation work
// stays exactly that of the pool function (the daemon gives every job
// its own VC cache), which keeps the cost of a miss batch steady.
type unseenStream struct {
	pool []corpus.Function
	mu   sync.Mutex
	next int
}

// take returns the next n unseen functions.
func (s *unseenStream) take(n int) []corpus.Function {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]corpus.Function, n)
	for i := range out {
		out[i] = renamed(s.pool[s.next%len(s.pool)], s.next)
		s.next++
	}
	return out
}

// renamed is f with its function renamed to <name>_u<k>.
func renamed(f corpus.Function, k int) corpus.Function {
	name := fmt.Sprintf("%s_u%d", f.Name, k)
	return corpus.Function{Name: name, Src: strings.ReplaceAll(f.Src, "@"+f.Name+"(", "@"+name+"(")}
}
