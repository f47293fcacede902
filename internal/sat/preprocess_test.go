package sat_test

// Differential validation of SatELite-style inprocessing (preprocess.go)
// against brute-force enumeration, mirroring difftest_test.go: every
// verdict on a random small CNF must survive subsumption, self-
// subsumption and vivification unchanged; Sat models must satisfy the
// original clauses; and every Unsat trace — now containing inprocessing
// adds and deletes — must still replay through the independent RUP
// checker. Also covers the PR's satellite fixes: per-call PropBudget
// accounting and cancellation-token polling.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sat"
)

// checkModel asserts the solver's model satisfies the original CNF.
func checkModel(t *testing.T, iter int, s *sat.Solver, clauses [][]int32) {
	t.Helper()
	for _, cl := range clauses {
		ok := false
		for _, d := range cl {
			v := d
			if v < 0 {
				v = -v
			}
			if s.Value(int(v-1)) == (d > 0) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
		}
	}
}

// TestDifferentialInprocessed runs the one-shot random-CNF differential
// suite with inprocessing and proof logging: verdicts against brute
// force, models against the original clauses, Unsat traces through the
// RUP checker.
func TestDifferentialInprocessed(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1224))
	for iter := 0; iter < 400; iter++ {
		nvars := 3 + rng.Intn(6)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		s.Inprocess = true
		s.InprocessMin = 1
		if iter%2 == 1 {
			s.SeedShuffle = uint64(iter)
		}
		got := s.Solve()
		want := bruteForce(nvars, clauses, nil)
		if (got == sat.Sat) != want {
			t.Fatalf("iter %d: inprocessed solver says %v, brute force says sat=%v\ncnf: %v",
				iter, got, want, clauses)
		}
		if got == sat.Sat {
			checkModel(t, iter, s, clauses)
			continue
		}
		ck := replayTrace(t, s.Proof, s.Proof.Len())
		if err := ck.CheckFinal(nil); err != nil {
			t.Fatalf("iter %d: empty clause not RUP after inprocessed trace: %v\ncnf: %v",
				iter, err, clauses)
		}
	}
}

// TestDifferentialInprocessedIncremental mirrors the SMT layer's
// incremental usage — shared instance, one assumption per query — with
// inprocessing on: verdicts against brute force and per-query certificate obligations at their
// recorded trace positions.
func TestDifferentialInprocessedIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3663))
	for iter := 0; iter < 60; iter++ {
		nvars := 4 + rng.Intn(5)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		s.Inprocess = true
		s.InprocessMin = 1
		type obligation struct {
			pos   int
			final []int32
		}
		var obligations []obligation
		for q := 0; q < 8; q++ {
			v := rng.Intn(nvars)
			root := sat.MkLit(v, rng.Intn(2) == 1)
			got := s.Solve(root)
			want := bruteForce(nvars, clauses, []int32{dimacs(root)})
			if (got == sat.Sat) != want {
				t.Fatalf("iter %d query %d: solver says %v under %v, brute force says sat=%v",
					iter, q, got, root, want)
			}
			if got != sat.Unsat {
				continue
			}
			final := []int32{}
			if s.Okay() {
				final = []int32{-dimacs(root)}
			}
			obligations = append(obligations, obligation{pos: s.Proof.Len(), final: final})
			if !s.Okay() {
				break
			}
		}
		ck := replayTrace(t, s.Proof, 0)
		step := 0
		for oi, ob := range obligations {
			for ; step < ob.pos; step++ {
				op, lits := s.Proof.Step(step)
				d := make([]int32, len(lits))
				for j, l := range lits {
					d[j] = dimacs(l)
				}
				var err error
				switch op {
				case sat.OpInput:
					err = ck.AddInput(d)
				case sat.OpLearn:
					err = ck.AddLearnt(d)
				case sat.OpDelete:
					err = ck.Delete(d)
				}
				if err != nil {
					t.Fatalf("iter %d: step %d: %v", iter, step, err)
				}
			}
			if err := ck.CheckFinal(ob.final); err != nil {
				t.Fatalf("iter %d obligation %d: final %v not RUP at pos %d: %v",
					iter, oi, ob.final, ob.pos, err)
			}
		}
	}
}

// TestSnapshotEquisatisfiable checks the CNF Snapshot exports after an
// inprocessed solve is satisfiable exactly when the original formula is
// — the property cube workers rely on.
func TestSnapshotEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(0x55AA))
	for iter := 0; iter < 120; iter++ {
		nvars := 3 + rng.Intn(5)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		s.Proof = nil
		s.Inprocess = true
		s.InprocessMin = 1
		got := s.Solve()
		if got == sat.Unsat && !s.Okay() {
			continue // no level-0 state worth exporting
		}
		nv, snap := s.Snapshot(true)
		if nv != nvars {
			t.Fatalf("iter %d: snapshot has %d vars, want %d", iter, nv, nvars)
		}
		dim := make([][]int32, len(snap))
		for i, cl := range snap {
			d := make([]int32, len(cl))
			for j, l := range cl {
				d[j] = dimacs(l)
			}
			dim[i] = d
		}
		if bruteForce(nv, dim, nil) != bruteForce(nvars, clauses, nil) {
			t.Fatalf("iter %d: snapshot not equisatisfiable with original\ncnf: %v\nsnap: %v",
				iter, clauses, dim)
		}
	}
}

// TestPropBudgetPerCall is the regression test for the cumulative-counter
// bug: PropBudget must bound each Solve call, not the instance lifetime.
// A long implication chain costs ~n propagations per query; with the old
// cumulative comparison the budget is exhausted after a handful of
// queries and every later query degrades to Unknown.
func TestPropBudgetPerCall(t *testing.T) {
	s := sat.New()
	const n = 50
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(sat.MkLit(i, true), sat.MkLit(i+1, false))
	}
	s.PropBudget = 4 * n
	for q := 0; q < 100; q++ {
		if st := s.Solve(sat.MkLit(0, false)); st != sat.Sat {
			t.Fatalf("query %d: got %v, want Sat — PropBudget charged cumulatively?", q, st)
		}
	}
}

// TestCancelPreStopped: a solver whose cancellation token is already
// stopped must abandon a conflict-heavy instance at the first poll and
// report Unknown instead of grinding through the refutation.
func TestCancelPreStopped(t *testing.T) {
	nvars, clauses := pigeonhole(9, 8)
	s := newLoggedSolver(nvars, clauses)
	s.Proof = nil
	s.Cancel = &sat.Stop{}
	s.Cancel.Stop()
	if st := s.Solve(); st != sat.Unknown {
		t.Fatalf("got %v, want Unknown under a stopped cancellation token", st)
	}
}

// TestCancelStopsRunningSolve stops a solve from another goroutine — the
// exact shape of a portfolio race loss — and requires prompt Unknown.
// Run under -race this also vouches for the token's synchronization.
func TestCancelStopsRunningSolve(t *testing.T) {
	nvars, clauses := pigeonhole(10, 9)
	s := newLoggedSolver(nvars, clauses)
	s.Proof = nil
	s.Cancel = &sat.Stop{}
	done := make(chan sat.Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	s.Cancel.Stop()
	select {
	case st := <-done:
		if st != sat.Unknown && st != sat.Unsat {
			t.Fatalf("got %v, want Unknown (cancelled) or Unsat (won the race)", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("solver did not notice cancellation")
	}
}
