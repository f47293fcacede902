package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Learnt-clause database reduction: once the learnt clauses outnumber a
// budget of a third of the problem clauses plus 100 (growing 10% per
// reduction), reduceDB deletes those of below-mean activity. Small
// formulas never reach that budget, so every test here drives the solver
// through a conflict-heavy pigeonhole refutation.

// pigeonholeSolver builds the (pigeons into holes) instance on s and
// returns its variables, p[pigeon][hole].
func pigeonholeSolver(s *Solver, pigeons, holes int) [][]int {
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	return p
}

// closeHole adds a selector variable that, when assumed true, forbids
// every pigeon from hole j.
func closeHole(s *Solver, p [][]int, j int) Lit {
	sel := s.NewVar()
	for i := range p {
		s.AddClause(MkLit(sel, true), MkLit(p[i][j], true))
	}
	return MkLit(sel, false)
}

// checkPlacement asserts the model puts every pigeon in exactly one hole
// and no two pigeons in the same hole.
func checkPlacement(t *testing.T, s *Solver, p [][]int) {
	t.Helper()
	holes := len(p[0])
	for i := range p {
		placed := false
		for j := 0; j < holes; j++ {
			if s.Value(p[i][j]) {
				placed = true
			}
		}
		if !placed {
			t.Fatalf("pigeon %d unplaced in model", i)
		}
	}
	for j := 0; j < holes; j++ {
		count := 0
		for i := range p {
			if s.Value(p[i][j]) {
				count++
			}
		}
		if count > 1 {
			t.Fatalf("hole %d holds %d pigeons", j, count)
		}
	}
}

// TestReducePigeonholeUnsat: a conflict-heavy instance must still be
// proved Unsat, and the reductions must actually fire and delete clauses
// — soundness under clause deletion.
func TestReducePigeonholeUnsat(t *testing.T) {
	s := New()
	pigeonholeSolver(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
	if s.Reduces == 0 {
		t.Fatalf("no reductions fired (conflicts=%d)", s.Conflicts)
	}
	if s.Removed == 0 {
		t.Fatalf("reductions fired but removed nothing")
	}
	t.Logf("conflicts=%d reduces=%d removed=%d", s.Conflicts, s.Reduces, s.Removed)
}

// TestReduceSatInstanceFindsModel: clause deletion must not lose
// solutions. PHP(8,8) is Sat, but refuting it with one hole closed first
// leaves the database full of learnt clauses, so the Sat search that
// follows runs across reductions and must still yield a valid placement.
func TestReduceSatInstanceFindsModel(t *testing.T) {
	s := New()
	const n = 8
	p := pigeonholeSolver(s, n, n)
	closed := closeHole(s, p, n-1)
	if got := s.Solve(closed); got != Unsat {
		t.Fatalf("Solve(hole %d closed) = %v, want Unsat", n-1, got)
	}
	if s.Reduces == 0 {
		t.Fatalf("no reductions fired (conflicts=%d)", s.Conflicts)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	checkPlacement(t, s, p)
	t.Logf("conflicts=%d reduces=%d removed=%d", s.Conflicts, s.Reduces, s.Removed)
}

// TestReduceRandomCNFAgainstBruteForce: verdicts on random small CNFs
// must agree with exhaustive enumeration while reductions fire. Each CNF
// shares the solver with a PHP(7,6) core guarded by a selector: refuting
// the core under the selector fills the database, so the unguarded Solve
// that decides the random CNF usually starts above the learnt budget and
// reduces. (Most of these CNFs are Unsat, and the guarded Solve already
// refutes them outright.)
func TestReduceRandomCNFAgainstBruteForce(t *testing.T) {
	reduced := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(8)
		nClauses := rng.Intn(40)
		cnf := make([][]Lit, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			cnf = append(cnf, cl)
		}
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		const pigeons, holes = 7, 6
		core := make([][]int, pigeons)
		for i := range core {
			for j := 0; j < holes; j++ {
				core[i] = append(core[i], s.NewVar())
			}
		}
		g := MkLit(s.NewVar(), false)
		for i := range core {
			lits := []Lit{g.Not()}
			for j := range core[i] {
				lits = append(lits, MkLit(core[i][j], false))
			}
			s.AddClause(lits...)
		}
		for j := 0; j < holes; j++ {
			for i := range core {
				for k := i + 1; k < pigeons; k++ {
					s.AddClause(g.Not(), MkLit(core[i][j], true), MkLit(core[k][j], true))
				}
			}
		}
		if got := s.Solve(g); got != Unsat {
			t.Logf("seed %d: guarded PHP(7,6) got %v, want Unsat", seed, got)
			return false
		}
		before := s.Reduces
		got := s.Solve()
		if s.Reduces > before {
			reduced++
		}
		want := bruteForce(nVars, cnf)
		if (got == Sat) != want {
			t.Logf("seed %d: got %v want sat=%v", seed, got, want)
			return false
		}
		if got == Sat {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					v := s.Value(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("seed %d: model does not satisfy %v", seed, cl)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if reduced == 0 {
		t.Fatal("no deciding solve ran a reduction")
	}
	t.Logf("reductions fired in %d/300 deciding solves", reduced)
}

// TestReduceIncrementalAssumptions: reduction across repeated
// assumption-based Solve calls (the incremental SMT usage pattern) must
// preserve verdicts. Closing any one hole of PHP(7,7) is a fresh
// conflict-heavy refutation under an assumption; between them the open
// instance must stay Sat.
func TestReduceIncrementalAssumptions(t *testing.T) {
	s := New()
	const n = 7
	p := pigeonholeSolver(s, n, n)
	closed := make([]Lit, n)
	for j := range closed {
		closed[j] = closeHole(s, p, j)
	}
	for j := 0; j < n; j++ {
		if got := s.Solve(closed[j]); got != Unsat {
			t.Fatalf("hole %d closed: got %v, want Unsat", j, got)
		}
		if got := s.Solve(closed[j].Not()); got != Sat {
			t.Fatalf("hole %d open: got %v, want Sat", j, got)
		}
		checkPlacement(t, s, p)
	}
	if s.Reduces == 0 {
		t.Fatalf("no reductions fired across %d queries (conflicts=%d)", 2*n, s.Conflicts)
	}
	t.Logf("conflicts=%d reduces=%d removed=%d", s.Conflicts, s.Reduces, s.Removed)
}
