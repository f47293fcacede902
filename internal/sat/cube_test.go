package sat_test

// Differential validation of the cube-and-conquer layer: cubes must
// partition the search space (a Sat cube ⇔ the instance is Sat, all
// cubes Unsat ⇔ the instance is Unsat, cross-checked against brute
// force), the cuber must be deterministic for a fixed seed, and every
// all-cubes-unsat verdict's composed certificate must replay through the
// independent RUP checker — including a tamper check that dropping one
// cube's trace is rejected.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/proof"
	"repro/internal/sat"
)

// litsOf converts DIMACS clauses to solver literals.
func litsOf(clauses [][]int32) [][]sat.Lit {
	out := make([][]sat.Lit, len(clauses))
	for i, cl := range clauses {
		lits := make([]sat.Lit, len(cl))
		for j, d := range cl {
			v := d
			if v < 0 {
				v = -v
			}
			lits[j] = sat.MkLit(int(v-1), d < 0)
		}
		out[i] = lits
	}
	return out
}

// conquer mirrors the smt layer's cube worker: one logged solver imports
// the instance once and drains every cube under assumptions, recording
// the trace mark at each refutation. Returns the Sat-winning cube index
// (-1 if none) and the worker's composed-trace contribution.
func conquer(t *testing.T, nvars int, clauses [][]sat.Lit, units []sat.Lit, cs *sat.CubeSet) (int, sat.CubeTrace) {
	t.Helper()
	w := sat.New()
	w.Proof = &sat.ProofLog{}
	for v := 0; v < nvars; v++ {
		w.NewVar()
	}
	for _, cl := range clauses {
		w.AddClause(cl...)
	}
	for _, u := range units {
		w.AddClause(u)
	}
	tr := sat.CubeTrace{Log: w.Proof}
	for i, cube := range cs.Cubes {
		switch w.Solve(cube...) {
		case sat.Sat:
			return i, tr
		case sat.Unsat:
			tr.Cubes = append(tr.Cubes, cube)
			tr.Marks = append(tr.Marks, w.Proof.Len())
		default:
			t.Fatalf("cube %d: Unknown verdict with no budget set", i)
		}
	}
	return -1, tr
}

// random3CNF generates a random 3-CNF near the satisfiability threshold:
// no unit clauses, so unit propagation and lookahead alone cannot refute
// it and the unsat instances genuinely exercise cube-and-conquer.
func random3CNF(rng *rand.Rand, nvars int) [][]int32 {
	nclauses := 4*nvars + rng.Intn(2*nvars)
	clauses := make([][]int32, nclauses)
	for i := range clauses {
		perm := rng.Perm(nvars)[:3]
		cl := make([]int32, 3)
		for j, v := range perm {
			cl[j] = int32(v + 1)
			if rng.Intn(2) == 1 {
				cl[j] = -cl[j]
			}
		}
		clauses[i] = cl
	}
	return clauses
}

// replayErr replays a composed trace and the final empty-clause
// obligation, returning the first rejection instead of failing the test.
func replayErr(log *sat.ProofLog) error {
	ck := proof.NewSessionChecker()
	for i := 0; i < log.Len(); i++ {
		op, lits := log.Step(i)
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
		default:
			return fmt.Errorf("step %d: unknown opcode %q", i, op)
		}
		if err != nil {
			return fmt.Errorf("step %d (op %q): %w", i, op, err)
		}
	}
	return ck.CheckFinal(nil)
}

// TestCubeDeterministic: the cuber is a pure function of (instance, seed).
func TestCubeDeterministic(t *testing.T) {
	nvars, clauses := pigeonhole(6, 5)
	lits := litsOf(clauses)
	opt := sat.CubeOptions{MaxVars: 3, Seed: 7}
	a := sat.BuildCubes(nvars, lits, nil, opt)
	b := sat.BuildCubes(nvars, lits, nil, opt)
	if a == nil || b == nil {
		t.Fatal("PHP(6,5) did not cube")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different cube sets:\n%v\n%v", a, b)
	}
	if len(a.Cubes) < 2 || len(a.Cubes) > 8 {
		t.Fatalf("depth-3 cube count out of range: %d", len(a.Cubes))
	}
}

// TestDifferentialCubeCompose: seeded random CNFs are cubed and
// conquered; verdicts must match brute force, and every all-cubes-unsat
// run's composed certificate must be RUP-verified end to end.
func TestDifferentialCubeCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0BE))
	cubed, refuted := 0, 0
	for iter := 0; iter < 300; iter++ {
		nvars := 5 + rng.Intn(4)
		clauses := random3CNF(rng, nvars)
		lits := litsOf(clauses)
		want := bruteForce(nvars, clauses, nil)
		cs := sat.BuildCubes(nvars, lits, nil, sat.CubeOptions{MaxVars: 2, Seed: uint64(iter + 1)})
		if cs == nil {
			continue // UP/lookahead-refuted or too small to split: fine
		}
		cubed++
		winner, tr := conquer(t, nvars, lits, nil, cs)
		if winner >= 0 {
			if !want {
				t.Fatalf("iter %d: cube %v satisfiable but brute force says unsat\ncnf: %v",
					iter, cs.Cubes[winner], clauses)
			}
			continue
		}
		if want {
			t.Fatalf("iter %d: all %d cubes refuted but brute force says sat\ncnf: %v",
				iter, len(cs.Cubes), clauses)
		}
		refuted++
		log := sat.ComposeCubeProof(lits, nil, []sat.CubeTrace{tr}, cs.Internal)
		if err := replayErr(log); err != nil {
			t.Fatalf("iter %d: composed certificate rejected: %v\ncnf: %v", iter, err, clauses)
		}
	}
	if cubed < 50 || refuted < 10 {
		t.Fatalf("suite too weak: only %d instances cubed, %d all-cubes-unsat", cubed, refuted)
	}
	t.Logf("%d instances cubed, %d all-cubes-unsat certificates verified", cubed, refuted)
}

// TestCubeComposeUnderAssumptions mirrors the incremental path: the
// activation literal is an input unit of the composed session, and the
// final obligation is still the empty clause. Instances are gated
// pigeonhole formulas — every PHP clause is extended with ¬act, so the
// formula is satisfiable globally (set act false), unsat under the unit
// act, and not refutable by unit propagation or lookahead alone.
func TestCubeComposeUnderAssumptions(t *testing.T) {
	verified := 0
	for _, ph := range [][2]int{{5, 4}, {6, 5}, {7, 6}} {
		phVars, phClauses := pigeonhole(ph[0], ph[1])
		nvars := phVars + 1
		act := sat.MkLit(phVars, false)
		gated := make([][]int32, len(phClauses))
		for i, cl := range phClauses {
			gated[i] = append(append([]int32(nil), cl...), -dimacs(act))
		}
		lits := litsOf(gated)
		units := []sat.Lit{act}
		if bruteForce(nvars, gated, nil) != true {
			t.Fatalf("gated PHP(%d,%d) should be sat with act free", ph[0], ph[1])
		}
		for seed := uint64(1); seed <= 4; seed++ {
			cs := sat.BuildCubes(nvars, lits, units, sat.CubeOptions{MaxVars: 2, Seed: seed})
			if cs == nil {
				t.Fatalf("gated PHP(%d,%d) seed %d did not cube", ph[0], ph[1], seed)
			}
			winner, tr := conquer(t, nvars, lits, units, cs)
			if winner >= 0 {
				t.Fatalf("gated PHP(%d,%d): cube %v satisfiable under %v",
					ph[0], ph[1], cs.Cubes[winner], act)
			}
			log := sat.ComposeCubeProof(lits, units, []sat.CubeTrace{tr}, cs.Internal)
			if err := replayErr(log); err != nil {
				t.Fatalf("gated PHP(%d,%d) seed %d: composed certificate rejected: %v",
					ph[0], ph[1], seed, err)
			}
			verified++
		}
	}
	if verified < 10 {
		t.Fatalf("suite too weak: only %d assumption-mode certificates verified", verified)
	}
	t.Logf("%d assumption-mode certificates verified", verified)
}

// TestCubeComposeWithDeletions makes the conquering solver outgrow its
// learnt-clause budget on a conflict-heavy instance, so the composed trace
// interleaves database deletions, which must still replay (each deletion
// matches the worker's own copy).
func TestCubeComposeWithDeletions(t *testing.T) {
	nvars, clauses := pigeonhole(7, 6)
	lits := litsOf(clauses)
	cs := sat.BuildCubes(nvars, lits, nil, sat.CubeOptions{MaxVars: 2})
	if cs == nil {
		t.Fatal("PHP(7,6) did not cube")
	}
	w := sat.New()
	w.Proof = &sat.ProofLog{}
	for v := 0; v < nvars; v++ {
		w.NewVar()
	}
	for _, cl := range lits {
		w.AddClause(cl...)
	}
	tr := sat.CubeTrace{Log: w.Proof}
	for i, cube := range cs.Cubes {
		if st := w.Solve(cube...); st != sat.Unsat {
			t.Fatalf("cube %d of PHP(7,6) solved as %v, want unsat", i, st)
		}
		tr.Cubes = append(tr.Cubes, cube)
		tr.Marks = append(tr.Marks, w.Proof.Len())
	}
	deletions := 0
	for i := 0; i < w.Proof.Len(); i++ {
		if op, _ := w.Proof.Step(i); op == sat.OpDelete {
			deletions++
		}
	}
	if deletions == 0 {
		t.Fatalf("no deletion steps in the conquering trace (%d conflicts, %d reduces)", w.Conflicts, w.Reduces)
	}
	log := sat.ComposeCubeProof(lits, nil, []sat.CubeTrace{tr}, cs.Internal)
	if err := replayErr(log); err != nil {
		t.Fatalf("composed certificate with %d deletions rejected: %v", deletions, err)
	}
	t.Logf("PHP(7,6): %d cubes, %d trace deletions, composed refutation verified",
		len(cs.Cubes), deletions)
}

// TestCubeComposeTamper: a composed certificate missing one cube's trace
// (its learnt steps and its negation clause) no longer covers that leaf
// of the tree, and the checker must reject the composition — the
// exhaustiveness check is what makes all-cubes-unsat trustworthy.
func TestCubeComposeTamper(t *testing.T) {
	nvars, clauses := pigeonhole(5, 4)
	lits := litsOf(clauses)
	cs := sat.BuildCubes(nvars, lits, nil, sat.CubeOptions{MaxVars: 2})
	if cs == nil {
		t.Fatal("PHP(5,4) did not cube")
	}
	// One worker per cube, so each cube's contribution is a separable trace.
	var traces []sat.CubeTrace
	for i, cube := range cs.Cubes {
		w := sat.New()
		w.Proof = &sat.ProofLog{}
		for v := 0; v < nvars; v++ {
			w.NewVar()
		}
		for _, cl := range lits {
			w.AddClause(cl...)
		}
		if st := w.Solve(cube...); st != sat.Unsat {
			t.Fatalf("cube %d solved as %v, want unsat", i, st)
		}
		traces = append(traces, sat.CubeTrace{
			Log:   w.Proof,
			Cubes: [][]sat.Lit{cube},
			Marks: []int{w.Proof.Len()},
		})
	}
	if err := replayErr(sat.ComposeCubeProof(lits, nil, traces, cs.Internal)); err != nil {
		t.Fatalf("untampered composition rejected: %v", err)
	}
	for drop := range traces {
		tampered := append(append([]sat.CubeTrace(nil), traces[:drop]...), traces[drop+1:]...)
		if err := replayErr(sat.ComposeCubeProof(lits, nil, tampered, cs.Internal)); err == nil {
			t.Fatalf("composition missing cube %d's trace verified — exhaustiveness not checked", drop)
		}
	}
}
