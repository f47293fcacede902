package proof

import (
	"math"
	"testing"
)

// TestRUPChain verifies the basic RUP discipline: a clause implied by
// unit propagation is accepted, an unsupported clause is rejected.
func TestRUPChain(t *testing.T) {
	ck := NewSessionChecker()
	for _, cl := range [][]int32{{1, 2}, {-1, 2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	// {2} is RUP: asserting ¬2 propagates 1 from the first clause and
	// conflicts with the second.
	if err := ck.AddLearnt([]int32{2}); err != nil {
		t.Fatalf("RUP clause rejected: %v", err)
	}
	// {1} is not implied (x1=false, x2=true satisfies both inputs).
	if err := ck.AddLearnt([]int32{1}); err == nil {
		t.Fatal("non-RUP clause accepted")
	}
}

// TestRUPRefutation checks that contradictory units refute the session
// at root and that the empty-clause final obligation then verifies.
func TestRUPRefutation(t *testing.T) {
	ck := NewSessionChecker()
	if err := ck.AddInput([]int32{3}); err != nil {
		t.Fatal(err)
	}
	if ck.RootConflict() {
		t.Fatal("premature root conflict")
	}
	if err := ck.CheckFinal(nil); err == nil {
		t.Fatal("empty clause verified without a refutation")
	}
	if err := ck.AddInput([]int32{-3}); err != nil {
		t.Fatal(err)
	}
	if !ck.RootConflict() {
		t.Fatal("contradictory units did not refute at root")
	}
	if err := ck.CheckFinal(nil); err != nil {
		t.Fatalf("empty clause not RUP after refutation: %v", err)
	}
}

// TestRUPAssumptionFinal models the incremental certificate: the
// negated-assumption clause must be RUP when root propagation falsifies
// the assumption.
func TestRUPAssumptionFinal(t *testing.T) {
	ck := NewSessionChecker()
	// x1 → x2, x1 → ¬x2: root has no forced values, but assuming x1
	// propagates a conflict, so {-1} is RUP.
	for _, cl := range [][]int32{{-1, 2}, {-1, -2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.CheckFinal([]int32{-1}); err != nil {
		t.Fatalf("negated assumption not RUP: %v", err)
	}
	// The complementary assumption is satisfiable; its negation must not
	// verify.
	if err := ck.CheckFinal([]int32{-2}); err == nil {
		t.Fatal("satisfiable assumption's negation verified")
	}
}

// TestDeleteStrictMatch checks that deletions require an exact live
// clause — a tampered trace deleting a clause that was never added (or
// twice) is rejected.
func TestDeleteStrictMatch(t *testing.T) {
	ck := NewSessionChecker()
	if err := ck.AddInput([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Delete([]int32{1, 2}); err == nil {
		t.Fatal("delete of absent clause accepted")
	}
	// Literal order must not matter: the clause key is canonical.
	if err := ck.Delete([]int32{3, 1, 2}); err != nil {
		t.Fatalf("delete of live clause rejected: %v", err)
	}
	if err := ck.Delete([]int32{1, 2, 3}); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestDeletionDoesNotUnsoundlyKeepPropagating checks the documented
// deletion semantics: a deleted clause leaves already-derived root
// literals in place but stops participating in later propagation.
func TestDeletionDoesNotUnsoundlyKeepPropagating(t *testing.T) {
	ck := NewSessionChecker()
	for _, cl := range [][]int32{{1, 2}, {-1, 2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Delete([]int32{1, 2}); err != nil {
		t.Fatal(err)
	}
	// With {1,2} gone, {2} is no longer RUP.
	if err := ck.AddLearnt([]int32{2}); err == nil {
		t.Fatal("learnt clause verified against a deleted clause")
	}
}

// TestLiteralBeyondVarBoundRejected: a corrupt literal must be refused,
// not allowed to size the checker's per-variable arrays (math.MinInt32
// even negates to itself).
func TestLiteralBeyondVarBoundRejected(t *testing.T) {
	ck := NewSessionChecker()
	for _, lit := range []int32{math.MinInt32, math.MaxInt32, maxVars + 1, -(maxVars + 1)} {
		if err := ck.AddInput([]int32{1, lit}); err == nil {
			t.Errorf("input literal %d accepted", lit)
		}
		if err := ck.CheckFinal([]int32{lit}); err == nil {
			t.Errorf("final literal %d accepted", lit)
		}
	}
	if err := ck.AddInput([]int32{maxVars, -maxVars}); err != nil {
		t.Errorf("literal at the bound refused: %v", err)
	}
}
