package sat_test

// Container check over the differential CNF suite: every Unsat verdict's
// trace, serialized in the binary DRAT container and walked back through
// the checker, must RUP-verify exactly like a direct replay of the
// in-memory proof log — the container must neither drop nor distort a
// step.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/proof"
	"repro/internal/sat"
)

// encodeBinary serializes the proof log as a single-session binary
// container.
func encodeBinary(t *testing.T, log *sat.ProofLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for i := 0; i < log.Len(); i++ {
		op, lits := log.Step(i)
		d := make([]int32, len(lits))
		for j, l := range lits {
			d[j] = dimacs(l)
		}
		if err := bw.Step(0, op, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayStep feeds one trace step into a RUP checker.
func replayStep(ck *proof.SessionChecker, op byte, lits []int32) error {
	switch op {
	case sat.OpInput:
		return ck.AddInput(lits)
	case sat.OpLearn:
		return ck.AddLearnt(lits)
	case sat.OpDelete:
		return ck.Delete(lits)
	}
	return fmt.Errorf("unknown opcode %q", op)
}

// replayEncoded walks an encoded trace through a fresh RUP checker and
// returns the step count and the final empty-clause verdict.
func replayEncoded(data []byte) (steps int, err error) {
	ck := proof.NewSessionChecker()
	werr := proof.WalkDrat(bytes.NewReader(data), func(sess int, op byte, lits []int32) error {
		steps++
		return replayStep(ck, op, lits)
	})
	if werr != nil {
		return steps, werr
	}
	return steps, ck.CheckFinal(nil)
}

// replayLog replays the in-memory proof log directly, with no container
// in between.
func replayLog(log *sat.ProofLog) (steps int, err error) {
	ck := proof.NewSessionChecker()
	for ; steps < log.Len(); steps++ {
		op, lits := log.Step(steps)
		d := make([]int32, len(lits))
		for j, l := range lits {
			d[j] = dimacs(l)
		}
		if err := replayStep(ck, op, d); err != nil {
			return steps + 1, err
		}
	}
	return steps, ck.CheckFinal(nil)
}

func TestDifferentialCrossFormatDrat(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	unsat := 0
	for iter := 0; iter < 300; iter++ {
		nvars := 3 + rng.Intn(6)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		if s.Solve() == sat.Sat {
			continue
		}
		unsat++
		dSteps, dErr := replayLog(s.Proof)
		bSteps, bErr := replayEncoded(encodeBinary(t, s.Proof))
		if (dErr == nil) != (bErr == nil) {
			t.Fatalf("iter %d: container disagrees with direct replay: direct err=%v, binary err=%v\ncnf: %v",
				iter, dErr, bErr, clauses)
		}
		if dErr != nil {
			t.Fatalf("iter %d: refutation did not verify: %v\ncnf: %v", iter, dErr, clauses)
		}
		if dSteps != bSteps {
			t.Fatalf("iter %d: direct replay took %d steps, binary %d", iter, dSteps, bSteps)
		}
	}
	if unsat < 20 {
		t.Fatalf("only %d unsat instances — suite too small to be meaningful", unsat)
	}
}
