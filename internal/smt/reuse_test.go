package smt

// Tests of the model window (reuseModel): the evaluator it decides with
// must agree with the bit-blasted CNF, a reused model must answer Sat
// without touching the SAT layer and still certify, and the window must
// never answer a query it cannot satisfy.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// randomWideTerm builds a random BV term of the given width over the
// variables x<w> and y<w> (one pair per width, so the evaluator's
// name-keyed assignment and the blaster's term-keyed memo agree), with
// width-changing operators as well as the same-width ones of randomTerm.
func randomWideTerm(c *Context, rng *rand.Rand, w uint8, depth int) *Term {
	if depth == 0 || rng.Intn(5) == 0 {
		switch rng.Intn(3) {
		case 0:
			return c.BV(rng.Uint64(), w)
		case 1:
			return c.VarBV(fmt.Sprintf("x%d", w), w)
		default:
			return c.VarBV(fmt.Sprintf("y%d", w), w)
		}
	}
	sub := func() *Term { return randomWideTerm(c, rng, w, depth-1) }
	switch rng.Intn(18) {
	case 0:
		return c.Add(sub(), sub())
	case 1:
		return c.Sub(sub(), sub())
	case 2:
		return c.Mul(sub(), sub())
	case 3:
		return c.And(sub(), sub())
	case 4:
		return c.Or(sub(), sub())
	case 5:
		return c.Xor(sub(), sub())
	case 6:
		return c.NotBV(sub())
	case 7:
		return c.Neg(sub())
	case 8:
		return c.Shl(sub(), sub())
	case 9:
		return c.LShr(sub(), sub())
	case 10:
		return c.AShr(sub(), sub())
	case 11:
		return c.UDiv(sub(), sub())
	case 12:
		return c.URem(sub(), sub())
	case 13:
		return c.Ite(randomPred(c, rng, w, depth-1), sub(), sub())
	case 14: // extract from a wider term
		wide := w + uint8(rng.Intn(4))
		lo := uint8(rng.Intn(int(wide-w) + 1))
		return c.Extract(randomWideTerm(c, rng, wide, depth-1), lo+w-1, lo)
	case 15: // concat of two narrower terms
		if w < 2 {
			return sub()
		}
		hw := 1 + uint8(rng.Intn(int(w-1)))
		return c.Concat(randomWideTerm(c, rng, hw, depth-1), randomWideTerm(c, rng, w-hw, depth-1))
	case 16:
		if w < 2 {
			return sub()
		}
		return c.SExt(randomWideTerm(c, rng, 1+uint8(rng.Intn(int(w-1))), depth-1), w)
	default:
		if w < 2 {
			return sub()
		}
		return c.ZExt(randomWideTerm(c, rng, 1+uint8(rng.Intn(int(w-1))), depth-1), w)
	}
}

// randomPred builds a random Bool term over width-w operands.
func randomPred(c *Context, rng *rand.Rand, w uint8, depth int) *Term {
	a, b := randomWideTerm(c, rng, w, depth), randomWideTerm(c, rng, w, depth)
	switch rng.Intn(7) {
	case 0:
		return c.Eq(a, b)
	case 1:
		return c.Ult(a, b)
	case 2:
		return c.Ule(a, b)
	case 3:
		return c.Slt(a, b)
	case 4:
		return c.Sle(a, b)
	case 5:
		return c.Not(c.Eq(a, b))
	default:
		if depth == 0 {
			return c.VarBool("p")
		}
		return c.AndB(randomPred(c, rng, w, depth-1), c.OrB(c.VarBool("p"), randomPred(c, rng, w, depth-1)))
	}
}

// TestEvalAgreesWithBlastedCNF is the differential test behind model
// reuse: the window decides with the term evaluator, the solver with the
// bit-blasted CNF. For random small-width formulas and random
// assignments, fixing every input bit as a SAT assumption must make the
// root literal satisfiable exactly when EvalBool says true, and its
// negation exactly when EvalBool says false.
func TestEvalAgreesWithBlastedCNF(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for iter := 0; iter < 400; iter++ {
		c := NewContext()
		w := uint8(1 + rng.Intn(6))
		f := randomPred(c, rng, w, 3)

		a := NewAssign()
		for width := uint8(1); width <= 9; width++ {
			a.BV[fmt.Sprintf("x%d", width)] = rng.Uint64() & (1<<width - 1)
			a.BV[fmt.Sprintf("y%d", width)] = rng.Uint64() & (1<<width - 1)
		}
		a.Bool["p"] = rng.Intn(2) == 1
		want, err := a.EvalBool(f)
		if err != nil {
			t.Fatalf("iter %d: EvalBool: %v", iter, err)
		}

		s := sat.New()
		b := newBlaster(c, s, nil)
		root, err := b.blastBool(f)
		if err != nil {
			t.Fatalf("iter %d: blast: %v", iter, err)
		}
		var assume []sat.Lit
		for v, lits := range b.bvMemo {
			if v.Kind != KVarBV {
				continue
			}
			val := a.BV[v.Name]
			for i, l := range lits {
				if val>>i&1 == 0 {
					l = l.Not()
				}
				assume = append(assume, l)
			}
		}
		for v, l := range b.boolMemo {
			if v.Kind == KVarBool {
				if !a.Bool[v.Name] {
					l = l.Not()
				}
				assume = append(assume, l)
			}
		}
		pos := s.Solve(append(assume, root)...) == sat.Sat
		neg := s.Solve(append(assume, root.Not())...) == sat.Sat
		if pos != want || neg == want {
			t.Fatalf("iter %d: EvalBool=%v but CNF root sat=%v, negated root sat=%v\nformula: %v\nassignment: %v %v",
				iter, want, pos, neg, f, a.BV, a.Bool)
		}
	}
}

// TestModelReuseSkipsSolving: once a model is in the window, a query it
// satisfies is answered Sat from it with no CNF, conflict or decision
// delta, its span and counter say so, and the model certificate
// recorded for it verifies from scratch. Run one-shot and incremental.
func TestModelReuseSkipsSolving(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			ctx := NewContext()
			name := fmt.Sprintf("reuse-inc-%v", incremental)
			dw, err := proof.NewFunctionDirWriter(t.TempDir(), name)
			if err != nil {
				t.Fatal(err)
			}
			rec := dw.NewRecorder(name)
			s := NewSolver(ctx)
			s.Recorder = rec
			s.Incremental = incremental
			s.Tracer = telemetry.NewTracer()
			s.Metrics = telemetry.NewMetrics()
			x, y := ctx.VarBV("x", 16), ctx.VarBV("y", 16)

			first := ctx.AndB(ctx.Ult(x, y), ctx.Eq(ctx.Add(x, y), ctx.BV(1000, 16)))
			res, m, err := s.CheckSat(first)
			if err != nil || res != ResultSat {
				t.Fatalf("first query: %v %v", res, err)
			}
			if s.Stats.ModelReuses != 0 {
				t.Fatalf("first query reused a model from an empty window")
			}
			// A different query the first model satisfies by construction.
			second := ctx.AndB(ctx.Ule(x, ctx.BV(m.BV["x"], 16)), ctx.Not(ctx.Eq(y, ctx.BV(m.BV["y"]+1, 16))))
			before := s.Stats
			res, m2, err := s.CheckSat(second)
			if err != nil || res != ResultSat {
				t.Fatalf("second query: %v %v", res, err)
			}
			if s.Stats.ModelReuses != 1 {
				t.Fatalf("ModelReuses = %d, want 1", s.Stats.ModelReuses)
			}
			if d := s.Stats.CNFClauses - before.CNFClauses; d != 0 {
				t.Errorf("reused query added %d clauses", d)
			}
			if d := s.Stats.SATDecisions - before.SATDecisions; d != 0 {
				t.Errorf("reused query made %d decisions", d)
			}
			if d := s.Stats.SATConflicts - before.SATConflicts; d != 0 {
				t.Errorf("reused query hit %d conflicts", d)
			}
			if ok, err := m2.EvalBool(second); err != nil || !ok {
				t.Fatalf("reused model does not satisfy the query (err=%v)", err)
			}
			if n := s.Metrics.Counter("smt.model_reuse"); n != 1 {
				t.Errorf("smt.model_reuse = %d, want 1", n)
			}
			var flagged []any
			for _, r := range s.Tracer.Records() {
				if r.Name == "smt.query" {
					flagged = append(flagged, r.Attrs["model_reuse"])
				}
			}
			if len(flagged) != 2 || flagged[0] != nil || flagged[1] != true {
				t.Errorf("smt.query model_reuse attributes %v, want [<nil> true]", flagged)
			}
			// The solver stays usable, Unsat included.
			res, _, err = s.CheckSat(ctx.AndB(ctx.Ult(x, y), ctx.Ult(y, x)))
			if err != nil || res != ResultUnsat {
				t.Fatalf("unsat query: %v %v", res, err)
			}

			if _, err := rec.Close(false); err != nil {
				t.Fatal(err)
			}
			if err := dw.Close(); err != nil {
				t.Fatal(err)
			}
			report, err := proof.CheckDir(dw.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range report.Rejections {
				t.Errorf("rejection: %s", r)
			}
			if got := report.ByKind[proof.KindModel]; got != 2 {
				t.Errorf("verified %d model certificates, want 2", got)
			}
		})
	}
}

// TestModelReuseNeverAnswersWrongly: the window answers only queries one
// of its models satisfies, so one model never answers both a query and
// its negation, an Unsat query is never answered from it, and every
// answer agrees with a fresh solver that has no window. (Two different
// models of a full window may answer a query and its negation: both are
// then satisfiable. With a single model in the window, at most one of
// the two is answered from it.)
func TestModelReuseNeverAnswersWrongly(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	c := NewContext()
	s := NewSolver(c)
	s.Incremental = true
	const w = 4
	x, y := c.VarBV("x4", w), c.VarBV("y4", w)
	// Fill the window with a few distinct models.
	for i := uint64(0); i < 5; i++ {
		q := c.AndB(c.Eq(x, c.BV(3*i+1, w)), c.Ult(y, x))
		if res, _, err := s.CheckSat(q); err != nil || res != ResultSat {
			t.Fatalf("seed query %d: %v %v", i, res, err)
		}
	}
	reused := 0
	for iter := 0; iter < 200; iter++ {
		f := randomPred(c, rng, w, 2)
		qs := []*Term{f, c.Not(f)}
		var from [2]*Assign
		for i, q := range qs {
			n := s.Stats.ModelReuses
			res, m, err := s.CheckSat(q)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if s.Stats.ModelReuses > n {
				if res != ResultSat {
					t.Fatalf("iter %d: window answered %v", iter, res)
				}
				from[i] = m
			}
			cold, _, err := NewSolver(c).CheckSat(q)
			if err != nil || cold != res {
				t.Fatalf("iter %d: answered %v, a fresh solver says %v (err=%v)\nquery: %v", iter, res, cold, err, q)
			}
		}
		if from[0] != nil && from[0] == from[1] {
			t.Fatalf("iter %d: one model answered a query and its negation\nquery: %v", iter, f)
		}
		for i, m := range from {
			if m == nil {
				continue
			}
			reused++
			if ok, err := m.EvalBool(qs[i]); err != nil || !ok {
				t.Fatalf("iter %d: reused model does not satisfy the query it answered (err=%v)", iter, err)
			}
		}
	}
	if reused == 0 {
		t.Fatal("the window never answered a query; the test exercises nothing")
	}
	// One model in the window: a query and its negation are never both
	// answered from it.
	for iter := 0; iter < 100; iter++ {
		s1 := NewSolver(c)
		seed := c.AndB(c.Eq(x, c.BV(uint64(iter)%16, w)), c.Ule(y, x))
		if res, _, err := s1.CheckSat(seed); err != nil || res != ResultSat {
			t.Fatalf("one-model seed %d: %v %v", iter, res, err)
		}
		f := randomPred(c, rng, w, 2)
		if _, _, err := s1.CheckSat(f); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s1.CheckSat(c.Not(f)); err != nil {
			t.Fatal(err)
		}
		if s1.Stats.ModelReuses > 1 {
			t.Fatalf("one-model window answered both a query and its negation\nquery: %v", f)
		}
	}
	// An Unsat query is never answered from the window, however full.
	n := s.Stats.ModelReuses
	if res, _, err := s.CheckSat(c.AndB(c.Ult(x, y), c.Ult(y, x))); err != nil || res != ResultUnsat {
		t.Fatalf("unsat query: %v %v", res, err)
	}
	if s.Stats.ModelReuses != n {
		t.Fatal("an Unsat query was answered from the window")
	}
}

// TestModelWindowLRU pins the window's shape: at most modelWindow
// models, most recently used first, a hit moving its model to the front
// and the least recently used one falling out.
func TestModelWindowLRU(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	x := c.VarBV("x", 8)
	is := func(v uint64) *Term { return c.Eq(x, c.BV(v, 8)) }
	for v := uint64(0); v < modelWindow+2; v++ {
		if res, _, err := s.CheckSat(is(v)); err != nil || res != ResultSat {
			t.Fatalf("x=%d: %v %v", v, res, err)
		}
	}
	if s.Stats.ModelReuses != 0 {
		t.Fatalf("distinct point queries reused %d models", s.Stats.ModelReuses)
	}
	if len(s.models) != modelWindow {
		t.Fatalf("window holds %d models, want %d", len(s.models), modelWindow)
	}
	// x=2 is the oldest survivor; a hit brings it to the front.
	if res, _, _ := s.CheckSat(is(2)); res != ResultSat || s.Stats.ModelReuses != 1 {
		t.Fatalf("x=2: %v with %d reuses, want a window hit", res, s.Stats.ModelReuses)
	}
	if got := s.models[0].BV["x"]; got != 2 {
		t.Fatalf("front of the window is x=%d after the hit, want 2", got)
	}
	// x=0 and x=1 fell out of the window and must be solved again.
	if res, _, _ := s.CheckSat(is(0)); res != ResultSat || s.Stats.ModelReuses != 1 {
		t.Fatalf("x=0: %v with %d reuses, want a solve", res, s.Stats.ModelReuses)
	}
	if got := s.models[0].BV["x"]; got != 0 {
		t.Fatalf("front of the window is x=%d after a solve, want 0", got)
	}
}

// TestModelReuseAfterCacheMiss: a VC-cache hit is answered before the
// window is consulted, and a query the window answers enters the cache
// as Sat.
func TestModelReuseAfterCacheMiss(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	s.Cache = NewCache()
	x := c.VarBV("x", 8)
	first := c.Ult(x, c.BV(10, 8))
	if res, _, err := s.CheckSat(first); err != nil || res != ResultSat {
		t.Fatalf("first: %v %v", res, err)
	}
	if res, _, _ := s.CheckSat(first); res != ResultSat || s.Stats.CacheHits != 1 || s.Stats.ModelReuses != 0 {
		t.Fatalf("repeat query: %v, %d cache hits, %d reuses; want a cache hit",
			res, s.Stats.CacheHits, s.Stats.ModelReuses)
	}
	second := c.Ult(x, c.BV(20, 8))
	if res, _, _ := s.CheckSat(second); res != ResultSat || s.Stats.ModelReuses != 1 {
		t.Fatalf("second: %v with %d reuses, want a window hit", res, s.Stats.ModelReuses)
	}
	if r, ok := s.Cache.Get(s.canonKey(second)); !ok || r != ResultSat {
		t.Fatalf("reused query cached as %v (present=%v), want Sat", r, ok)
	}
}
