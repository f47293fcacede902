package smt

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Result is the outcome of a satisfiability or validity query.
type Result int8

// Query outcomes.
const (
	// ResultUnknown means the query could not be decided within budget.
	ResultUnknown Result = iota
	// ResultSat / proof failed with a counterexample model.
	ResultSat
	// ResultUnsat / proof succeeded.
	ResultUnsat
)

func (r Result) String() string {
	switch r {
	case ResultSat:
		return "sat"
	case ResultUnsat:
		return "unsat"
	}
	return "unknown"
}

// Stats accumulates solver statistics across queries.
type Stats struct {
	Queries       int64
	FastQueries   int64 // decided by simplification alone, no SAT call
	CacheHits     int64 // decided by the shared VC cache, no SAT call
	CacheMisses   int64 // cache consulted but the query had to be solved
	CacheBytes    int64 // canonical serialization bytes hashed for cache keys
	ModelReuses   int64 // Sat answered by a recent model, no SAT call
	SATConflicts  int64
	SATDecisions  int64
	CNFClauses    int64
	SolveDuration time.Duration
	ProofBytes    int64 // serialized DRAT trace bytes recorded for certificates
	Certificates  int64 // query certificates emitted

	// Inprocessing counters (see internal/sat/preprocess.go). These count
	// the work done by the primary per-query/per-worker instances; cube
	// workers never inprocess.
	SubsumedClauses     int64 // clauses deleted as subsumed or root-satisfied
	StrengthenedClauses int64 // clauses shortened by self-subsuming resolution
	VivifiedClauses     int64 // clauses shortened by vivification probes

	// Counters of the deleted portfolio race: always 0; kept only so the
	// benchmark module builds.
	Races               int64
	RaceRacerWins       int64
	RaceWastedConflicts int64

	// Cube-and-conquer counters (the escalation tier above solo probes).
	CubeEscalations int64 // queries escalated to cube-and-conquer
	CubesGenerated  int64 // cubes emitted by the lookahead cuber
	CubesRefuted    int64 // cubes refuted under assumptions
	CubesSat        int64 // cubes found satisfiable (decides the query)
	CubeSteals      int64 // cubes drained by stolen idle slots
}

// Add accumulates o into s. Callers that run many solvers (one per
// harness worker) use it to aggregate per-solver statistics into one
// run-wide total.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.FastQueries += o.FastQueries
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytes += o.CacheBytes
	s.ModelReuses += o.ModelReuses
	s.SATConflicts += o.SATConflicts
	s.SATDecisions += o.SATDecisions
	s.CNFClauses += o.CNFClauses
	s.SolveDuration += o.SolveDuration
	s.ProofBytes += o.ProofBytes
	s.Certificates += o.Certificates
	s.SubsumedClauses += o.SubsumedClauses
	s.StrengthenedClauses += o.StrengthenedClauses
	s.VivifiedClauses += o.VivifiedClauses
	s.Races += o.Races
	s.RaceRacerWins += o.RaceRacerWins
	s.RaceWastedConflicts += o.RaceWastedConflicts
	s.CubeEscalations += o.CubeEscalations
	s.CubesGenerated += o.CubesGenerated
	s.CubesRefuted += o.CubesRefuted
	s.CubesSat += o.CubesSat
	s.CubeSteals += o.CubeSteals
}

// Solver decides QF_ABV formulas built in a Context. The zero value is not
// usable; use NewSolver.
type Solver struct {
	ctx *Context

	// ConflictBudget bounds CDCL conflicts per query (0 = unlimited).
	ConflictBudget int64
	// Deadline, when non-zero, makes queries return ErrDeadline once passed.
	Deadline time.Time
	// Budget is the wall-clock allowance Deadline was derived from. The
	// escalation ladder uses it to gate escalation past solo probes on
	// the remaining-deadline fraction: while more than half the budget
	// is left the primary keeps probing solo with doubled budgets, so
	// cube-and-conquer fires only for queries that are genuinely running
	// out of time. Zero (or a zero Deadline) leaves the gate open after
	// the first probe.
	Budget time.Duration
	// Incremental keeps one SAT instance, bit-blaster, and array reducer
	// alive across queries: shared subterms are encoded once and learned
	// clauses carry over, the incremental solving the paper's §5.1 names
	// as the missing piece of K's Z3 integration. Each query is solved
	// under an activation assumption, so queries do not pollute each other.
	Incremental bool
	// Cache, when non-nil, is consulted before solving and updated after:
	// queries are keyed by their alpha-invariant CanonKey, so structurally
	// identical obligations — from another function, another worker, or an
	// earlier query of this solver — are answered without touching the SAT
	// layer. A Sat hit returns a nil model (the cache stores verdicts
	// only); callers that need counterexample models must run uncached.
	Cache *Cache
	// Inprocess enables SatELite-style inprocessing in the SAT instances
	// (subsumption, self-subsumption and vivification). Certification is
	// preserved: every rewrite is logged into the DRAT trace as a
	// RUP-checkable step.
	Inprocess bool
	// Portfolio, when non-nil, turns on the escalation ladder: a query
	// that outlives its solo probes is split by cube-and-conquer, whose
	// cubes are drained by the query's own thread plus any idle worker
	// slots of the pool. Nil solves every query solo. See portfolio.go.
	Portfolio *Portfolio
	// Recorder, when non-nil, makes every decided query emit a proof
	// certificate: Unsat verdicts stream their SAT clause trace into a
	// DRAT session, Sat verdicts record the extracted model against the
	// original term, and cache hits record a reference to the canonical
	// key they resolved to. Off by default; see internal/proof.
	Recorder *proof.Recorder
	// Tracer, when non-nil, records one span per CheckSat query with its
	// result, conflict delta, cache-hit flag, and certificate kind. Nil
	// (the default) costs one nil check per query.
	Tracer *telemetry.Tracer
	// TraceParent is the span query spans nest under; the checker points
	// it at the sync-point or pair span currently being discharged.
	TraceParent telemetry.SpanID
	// Metrics, when non-nil, receives a query-latency observation
	// ("smt.query") and per-result counters for every CheckSat call.
	Metrics *telemetry.Metrics
	// Scratch, when non-nil, supplies reusable per-worker slabs for the
	// bit-blaster's literal vectors. The harness resets it between
	// functions; see Scratch for the lifetime contract.
	Scratch *Scratch

	Stats Stats

	incSAT     *sat.Solver
	incBlaster *blaster
	incReducer *arrayReducer
	incSession *proof.Session
	incFlushed int
	canonMemo  map[*Term]CanonKey
	// models holds the most recent SAT-found models, most recently used
	// first; see reuseModel.
	models []*Assign
	// lastCert is the kind of the most recently recorded certificate
	// (trivial/simplified/ref/model/drat), surfaced as a span attribute.
	lastCert string
}

// modelWindow is how many recent SAT-found models reuseModel tries. On
// 150 small corpus functions windows of 8, 16 and 64 answered the same
// 520 queries and a window of 4 answered 502.
const modelWindow = 8

// ErrDeadline is returned when the Solver's deadline has passed.
var ErrDeadline = errors.New("smt: deadline exceeded")

// ErrBudget is returned when a query exhausts its conflict budget.
var ErrBudget = errors.New("smt: solver budget exhausted")

// NewSolver returns a Solver for terms of ctx.
func NewSolver(ctx *Context) *Solver {
	return &Solver{ctx: ctx}
}

// Context returns the term context the solver operates on.
func (s *Solver) Context() *Context { return s.ctx }

// CheckSat decides satisfiability of the Bool term f. On ResultSat the
// returned Assign is a satisfying model for the free variables of f.
func (s *Solver) CheckSat(f *Term) (res Result, model *Assign, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p == ErrNodeBudget {
				res, model, err = ResultUnknown, nil, ErrNodeBudget
				return
			}
			panic(p)
		}
	}()
	start := time.Now()
	defer func() { s.Stats.SolveDuration += time.Since(start) }()
	s.Stats.Queries++
	if s.Tracer != nil || s.Metrics != nil {
		before := s.Stats
		sp := s.Tracer.Start(s.TraceParent, "smt.query")
		defer func() { s.finishQuery(sp, start, before, res) }()
	}

	if f.SortKind() != SortBool {
		return ResultUnknown, nil, fmt.Errorf("smt: CheckSat of non-Bool term")
	}
	// Fast path: construction-time simplification may already decide it.
	if f.IsTrue() {
		s.Stats.FastQueries++
		s.recordTrivial(f, proof.ResSat)
		return ResultSat, NewAssign(), nil
	}
	if f.IsFalse() {
		s.Stats.FastQueries++
		s.recordTrivial(f, proof.ResUnsat)
		return ResultUnsat, nil, nil
	}

	// The canonical key doubles as cache index and certificate content
	// address, so compute it when either consumer is present.
	var key CanonKey
	var keyHex string
	if s.Cache != nil || s.Recorder != nil {
		key = s.canonKey(f)
		keyHex = key.Hex()
	}
	if s.Cache != nil {
		if r, ok := s.Cache.Get(key); ok {
			s.Stats.CacheHits++
			s.recordRef(keyHex, r.String())
			if r == ResultUnsat {
				return ResultUnsat, nil, nil
			}
			return ResultSat, nil, nil
		}
		s.Stats.CacheMisses++
	}
	if m := s.reuseModel(f); m != nil {
		s.Stats.ModelReuses++
		s.recordModel(f, m, keyHex)
		if s.Cache != nil {
			s.Cache.Put(key, ResultSat)
		}
		return ResultSat, m, nil
	}
	// The deadline gates solving only, and deliberately after the fast
	// paths, the cache lookup and the model window above: a
	// trivially-decided query, a shared-cache hit or a reused model costs
	// no solving, so an expired budget is no reason to withhold (and
	// certify) an answer already in hand.
	if s.pastDeadline() {
		return ResultUnknown, nil, ErrDeadline
	}
	res, model, err = s.checkSatSolve(f, keyHex)
	if s.Cache != nil && err == nil {
		s.Cache.Put(key, res) // Put drops anything but Sat/Unsat
	}
	return res, model, err
}

// reuseModel answers f from the solver's recent models, the
// counterexample cache of KLEE: sibling and child path conditions of one
// function are usually satisfied by a model found a few queries earlier.
// The first model under which f evaluates to true moves to the front of
// the window and is returned; nil means no model satisfies f (or the
// evaluator cannot decide it, e.g. a memory equality across bases). The
// evaluator is the one proofcheck runs on every model certificate, so a
// reused model is exactly as trustworthy as a freshly extracted one.
// Only Sat can be answered this way.
func (s *Solver) reuseModel(f *Term) *Assign {
	for i, m := range s.models {
		if ok, err := m.EvalBool(f); err == nil && ok {
			copy(s.models[1:i+1], s.models[:i])
			s.models[0] = m
			return m
		}
	}
	return nil
}

// rememberModel puts a SAT-found model at the front of the window,
// dropping the least recently used one when the window is full. Only
// extracted models enter: seeding the window with the all-zero
// assignment answers more queries but changes which CNF reaches the
// incremental instance, and on the corpus it made one function nine
// times slower (DESIGN §5, "Recent-model reuse").
func (s *Solver) rememberModel(m *Assign) {
	if len(s.models) < modelWindow {
		s.models = append(s.models, nil)
	}
	copy(s.models[1:], s.models)
	s.models[0] = m
}

// canonKey returns the cache key of f, memoized per term node: hash-consing
// makes repeat queries over the same formula pointer-equal, so each
// distinct formula is serialized at most once per solver.
func (s *Solver) canonKey(f *Term) CanonKey {
	if k, ok := s.canonMemo[f]; ok {
		return k
	}
	k, n := CanonicalHash(f)
	s.Stats.CacheBytes += n
	if s.canonMemo == nil {
		s.canonMemo = make(map[*Term]CanonKey)
	}
	s.canonMemo[f] = k
	return k
}

// checkSatSolve decides f by actually solving (no cache consultation).
func (s *Solver) checkSatSolve(f *Term, keyHex string) (Result, *Assign, error) {
	if s.Incremental {
		return s.checkSatIncremental(f, keyHex)
	}

	red := newArrayReducer(s.ctx)
	g, cons, err := red.reduce(f)
	if err != nil {
		return ResultUnknown, nil, err
	}
	g = s.ctx.AndB(g, cons)
	if g.IsTrue() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResSat, keyHex)
		return ResultSat, NewAssign(), nil
	}
	if g.IsFalse() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResUnsat, keyHex)
		return ResultUnsat, nil, nil
	}

	solver := sat.New()
	solver.ConflictBudget = s.ConflictBudget
	solver.Deadline = s.Deadline
	solver.Inprocess = s.Inprocess
	// The proof log must be attached before the blaster exists: its
	// constructor already asserts the constant-true unit clause.
	var sess *proof.Session
	if s.Recorder != nil {
		sess = s.Recorder.NewSession()
		solver.Proof = &sat.ProofLog{}
	}
	b := newBlaster(s.ctx, solver, s.litArena())
	if sess != nil {
		b.varHook = s.hookVars(sess)
	}
	root, err := b.blastBool(g)
	if err != nil {
		return ResultUnknown, nil, err
	}
	solver.AddClause(root)
	st, winner := s.solveLadder(solver)
	s.Stats.SATConflicts += solver.Conflicts
	s.Stats.SATDecisions += solver.Decisions
	s.Stats.CNFClauses += int64(solver.NumClauses())
	s.Stats.SubsumedClauses += solver.Subsumed
	s.Stats.StrengthenedClauses += solver.Strengthened
	s.Stats.VivifiedClauses += solver.Vivified
	switch st {
	case sat.Unsat:
		if sess != nil {
			// No assumptions here, so Unsat is a global refutation: the
			// obligation is the empty clause. The winner's trace is the
			// one recorded — a composed cube certificate is a complete
			// one-shot refutation of the snapshot CNF over the same
			// variable numbering.
			s.recordUnsat(winner.Proof, 0, sess, nil, keyHex)
		}
		return ResultUnsat, nil, nil
	case sat.Unknown:
		// Unknown conflates budget exhaustion and deadline expiry;
		// attribute the deadline truthfully so tail reports do not blame
		// the conflict budget for wall-clock starvation.
		if s.pastDeadline() {
			return ResultUnknown, nil, ErrDeadline
		}
		return ResultUnknown, nil, ErrBudget
	}
	m := s.extractModel(f, red, b, winner)
	s.rememberModel(m)
	s.recordModel(f, m, keyHex)
	return ResultSat, m, nil
}

// pastDeadline reports whether a non-zero deadline has elapsed.
func (s *Solver) pastDeadline() bool {
	return !s.Deadline.IsZero() && time.Now().After(s.Deadline)
}

// checkSatIncremental solves against the persistent SAT instance under an
// activation assumption.
func (s *Solver) checkSatIncremental(f *Term, keyHex string) (Result, *Assign, error) {
	if s.incSAT == nil {
		s.incSAT = sat.New()
		s.incSAT.Inprocess = s.Inprocess
		if s.Recorder != nil {
			// One session for the whole solver lifetime: the trace grows
			// monotonically and each Unsat certificate points at its own
			// position, so the CNF shared across queries is logged once.
			// Attach the proof log before the blaster exists: its
			// constructor already asserts the constant-true unit clause.
			s.incSession = s.Recorder.NewSession()
			s.incSAT.Proof = &sat.ProofLog{}
		}
		s.incBlaster = newBlaster(s.ctx, s.incSAT, s.litArena())
		s.incReducer = newArrayReducer(s.ctx)
		if s.incSession != nil {
			s.incBlaster.varHook = s.hookVars(s.incSession)
		}
	}
	// The persistent instance accumulates counters across queries; charge
	// this query with the deltas only, on every return path (fast-path
	// returns can still have asserted consistency clauses).
	confBefore := s.incSAT.Conflicts
	decBefore := s.incSAT.Decisions
	clausesBefore := int64(s.incSAT.NumClauses())
	subBefore, strBefore := s.incSAT.Subsumed, s.incSAT.Strengthened
	vivBefore := s.incSAT.Vivified
	defer func() {
		s.Stats.SATConflicts += s.incSAT.Conflicts - confBefore
		s.Stats.SATDecisions += s.incSAT.Decisions - decBefore
		s.Stats.CNFClauses += int64(s.incSAT.NumClauses()) - clausesBefore
		s.Stats.SubsumedClauses += s.incSAT.Subsumed - subBefore
		s.Stats.StrengthenedClauses += s.incSAT.Strengthened - strBefore
		s.Stats.VivifiedClauses += s.incSAT.Vivified - vivBefore
	}()
	g, cons, err := s.incReducer.reduce(f)
	if err != nil {
		return ResultUnknown, nil, err
	}
	// Consistency constraints are theory facts: assert them permanently.
	if !cons.IsTrue() {
		consLit, err := s.incBlaster.blastBool(cons)
		if err != nil {
			return ResultUnknown, nil, err
		}
		s.incSAT.AddClause(consLit)
	}
	if g.IsTrue() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResSat, keyHex)
		return ResultSat, NewAssign(), nil
	}
	if g.IsFalse() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResUnsat, keyHex)
		return ResultUnsat, nil, nil
	}
	root, err := s.incBlaster.blastBool(g)
	if err != nil {
		return ResultUnknown, nil, err
	}
	s.incSAT.ConflictBudget = s.ConflictBudget
	s.incSAT.Deadline = s.Deadline
	st, winner := s.solveLadder(s.incSAT, root)
	switch st {
	case sat.Unsat:
		if s.incSession != nil {
			if winner == s.incSAT {
				// Under an activation assumption, Unsat means the negated
				// assumption follows by unit propagation — unless the instance
				// was refuted outright, in which case the obligation is the
				// empty clause.
				var final []int
				if s.incSAT.Okay() {
					final = []int{-litDimacs(root)}
				}
				s.incFlushed = s.recordUnsat(s.incSAT.Proof, s.incFlushed, s.incSession, final, keyHex)
			} else {
				// Cube workers won. Their composed trace is a self-contained
				// one-shot refutation — snapshot clauses plus the activation
				// unit as inputs, empty clause as the obligation — so it gets
				// its own session; the shared incremental session and its
				// flush watermark stay untouched for the next primary-won
				// query.
				sess := s.Recorder.NewSession()
				s.mapBlasterVars(sess, s.incBlaster)
				s.recordUnsat(winner.Proof, 0, sess, nil, keyHex)
			}
		}
		return ResultUnsat, nil, nil
	case sat.Unknown:
		if s.pastDeadline() {
			return ResultUnknown, nil, ErrDeadline
		}
		return ResultUnknown, nil, ErrBudget
	}
	// The snapshot preserves variable numbering, so the blaster memos
	// decode a cube worker's model exactly like the primary's.
	m := s.extractModel(f, s.incReducer, s.incBlaster, winner)
	s.rememberModel(m)
	s.recordModel(f, m, keyHex)
	return ResultSat, m, nil
}

// Prove decides validity of the Bool term f (true in all models). On
// failure the returned Assign is a countermodel.
func (s *Solver) Prove(f *Term) (proved bool, counter *Assign, err error) {
	res, model, err := s.CheckSat(s.ctx.Not(f))
	if err != nil {
		return false, nil, err
	}
	switch res {
	case ResultUnsat:
		return true, nil, nil
	case ResultSat:
		return false, model, nil
	}
	return false, nil, ErrBudget
}

// ProveImplies decides validity of premise → conclusion.
func (s *Solver) ProveImplies(premise, conclusion *Term) (bool, *Assign, error) {
	return s.Prove(s.ctx.Implies(premise, conclusion))
}

// extractModel reads variable values out of the SAT model. Memory contents
// are reconstructed best-effort from the Ackermann select variables.
func (s *Solver) extractModel(orig *Term, red *arrayReducer, b *blaster, solver *sat.Solver) *Assign {
	m := NewAssign()
	// Free variables appear in the blaster memos keyed by their var terms.
	for t, lits := range b.bvMemo {
		if t.Kind != KVarBV {
			continue
		}
		var v uint64
		for i, l := range lits {
			bit := solver.Value(l.Var())
			if l.Neg() {
				bit = !bit
			}
			if bit {
				v |= 1 << i
			}
		}
		m.BV[t.Name] = v
	}
	for t, l := range b.boolMemo {
		if t.Kind != KVarBool {
			continue
		}
		bit := solver.Value(l.Var())
		if l.Neg() {
			bit = !bit
		}
		m.Bool[t.Name] = bit
	}
	// Memory: evaluate Ackermann select addresses under the model.
	for base, entries := range red.sel {
		bytes := make(map[uint64]uint8)
		for _, e := range entries {
			addr, err := m.EvalBV(e.addr)
			if err != nil {
				continue
			}
			val, ok := m.BV[e.v.Name]
			if !ok {
				continue
			}
			bytes[addr] = uint8(val)
		}
		m.Mem[base.Name] = bytes
	}
	return m
}
