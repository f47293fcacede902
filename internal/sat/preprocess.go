package sat

import "time"

// SatELite-style inprocessing (Eén & Biere, SAT 2005): clause subsumption,
// self-subsuming resolution, and vivification, run before search and
// again at restart boundaries. Every rewrite is expressed as clause
// additions and deletions in the DRAT trace, and every addition is a
// resolvent or a probe-derived shortening — both RUP against the live
// clause set at the time it is logged — so an inprocessed run certifies
// exactly like a plain one. The passes only add implied clauses and
// delete redundant ones, so they are sound for incremental instances.

// Inprocessing bounds. Subsumption scans are capped by subsumer length,
// vivification by clause length and a propagation budget per pass.
const (
	subsumeMaxLen    = 30
	vivifyMaxLen     = 40
	vivifyPropBudget = 300_000
	// defaultInprocessMin is the instance size below which no pass runs
	// (overridable via Solver.InprocessMin): scans over small instances
	// cost more wall clock than the search time they could save.
	defaultInprocessMin = 2000
)

// inprocMin resolves the effective minimum instance size for
// inprocessing.
func (s *Solver) inprocMin() int {
	if s.InprocessMin > 0 {
		return s.InprocessMin
	}
	return defaultInprocessMin
}

// shuffle applies the SeedShuffle diversification: a deterministic
// xorshift stream adds sub-unit activity noise (breaking ties in the
// VSIDS order without overriding real conflict activity) and flips the
// saved phase of a pseudo-random subset of variables.
func (s *Solver) shuffle() {
	s.shuffled = true
	x := s.SeedShuffle
	for v := range s.assigns {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.activity[v] += float64(x&0xffff) / (1 << 26)
		if x&0x10000 != 0 {
			s.polarity[v] = !s.polarity[v]
		}
		s.order.update(v)
	}
}

// removeClause marks c deleted — watchers drop lazily in propagate — and
// logs the deletion when the stored literals match a logged step (see
// clause.logged). The object stays in s.clauses, whose positions the
// subsumption pass indexes.
func (s *Solver) removeClause(c *clause) {
	c.deleted = true
	if c.logged {
		s.logDelete(c.lits)
	}
}

// addDerived installs a derived problem clause — a strengthened or
// vivified shortening — logging it as a learnt step: every derived clause
// is RUP against the clauses live when it is added. Root-falsified
// literals are dropped first (the shrunken clause is RUP whenever the
// full one is, since the checker holds the same root units); a
// root-satisfied derivation is skipped entirely. A unit is enqueued and
// propagated, and an empty clause or a conflict makes the solver
// unsatisfiable. Must be called at decision level 0.
func (s *Solver) addDerived(lits []Lit) {
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			return
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.logLearnt(out)
	switch len(out) {
	case 0:
		s.ok = false
		return
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
		}
		return
	}
	c := &clause{lits: out, logged: true}
	s.clauses = append(s.clauses, c)
	s.attach(c)
}

// inprocessDue gates the pass that runs at Solve entry: always the first
// time, afterwards only when the problem database grew enough (at least
// 256 clauses and 25%) to make a rescan worthwhile — an incremental
// instance issuing thousands of small queries must not pay a full pass
// per query.
func (s *Solver) inprocessDue() bool {
	if len(s.clauses) < s.inprocMin() {
		return false
	}
	if s.inprocRuns == 0 {
		return true
	}
	grown := len(s.clauses) - s.inprocClauses
	return grown >= 256 && grown*4 >= s.inprocClauses
}

// inprocess runs one simplification round: subsumption and self-
// subsumption always; budget-bounded vivification in initial (Solve-entry)
// rounds only.
// Restart-boundary rounds stay cheap on purpose: a vivification scan
// mid-search spends wall clock a query near its deadline cannot spare,
// while signature-pruned subsumption pays for itself. Returns false when
// the instance became unsatisfiable. Must run at decision level 0.
func (s *Solver) inprocess(initial bool) bool {
	if s.decisionLevel() != 0 || !s.ok {
		return s.ok
	}
	s.subsumePass()
	if s.ok && initial && !s.inprocStopped() {
		s.vivifyPass()
	}
	s.inprocRuns++
	s.inprocClauses = len(s.clauses)
	s.nextInproc = s.Conflicts + 4000 + 2000*s.inprocRuns
	return s.ok
}

// inprocStopped polls the external stop conditions — the cancellation
// token and the wall-clock deadline — inside simplification passes. The
// passes run before the search loop's own polling starts, so without this
// a long subsume or vivify scan could overrun a per-query deadline by the
// full pass duration.
func (s *Solver) inprocStopped() bool {
	if s.Cancel.Stopped() {
		return true
	}
	return !s.Deadline.IsZero() && time.Now().After(s.Deadline)
}

// Subsumption relations.
const (
	subNone = iota
	subSubsumes
	subStrengthens
)

// subsumes classifies c against d: subSubsumes when every literal of c
// occurs in d, subStrengthens (returning the pivot literal of c) when all
// but exactly one occur and that one occurs negated — resolving c and d
// on the pivot then yields d minus the negated pivot.
func subsumes(c, d []Lit) (Lit, int) {
	pivot := Lit(-1)
	for _, lc := range c {
		found := false
		for _, ld := range d {
			if ld == lc {
				found = true
				break
			}
			if ld == lc.Not() {
				if pivot != -1 {
					return -1, subNone
				}
				pivot = lc
				found = true
				break
			}
		}
		if !found {
			return -1, subNone
		}
	}
	if pivot != -1 {
		return pivot, subStrengthens
	}
	return -1, subSubsumes
}

// subsumePass deletes root-satisfied and subsumed problem clauses and
// applies self-subsuming resolution. Candidate pairs are pruned by
// per-variable occurrence lists and 64-bit variable signatures, MiniSat/
// SatELite style: a clause can only subsume along its least-occurring
// variable, and sig(c) ⊄ sig(d) rules a pair out in one AND.
func (s *Solver) subsumePass() {
	n := len(s.clauses)
	occ := make([][]int32, len(s.assigns))
	sig := make([]uint64, n)
scan:
	for i := 0; i < n; i++ {
		c := s.clauses[i]
		if c.deleted {
			continue
		}
		var g uint64
		for _, l := range c.lits {
			if s.valueLit(l) == lTrue {
				// Satisfied at root: permanently redundant (root
				// assignments never backtrack), so drop it now.
				s.removeClause(c)
				s.Subsumed++
				continue scan
			}
			g |= 1 << (uint(l.Var()) & 63)
			occ[l.Var()] = append(occ[l.Var()], int32(i))
		}
		sig[i] = g
	}
	for i := 0; i < n && s.ok; i++ {
		if i&63 == 0 && s.inprocStopped() {
			return
		}
		c := s.clauses[i]
		if c.deleted || len(c.lits) > subsumeMaxLen {
			continue
		}
		best := c.lits[0].Var()
		for _, l := range c.lits[1:] {
			if len(occ[l.Var()]) < len(occ[best]) {
				best = l.Var()
			}
		}
		for _, dj := range occ[best] {
			d := s.clauses[dj]
			if int(dj) == i || d.deleted || len(d.lits) < len(c.lits) || sig[i]&^sig[dj] != 0 {
				continue
			}
			pivot, rel := subsumes(c.lits, d.lits)
			switch rel {
			case subSubsumes:
				s.removeClause(d)
				s.Subsumed++
			case subStrengthens:
				// Self-subsuming resolution: the resolvent of c and d on
				// the pivot is d without the negated pivot — a resolvent
				// of two live clauses, hence RUP. Add it before deleting
				// d so the checker verifies it against the right live set.
				lits := make([]Lit, 0, len(d.lits)-1)
				for _, l := range d.lits {
					if l != pivot.Not() {
						lits = append(lits, l)
					}
				}
				s.addDerived(lits)
				s.removeClause(d)
				s.Strengthened++
				if !s.ok {
					return
				}
			}
		}
	}
}

// vivifyPass probes problem clauses (budget-bounded) for shortenings.
func (s *Solver) vivifyPass() {
	n := len(s.clauses)
	start := s.Propagations
	for i := 0; i < n && s.ok; i++ {
		if s.Propagations-start > vivifyPropBudget || s.inprocStopped() {
			break
		}
		c := s.clauses[i]
		if c.deleted || len(c.lits) > vivifyMaxLen {
			continue
		}
		s.vivifyClause(c)
	}
}

// vivifyClause asserts the negation of c's literals one decision level at
// a time. Three outcomes shorten the clause: a propagation conflict (the
// prefix alone is contradictory), a literal implied true (the prefix plus
// that literal covers the clause), and a literal implied false (it is
// redundant in c). In each case the shortened clause is RUP: asserting
// its negation replays the probe's propagations against the live set —
// which still includes c itself — to the same contradiction. The clause
// is replaced, never mutated, so the trace sees a checkable add+delete.
func (s *Solver) vivifyClause(c *clause) {
	// Probe over a copy: c stays attached, and propagate reorders the
	// literals of clauses it visits (watched-literal swaps) — iterating
	// c.lits directly would skip or repeat literals mid-probe.
	lits := append([]Lit(nil), c.lits...)
	kept := make([]Lit, 0, len(lits))
	shrunk := false
probe:
	for idx, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				// Root-satisfied (by a unit derived earlier in this very
				// pass): permanently redundant.
				s.cancelUntil(0)
				s.removeClause(c)
				s.Subsumed++
				return
			}
			kept = append(kept, l)
			if idx < len(lits)-1 {
				shrunk = true
			}
			break probe
		case lFalse:
			// Root-false or implied false by the probed prefix: redundant
			// in c either way.
			shrunk = true
		default:
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(l.Not(), nil)
			kept = append(kept, l)
			if s.propagate() != nil {
				if idx < len(lits)-1 {
					shrunk = true
				}
				break probe
			}
		}
	}
	s.cancelUntil(0)
	if !shrunk {
		return
	}
	s.Vivified++
	s.addDerived(kept)
	s.removeClause(c)
}

// Snapshot exports the instance's CNF at decision level 0: every root-
// assigned literal as a unit clause, then every live problem clause —
// clauses deleted by subsumption or vivification are implied by the live
// set (every deletion happened while the remaining clauses subsumed or
// covered the deleted one) and are excluded, keeping the export lean —
// and optionally the live learnt clauses. Learnt clauses are implied, so including them preserves
// equivalence, but an importer logs everything as input axioms: callers
// recording proofs must exclude them.
func (s *Solver) Snapshot(withLearnts bool) (nvars int, clauses [][]Lit) {
	if s.decisionLevel() != 0 {
		panic("sat: Snapshot above decision level 0")
	}
	out := make([][]Lit, 0, len(s.trail)+len(s.clauses))
	for _, l := range s.trail {
		out = append(out, []Lit{l})
	}
	for _, c := range s.clauses {
		if !c.deleted {
			out = append(out, append([]Lit(nil), c.lits...))
		}
	}
	if withLearnts {
		for _, c := range s.learnts {
			if !c.deleted {
				out = append(out, append([]Lit(nil), c.lits...))
			}
		}
	}
	return len(s.assigns), out
}
