package proof

import (
	"fmt"
	"sort"
)

// SessionChecker replays one SAT session trace forward, verifying every
// learnt clause by reverse unit propagation (RUP): asserting the
// negation of the clause and running unit propagation over the clauses
// live at that point must yield a conflict. It is a propagation-only
// engine — no decisions, no learning, no heuristics — so it shares no
// code path with the CDCL solver it checks.
//
// Soundness under deletion: deleting a clause only shrinks the live set
// used for later propagation; root literals already derived remain
// logical consequences of the input clauses plus previously verified
// lemmas, so they are kept (exactly as DRAT checkers do).
type SessionChecker struct {
	nvars  int
	assign []int8 // 1 true, -1 false, 0 unassigned
	trail  []int32
	qhead  int

	clauses []*rclause
	watches [][]int32 // indexed by internal literal; clause indices
	byKey   map[string][]int32

	rootConflict bool
	rootTrail    int // length of the persistent prefix of trail
}

type rclause struct {
	lits    []int32 // internal encoding: 2*var + sign
	deleted bool
}

// NewSessionChecker returns an empty checker.
func NewSessionChecker() *SessionChecker {
	return &SessionChecker{byKey: make(map[string][]int32)}
}

// maxVars bounds the variable indices a trace may use. Real sessions
// stay far below it (the largest per-function instances of the Figure 6
// corpus have ~64k variables); the bound keeps one corrupt literal from
// sizing the checker's per-variable arrays to gigabytes.
const maxVars = 1 << 22

// internal literal encoding, mirroring DIMACS input: variable v (1-based
// in DIMACS) becomes 0-based; low bit set means negated.
func (c *SessionChecker) internLit(d int32) (int32, error) {
	if d == 0 {
		return 0, fmt.Errorf("proof: zero literal in clause")
	}
	if d > maxVars || d < -maxVars {
		return 0, fmt.Errorf("proof: literal %d beyond the %d-variable bound", d, maxVars)
	}
	v := d
	neg := int32(0)
	if v < 0 {
		v = -v
		neg = 1
	}
	v-- // 0-based
	for int(v) >= c.nvars {
		c.assign = append(c.assign, 0)
		c.watches = append(c.watches, nil, nil)
		c.nvars++
	}
	return v<<1 | neg, nil
}

func (c *SessionChecker) value(l int32) int8 {
	a := c.assign[l>>1]
	if l&1 == 1 {
		return -a
	}
	return a
}

func (c *SessionChecker) enqueue(l int32) {
	if l&1 == 1 {
		c.assign[l>>1] = -1
	} else {
		c.assign[l>>1] = 1
	}
	c.trail = append(c.trail, l)
}

// propagate runs unit propagation to fixpoint; it reports whether a
// conflict was reached.
func (c *SessionChecker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		// watches[p] holds the clauses watching literal ¬p, which p's
		// assertion has just falsified.
		notP := p ^ 1
		ws := c.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			cl := c.clauses[ci]
			if cl.deleted {
				continue // drop lazily
			}
			lits := cl.lits
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if c.value(first) == 1 {
				ws[j] = ci
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if c.value(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					// The clause now watches lits[1]; index it under the
					// literal whose assertion falsifies it.
					nw := lits[1] ^ 1
					c.watches[nw] = append(c.watches[nw], ci)
					continue nextWatcher
				}
			}
			ws[j] = ci
			j++
			if c.value(first) == -1 {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				c.watches[p] = ws[:j]
				c.qhead = len(c.trail)
				return true
			}
			c.enqueue(first)
		}
		c.watches[p] = ws[:j]
	}
	return false
}

// backtrack unassigns every literal beyond the persistent root prefix.
func (c *SessionChecker) backtrack() {
	for i := len(c.trail) - 1; i >= c.rootTrail; i-- {
		c.assign[c.trail[i]>>1] = 0
	}
	c.trail = c.trail[:c.rootTrail]
	c.qhead = c.rootTrail
}

func clauseKey(lits []int32) string {
	s := append([]int32(nil), lits...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	b := make([]byte, 0, len(s)*5)
	for _, l := range s {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24), ',')
	}
	return string(b)
}

// AddInput adds an original clause (no RUP obligation) to the live set.
func (c *SessionChecker) AddInput(dimacs []int32) error {
	lits, err := c.internAll(dimacs)
	if err != nil {
		return err
	}
	c.install(lits)
	return nil
}

// AddLearnt verifies the clause by RUP against the current live set and,
// on success, adds it.
func (c *SessionChecker) AddLearnt(dimacs []int32) error {
	lits, err := c.internAll(dimacs)
	if err != nil {
		return err
	}
	if !c.rup(lits) {
		return fmt.Errorf("proof: learnt clause %v is not RUP", dimacs)
	}
	c.install(lits)
	return nil
}

// Delete removes a clause from the live set. The clause must be present
// (strict matching catches tampered traces).
func (c *SessionChecker) Delete(dimacs []int32) error {
	lits, err := c.internAll(dimacs)
	if err != nil {
		return err
	}
	key := clauseKey(lits)
	ids := c.byKey[key]
	if len(ids) == 0 {
		return fmt.Errorf("proof: delete of absent clause %v", dimacs)
	}
	ci := ids[len(ids)-1]
	c.byKey[key] = ids[:len(ids)-1]
	c.clauses[ci].deleted = true
	return nil
}

// CheckFinal verifies that the clause is RUP against the current live
// set — the per-query Unsat obligation (empty = global refutation) —
// and, on success, installs it as a proven lemma.
func (c *SessionChecker) CheckFinal(dimacs []int32) error {
	lits, err := c.internAll(dimacs)
	if err != nil {
		return err
	}
	if !c.rup(lits) {
		return fmt.Errorf("proof: final clause %v is not RUP", dimacs)
	}
	c.install(lits)
	return nil
}

// RootConflict reports whether the live set has been refuted at the root
// level (the empty clause is derivable by propagation alone).
func (c *SessionChecker) RootConflict() bool { return c.rootConflict }

func (c *SessionChecker) internAll(dimacs []int32) ([]int32, error) {
	lits := make([]int32, len(dimacs))
	for i, d := range dimacs {
		l, err := c.internLit(d)
		if err != nil {
			return nil, err
		}
		lits[i] = l
	}
	return lits, nil
}

// rup reports whether asserting the negation of lits propagates to a
// conflict. The trail is restored to the persistent root prefix.
func (c *SessionChecker) rup(lits []int32) bool {
	if c.rootConflict {
		return true
	}
	for _, l := range lits {
		if c.value(l) == 1 {
			return true // some literal already true at root: ¬C conflicts immediately
		}
	}
	for _, l := range lits {
		if c.value(l) == 0 {
			c.enqueue(l ^ 1)
		}
	}
	conflict := c.propagate()
	c.backtrack()
	return conflict
}

// install adds a clause to the live set and extends the persistent root
// state: empty clauses set the root conflict, unit (or effectively unit)
// clauses are propagated at root.
func (c *SessionChecker) install(lits []int32) {
	ci := int32(len(c.clauses))
	c.clauses = append(c.clauses, &rclause{lits: lits})
	key := clauseKey(lits)
	c.byKey[key] = append(c.byKey[key], ci)
	if c.rootConflict {
		return
	}
	// Classify under the current root assignment.
	var nonFalse []int32
	sat := false
	for _, l := range lits {
		switch c.value(l) {
		case 1:
			sat = true
		case 0:
			nonFalse = append(nonFalse, l)
		}
	}
	switch {
	case sat:
		// Root-satisfied: can never propagate (root assignments persist).
	case len(nonFalse) == 0:
		c.rootConflict = true
	case len(nonFalse) == 1:
		c.enqueue(nonFalse[0])
		if c.propagate() {
			c.rootConflict = true
		}
		c.rootTrail = len(c.trail)
	default:
		// Watch two currently-non-false literals: reorder so they are in
		// front, then attach.
		cl := c.clauses[ci]
		c.moveToFront(cl.lits, nonFalse[0], nonFalse[1])
		c.watches[cl.lits[0]^1] = append(c.watches[cl.lits[0]^1], ci)
		c.watches[cl.lits[1]^1] = append(c.watches[cl.lits[1]^1], ci)
	}
}

func (c *SessionChecker) moveToFront(lits []int32, a, b int32) {
	for i, l := range lits {
		if l == a {
			lits[0], lits[i] = lits[i], lits[0]
			break
		}
	}
	for i := 1; i < len(lits); i++ {
		if lits[i] == b {
			lits[1], lits[i] = lits[i], lits[1]
			break
		}
	}
}
