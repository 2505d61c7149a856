//! A clean-room CDCL SAT solver.
//!
//! The feature set is the classic MiniSat recipe: unit propagation over
//! two-watched literals, first-UIP conflict-clause learning, VSIDS-style
//! activity decisions with phase saving, and Luby-sequence restarts. The
//! clause store is a single flat literal arena (the struct-of-arrays style
//! the narrowing core adopted in its store rewrite): a clause is a
//! `(start, len)` span into one `Vec<Lit>`, so clause access is an index
//! computation and learning never allocates per-clause boxes.
//!
//! The solver composes with the resilience layer by polling an
//! [`ArmedBudget`](crate::budget::ArmedBudget) from the propagation loop:
//! wall-clock, absolute deadlines, cancellation tokens, and the event cap
//! all abort the search with [`SatResult::Unknown`] — never a wrong
//! verdict, because a CDCL run only *reports* SAT on a full consistent
//! assignment and UNSAT on a root-level conflict, both of which are
//! checked facts independent of how the search was scheduled.

use crate::budget::{Budget, TripReason};
use crate::failpoint;

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: variable plus polarity, packed as `var << 1 | positive`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The literal `var` (positive) or `¬var` (negative).
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var << 1 | u32::from(positive))
    }

    /// The positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// The negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether this is the positive literal.
    pub fn positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Truth value of a variable in the current (partial) assignment.
const UNDEF: u8 = 2;

/// Outcome of a CDCL run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found; `model[v]` is the value of
    /// variable `v`.
    Sat(Vec<bool>),
    /// The clause set is unsatisfiable.
    Unsat,
    /// The budget tripped before the search finished.
    Unknown(TripReason),
}

/// Clause span in the literal arena. Index 0 is the watched/asserting slot.
#[derive(Clone, Copy, Debug)]
struct Clause {
    start: u32,
    len: u32,
}

type ClauseId = u32;

#[derive(Clone, Copy)]
struct Watch {
    clause: ClauseId,
    /// Cached literal of the clause; if it is already true the clause is
    /// satisfied and the watch scan skips the arena access entirely.
    blocker: Lit,
}

/// Max-heap over variable activities (MiniSat's order heap): `pos[v]` is
/// the heap slot of `v`, or `usize::MAX` when not enqueued.
#[derive(Default)]
struct OrderHeap {
    heap: Vec<Var>,
    pos: Vec<usize>,
}

impl OrderHeap {
    fn grow_to(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(usize::MAX);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v as usize] != usize::MAX
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v as usize];
        if p != usize::MAX {
            self.sift_up(p, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
    }
}

/// Luby restart unit, in conflicts.
const RESTART_UNIT: u64 = 64;

/// Cumulative solver-effort counters, reported alongside the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CdclStats {
    /// Unit propagations performed.
    pub propagations: u64,
    /// Conflicts analyzed (equals learned clauses).
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Restarts performed.
    pub restarts: u64,
}

impl CdclStats {
    /// Field-wise saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &CdclStats) -> CdclStats {
        CdclStats {
            propagations: self.propagations.saturating_add(other.propagations),
            conflicts: self.conflicts.saturating_add(other.conflicts),
            decisions: self.decisions.saturating_add(other.decisions),
            restarts: self.restarts.saturating_add(other.restarts),
        }
    }
}

/// The solver. Add variables and clauses, then [`Solver::solve`].
pub struct Solver {
    num_vars: u32,
    /// Flat literal arena; clauses are spans into it.
    arena: Vec<Lit>,
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    assign: Vec<u8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`None` for decisions).
    reason: Vec<Option<ClauseId>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: OrderHeap,
    /// Saved phase per variable (phase saving across restarts).
    phase: Vec<bool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// False once an empty clause was derived at level 0.
    ok: bool,
    /// Statistics of the last `solve` call.
    pub stats: CdclStats,
}

impl Solver {
    /// An empty solver (no variables, no clauses).
    pub fn new() -> Solver {
        Solver {
            num_vars: 0,
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: OrderHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: CdclStats::default(),
        }
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.order.grow_to(self.num_vars as usize);
        self.order.push(v, &self.activity);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    fn value(&self, l: Lit) -> Option<bool> {
        match self.assign[l.var() as usize] {
            UNDEF => None,
            a => Some((a == 1) == l.positive()),
        }
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("decision levels fit u32")
    }

    /// Adds a clause. Tautologies are dropped, duplicate and root-false
    /// literals removed; an empty result makes the instance UNSAT, a unit
    /// result is enqueued at the root level. Returns `false` once the
    /// instance is known UNSAT (further adds are ignored).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at the root");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            debug_assert!(l.var() < self.num_vars, "literal over unallocated var");
            match self.value(l) {
                Some(true) => return true, // already satisfied at root
                Some(false) => continue,   // root-false literal: drop
                None => {
                    if c.contains(&l.negated()) {
                        return true; // tautology
                    }
                    if !c.contains(&l) {
                        c.push(l);
                    }
                }
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                // Propagate eagerly so later root adds see the implication.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&c);
                true
            }
        }
    }

    fn attach(&mut self, c: &[Lit]) -> ClauseId {
        let id = u32::try_from(self.clauses.len()).expect("clause count fits u32");
        let start = u32::try_from(self.arena.len()).expect("arena offset fits u32");
        let len = u32::try_from(c.len()).expect("clause length fits u32");
        self.arena.extend_from_slice(c);
        self.clauses.push(Clause { start, len });
        // `watches[l]` holds the clauses currently watching literal `l`;
        // they are scanned when `l` becomes false.
        self.watches[c[0].idx()].push(Watch {
            clause: id,
            blocker: c[1],
        });
        self.watches[c[1].idx()].push(Watch {
            clause: id,
            blocker: c[0],
        });
        id
    }

    fn span(&self, id: ClauseId) -> (usize, usize) {
        let c = self.clauses[id as usize];
        (c.start as usize, c.len as usize)
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseId>) {
        debug_assert_eq!(self.value(l), None);
        let v = l.var() as usize;
        self.assign[v] = u8::from(l.positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseId> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let mut i = 0;
            let mut j = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let (start, len) = self.span(w.clause);
                // Normalize: the false literal sits in slot 1.
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                let first = self.arena[start];
                if first != w.blocker && self.value(first) == Some(true) {
                    ws[j] = Watch {
                        clause: w.clause,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                for k in start + 2..start + len {
                    if self.value(self.arena[k]) != Some(false) {
                        self.arena.swap(start + 1, k);
                        self.watches[self.arena[start + 1].idx()].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        continue 'watches;
                    }
                }
                // Clause is unit (or conflicting) under the assignment.
                ws[j] = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                j += 1;
                if self.value(first) == Some(false) {
                    // Conflict: keep the remaining watches and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.clause);
                    break;
                }
                self.enqueue(first, Some(w.clause));
            }
            ws.truncate(j);
            self.watches[false_lit.idx()] = ws;
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal in slot 0) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseId) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 patched below
        let mut counter = 0usize;
        let mut confl = conflict;
        let mut index = self.trail.len();
        let mut expanding_reason = false;
        let mut cleanup: Vec<Var> = Vec::new();
        let asserting = loop {
            let (start, len) = self.span(confl);
            // A reason clause's slot 0 is the literal it implied — skip it.
            let begin = if expanding_reason { start + 1 } else { start };
            for k in begin..start + len {
                let q = self.arena[k];
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    cleanup.push(v);
                    self.bump_var(v);
                    if self.level[v as usize] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let p = self.trail[index];
            counter -= 1;
            if counter == 0 {
                break p;
            }
            confl = self.reason[p.var() as usize].expect("non-decision on conflict path");
            expanding_reason = true;
        };
        learnt[0] = asserting.negated();
        for v in cleanup {
            self.seen[v as usize] = false;
        }
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Second-highest level literal moves to the watch slot 1.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };
        (learnt, bt)
    }

    fn backtrack_to(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        for k in (bound..self.trail.len()).rev() {
            let v = self.trail[k].var();
            self.assign[v as usize] = UNDEF;
            self.reason[v as usize] = None;
            self.order.push(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Var> {
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.assign[v as usize] == UNDEF {
                return Some(v);
            }
        }
    }

    /// The i-th term (1-based) of the Luby sequence: 1 1 2 1 1 2 4 …
    fn luby(mut i: u64) -> u64 {
        // Find the subsequence this index falls in.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        while (1u64 << k) - 1 != i {
            i -= (1u64 << (k - 1)) - 1;
            k = 1;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
        }
        1u64 << (k - 1)
    }

    /// Runs the CDCL search under `budget`. Returns a model, an UNSAT
    /// proof outcome, or [`SatResult::Unknown`] when the budget trips.
    pub fn solve(&mut self, budget: &Budget) -> SatResult {
        self.stats = CdclStats::default();
        if !self.ok {
            return SatResult::Unsat;
        }
        let mut armed = budget.arm();
        let mut restart_num: u64 = 0;
        let mut conflicts_left = RESTART_UNIT * Self::luby(1);
        loop {
            failpoint::hit("sat::propagate", "cdcl");
            // Poll every round: the armed budget strides its own clock
            // reads, so this is a counter check in the common case.
            if let Some(reason) = armed.poll(self.stats.propagations) {
                return SatResult::Unknown(reason);
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_left = conflicts_left.saturating_sub(1);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                self.backtrack_to(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], None);
                } else {
                    let id = self.attach(&learnt);
                    self.enqueue(learnt[0], Some(id));
                }
                self.var_inc /= 0.95;
            } else {
                if conflicts_left == 0 {
                    // Luby restart; also a natural point for a clock read.
                    self.stats.restarts += 1;
                    restart_num += 1;
                    conflicts_left = RESTART_UNIT * Self::luby(restart_num + 1);
                    self.backtrack_to(0);
                    if let Some(reason) = armed.poll_now() {
                        return SatResult::Unknown(reason);
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        let model: Vec<bool> = self.assign.iter().map(|&a| a == 1).collect();
                        self.backtrack_to(0);
                        return SatResult::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v as usize];
                        self.enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        }
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&x| {
                let v = (x.unsigned_abs() - 1) as Var;
                Lit::new(v, x > 0)
            })
            .collect()
    }

    fn solver_with(num_vars: u32, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    fn check_model(model: &[bool], clauses: &[&[i32]]) {
        for c in clauses {
            assert!(
                c.iter().any(|&x| {
                    let v = (x.unsigned_abs() - 1) as usize;
                    model[v] == (x > 0)
                }),
                "clause {c:?} unsatisfied by {model:?}"
            );
        }
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, 2], &[1, -2]];
        let mut s = solver_with(2, clauses);
        match s.solve(&Budget::unlimited()) {
            SatResult::Sat(m) => check_model(&m, clauses),
            other => panic!("expected SAT, got {other:?}"),
        }
        let mut s = solver_with(2, &[&[1], &[-1]]);
        assert_eq!(s.solve(&Budget::unlimited()), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&Budget::unlimited()), SatResult::Unsat);
    }

    #[test]
    fn php_unsat_and_graph_sat() {
        // Pigeonhole PHP(4 pigeons, 3 holes): classic small UNSAT with a
        // real resolution proof, exercising learning and restarts.
        let var = |p: usize, h: usize| (p * 3 + h + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for p in 0..4 {
            clauses.push((0..3).map(|h| var(p, h)).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(12, &refs);
        assert_eq!(s.solve(&Budget::unlimited()), SatResult::Unsat);

        // 3-coloring of a 5-cycle (SAT; chromatic number 3).
        let cvar = |n: usize, c: usize| (n * 3 + c + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for n in 0..5 {
            clauses.push((0..3).map(|c| cvar(n, c)).collect());
            for c1 in 0..3 {
                for c2 in c1 + 1..3 {
                    clauses.push(vec![-cvar(n, c1), -cvar(n, c2)]);
                }
            }
        }
        for n in 0..5 {
            let m = (n + 1) % 5;
            for c in 0..3 {
                clauses.push(vec![-cvar(n, c), -cvar(m, c)]);
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(15, &refs);
        match s.solve(&Budget::unlimited()) {
            SatResult::Sat(m) => {
                for c in &refs {
                    check_model(&m, &[c]);
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for round in 0..200 {
            let nv = 3 + (rng(8) as u32); // 3..=10 vars
            let nc = 2 + rng(4 * u64::from(nv)) as usize;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = 1 + rng(u64::from(nv)) as i32;
                    c.push(if rng(2) == 0 { v } else { -v });
                }
                clauses.push(c);
            }
            let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
            let brute_sat = (0u32..1 << nv).any(|bits| {
                refs.iter().all(|c| {
                    c.iter().any(|&x| {
                        let v = x.unsigned_abs() - 1;
                        ((bits >> v) & 1 == 1) == (x > 0)
                    })
                })
            });
            let mut s = solver_with(nv, &refs);
            match s.solve(&Budget::unlimited()) {
                SatResult::Sat(m) => {
                    assert!(brute_sat, "round {round}: solver SAT, brute UNSAT");
                    check_model(&m, &refs);
                }
                SatResult::Unsat => {
                    assert!(!brute_sat, "round {round}: solver UNSAT, brute SAT")
                }
                SatResult::Unknown(r) => panic!("unlimited budget tripped: {r:?}"),
            }
        }
    }

    #[test]
    fn luby_prefix() {
        let seq: Vec<u64> = (1..=15).map(Solver::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn cancelled_budget_returns_unknown() {
        use crate::budget::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, 2]];
        let mut s = solver_with(2, clauses);
        // A pre-cancelled budget must abort without claiming a verdict.
        assert_eq!(
            s.solve(&Budget::unlimited().with_cancel(token)),
            SatResult::Unknown(TripReason::Cancelled)
        );
    }
}
