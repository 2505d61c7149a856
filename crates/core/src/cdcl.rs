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
use std::cell::Cell;

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

/// Largest literal arena a dropped solver hands on for reuse: 4 Mi
/// literals, 16 MiB. A bigger CNF (a `path_blowup`-scale grid) frees its
/// storage instead of keeping it resident on its thread.
const MAX_SPARE_LITS: usize = 1 << 22;

/// Everything a solver allocates: the clause store, the watch lists, the
/// per-variable arrays, the trail, the order heap and the conflict scratch.
/// A dropped solver hands it to the next [`Solver::new`] on its thread
/// (one spare per thread), which clears it and keeps its capacity.
#[derive(Default)]
struct Storage {
    /// Flat literal arena; clauses are spans into it.
    arena: Vec<Lit>,
    clauses: Vec<Clause>,
    /// Two lists per variable; lists past `2 * num_vars` are cleared
    /// leftovers of a bigger solver, which `new_var` takes over.
    watches: Vec<Vec<Watch>>,
    assign: Vec<u8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`None` for decisions).
    reason: Vec<Option<ClauseId>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    activity: Vec<f64>,
    order: OrderHeap,
    /// Saved phase per variable (phase saving across restarts).
    phase: Vec<bool>,
    /// Scratch for conflict analysis: marked variables, the clause being
    /// learned, and the marks to undo.
    seen: Vec<bool>,
    learnt: Vec<Lit>,
    cleanup: Vec<Var>,
}

impl Storage {
    /// Empties every array, keeping its capacity (and the watch lists,
    /// each emptied).
    fn clear(&mut self) {
        let Storage {
            arena,
            clauses,
            watches,
            assign,
            level,
            reason,
            trail,
            trail_lim,
            activity,
            order,
            phase,
            seen,
            learnt,
            cleanup,
        } = self;
        arena.clear();
        clauses.clear();
        watches.iter_mut().for_each(Vec::clear);
        assign.clear();
        level.clear();
        reason.clear();
        trail.clear();
        trail_lim.clear();
        activity.clear();
        order.heap.clear();
        order.pos.clear();
        phase.clear();
        seen.clear();
        learnt.clear();
        cleanup.clear();
    }
}

thread_local! {
    /// The storage of the last solver dropped on this thread, if kept.
    static SPARE: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// The solver. Add variables and clauses, then [`Solver::solve`].
///
/// Its storage outlives it: dropping a solver hands the storage to the
/// next `Solver::new` on the same thread, so a run of checks regrows one
/// set of arrays instead of allocating per literal and per conflict. The
/// search does not depend on where the storage came from.
pub struct Solver {
    num_vars: u32,
    mem: Storage,
    qhead: usize,
    var_inc: f64,
    /// False once an empty clause was derived at level 0.
    ok: bool,
    /// Statistics of the last `solve` call.
    pub stats: CdclStats,
}

impl Solver {
    /// An empty solver (no variables, no clauses), on this thread's spare
    /// storage when a dropped solver left one.
    pub fn new() -> Solver {
        let mut mem = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        mem.clear();
        Solver {
            num_vars: 0,
            mem,
            qhead: 0,
            var_inc: 1.0,
            ok: true,
            stats: CdclStats::default(),
        }
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        // Reuse the cleared watch lists a bigger solver left, if any.
        while self.mem.watches.len() < 2 * self.num_vars as usize {
            self.mem.watches.push(Vec::new());
        }
        self.mem.assign.push(UNDEF);
        self.mem.level.push(0);
        self.mem.reason.push(None);
        self.mem.activity.push(0.0);
        self.mem.phase.push(false);
        self.mem.seen.push(false);
        self.mem.order.grow_to(self.num_vars as usize);
        self.mem.order.push(v, &self.mem.activity);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses in the clause store, learned ones included.
    /// Unit clauses are not stored: they sit on the root-level trail.
    pub fn num_clauses(&self) -> usize {
        self.mem.clauses.len()
    }

    /// A 64-bit FNV-1a digest of the stored clauses in order (each one's
    /// length, then its literals as they sit in the arena), followed by
    /// the root-level trail. Two solvers loaded with the same clauses in
    /// the same order have the same digest.
    pub fn clause_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u32| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in &self.mem.clauses {
            mix(c.len);
            for l in &self.mem.arena[c.start as usize..(c.start + c.len) as usize] {
                mix(l.0);
            }
        }
        let root = self
            .mem
            .trail_lim
            .first()
            .copied()
            .unwrap_or(self.mem.trail.len());
        for l in &self.mem.trail[..root] {
            mix(l.0);
        }
        hash
    }

    fn value(&self, l: Lit) -> Option<bool> {
        match self.mem.assign[l.var() as usize] {
            UNDEF => None,
            a => Some((a == 1) == l.positive()),
        }
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.mem.trail_lim.len()).expect("decision levels fit u32")
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
        // The clause is built in place at the end of the arena and cut off
        // again unless it is stored.
        let start = self.mem.arena.len();
        for &l in lits {
            debug_assert!(l.var() < self.num_vars, "literal over unallocated var");
            match self.value(l) {
                Some(false) => continue, // root-false literal: drop
                // Already satisfied at root, or a tautology.
                Some(true) => {
                    self.mem.arena.truncate(start);
                    return true;
                }
                None if self.mem.arena[start..].contains(&l.negated()) => {
                    self.mem.arena.truncate(start);
                    return true;
                }
                None => {
                    if !self.mem.arena[start..].contains(&l) {
                        self.mem.arena.push(l);
                    }
                }
            }
        }
        match self.mem.arena.len() - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.mem.arena.pop().expect("one literal");
                self.enqueue(unit, None);
                // Propagate eagerly so later root adds see the implication.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_tail(start);
                true
            }
        }
    }

    /// Stores the clause `analyze` learned.
    fn attach_learnt(&mut self) -> ClauseId {
        let start = self.mem.arena.len();
        self.mem.arena.extend_from_slice(&self.mem.learnt);
        self.attach_tail(start)
    }

    /// Stores the arena's literals from `start` on as a clause.
    fn attach_tail(&mut self, start: usize) -> ClauseId {
        let id = u32::try_from(self.mem.clauses.len()).expect("clause count fits u32");
        let len = u32::try_from(self.mem.arena.len() - start).expect("clause length fits u32");
        let start = u32::try_from(start).expect("arena offset fits u32");
        self.mem.clauses.push(Clause { start, len });
        let (c0, c1) = (
            self.mem.arena[start as usize],
            self.mem.arena[start as usize + 1],
        );
        // `watches[l]` holds the clauses currently watching literal `l`;
        // they are scanned when `l` becomes false.
        self.mem.watches[c0.idx()].push(Watch {
            clause: id,
            blocker: c1,
        });
        self.mem.watches[c1.idx()].push(Watch {
            clause: id,
            blocker: c0,
        });
        id
    }

    fn span(&self, id: ClauseId) -> (usize, usize) {
        let c = self.mem.clauses[id as usize];
        (c.start as usize, c.len as usize)
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseId>) {
        debug_assert_eq!(self.value(l), None);
        let v = l.var() as usize;
        self.mem.assign[v] = u8::from(l.positive());
        self.mem.level[v] = self.decision_level();
        self.mem.reason[v] = reason;
        self.mem.phase[v] = l.positive();
        self.mem.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseId> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.mem.trail.len() {
            let p = self.mem.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.mem.watches[false_lit.idx()]);
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
                if self.mem.arena[start] == false_lit {
                    self.mem.arena.swap(start, start + 1);
                }
                let first = self.mem.arena[start];
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
                    if self.value(self.mem.arena[k]) != Some(false) {
                        self.mem.arena.swap(start + 1, k);
                        self.mem.watches[self.mem.arena[start + 1].idx()].push(Watch {
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
                    self.qhead = self.mem.trail.len();
                    conflict = Some(w.clause);
                    break;
                }
                self.enqueue(first, Some(w.clause));
            }
            ws.truncate(j);
            self.mem.watches[false_lit.idx()] = ws;
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.mem.activity[v as usize] += self.var_inc;
        if self.mem.activity[v as usize] > 1e100 {
            for a in &mut self.mem.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.mem.order.bumped(v, &self.mem.activity);
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `mem.learnt` (asserting literal in slot 0) and returns the
    /// backtrack level.
    fn analyze(&mut self, conflict: ClauseId) -> u32 {
        self.mem.learnt.clear();
        self.mem.learnt.push(Lit::pos(0)); // slot 0 patched below
        let mut counter = 0usize;
        let mut confl = conflict;
        let mut index = self.mem.trail.len();
        let mut expanding_reason = false;
        let asserting = loop {
            let (start, len) = self.span(confl);
            // A reason clause's slot 0 is the literal it implied — skip it.
            let begin = if expanding_reason { start + 1 } else { start };
            for k in begin..start + len {
                let q = self.mem.arena[k];
                let v = q.var();
                if !self.mem.seen[v as usize] && self.mem.level[v as usize] > 0 {
                    self.mem.seen[v as usize] = true;
                    self.mem.cleanup.push(v);
                    self.bump_var(v);
                    if self.mem.level[v as usize] >= self.decision_level() {
                        counter += 1;
                    } else {
                        self.mem.learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.mem.seen[self.mem.trail[index].var() as usize] {
                    break;
                }
            }
            let p = self.mem.trail[index];
            counter -= 1;
            if counter == 0 {
                break p;
            }
            confl = self.mem.reason[p.var() as usize].expect("non-decision on conflict path");
            expanding_reason = true;
        };
        let Storage {
            learnt,
            cleanup,
            seen,
            level,
            ..
        } = &mut self.mem;
        learnt[0] = asserting.negated();
        for v in cleanup.drain(..) {
            seen[v as usize] = false;
        }
        if learnt.len() == 1 {
            0
        } else {
            // Second-highest level literal moves to the watch slot 1.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if level[learnt[i].var() as usize] > level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            level[learnt[1].var() as usize]
        }
    }

    fn backtrack_to(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.mem.trail_lim[lvl as usize];
        for k in (bound..self.mem.trail.len()).rev() {
            let v = self.mem.trail[k].var();
            self.mem.assign[v as usize] = UNDEF;
            self.mem.reason[v as usize] = None;
            self.mem.order.push(v, &self.mem.activity);
        }
        self.mem.trail.truncate(bound);
        self.mem.trail_lim.truncate(lvl as usize);
        self.qhead = self.mem.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Var> {
        loop {
            let v = self.mem.order.pop(&self.mem.activity)?;
            if self.mem.assign[v as usize] == UNDEF {
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
                let bt = self.analyze(conflict);
                self.backtrack_to(bt);
                let asserting = self.mem.learnt[0];
                let reason = (self.mem.learnt.len() > 1).then(|| self.attach_learnt());
                self.enqueue(asserting, reason);
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
                        let model: Vec<bool> = self.mem.assign.iter().map(|&a| a == 1).collect();
                        self.backtrack_to(0);
                        return SatResult::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.mem.trail_lim.push(self.mem.trail.len());
                        let phase = self.mem.phase[v as usize];
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

impl Drop for Solver {
    /// Hands the storage to this thread's spare slot, unless the slot is
    /// taken, the arena is past `MAX_SPARE_LITS`, or the thread is tearing
    /// its locals down; then the storage is freed here.
    fn drop(&mut self) {
        if self.mem.arena.capacity() > MAX_SPARE_LITS {
            return;
        }
        let mem = std::mem::take(&mut self.mem);
        let _ = SPARE.try_with(|slot| {
            let held = slot.take();
            slot.set(held.or(Some(mem)));
        });
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

    /// PHP(4 pigeons, 3 holes), solved: its result, counters and clause
    /// digest, learned clauses included.
    fn solve_pigeonhole() -> (SatResult, CdclStats, u64) {
        let var = |p: usize, h: usize| (p * 3 + h + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = (0..4)
            .map(|p| (0..3).map(|h| var(p, h)).collect())
            .collect();
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(12, &refs);
        let result = s.solve(&Budget::unlimited());
        (result, s.stats, s.clause_digest())
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
        assert_eq!(solve_pigeonhole().0, SatResult::Unsat);

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

    /// The loaded CNF of s1908's critical output at its exact delay, 310:
    /// a SAT instance of 339 variables and 1 009 clauses.
    fn s1908_cnf() -> Solver {
        use crate::encode::{encode_check, Encoded};
        let suite = ltt_netlist::suite::iscas85_suite(10);
        let c = &suite
            .iter()
            .find(|e| e.name == "s1908")
            .expect("s1908 is in the suite")
            .circuit;
        let arrival = c.arrival_times();
        let s = *c
            .outputs()
            .iter()
            .max_by_key(|o| arrival[o.index()])
            .expect("s1908 has outputs");
        match encode_check(c, s, 310, &Budget::unlimited()) {
            Ok(Encoded::Cnf(cnf)) => cnf.solver,
            _ => panic!("s1908 at δ = 310 needs a CNF"),
        }
    }

    #[test]
    fn reused_storage_solves_like_fresh_storage() {
        let fresh = std::thread::spawn(solve_pigeonhole)
            .join()
            .expect("fresh thread");
        let reused = std::thread::spawn(|| {
            let mut big = s1908_cnf();
            assert!(matches!(big.solve(&Budget::unlimited()), SatResult::Sat(_)));
            drop(big);
            // Dropped mid-search: assignments, levels, reasons and the
            // trail are all live when the storage is handed on.
            let mut tripped = s1908_cnf();
            assert_eq!(
                tripped.solve(&Budget::unlimited().with_events(20)),
                SatResult::Unknown(TripReason::Events)
            );
            assert!(tripped.decision_level() > 0, "tripped mid-search");
            drop(tripped);
            let spare_lits = SPARE.with(|slot| {
                let held = slot.take();
                let lits = held.as_ref().map_or(0, |m| m.arena.capacity());
                slot.set(held);
                lits
            });
            assert!(spare_lits > 0, "the tripped solver's storage is kept");
            solve_pigeonhole()
        })
        .join()
        .expect("reusing thread");
        assert_eq!(fresh.0, SatResult::Unsat);
        assert_eq!(reused, fresh);
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
