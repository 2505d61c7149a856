//! Domain storage for the constraint system: one abstract signal per net,
//! with trail-based selective state saving for backtracking (§3.3).
//!
//! The store is laid out as a struct of dense, [`NetId`]-indexed planes
//! (see DESIGN.md §12):
//!
//! * the **bounds plane** `sig` — the four last-transition bounds
//!   (`lmin`/`max` per settling class) of every net, one flat `Copy` row
//!   per net so the hot narrowing loop touches a single cache line;
//! * the **value-lattice plane** `state` — one byte per net caching which
//!   classes are empty, so `fixed_class` / contradiction tests never
//!   reload the bounds row;
//! * the **dirty-flag plane** `stamp` — the decision-window epoch in which
//!   each net was last trailed, making trail writes first-write-wins.
//!
//! The trail itself is a bump arena: saving is a push, a
//! [`Checkpoint`] is a mark (arena length + window epoch), and
//! [`SignalStore::rollback`] is a pointer reset plus an O(changed) sweep
//! restoring the saved rows — never an O(nets) scan. A net narrowed k
//! times inside one decision window is saved once (its pre-window value),
//! so deep searches pay O(distinct nets changed), not O(narrowings).

use ltt_netlist::{Circuit, NetId};
use ltt_waveform::{Level, Signal};

/// Value-lattice bit: class 0 of the net is empty.
const EMPTY_ZERO: u8 = 1;
/// Value-lattice bit: class 1 of the net is empty.
const EMPTY_ONE: u8 = 2;
/// Both classes empty — the net is `(φ, φ)`, a contradiction.
const EMPTY_BOTH: u8 = EMPTY_ZERO | EMPTY_ONE;

#[inline]
fn lattice(s: Signal) -> u8 {
    u8::from(s[Level::Zero].is_empty()) | (u8::from(s[Level::One].is_empty()) << 1)
}

/// A checkpoint into the trail arena, returned by
/// [`SignalStore::checkpoint`] and consumed by [`SignalStore::rollback`]:
/// the arena length plus the decision-window epoch it opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Checkpoint {
    trail: usize,
    epoch: u64,
}

/// One saved pre-window value: the net, its bounds row, and the stamp it
/// carried before this window (restored on rollback so outer windows keep
/// their own first-write-wins accounting).
#[derive(Clone, Copy, Debug)]
struct TrailEntry {
    net: NetId,
    old: Signal,
    prev_stamp: u64,
}

/// The domains `D_1 … D_n` of the constraint system plus the undo trail.
///
/// Every mutation goes through [`SignalStore::narrow_to`], which
/// *intersects* the new value into the current one (narrowing is therefore
/// monotone by construction), records the pre-window value on the trail
/// (first write per decision window only), and reports whether anything
/// changed — the event the scheduler needs.
#[derive(Clone, Debug)]
pub struct SignalStore {
    /// Bounds plane, indexed by [`NetId::index`].
    sig: Vec<Signal>,
    /// Value-lattice plane: per-class emptiness bits.
    state: Vec<u8>,
    /// Dirty-flag plane: epoch of the last trail save per net. Empty until
    /// the first checkpoint materializes it (see [`SignalStore::checkpoint`]).
    stamp: Vec<u64>,
    /// Bump-arena trail of pre-window values.
    trail: Vec<TrailEntry>,
    /// Current decision-window epoch; 0 = no checkpoint taken, nothing to
    /// roll back to, so no trail writes at all (the base fixpoint is free).
    epoch: u64,
    /// Number of nets whose domain is `(φ, φ)` — maintained incrementally
    /// so the contradiction test and rollback are O(1)/O(changed).
    empty_nets: usize,
}

impl SignalStore {
    /// Creates a store with every net's domain set to the full signal.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_nets();
        SignalStore {
            sig: vec![Signal::FULL; n],
            state: vec![0; n],
            stamp: Vec::new(),
            trail: Vec::new(),
            epoch: 0,
            empty_nets: 0,
        }
    }

    /// Creates a store seeded with the given domains (e.g. a previously
    /// computed base fixpoint) and an empty trail. The lattice plane and
    /// contradiction count are derived from the seeded domains in the same
    /// pass; the stamp plane stays empty until the first checkpoint, so a
    /// seeded check that never backtracks (the common case in a batch)
    /// skips its allocation entirely.
    pub fn from_domains(domains: &[Signal]) -> Self {
        // memcpy the bounds plane first, then derive the lattice plane from
        // the still-cache-warm copy (measurably faster than one fused
        // element-wise loop, which defeats the block copy).
        let sig = domains.to_vec();
        let mut empty_nets = 0usize;
        let state: Vec<u8> = sig
            .iter()
            .map(|&d| {
                let s = lattice(d);
                empty_nets += usize::from(s == EMPTY_BOTH);
                s
            })
            .collect();
        SignalStore {
            sig,
            state,
            stamp: Vec::new(),
            trail: Vec::new(),
            epoch: 0,
            empty_nets,
        }
    }

    /// The current domain of a net.
    #[inline]
    pub fn get(&self, net: NetId) -> Signal {
        self.sig[net.index()]
    }

    /// All domains, indexed by [`NetId::index`].
    pub fn all(&self) -> &[Signal] {
        &self.sig
    }

    /// Whether some net's domain is empty (the system has no solution).
    #[inline]
    pub fn has_contradiction(&self) -> bool {
        self.empty_nets > 0
    }

    /// The single settling class of `net`, if exactly one class is
    /// non-empty — read off the lattice plane without touching the bounds
    /// row. Agrees with [`Signal::fixed_class`] on the stored signal.
    #[inline]
    pub(crate) fn fixed_class(&self, net: NetId) -> Option<Level> {
        match self.state[net.index()] {
            EMPTY_ZERO => Some(Level::One),
            EMPTY_ONE => Some(Level::Zero),
            _ => None,
        }
    }

    /// Saves the pre-window value of `net` if this is the first write to it
    /// in the current decision window (and there is a window at all).
    #[inline]
    fn save(&mut self, net: NetId, old: Signal) {
        if self.epoch == 0 {
            return; // no checkpoint exists: nothing can roll back here
        }
        let i = net.index();
        let prev = self.stamp[i];
        if prev == self.epoch {
            return; // already saved in this window: first write wins
        }
        self.stamp[i] = self.epoch;
        self.trail.push(TrailEntry {
            net,
            old,
            prev_stamp: prev,
        });
    }

    /// Installs `new` as the domain of slot `i`, updating the lattice plane
    /// and the contradiction count (handles both narrowing and widening).
    #[inline]
    fn commit(&mut self, i: usize, new: Signal) {
        self.sig[i] = new;
        let was = self.state[i];
        let now = lattice(new);
        self.state[i] = now;
        if now == EMPTY_BOTH {
            if was != EMPTY_BOTH {
                self.empty_nets += 1;
            }
        } else if was == EMPTY_BOTH {
            self.empty_nets -= 1;
        }
    }

    /// Narrows a net's domain to `target ∩ current`. Returns `true` if the
    /// domain changed (callers then schedule the net's constraints).
    ///
    /// Records the pre-window value on the trail for backtracking (first
    /// write per decision window only) and raises the contradiction count
    /// if the domain became `(φ, φ)`.
    pub fn narrow_to(&mut self, net: NetId, target: Signal) -> bool {
        let i = net.index();
        let old = self.sig[i];
        let new = old.intersect(target);
        if new == old {
            return false;
        }
        self.save(net, old);
        self.commit(i, new);
        true
    }

    /// Forcibly replaces a net's domain without intersecting (an escape
    /// hatch for callers that compute a sound narrowing externally, e.g. a
    /// union over case splits). The pre-window value is still recorded on
    /// the trail; the caller guarantees the new value contains all
    /// solutions. The contradiction count follows the replacement in both
    /// directions (a replace that un-empties the only empty net clears it).
    pub fn replace(&mut self, net: NetId, value: Signal) -> bool {
        let i = net.index();
        let old = self.sig[i];
        if value == old {
            return false;
        }
        self.save(net, old);
        self.commit(i, value);
        true
    }

    /// Opens a new decision window and marks the current arena position.
    pub fn checkpoint(&mut self) -> Checkpoint {
        // The stamp plane is materialized on the first checkpoint: `save`
        // only reads it when `epoch != 0`, which this method establishes.
        if self.stamp.len() < self.sig.len() {
            self.stamp.resize(self.sig.len(), 0);
        }
        self.epoch += 1;
        Checkpoint {
            trail: self.trail.len(),
            epoch: self.epoch,
        }
    }

    /// Restores every domain changed since the checkpoint — each net once,
    /// in reverse save order — and re-opens the checkpoint's decision
    /// window. O(distinct nets changed since the mark); the contradiction
    /// count is maintained incrementally, never re-derived by a scan.
    ///
    /// Checkpoints must be rolled back LIFO (the newest live mark first),
    /// which is what the case-analysis stack and stem correlation do.
    pub fn rollback(&mut self, mark: Checkpoint) {
        while self.trail.len() > mark.trail {
            let entry = self.trail.pop().expect("trail non-empty");
            let i = entry.net.index();
            self.stamp[i] = entry.prev_stamp;
            self.commit(i, entry.old);
        }
        self.epoch = mark.epoch;
    }

    /// The nets changed since `mark`, in the order they were first changed.
    /// The trail is first-write-wins per decision window, so when no newer
    /// checkpoint was opened since `mark` every net appears exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the store was rolled back past `mark`.
    pub(crate) fn changed_since(&self, mark: Checkpoint) -> impl Iterator<Item = NetId> + '_ {
        self.trail[mark.trail..].iter().map(|entry| entry.net)
    }

    /// Number of live trail entries (diagnostic). With first-write-wins
    /// saving this counts distinct nets changed since their windows opened,
    /// not total narrowings.
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    use ltt_waveform::{Aw, Level, Time};

    fn circuit() -> (Circuit, NetId, NetId) {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let y = b.gate("y", GateKind::Not, &[a], DelayInterval::fixed(10));
        b.mark_output(y);
        (b.build().unwrap(), a, y)
    }

    #[test]
    fn starts_full() {
        let (c, a, y) = circuit();
        let d = SignalStore::new(&c);
        assert_eq!(d.get(a), Signal::FULL);
        assert_eq!(d.get(y), Signal::FULL);
        assert!(!d.has_contradiction());
    }

    #[test]
    fn narrow_is_intersection_and_reports_change() {
        let (c, a, _) = circuit();
        let mut d = SignalStore::new(&c);
        let v = Signal::violation(Time::new(5));
        assert!(d.narrow_to(a, v));
        assert_eq!(d.get(a), v);
        // Narrowing to the same thing is a no-op.
        assert!(!d.narrow_to(a, v));
        // Narrowing to something wider is also a no-op (intersection).
        assert!(!d.narrow_to(a, Signal::FULL));
    }

    #[test]
    fn contradiction_flag_rises_and_clears() {
        let (c, a, _) = circuit();
        let mut d = SignalStore::new(&c);
        let mark = d.checkpoint();
        d.narrow_to(
            a,
            Signal::single_class(Level::Zero, Aw::before(Time::new(3))),
        );
        assert!(!d.has_contradiction());
        d.narrow_to(a, Signal::single_class(Level::One, Aw::FULL));
        assert!(d.has_contradiction());
        d.rollback(mark);
        assert!(!d.has_contradiction());
        assert_eq!(d.get(a), Signal::FULL);
    }

    #[test]
    fn rollback_restores_in_reverse_order() {
        let (c, a, y) = circuit();
        let mut d = SignalStore::new(&c);
        let m0 = d.checkpoint();
        d.narrow_to(a, Signal::violation(Time::new(1)));
        let m1 = d.checkpoint();
        d.narrow_to(a, Signal::violation(Time::new(2)));
        d.narrow_to(y, Signal::violation(Time::new(3)));
        d.rollback(m1);
        assert_eq!(d.get(a), Signal::violation(Time::new(1)));
        assert_eq!(d.get(y), Signal::FULL);
        d.rollback(m0);
        assert_eq!(d.get(a), Signal::FULL);
    }

    #[test]
    fn replace_allows_widening_within_trail() {
        let (c, a, _) = circuit();
        let mut d = SignalStore::new(&c);
        let mark = d.checkpoint();
        d.narrow_to(a, Signal::violation(Time::new(10)));
        assert!(d.replace(a, Signal::violation(Time::new(5))));
        assert_eq!(d.get(a), Signal::violation(Time::new(5)));
        d.rollback(mark);
        assert_eq!(d.get(a), Signal::FULL);
    }

    /// The first-write-wins contract: k narrowings of one net inside one
    /// decision window store exactly one trail entry — the pre-window
    /// value — and rollback restores bit-identical state.
    #[test]
    fn repeated_narrowing_stores_one_snapshot_per_window() {
        let (c, a, _) = circuit();
        let mut d = SignalStore::new(&c);
        // Pre-window narrowings are not trailed at all (nothing to roll
        // back to) …
        d.narrow_to(a, Signal::violation(Time::new(1)));
        assert_eq!(d.trail_len(), 0);
        let before = d.get(a);
        let mark = d.checkpoint();
        // … and k in-window narrowings of the same net store one entry.
        for t in 2..12 {
            assert!(d.narrow_to(a, Signal::violation(Time::new(t))));
        }
        assert_eq!(d.trail_len(), 1);
        d.rollback(mark);
        assert_eq!(d.get(a), before);
        assert_eq!(d.trail_len(), 0);
    }

    /// Nested windows each save their own pre-window value of the same
    /// net, and unwinding restores every level exactly.
    #[test]
    fn nested_windows_renarrow_same_net() {
        let (c, a, y) = circuit();
        let mut d = SignalStore::new(&c);
        let v = |t: i64| Signal::violation(Time::new(t));
        let m0 = d.checkpoint();
        d.narrow_to(a, v(5));
        d.narrow_to(a, v(6)); // same window: not re-trailed
        let snap1 = (d.get(a), d.get(y));
        let m1 = d.checkpoint();
        d.narrow_to(a, v(7));
        d.narrow_to(y, v(7));
        d.narrow_to(a, v(8));
        assert_eq!(d.trail_len(), 3); // a@m0, a@m1, y@m1
        d.rollback(m1);
        assert_eq!((d.get(a), d.get(y)), snap1);
        // Re-opening the same window trails the net again.
        d.narrow_to(a, v(9));
        assert_eq!(d.trail_len(), 2);
        d.rollback(m1);
        assert_eq!((d.get(a), d.get(y)), snap1);
        d.rollback(m0);
        assert_eq!(d.get(a), Signal::FULL);
        assert_eq!(d.get(y), Signal::FULL);
    }

    #[test]
    fn lattice_plane_tracks_fixed_class() {
        let (c, a, _) = circuit();
        let mut d = SignalStore::new(&c);
        assert_eq!(d.fixed_class(a), None);
        d.narrow_to(a, Signal::single_class(Level::One, Aw::FULL));
        assert_eq!(d.fixed_class(a), Some(Level::One));
        assert_eq!(d.fixed_class(a), d.get(a).fixed_class());
    }
}
