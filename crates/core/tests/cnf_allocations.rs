//! Allocation gate for CNF checks: a solver hands its storage to the next
//! one on its thread, and the settle simulator that certifies a witness
//! reuses one buffer across gates, so a repeated CNF check allocates a
//! few dozen times, not once per literal, conflict and gate. A counting
//! global allocator counts each thread's allocations (a `realloc` is
//! one); the second of two identical checks may make at most
//! [`STEADY_STATE_MAX`].
//!
//! CI also runs it in release, next to the CNF goldens:
//!
//! ```text
//! cargo test -p ltt-core --release --test cnf_allocations
//! ```

use ltt_core::sat::{sat_decide, SatVerdict};
use ltt_core::Budget;
use ltt_netlist::suite::iscas85_suite;
use ltt_netlist::{Circuit, NetId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one steady-state check of s1908 may make.
const STEADY_STATE_MAX: u64 = 64;

/// The system allocator, counting every allocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator runs during thread teardown too.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches only a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`'s, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations this thread made running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// s1908 and its critical output, whose check at the exact delay, 310,
/// needs a CNF with a violating vector as its model.
fn s1908() -> (Circuit, NetId) {
    let c = iscas85_suite(10)
        .into_iter()
        .find(|e| e.name == "s1908")
        .expect("s1908 is in the suite")
        .circuit;
    let arrival = c.arrival_times();
    let s = *c
        .outputs()
        .iter()
        .max_by_key(|o| arrival[o.index()])
        .expect("s1908 has outputs");
    (c, s)
}

/// Encodes, solves and certifies the check `(s, 310)`, returning how many
/// allocations it made.
fn check(c: &Circuit, s: NetId) -> u64 {
    let (check, n) = allocations(|| sat_decide(c, s, 310, &Budget::unlimited()));
    assert!(matches!(check.verdict, SatVerdict::Violated(_)));
    n
}

#[test]
fn steady_state_cnf_check_allocates_a_few_times() {
    let (c, s) = s1908();
    let first = check(&c, s);
    let second = check(&c, s);
    assert!(
        second <= STEADY_STATE_MAX,
        "second check made {second} allocations (first {first}), over {STEADY_STATE_MAX}"
    );
}
