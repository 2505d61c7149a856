//! Allocation gate for delay-only edits: a circuit's connectivity is one
//! shared structural part, so a delay-only [`Circuit::apply_edit`] copies
//! the per-gate delays and the dirty-net list, never the netlist. A
//! counting global allocator counts each thread's allocations (a
//! `realloc` is one); re-annotating one gate of s1908 may make at most
//! [`DELAY_EDIT_MAX`].
//!
//! CI also runs it in release:
//!
//! ```text
//! cargo test -p ltt-netlist --release --test edit_allocations
//! ```

use ltt_netlist::suite::iscas85_suite;
use ltt_netlist::{Circuit, CircuitEdit, DelayInterval};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one delay-only edit of s1908 may make.
const DELAY_EDIT_MAX: u64 = 8;

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

fn s1908() -> Circuit {
    iscas85_suite(10)
        .into_iter()
        .find(|e| e.name == "s1908")
        .expect("s1908 is in the suite")
        .circuit
}

#[test]
fn delay_only_edit_shares_the_netlist() {
    let c = s1908();
    let s = c.outputs()[0];
    let gate = c.net(s).driver().expect("an output is driven");
    let edit = CircuitEdit::SetDelay {
        gate,
        delay: DelayInterval::fixed(c.gate(gate).dmax() + 1),
    };
    let (out, n) = allocations(|| c.apply_edit(&[edit]).expect("a valid edit"));
    assert!(!out.structural);
    assert_eq!(out.dirty, vec![s]);
    assert_eq!(out.circuit.gate(gate).dmax(), c.gate(gate).dmax() + 1);
    assert_eq!(
        out.circuit.arrival_times()[s.index()],
        c.arrival_times()[s.index()] + 1
    );
    assert!(
        n <= DELAY_EDIT_MAX,
        "a delay-only edit of s1908 made {n} allocations (at most {DELAY_EDIT_MAX})"
    );
}
