//! The allocation budget of the token vocabulary.
//!
//! [`TokenInterner`] keeps every name in three flat buffers, so interning
//! a stream of distinct names allocates only when a buffer doubles, and a
//! clone (what `MutableGraph` pays when an update brings a new token) is
//! three copies. A map of owned `String`s allocates twice per name for
//! both. Counting allocations pins that gain without a clock.
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! delta.

use csag_graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag_graph::TokenInterner;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn interning_and_cloning_allocate_per_buffer_not_per_name() {
    assert!(
        counting_enabled(),
        "this binary must be counting allocations"
    );
    const NAMES: usize = 10_000;
    // Built before the counted windows: only the interner is measured.
    let names: Vec<String> = (0..NAMES).map(|i| format!("community-{i}-token")).collect();

    let before = allocation_count();
    let mut interner = TokenInterner::new();
    for (id, name) in names.iter().enumerate() {
        assert_eq!(interner.intern(name), id as u32);
    }
    let interning = allocation_count() - before;

    let before = allocation_count();
    for (id, name) in names.iter().enumerate() {
        assert_eq!(interner.intern(name), id as u32, "a repeat is a lookup");
        assert_eq!(interner.get(name), Some(id as u32));
    }
    let repeats = allocation_count() - before;

    let before = allocation_count();
    let copy = interner.clone();
    let cloning = allocation_count() - before;

    assert_eq!(copy.len(), NAMES);
    assert_eq!(copy.name(NAMES as u32 - 1), Some(names[NAMES - 1].as_str()));
    // Measured: 40 (three buffers doubling) and 3. Two owned `String`s a
    // name allocate at least 20 000 times for each.
    assert!(
        interning <= 64,
        "interning {NAMES} distinct names allocated {interning} times"
    );
    assert_eq!(repeats, 0, "looking up {NAMES} known names allocated");
    assert!(
        cloning <= 4,
        "cloning {NAMES} names allocated {cloning} times"
    );
}
