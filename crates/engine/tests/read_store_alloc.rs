//! The store reader bounds what it reserves by the bits present and by an
//! absolute cap: a forged store section whose header claims 2^31 trie
//! nodes is refused with a typed error before it can reserve containers
//! for them, whether a few bytes or a megabyte follow the header.
//! This is its own test binary because the counting allocator below sees
//! every allocation in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wf_bitio::{BitReader, BitWriter};
use wf_core::Fvl;
use wf_engine::{LabelStore, SnapshotError};
use wf_model::fixtures::paper_example;
use wf_model::ProdId;
use wf_run::EdgeLabel;

/// The system allocator, summing the bytes of every request it served.
struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic sum.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` comes from the caller under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_forged_node_count_is_refused_before_reserving_for_it() {
    let ex = paper_example();
    let fvl = Fvl::new(&ex.spec).unwrap();
    let g = &ex.spec.grammar;
    let edge = EdgeLabel::Plain { k: ProdId(0), i: 0 };
    for nodes_written in [0usize, 1, 3] {
        let mut w = BitWriter::new();
        w.write_gamma((1 << 31) + 1); // 2^31 trie nodes claimed...
        for _ in 0..nodes_written {
            w.write_gamma(1); // ...each a child of the root...
            fvl.codec().write_edge(&mut w, &edge);
        }
        let forged = w.finish(); // ...but only a few bytes follow.

        let before = ALLOCATED.load(Ordering::Relaxed);
        let got = LabelStore::read_snapshot(
            &mut BitReader::new(&forged),
            fvl.codec(),
            g,
            fvl.prod_graph(),
        );
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        assert!(
            matches!(got, Err(SnapshotError::Truncated | SnapshotError::Malformed(_))),
            "{nodes_written} nodes written: {:?}",
            got.err()
        );
        assert!(
            allocated < 64 * 1024,
            "{nodes_written} nodes written: allocated {allocated} bytes"
        );
    }
}

/// Two bits per node is a loose bound once a payload is large: 1 MiB
/// behind the forged header could encode 4 × 2^20 minimal nodes. The
/// reader reserves at most 2^12 slots in its node list and per-node info,
/// grows them only as nodes decode, and sizes the duplicate-edge set after
/// the node section, so a first node that fails to decode leaves less
/// allocated than the payload that follows the header.
#[test]
fn a_forged_node_count_over_a_large_payload_reserves_at_most_the_cap() {
    let ex = paper_example();
    let fvl = Fvl::new(&ex.spec).unwrap();
    let mut w = BitWriter::new();
    w.write_gamma((1 << 31) + 1); // 2^31 trie nodes claimed...
    w.write_gamma(2); // ...the first naming a parent not yet read...
    for _ in 0..(1 << 17) {
        w.write_bits(0, 64); // ...and 1 MiB of payload behind it.
    }
    let forged = w.finish();

    let before = ALLOCATED.load(Ordering::Relaxed);
    let got = LabelStore::read_snapshot(
        &mut BitReader::new(&forged),
        fvl.codec(),
        &ex.spec.grammar,
        fvl.prod_graph(),
    );
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{:?}", got.err());
    assert!(allocated < 1 << 20, "allocated {allocated} bytes");
}
