//! `read_mat` bounds its allocation by the bits actually present: a forged
//! 65 535 × 64 header over a 4-bit payload is rejected before the
//! 524 280-byte matrix is allocated. This is its own test binary because
//! the counting allocator below sees every allocation in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wf_bitio::{BitReader, BitWriter, ReadError};
use wf_core::snapshot::read_mat;

/// The system allocator, recording the largest single request it served.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic max.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` comes from the caller under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

fn header(rows: u64, cols: u64, payload_bits: usize) -> wf_bitio::BitVec {
    let mut w = BitWriter::new();
    w.write_gamma(rows + 1);
    w.write_gamma(cols + 1);
    for _ in 0..payload_bits {
        w.push_bit(true);
    }
    w.finish()
}

#[test]
fn a_forged_matrix_header_is_rejected_before_allocating() {
    let forged = header(65_535, 64, 4);
    LARGEST.store(0, Ordering::Relaxed);
    let got = read_mat(&mut BitReader::new(&forged));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(got, Err(ReadError::OutOfBits));
    assert!(largest < 64 * 1024, "read_mat allocated {largest} bytes for a 4-bit payload");

    // A payload that exactly fills the stream still reads.
    let exact = header(3, 5, 15);
    let m = read_mat(&mut BitReader::new(&exact)).expect("15 bits hold a 3x5 matrix");
    assert_eq!((m.rows(), m.cols(), m.count_ones()), (3, 5, 15));
}
