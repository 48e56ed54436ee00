//! `read_mat` bounds its allocation before making it: a forged 65 535-row
//! header is rejected before its 524 280-byte matrix is allocated, whether
//! it claims 64 columns over a 4-bit payload or zero columns (which carry
//! no payload bits at all), because no module has more than 255 ports. This
//! is its own test binary because the counting allocator below sees every
//! allocation in the process.

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

/// `read_mat` over `bits`, with the largest allocation it made.
fn read_counted(bits: &wf_bitio::BitVec) -> (Result<wf_boolmat::BoolMat, ReadError>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let got = read_mat(&mut BitReader::new(bits));
    (got, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_forged_matrix_header_is_rejected_before_allocating() {
    for (rows, cols, bits) in [(65_535, 64, 4), (65_535, 0, 0)] {
        let (got, largest) = read_counted(&header(rows, cols, bits));
        assert_eq!(got, Err(ReadError::Malformed), "{rows} x {cols}");
        assert!(largest < 64 * 1024, "read_mat allocated {largest} bytes for {rows} x {cols}");
    }

    // Within the port bound, a payload shorter than the header claims is
    // refused before the matrix is built.
    let (got, largest) = read_counted(&header(255, 64, 4));
    assert_eq!(got, Err(ReadError::OutOfBits));
    assert!(largest < 1024, "read_mat allocated {largest} bytes for a 4-bit payload");

    // A payload that exactly fills the stream still reads.
    let exact = header(3, 5, 15);
    let m = read_mat(&mut BitReader::new(&exact)).expect("15 bits hold a 3x5 matrix");
    assert_eq!((m.rows(), m.cols(), m.count_ones()), (3, 5, 15));
}
