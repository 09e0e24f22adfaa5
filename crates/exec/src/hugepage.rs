//! Transparent huge-page advice for large grid buffers.
//!
//! A 160³ f64 state is 34 MB. Faulted in 4 KiB pages, every fresh copy
//! of it costs thousands of page faults; advised `MADV_HUGEPAGE` before
//! its first touch, it faults in 2 MiB pages instead. The advice is
//! best-effort: it changes how the kernel backs the range, never what it
//! holds, so a refusal (THP disabled, a non-Linux host, Miri) only costs
//! speed.

/// Buffers smaller than this are left alone: they span at most one huge
/// page and usually come from the heap, already touched.
pub(crate) const THRESHOLD_BYTES: usize = 4 << 20;

/// Huge-page size on x86-64 and 4 KiB-granule aarch64. Rounding the range
/// inward to it also keeps it aligned to every base page size.
const HUGE_PAGE: usize = 2 << 20;

/// Advise the kernel to back `len` elements starting at `ptr` with huge
/// pages. Call it on a fresh allocation, before the first write.
pub(crate) fn advise<T>(ptr: *const T, len: usize) {
    let bytes = len.saturating_mul(std::mem::size_of::<T>());
    if bytes < THRESHOLD_BYTES {
        return;
    }
    let start = (ptr as usize).next_multiple_of(HUGE_PAGE);
    let end = (ptr as usize + bytes) / HUGE_PAGE * HUGE_PAGE;
    if end > start {
        sys::madvise_hugepage(start, end - start);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
mod sys {
    use std::ffi::{c_int, c_void};

    /// `MADV_HUGEPAGE` from the asm-generic `mman-common.h`.
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub(super) fn madvise_hugepage(start: usize, len: usize) {
        // SAFETY: `MADV_HUGEPAGE` only sets a paging policy on the range;
        // it never unmaps, moves or changes its contents, so no Rust
        // reference into it can observe the call. The caller rounds the
        // range inward, so it lies inside one live allocation. A failure
        // (e.g. THP compiled out) leaves the range as it was and is ignored.
        let _ = unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod sys {
    pub(super) fn madvise_hugepage(_start: usize, _len: usize) {}
}
