//! Peak resident memory of one repetition.
//!
//! `VmHWM` in `/proc/self/status` is the process's peak resident set.
//! Writing `5` to `/proc/self/clear_refs` resets it to the current
//! resident set, so a repetition's peak is its own and not the largest
//! of everything the process ran before.
//!
//! On glibc two allocator settings make every repetition start like a
//! fresh process. `malloc_trim` hands the heap pages earlier repetitions
//! freed back to the kernel. A fixed mmap threshold at glibc's initial
//! 128 KiB stops glibc from raising the threshold after the first large
//! free, which would move later repetitions' large buffers onto the heap
//! and change their peak. All of this is Linux-only; elsewhere the reset
//! does nothing and the peak reads 0.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::os::raw::c_int;

    /// `M_MMAP_THRESHOLD` from `<malloc.h>`.
    const M_MMAP_THRESHOLD: c_int = -3;
    /// glibc's initial mmap threshold.
    const INITIAL_MMAP_THRESHOLD: c_int = 128 * 1024;

    extern "C" {
        fn malloc_trim(pad: usize) -> c_int;
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }

    pub(super) fn release_freed_memory() {
        // SAFETY: both calls take plain integers, no pointers; glibc
        // allows them at any time from any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, INITIAL_MMAP_THRESHOLD);
            malloc_trim(0);
        }
    }
}

/// Releases freed heap memory, then resets the peak resident set to the
/// current one. Returns whether the kernel accepted the reset.
pub fn reset_peak() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    glibc::release_freed_memory();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The peak resident set since the last [`reset_peak`], bytes.
pub fn peak_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

/// The current resident set, bytes.
pub fn current_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
