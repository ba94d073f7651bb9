//! Memory probes for the telemetry hub and the timeline's counter
//! tracks: the process's resident set size ([`rss_mb`], always on where
//! `/proc` exists) and optional allocation telemetry — a counting
//! [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper around the system
//! allocator, compiled in only under the `alloc-telemetry` feature.
//!
//! The wrapper adds two relaxed atomic updates per allocation and
//! deallocation — cheap, but not free, so the default build keeps the
//! plain system allocator (and the crate-wide `forbid(unsafe_code)`).
//! With the feature on, [`live_mb`]/[`peak_mb`]/[`allocations`] feed
//! heap gauges into the telemetry hub and the timeline profiler's
//! counter tracks (`ftagg-cli timeline`).
//!
//! ```text
//! cargo run -p ftagg-cli --features alloc-telemetry -- timeline ...
//! ```
//!
//! Without the feature every heap probe returns `None` and callers skip
//! the gauges behind one branch.

#[cfg(feature = "alloc-telemetry")]
mod counting {
    #![allow(unsafe_code)]
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    pub static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
    pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator with relaxed byte/call counters bolted on.
    /// Counter maintenance allocates nothing, so the wrapper cannot
    /// recurse into itself.
    pub struct CountingAlloc;

    impl CountingAlloc {
        #[inline]
        fn on_alloc(size: usize) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }

        #[inline]
        fn on_dealloc(size: usize) {
            LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
        }
    }

    // SAFETY: delegates every contract-bearing operation verbatim to
    // `System`; the counters are side metadata that never touch the
    // returned pointers or layouts.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                Self::on_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                Self::on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            Self::on_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                Self::on_dealloc(layout.size());
                Self::on_alloc(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Resident set size of this process in MB (`VmRSS` in
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Live heap in MB, or `None` when built without `alloc-telemetry`.
pub fn live_mb() -> Option<f64> {
    #[cfg(feature = "alloc-telemetry")]
    {
        use std::sync::atomic::Ordering;
        Some(counting::LIVE_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0))
    }
    #[cfg(not(feature = "alloc-telemetry"))]
    {
        None
    }
}

/// Peak live heap in MB since process start, or `None` when built
/// without `alloc-telemetry`.
pub fn peak_mb() -> Option<f64> {
    #[cfg(feature = "alloc-telemetry")]
    {
        use std::sync::atomic::Ordering;
        Some(counting::PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0))
    }
    #[cfg(not(feature = "alloc-telemetry"))]
    {
        None
    }
}

/// Total allocation calls since process start, or `None` when built
/// without `alloc-telemetry`.
pub fn allocations() -> Option<u64> {
    #[cfg(feature = "alloc-telemetry")]
    {
        use std::sync::atomic::Ordering;
        Some(counting::ALLOCATIONS.load(Ordering::Relaxed))
    }
    #[cfg(not(feature = "alloc-telemetry"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn probes_agree_with_the_feature_flag() {
        let probes = (
            super::live_mb().is_some(),
            super::peak_mb().is_some(),
            super::allocations().is_some(),
        );
        if cfg!(feature = "alloc-telemetry") {
            assert_eq!(probes, (true, true, true));
            // Allocating must move the meters.
            let before = super::allocations().unwrap();
            let v: Vec<u64> = Vec::with_capacity(1 << 16);
            drop(v);
            assert!(super::allocations().unwrap() > before);
            assert!(super::peak_mb().unwrap() >= super::live_mb().unwrap());
        } else {
            assert_eq!(probes, (false, false, false));
        }
        if cfg!(target_os = "linux") {
            assert!(super::rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
