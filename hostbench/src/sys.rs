//! Process-level plumbing: CPU pinning and a heap-counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pin the calling thread to the first CPU of its inherited affinity mask
/// and return that CPU's index. Threads spawned afterwards inherit the
/// mask, so calling this first in `main` pins the whole process.
#[cfg(target_os = "linux")]
pub fn pin_to_first_cpu() -> Result<usize, String> {
    // glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut mask = CpuSet([0; 16]);
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
    // `size` is its exact length; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| mask.0[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer of `size` bytes
    // that the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_first_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented on Linux".into())
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
pub struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Restart the high-water mark from the bytes live now, and return them.
    pub fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }

    /// Highest live byte count since the last [`Counting::reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are statistics
// and never affect what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `alloc` contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's `realloc` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::shrank(layout.size());
            Self::grew(new_size);
        }
        p
    }
}

/// Host-speed probe: the mean round trip, in microseconds, of a
/// `Mutex`/`Condvar` ping-pong between two threads on the pinned CPU.
///
/// It runs only standard-library code, so no change to the program under
/// test moves it; it moves with the host's speed, which on a shared host
/// drifts by tens of percent over seconds to minutes.
pub fn handoff_probe_us(round_trips: u64) -> f64 {
    use std::sync::{Condvar, Mutex};
    let turn = Mutex::new(0u64);
    let cv = Condvar::new();
    let poisoned = "a probe thread panicked";
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = turn.lock().expect(poisoned);
            for i in 0..round_trips {
                t = cv.wait_while(t, |t| *t != 2 * i + 1).expect(poisoned);
                *t += 1;
                cv.notify_one();
            }
        });
        let mut t = turn.lock().expect(poisoned);
        for i in 0..round_trips {
            *t = 2 * i + 1;
            cv.notify_one();
            t = cv.wait_while(t, |t| *t != 2 * i + 2).expect(poisoned);
        }
    });
    start.elapsed().as_secs_f64() * 1e6 / round_trips as f64
}
