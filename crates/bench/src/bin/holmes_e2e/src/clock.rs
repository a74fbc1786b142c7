//! The benchmark's clock: CPU time of the whole process.
//!
//! On a shared virtual machine the hypervisor takes the vCPU away for
//! stretches of several milliseconds (25% of the time, at worst, on the
//! 2-vCPU KVM guest the bounds were set on). Wall time counts those
//! stretches; the guest's CPU-time clock does not, since the kernel
//! accounts stolen time apart. Queries run on one thread, so a query's
//! CPU time is its latency on an idle host. The process clock would also
//! count any helper thread, live or exited.

use std::os::raw::{c_int, c_long};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("holmes_e2e reads the CPU-time clock and /proc of 64-bit Linux");

/// `struct timespec` on 64-bit Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds used so far by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // libc expects on 64-bit Linux (checked by the compile_error! above),
    // and clock_gettime writes nothing outside it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > t0, "{x}");
    }
}
