//! Best-effort CPU placement of the calling thread (`getcpu`,
//! `sched_getaffinity`, `sched_setaffinity`): the one-off move of a woken
//! worker off its waker's CPU (`crate::worker`, "Seat rules").
//!
//! The workspace is built offline (no `libc` crate available), so the
//! Linux syscalls are issued directly with inline assembly on the
//! architectures we run on. Everything is **best effort** by contract:
//! a missing platform, a CPU id outside the thread's affinity mask, or a
//! denied syscall simply leaves the thread where it is.

/// `cpu_set_t` is 1024 bits in the kernel ABI.
const CPU_SET_BITS: usize = 1024;
const CPU_SET_WORDS: usize = CPU_SET_BITS / 64;

type CpuSet = [u64; CPU_SET_WORDS];

/// The CPU the calling thread runs on (`getcpu`); `None` where that is
/// unknown.
pub(crate) fn current_cpu() -> Option<usize> {
    let mut cpu = 0u32;
    let ret = sys::call3(
        sys::GETCPU,
        &mut cpu as *mut u32 as usize,
        0, // node: not wanted
        0, // tcache: unused since Linux 2.6.24
    );
    (ret == 0).then_some(cpu as usize)
}

/// Move the calling thread off `cpu` and leave its affinity as it was:
/// narrow the mask to every other allowed CPU (the kernel migrates the
/// thread before the call returns), then restore the mask, which lets
/// the thread stay where it landed. `false`, and no move, when `cpu` is
/// the only CPU the thread may use or a syscall fails.
pub(crate) fn step_off_cpu(cpu: usize) -> bool {
    if cpu >= CPU_SET_BITS {
        return false;
    }
    let mut allowed = [0u64; CPU_SET_WORDS];
    if !get_affinity(&mut allowed) {
        return false;
    }
    let mut others = allowed;
    others[cpu / 64] &= !(1u64 << (cpu % 64));
    if others.iter().all(|&w| w == 0) || others == allowed {
        return false;
    }
    let moved = set_affinity(&others);
    // Restore even after a failed narrowing: the mask must end as it began.
    set_affinity(&allowed);
    moved
}

/// Confine the calling thread to `cpu` alone, as `taskset` confines a
/// process; `false` where the syscall is refused or unsupported.
#[cfg(test)]
pub(crate) fn confine_to(cpu: usize) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    set_affinity(&mask)
}

/// `sched_setaffinity(0, sizeof mask, mask)` for the calling thread.
fn set_affinity(mask: &CpuSet) -> bool {
    sys::call3(
        sys::SCHED_SETAFFINITY,
        0, // pid 0 = current thread
        CPU_SET_WORDS * 8,
        mask.as_ptr() as usize,
    ) == 0
}

/// `sched_getaffinity(0, sizeof mask, mask)` for the calling thread (the
/// raw syscall returns the bytes it wrote).
fn get_affinity(mask: &mut CpuSet) -> bool {
    sys::call3(
        sys::SCHED_GETAFFINITY,
        0,
        CPU_SET_WORDS * 8,
        mask.as_mut_ptr() as usize,
    ) > 0
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub(super) const SCHED_SETAFFINITY: usize = 203;
    pub(super) const SCHED_GETAFFINITY: usize = 204;
    pub(super) const GETCPU: usize = 309;

    /// A three-argument Linux syscall; a negative return is `-errno`.
    pub(super) fn call3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        // SAFETY: every caller passes a syscall whose pointer arguments
        // describe live buffers of the stated size (or are null where the
        // kernel allows it); the syscall touches no other memory, and the
        // registers it clobbers (rcx, r11) are declared.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    pub(super) const SCHED_SETAFFINITY: usize = 122;
    pub(super) const SCHED_GETAFFINITY: usize = 123;
    pub(super) const GETCPU: usize = 168;

    /// A three-argument Linux syscall; a negative return is `-errno`.
    pub(super) fn call3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        // SAFETY: as for the x86_64 variant, every pointer argument names a
        // live buffer of the stated size; `svc 0` clobbers only x0, which
        // is declared as the output.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                options(nostack),
            );
        }
        ret
    }
}

/// Unsupported platform: every call fails, so nothing is moved.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub(super) const SCHED_SETAFFINITY: usize = 0;
    pub(super) const SCHED_GETAFFINITY: usize = 0;
    pub(super) const GETCPU: usize = 0;

    pub(super) fn call3(_nr: usize, _a: usize, _b: usize, _c: usize) -> isize {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_core_is_refused() {
        assert!(!step_off_cpu(CPU_SET_BITS));
    }

    #[test]
    fn step_off_moves_the_thread_and_restores_its_mask() {
        // On a thread of its own: the test harness thread keeps its mask.
        std::thread::spawn(|| {
            let mut before = [0u64; CPU_SET_WORDS];
            if !get_affinity(&mut before) {
                return; // unsupported platform
            }
            let Some(cpu) = current_cpu() else { return };
            let allowed: u32 = before.iter().map(|w| w.count_ones()).sum();
            let moved = step_off_cpu(cpu);
            // A denied syscall may also refuse the move; best effort.
            assert!(allowed > 1 || !moved, "no other CPU to move to");
            if moved {
                assert_ne!(
                    current_cpu(),
                    Some(cpu),
                    "the kernel migrates before returning"
                );
            }
            let mut after = [0u64; CPU_SET_WORDS];
            assert!(get_affinity(&mut after));
            assert_eq!(before, after, "the affinity mask is restored");
            // A thread confined to one CPU has nowhere to step to.
            if confine_to(cpu) {
                assert!(!step_off_cpu(cpu));
                assert!(set_affinity(&before));
            }
        })
        .join()
        .unwrap();
    }
}
