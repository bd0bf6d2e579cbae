//! Rotating the measured iterations over the host's CPUs.
//!
//! The benchmark's host is a two-vCPU share of a machine whose other
//! tenants come and go. The speed at which a vCPU runs this code drops
//! by up to about 2x for tens of milliseconds to minutes at a time, often
//! on one vCPU while the other runs at full speed. A workload whose
//! threads span both vCPUs waits for the slow one; a single thread left to
//! the scheduler lands on either. So each iteration runs on one vCPU,
//! chosen in turn, and the fastest of a run's iterations (see
//! `peak_throughput`) comes from whichever vCPU was undisturbed at the
//! time.

/// Room for 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the benchmark may run on, from the affinity mask it started
/// with.
pub struct Cpus(Vec<usize>);

impl Cpus {
    pub fn allowed() -> Self {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus = if ok == 0 {
            (0..64 * MASK_WORDS)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus(cpus)
    }

    /// Run the calling thread, and the threads it starts from now on, on
    /// the `turn`-th allowed CPU only (cycling). Thread pools size
    /// themselves by `available_parallelism`, which follows this mask, so
    /// the workloads then run on one thread. A host that hides its
    /// affinity mask is left alone.
    pub fn pin(&self, turn: usize) {
        if self.0.is_empty() {
            return;
        }
        let cpu = self.0[turn % self.0.len()];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes from `mask`, which lives
        // across the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}
