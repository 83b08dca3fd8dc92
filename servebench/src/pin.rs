//! Pinning a run to one core.
//!
//! A client and a server thread that ping-pong across two cores wake each
//! other with an interrupt to a core that may have gone idle. On a virtual
//! machine an idle core is a halted host thread, and how soon the host
//! runs it again depends on the host's other tenants, not on the program:
//! short requests after idle gaps then read fast or slow with the host's
//! load. On one core the partners hand the core to each other directly.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

fn affinity() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("cannot read the CPU affinity".into());
    }
    Ok(mask)
}

fn set_affinity(mask: &[u64; MASK_WORDS]) -> Result<(), String> {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc != 0 {
        return Err("cannot set the CPU affinity".into());
    }
    Ok(())
}

/// Keeps the calling thread, and every thread and process it starts while
/// the guard lives, on the lowest-numbered core it may run on. Dropping
/// the guard lets the calling thread run on its former cores again; what
/// it started meanwhile stays on the one core.
pub struct OneCore {
    before: [u64; MASK_WORDS],
}

impl OneCore {
    /// Pins the calling thread.
    ///
    /// # Errors
    ///
    /// When the affinity cannot be read or set.
    pub fn pin() -> Result<OneCore, String> {
        let before = affinity()?;
        let (word, bits) = before
            .iter()
            .enumerate()
            .find(|(_, bits)| **bits != 0)
            .ok_or("the CPU affinity mask is empty")?;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << bits.trailing_zeros();
        set_affinity(&one)?;
        Ok(OneCore { before })
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        let _ = set_affinity(&self.before);
    }
}
