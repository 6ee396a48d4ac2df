//! Synchronization primitives: named critical sections.

use std::collections::HashMap;

use parking_lot::{Mutex, MutexGuard};

/// Named critical sections: `!$OMP CRITICAL (name)` maps every use of the
/// same name, program-wide, to one lock — exactly OpenMP's semantics
/// (unnamed criticals share the one anonymous lock).
#[derive(Debug, Default)]
pub struct CriticalRegistry {
    locks: Mutex<HashMap<String, &'static Mutex<()>>>,
}

impl CriticalRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters the critical section `name` (empty string = the anonymous
    /// section). The guard releases on drop.
    pub fn enter(&self, name: &str) -> MutexGuard<'static, ()> {
        let lock: &'static Mutex<()> = {
            let mut map = self.locks.lock();
            match map.get(name) {
                Some(l) => l,
                None => {
                    let l: &'static Mutex<()> = Box::leak(Box::new(Mutex::new(())));
                    map.insert(name.to_string(), l);
                    l
                }
            }
        };
        lock.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn critical_sections_exclude() {
        let pool = ThreadPool::new(4);
        let reg = CriticalRegistry::new();
        // A non-atomic counter mutated only inside the critical section.
        let counter = std::cell::UnsafeCell::new(0u64);
        struct Wrap(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Wrap {}
        let w = Wrap(counter);
        let wr = &w; // capture the Sync wrapper, not the raw field
        pool.run(|_tid| {
            for _ in 0..500 {
                let _g = reg.enter("upd");
                // SAFETY: serialized by the critical section.
                unsafe { *wr.0.get() += 1 };
            }
        })
        .unwrap();
        let _g = reg.enter("upd");
        assert_eq!(unsafe { *w.0.get() }, 2000);
    }

    #[test]
    fn distinct_names_distinct_locks() {
        let reg = CriticalRegistry::new();
        let g1 = reg.enter("a");
        // Entering a *different* name must not deadlock.
        let g2 = reg.enter("b");
        drop(g1);
        drop(g2);
    }
}
