//! API-compatible subset of `parking_lot`, implemented over `std::sync`.
//!
//! The build environment is fully offline (no crates.io access), so the
//! workspace vendors exactly the surface it uses: [`Mutex`] with
//! parking_lot's non-poisoning `lock()`, [`Condvar::wait`] taking
//! `&mut MutexGuard`, and [`RwLock`]. Poison errors are swallowed the way
//! parking_lot's no-poison design implies: the guard is recovered and the
//! data stays accessible.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// The std guard sits in an `Option` so [`Condvar::wait`] can hand it to
/// std's `wait`, which consumes it, and store the one it returns. It is
/// `None` only while that call runs, and stays `None` if it unwinds.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("a guard is held outside `Condvar::wait`")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect("a guard is held outside `Condvar::wait`")
    }
}

#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks until notified. std's `wait` consumes the guard and returns a
    /// new one; parking_lot mutates in place, so the inner guard is taken
    /// out and the returned one put back. A poisoned mutex is recovered;
    /// a panic inside std's `wait` leaves the slot empty, so the guard is
    /// dropped once, by std.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("a guard is held outside `Condvar::wait`");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }
}

pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(3);
        *m.lock() += 4;
        assert_eq!(*m.lock(), 7);
        assert_eq!(m.into_inner(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    /// A holder that panics poisons the std mutex. The data stays
    /// readable, and a waiter on it still wakes and reads what the last
    /// holder wrote.
    #[test]
    fn poisoned_mutex_still_wakes_a_waiter() {
        let pair = Arc::new((Mutex::new(0), Condvar::new()));
        let p = Arc::clone(&pair);
        let holder = std::thread::spawn(move || {
            *p.0.lock() = 1;
            let _g = p.0.lock();
            panic!("the holder panics with the lock held");
        });
        assert!(holder.join().is_err());
        let p = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p;
            let mut g = m.lock();
            assert_eq!(*g, 1, "the panicking holder's write");
            *g = 10;
            while *g == 10 {
                cv.wait(&mut g);
            }
            *g
        });
        // 10 under the lock means the waiter is inside `wait`.
        let (m, cv) = &*pair;
        loop {
            let mut g = m.lock();
            if *g == 10 {
                *g = 2;
                cv.notify_all();
                break;
            }
            drop(g);
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().unwrap(), 2);
    }

    #[test]
    fn rwlock_shared_then_exclusive() {
        let l = RwLock::new(vec![1, 2]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
