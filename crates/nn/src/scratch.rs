//! The thread's training scratch: every buffer a training forward
//! leaves for its backward is leased from here, not owned.
//!
//! A lease is a guard: the layer's forward takes a buffer, the
//! [`Tape`](crate::Tape) it returns carries it, and the buffer goes
//! back to the thread's spares when the lease drops — at the end of
//! the backward that consumed the tape, at the end of an evaluation
//! forward, or wherever a tape is dropped unused. So replicas that take
//! turns on one thread (`run_virtual` steps all of its devices that
//! way) share one set of caches, and no layer parks a buffer between
//! steps.
//!
//! Each buffer type has its own list of spares, kept in the order they
//! were returned. A lease takes the most recently returned spare that
//! fits, exactly — a shape or length matches only itself, so no buffer
//! carries one batch size into another — and the caller overwrites
//! every element, so a reused buffer needs no zeroing.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

use hadfl_tensor::Tensor;

/// The most spares one thread keeps per buffer type: above the nine
/// convolutions, nine batch norms and nine ReLUs of the largest zoo
/// model, so a step's whole working set stays warm beside a few other
/// shapes. Past it the spare returned longest ago is dropped.
pub(crate) const SPARE_CAP: usize = 16;

thread_local! {
    /// Conv2d patch matrices and Dense inputs.
    static TENSORS: RefCell<Vec<Tensor>> = const { RefCell::new(Vec::new()) };
    /// BatchNorm2d normalised activations.
    static FLOATS: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Relu masks.
    static FLAGS: RefCell<Vec<Vec<bool>>> = const { RefCell::new(Vec::new()) };
    /// MaxPool2d argmax offsets.
    static INDICES: RefCell<Vec<Vec<usize>>> = const { RefCell::new(Vec::new()) };
    /// Leases that found no spare and so start from a fresh buffer.
    static MISSES: Cell<usize> = const { Cell::new(0) };
}

/// A buffer type with a spare list of its own.
pub(crate) trait Scratch: Default + 'static {
    /// The thread's spares of this type.
    fn spares() -> &'static LocalKey<RefCell<Vec<Self>>>;

    /// Whether the buffer holds nothing worth keeping.
    fn is_empty(&self) -> bool;
}

impl Scratch for Tensor {
    fn spares() -> &'static LocalKey<RefCell<Vec<Self>>> {
        &TENSORS
    }

    fn is_empty(&self) -> bool {
        Tensor::is_empty(self)
    }
}

macro_rules! vec_scratch {
    ($($elem:ty => $list:ident),*) => {$(
        impl Scratch for Vec<$elem> {
            fn spares() -> &'static LocalKey<RefCell<Vec<Self>>> {
                &$list
            }

            fn is_empty(&self) -> bool {
                Vec::is_empty(self)
            }
        }
    )*};
}

vec_scratch!(f32 => FLOATS, bool => FLAGS, usize => INDICES);

/// A buffer leased from the thread's spares; dropping it gives the
/// buffer back.
#[derive(Debug)]
pub(crate) struct Lease<T: Scratch>(T);

impl<T: Scratch> Deref for Lease<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Scratch> DerefMut for Lease<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Scratch> Drop for Lease<T> {
    fn drop(&mut self) {
        give_back(std::mem::take(&mut self.0));
    }
}

/// Leases the thread's most recently returned spare that `fits`, or,
/// when it has none (a miss), the buffer `fresh` makes.
pub(crate) fn lease<T: Scratch>(fits: impl Fn(&T) -> bool, fresh: impl FnOnce() -> T) -> Lease<T> {
    let hit =
        T::spares().with_borrow_mut(|spare| spare.iter().rposition(fits).map(|i| spare.remove(i)));
    Lease(hit.unwrap_or_else(|| {
        MISSES.set(MISSES.get() + 1);
        fresh()
    }))
}

/// Leases a vector of exactly `len` elements: a spare of that length,
/// or a fresh one of default values. The caller overwrites every
/// element.
pub(crate) fn lease_vec<E: Clone + Default>(len: usize) -> Lease<Vec<E>>
where
    Vec<E>: Scratch,
{
    lease(|v: &Vec<E>| v.len() == len, || vec![E::default(); len])
}

/// Returns a buffer to the thread's spares; past [`SPARE_CAP`] the one
/// returned longest ago is dropped. An empty buffer is not kept.
fn give_back<T: Scratch>(buf: T) {
    if buf.is_empty() {
        return;
    }
    T::spares().with_borrow_mut(|spare| {
        if spare.len() == SPARE_CAP {
            spare.remove(0);
        }
        spare.push(buf);
    });
}

/// How many leases on this thread have missed so far.
#[cfg(test)]
pub(crate) fn misses() -> usize {
    MISSES.get()
}

/// The dims of this thread's spare tensors, oldest first.
#[cfg(test)]
pub(crate) fn spare_dims() -> Vec<Vec<usize>> {
    TENSORS.with_borrow(|spare| spare.iter().map(|t| t.dims().to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spare_lens() -> Vec<usize> {
        FLOATS.with_borrow(|spare| spare.iter().map(Vec::len).collect())
    }

    #[test]
    fn a_lease_takes_the_latest_spare_of_its_length() {
        give_back(vec![1.0f32; 3]);
        give_back(vec![2.0f32; 4]);
        give_back(vec![3.0f32; 3]);
        let before = misses();
        let hit = lease_vec::<f32>(3);
        assert_eq!(*hit, [3.0; 3]);
        assert_eq!(spare_lens(), [3, 4]);
        assert_eq!(misses(), before);
        // No spare of length 5: a fresh vector, and a miss.
        assert_eq!(*lease_vec::<f32>(5), [0.0; 5]);
        assert_eq!(misses(), before + 1);
        // Each lease goes back when it drops: the miss at once, the hit
        // here.
        assert_eq!(spare_lens(), [3, 4, 5]);
        drop(hit);
        assert_eq!(spare_lens(), [3, 4, 5, 3]);
    }

    #[test]
    fn the_lists_are_per_type() {
        give_back(vec![true; 2]);
        let before = misses();
        assert_eq!(*lease_vec::<usize>(2), [0; 2]);
        assert_eq!(misses(), before + 1);
        assert_eq!(*lease_vec::<bool>(2), [true; 2]);
        assert_eq!(misses(), before + 1);
    }

    #[test]
    fn empty_buffers_are_not_kept() {
        give_back(Vec::<f32>::new());
        give_back(Tensor::default());
        assert!(spare_lens().is_empty());
        assert!(spare_dims().is_empty());
    }

    #[test]
    fn a_list_drops_the_oldest_past_its_cap() {
        for len in 1..=SPARE_CAP + 2 {
            give_back(vec![0.0f32; len]);
        }
        let want: Vec<usize> = (3..=SPARE_CAP + 2).collect();
        assert_eq!(spare_lens(), want);
    }
}
