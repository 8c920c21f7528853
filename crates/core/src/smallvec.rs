//! A hand-rolled inline-capacity vector for the scheduling hot paths.
//!
//! A promoted frame keeps one successor list per task (its successor
//! cell); most lists hold one or two entries, yet a `Vec` per list is
//! one heap allocation per task on the spawn/promotion path.
//! [`InlineVec`] stores up to `N` elements inline and only spills to the
//! heap beyond that — the common case allocates nothing. Restricted to
//! `Copy` elements, which keeps the implementation free of drop
//! bookkeeping (the only user stores task pointers).

use std::mem::MaybeUninit;

/// A vector of `Copy` elements with inline capacity `N`: no heap
/// allocation until the length exceeds `N`, contiguous-slice access in
/// both representations.
pub(crate) struct InlineVec<T: Copy, const N: usize> {
    /// Total length; elements live inline while `spill` is empty.
    len: usize,
    inline: [MaybeUninit<T>; N],
    /// Heap storage once the inline capacity overflows; when non-empty it
    /// holds *all* elements (the inline prefix was copied over).
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    pub(crate) const fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [MaybeUninit::uninit(); N],
            spill: Vec::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if !self.spill.is_empty() {
            self.spill.push(v);
        } else if self.len < N {
            self.inline[self.len].write(v);
        } else {
            // First overflow: move the inline prefix to the heap.
            // Safety: `len == N` here, so all N inline slots are initialised.
            let prefix = unsafe { std::slice::from_raw_parts(self.inline.as_ptr() as *const T, N) };
            self.spill.reserve(N + 1);
            self.spill.extend_from_slice(prefix);
            self.spill.push(v);
        }
        self.len += 1;
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            self.inline_slice()
        } else {
            &self.spill
        }
    }

    /// Drop all elements, keeping any spill capacity for reuse.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    #[inline]
    fn inline_slice(&self) -> &[T] {
        debug_assert!(self.spill.is_empty() || self.len > N);
        let n = self.len.min(N);
        // Safety: `inline[..n]` was initialised by `push` (spill empty means
        // all `len <= N` elements are inline).
        unsafe { std::slice::from_raw_parts(self.inline.as_ptr() as *const T, n) }
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill() {
        let mut v: InlineVec<usize, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4); // overflow: moves to the heap
        v.push(5);
        assert_eq!(v.len(), 6);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u32]);
        v.push(7);
        assert_eq!(v.as_slice(), &[7]);
    }

    #[test]
    fn take_leaves_empty() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
        let taken = std::mem::take(&mut v);
        assert_eq!(taken.as_slice(), &[1, 2, 3]);
        assert!(v.is_empty());
    }

    #[test]
    fn zero_capacity_goes_straight_to_heap() {
        let mut v: InlineVec<u64, 0> = InlineVec::new();
        v.push(9);
        assert_eq!(v.as_slice(), &[9]);
    }
}
