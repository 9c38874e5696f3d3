//! Port and stage sets as machine words: bit `k` set ⇔ `k` is a member.
//!
//! Every model in the workspace keeps its sets of ports, stages or slots
//! in one unsigned word and walks the members lowest first — the order
//! the scalar references visit them in, which pinned probe streams and
//! random draws depend on. [`bits`] is that walk, at the caller's width.

/// An unsigned word read as a set of small integers.
pub trait BitWord: Copy {
    /// The lowest member and the set without it; `None` when empty.
    fn pop_lowest(self) -> Option<(usize, Self)>;
}

macro_rules! bit_word {
    ($($t:ty),*) => {$(
        impl BitWord for $t {
            #[inline]
            fn pop_lowest(self) -> Option<(usize, Self)> {
                (self != 0).then(|| (self.trailing_zeros() as usize, self & (self - 1)))
            }
        }
    )*};
}

bit_word!(u32, u64, u128);

/// The members of `mask`, lowest first.
#[inline]
pub fn bits<W: BitWord>(mut mask: W) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let (k, rest) = mask.pop_lowest()?;
        mask = rest;
        Some(k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_lowest_first_at_every_width() {
        assert_eq!(bits(0b1010_0110u32).collect::<Vec<_>>(), [1, 2, 5, 7]);
        assert_eq!(bits(1u32 << 31 | 1).collect::<Vec<_>>(), [0, 31]);
        assert_eq!(bits(u64::MAX).count(), 64);
        assert_eq!(bits(1u128 << 127).collect::<Vec<_>>(), [127]);
        assert_eq!(bits(0u64).next(), None);
    }
}
