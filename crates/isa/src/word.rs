//! Machine words and addresses.
//!
//! The extended PRAM-NUMA model is a *word-wise accessible* shared-memory
//! model; every register and memory cell holds one [`Word`]. Arithmetic is
//! two's-complement wrapping, matching what a fixed-width hardware datapath
//! would produce, so that simulator results are deterministic and the
//! property tests can compare execution models bit-for-bit.

/// A 64-bit machine word (two's-complement).
pub type Word = i64;

/// A word address into one of the memory spaces.
///
/// Addresses index *words*, not bytes: the model of the paper is word-wise
/// accessible and nothing in it requires sub-word addressing.
pub type Addr = usize;

/// Wrapping signed division with the hardware convention that division by
/// zero yields 0 (rather than trapping — the model has no trap machinery).
#[inline]
pub fn div_w(a: Word, b: Word) -> Word {
    if b == 0 {
        0
    } else {
        a.wrapping_div(b)
    }
}

/// Wrapping signed remainder; remainder by zero yields 0.
#[inline]
pub fn rem_w(a: Word, b: Word) -> Word {
    if b == 0 {
        0
    } else {
        a.wrapping_rem(b)
    }
}

/// Shift amount masked to the word width, as hardware shifters do.
#[inline]
pub fn shamt(b: Word) -> u32 {
    (b as u64 & 63) as u32
}

/// Convert a word to an address; a negative word becomes [`Addr::MAX`].
///
/// Negative addresses can only arise from buggy guest programs. No address
/// space holds `Addr::MAX`, so the out-of-range check in the memory system
/// reports the fault — the same sentinel a strided lane below 0 gets from
/// `AddrRun::saturating_at` — instead of the access aliasing word 0.
#[inline]
pub fn to_addr(w: Word) -> Addr {
    Addr::try_from(w).unwrap_or(Addr::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_by_zero_is_zero() {
        assert_eq!(div_w(42, 0), 0);
        assert_eq!(rem_w(42, 0), 0);
    }

    #[test]
    fn div_min_by_minus_one_wraps() {
        assert_eq!(div_w(Word::MIN, -1), Word::MIN);
        assert_eq!(rem_w(Word::MIN, -1), 0);
    }

    #[test]
    fn shamt_masks_to_six_bits() {
        assert_eq!(shamt(64), 0);
        assert_eq!(shamt(65), 1);
        assert_eq!(shamt(-1), 63);
    }

    #[test]
    fn to_addr_clamps_negative() {
        assert_eq!(to_addr(-5), Addr::MAX);
        assert_eq!(to_addr(Word::MIN), Addr::MAX);
        assert_eq!(to_addr(0), 0);
        assert_eq!(to_addr(7), 7);
    }
}
