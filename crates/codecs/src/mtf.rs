//! Move-to-front transform over the 257-symbol BWT alphabet.
//!
//! After the BWT, symbol runs cluster locally; MTF converts that local
//! clustering into a global skew towards small ranks (mostly zeros),
//! which the zero-run encoder and Huffman stage then exploit — the same
//! chain bzip2 uses. The list is the 256 byte symbols (BWT symbols
//! 1..=256) in a byte table plus the sentinel's rank, so a lookup
//! scans 8 bytes at a time and a move shifts at most 255 bytes.

/// Symbols in the BWT alphabet: the sentinel 0 plus 256 byte values.
pub const ALPHABET: usize = 257;

/// The MTF list: the byte symbols in list order, with the sentinel at
/// rank `sentinel`.
struct MtfList {
    bytes: [u8; 256],
    sentinel: usize,
}

impl MtfList {
    fn new() -> Self {
        let bytes = std::array::from_fn(|b| b as u8);
        MtfList { bytes, sentinel: 0 }
    }

    /// Table index of `b`: a zero-byte test on each 8 bytes XOR `b`.
    #[inline]
    fn find(&self, b: u8) -> usize {
        const LOW: u64 = 0x0101_0101_0101_0101;
        let splat = u64::from(b) * LOW;
        let (k, zero) = (self.bytes.chunks_exact(8))
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ splat)
            .map(|x| x.wrapping_sub(LOW) & !x & (LOW << 7))
            .enumerate()
            .find(|&(_, zero)| zero != 0)
            .expect("every byte is in the list");
        8 * k + zero.trailing_zeros() as usize / 8
    }

    /// Move the byte at table index `i`, list rank `rank`, to the front.
    #[inline]
    fn move_to_front(&mut self, i: usize, rank: usize) {
        let b = self.bytes[i];
        self.bytes.copy_within(0..i, 1);
        self.bytes[0] = b;
        self.sentinel += usize::from(self.sentinel < rank);
    }
}

/// Move-to-front encode `input`, symbols in `0..ALPHABET`.
///
/// Each output value is the current rank of the input symbol; the symbol
/// is then moved to rank 0.
pub fn mtf_encode(input: &[u16]) -> Vec<u16> {
    let mut list = MtfList::new();
    (input.iter())
        .map(|&sym| {
            if sym == 0 {
                return std::mem::take(&mut list.sentinel) as u16;
            }
            let b = u8::try_from(sym - 1).expect("symbol outside alphabet");
            if list.sentinel != 0 && list.bytes[0] == b {
                return 0;
            }
            let i = list.find(b);
            let rank = i + usize::from(list.sentinel <= i);
            list.move_to_front(i, rank);
            rank as u16
        })
        .collect()
}

/// Inverse of [`mtf_encode`]. Panics on a rank outside `0..ALPHABET`.
pub fn mtf_decode(ranks: &[u16]) -> Vec<u16> {
    let mut list = MtfList::new();
    (ranks.iter())
        .map(|&rank| {
            let rank = usize::from(rank);
            if rank == list.sentinel {
                list.sentinel = 0;
                return 0;
            }
            if rank == 0 {
                return u16::from(list.bytes[0]) + 1;
            }
            let i = rank - usize::from(list.sentinel < rank);
            let b = list.bytes[i];
            list.move_to_front(i, rank);
            u16::from(b) + 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_small_example() {
        // The identity list puts the sentinel first and symbol s at
        // rank s; the classic walk-through over the first few symbols.
        let input = [2u16, 2, 2, 4, 4, 1, 0, 0, 2];
        let ranks = mtf_encode(&input);
        assert_eq!(ranks, vec![2, 0, 0, 4, 0, 3, 3, 0, 3]);
        assert_eq!(mtf_decode(&ranks), input);
    }

    #[test]
    fn runs_become_zeros() {
        let input = vec![7u16; 100];
        let ranks = mtf_encode(&input);
        assert_eq!(ranks[0], 7);
        assert!(ranks[1..].iter().all(|&r| r == 0));
    }

    #[test]
    fn round_trips_bwt_sized_alphabet() {
        let input: Vec<u16> = (0..1000u32).map(|i| ((i * 97) % 257) as u16).collect();
        let ranks = mtf_encode(&input);
        assert!(ranks.iter().all(|&r| r < 257));
        assert_eq!(mtf_decode(&ranks), input);
    }

    #[test]
    fn empty_input() {
        assert!(mtf_encode(&[]).is_empty());
        assert!(mtf_decode(&[]).is_empty());
    }

    #[test]
    fn first_symbol_rank_equals_its_value() {
        // With the identity initial list, the first rank is the symbol.
        for sym in [0u16, 1, 100, 255, 256] {
            assert_eq!(mtf_encode(&[sym])[0], sym);
        }
    }

    #[test]
    #[should_panic(expected = "symbol outside alphabet")]
    fn encode_rejects_symbols_past_the_alphabet() {
        mtf_encode(&[257]);
    }
}
