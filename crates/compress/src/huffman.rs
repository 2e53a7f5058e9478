//! Canonical Huffman coding over the byte alphabet.
//!
//! The encoder builds optimal code lengths from symbol frequencies (heap
//! merge), converts them to canonical form, and the block container stores
//! only the 256 code lengths — the decoder rebuilds the identical codebook.
//! Code lengths are capped at 24 bits by frequency flattening,
//! keeping both the bit I/O and the table-walk decoder simple and bounded.

use crate::bitio::{BitReader, BitWriter};

/// Maximum codeword length in bits.
const MAX_CODE_LEN: u8 = 24;

/// Errors from Huffman decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffError {
    /// The declared code lengths do not form a valid prefix code.
    InvalidCodeLengths,
    /// The bitstream ended mid-codeword.
    Truncated,
    /// A codeword walked outside the canonical table.
    BadCodeword,
}

impl std::fmt::Display for HuffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffError::InvalidCodeLengths => write!(f, "invalid Huffman code lengths"),
            HuffError::Truncated => write!(f, "Huffman bitstream truncated"),
            HuffError::BadCodeword => write!(f, "invalid Huffman codeword"),
        }
    }
}

impl std::error::Error for HuffError {}

/// Compute optimal code lengths (≤ 24 bits) for the given symbol
/// frequencies. Symbols with zero frequency get length 0 (no code).
///
/// If only one symbol occurs it is assigned length 1.
pub fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let present: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Repeatedly build the tree; if it is too deep, flatten frequencies and
    // retry (bzip2 does the same).
    let mut adj: Vec<u64> = present.iter().map(|&s| freqs[s].max(1)).collect();
    loop {
        let depths = tree_depths(&adj);
        let max = depths.iter().copied().max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            for (i, &s) in present.iter().enumerate() {
                lengths[s] = depths[i];
            }
            return lengths;
        }
        for f in &mut adj {
            *f = (*f / 2).max(1);
        }
    }
}

/// Heap-based Huffman tree; returns the depth of each input symbol.
fn tree_depths(freqs: &[u64]) -> Vec<u8> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq, Eq)]
    struct Item {
        weight: u64,
        // Tie-break on creation order for determinism.
        order: u32,
        node: usize,
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.weight, self.order).cmp(&(other.weight, other.order))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = freqs.len();
    // nodes: 0..n are leaves; internal nodes appended after.
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    for (i, &f) in freqs.iter().enumerate() {
        heap.push(Reverse(Item {
            weight: f,
            order: i as u32,
            node: i,
        }));
    }
    let mut order = n as u32;
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1").0;
        let b = heap.pop().expect("len > 1").0;
        let new = parent.len();
        parent.push(usize::MAX);
        parent[a.node] = new;
        parent[b.node] = new;
        heap.push(Reverse(Item {
            weight: a.weight + b.weight,
            order,
            node: new,
        }));
        order += 1;
    }
    (0..n)
        .map(|leaf| {
            let mut d = 0u8;
            let mut node = leaf;
            while parent[node] != usize::MAX {
                node = parent[node];
                d += 1;
            }
            d
        })
        .collect()
}

/// Canonical codes from code lengths: `(code, length)` per symbol.
///
/// Returns `None` if the lengths violate Kraft's inequality or exceed
/// [`MAX_CODE_LEN`].
fn canonical_codes(lengths: &[u8; 256]) -> Option<[(u32, u8); 256]> {
    let mut kraft: u64 = 0;
    let mut count_per_len = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths.iter() {
        if l > MAX_CODE_LEN {
            return None;
        }
        if l > 0 {
            kraft += 1u64 << (MAX_CODE_LEN - l);
            count_per_len[l as usize] += 1;
        }
    }
    if kraft > 1u64 << MAX_CODE_LEN {
        return None;
    }
    // First canonical code of each length.
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
    let mut code = 0u32;
    for l in 1..=MAX_CODE_LEN as usize {
        code = (code + count_per_len[l - 1]) << 1;
        next_code[l] = code;
    }
    let mut out = [(0u32, 0u8); 256];
    for s in 0..256 {
        let l = lengths[s];
        if l > 0 {
            out[s] = (next_code[l as usize], l);
            next_code[l as usize] += 1;
        }
    }
    Some(out)
}

/// Encode `data` with the canonical code implied by `lengths` into `w`.
///
/// # Panics
/// Panics if a byte of `data` has no code (zero length) — the caller builds
/// lengths from the same data's frequencies, so this indicates a logic bug.
pub fn encode_into(data: &[u8], lengths: &[u8; 256], w: &mut BitWriter) {
    let codes = canonical_codes(lengths).expect("encoder built the lengths; they must be valid");
    for &b in data {
        let (code, len) = codes[b as usize];
        assert!(len > 0, "no code for symbol {b}");
        w.write_bits(code, len);
    }
}

/// Decoder table for canonical codes.
pub struct Decoder {
    /// For each length: (first_code, first_index, count).
    per_len: Vec<(u32, u32, u32)>,
    /// Symbols sorted canonically (by length, then symbol value).
    symbols: Vec<u8>,
}

impl Decoder {
    /// Build a decoder from code lengths.
    pub fn new(lengths: &[u8; 256]) -> Result<Self, HuffError> {
        // Validate via canonical_codes.
        canonical_codes(lengths).ok_or(HuffError::InvalidCodeLengths)?;
        let mut symbols: Vec<u8> = Vec::new();
        let mut per_len = Vec::with_capacity(MAX_CODE_LEN as usize + 1);
        let mut code = 0u32;
        let mut index = 0u32;
        for l in 1..=MAX_CODE_LEN {
            let mut count = 0u32;
            for (s, &len) in lengths.iter().enumerate() {
                if len == l {
                    symbols.push(s as u8);
                    count += 1;
                }
            }
            per_len.push((code, index, count));
            index += count;
            code = (code + count) << 1;
        }
        Ok(Decoder { per_len, symbols })
    }

    /// Decode exactly `n` symbols from `r`.
    pub fn decode(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u8>, HuffError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut code = 0u32;
            let mut matched = false;
            for (len_idx, &(first_code, first_index, count)) in self.per_len.iter().enumerate() {
                let bit = r.read_bit().ok_or(HuffError::Truncated)?;
                code = (code << 1) | u32::from(bit);
                let _ = len_idx;
                if count > 0 && code >= first_code && code < first_code + count {
                    let sym_idx = first_index + (code - first_code);
                    out.push(
                        *self
                            .symbols
                            .get(sym_idx as usize)
                            .ok_or(HuffError::BadCodeword)?,
                    );
                    matched = true;
                    break;
                }
            }
            if !matched {
                return Err(HuffError::BadCodeword);
            }
        }
        Ok(out)
    }
}

/// Convenience: one-shot encode returning `(lengths, bitstream, bit_count)`.
pub fn encode(data: &[u8]) -> ([u8; 256], Vec<u8>, u64) {
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = code_lengths(&freqs);
    let mut w = BitWriter::new();
    encode_into(data, &lengths, &mut w);
    let bits = w.bit_len();
    (lengths, w.finish(), bits)
}

/// Convenience: one-shot decode of `n` symbols.
pub fn decode(lengths: &[u8; 256], bitstream: &[u8], n: usize) -> Result<Vec<u8>, HuffError> {
    let dec = Decoder::new(lengths)?;
    let mut r = BitReader::new(bitstream);
    dec.decode(&mut r, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let (lengths, bits, _) = encode(data);
        let back = decode(&lengths, &bits, data.len()).expect("decode");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_single_symbol() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"aaaaaaaaaa");
    }

    #[test]
    fn two_symbols() {
        roundtrip(b"ababbbabbba");
    }

    #[test]
    fn text_and_binary() {
        roundtrip(b"the quick brown fox jumps over the lazy dog".as_slice());
        let all: Vec<u8> = (0..=255u8).collect();
        roundtrip(&all);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95 % zeros: entropy ≈ 0.29 bits/byte; Huffman is at least 1 bit.
        let mut data = vec![0u8; 10_000];
        for i in 0..500 {
            data[i * 20] = (i % 255) as u8 + 1;
        }
        let (lengths, bits, _) = encode(&data);
        assert!(
            bits.len() < data.len() / 4,
            "compressed to {} bytes",
            bits.len()
        );
        assert_eq!(decode(&lengths, &bits, data.len()).unwrap(), data);
    }

    #[test]
    fn optimality_vs_entropy_bound() {
        // Huffman is within 1 bit/symbol of entropy.
        let mut data = Vec::new();
        for (sym, count) in [(b'a', 500usize), (b'b', 250), (b'c', 125), (b'd', 125)] {
            data.extend(std::iter::repeat_n(sym, count));
        }
        let (_, _, bits) = encode(&data);
        // Entropy = 0.5*1 + 0.25*2 + 0.125*3*2 = 1.75 bits/sym, and these
        // dyadic frequencies make Huffman exactly optimal.
        assert_eq!(bits, (1.75 * data.len() as f64) as u64);
    }

    #[test]
    fn lengths_satisfy_kraft() {
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let lengths = code_lengths(&freqs);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
        assert!(canonical_codes(&lengths).is_some());
    }

    #[test]
    fn length_cap_respected_on_pathological_freqs() {
        // Fibonacci-like frequencies force very deep trees without the cap.
        let mut freqs = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut().take(60) {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        // And the result still round-trips.
        let mut data = Vec::new();
        for s in 0..60u8 {
            data.extend(std::iter::repeat_n(s, (s as usize % 9) + 1));
        }
        let mut w = BitWriter::new();
        let mut f2 = [0u64; 256];
        for &x in &data {
            f2[x as usize] += 1;
        }
        let lens = code_lengths(&f2);
        encode_into(&data, &lens, &mut w);
        let bytes = w.finish();
        assert_eq!(decode(&lens, &bytes, data.len()).unwrap(), data);
    }

    #[test]
    fn invalid_lengths_rejected() {
        // Over-full: three codes of length 1.
        let mut lengths = [0u8; 256];
        lengths[0] = 1;
        lengths[1] = 1;
        lengths[2] = 1;
        assert!(canonical_codes(&lengths).is_none());
        assert!(Decoder::new(&lengths).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let data = b"some reasonably long test data for truncation";
        let (lengths, bits, _) = encode(data);
        let short = &bits[..bits.len() / 2];
        assert!(matches!(
            decode(&lengths, short, data.len()),
            Err(HuffError::Truncated) | Err(HuffError::BadCodeword)
        ));
    }

    #[test]
    fn deterministic_codes() {
        let data = b"determinism matters for reproducible archives";
        let (l1, b1, _) = encode(data);
        let (l2, b2, _) = encode(data);
        assert_eq!(l1.to_vec(), l2.to_vec());
        assert_eq!(b1, b2);
    }

    #[test]
    fn random_roundtrip() {
        let mut state = 7u32;
        let data: Vec<u8> = (0..40_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 24) & 0x3F) as u8 // 64-symbol alphabet
            })
            .collect();
        roundtrip(&data);
    }
}
