//! The rsync algorithm: signatures, deltas, patching.
//!
//! §3.5: "new files are transferred by the rsync program". rsync's trick is
//! the two-level checksum: the receiver sends per-block signatures (a cheap
//! *rolling* weak checksum plus a strong hash); the sender slides a window
//! over the new file, matching weak sums first and confirming with the
//! strong hash, emitting `Copy` references for matched blocks and literal
//! bytes for everything else. We implement the real thing — weak checksum
//! in the Adler-32 style rsync uses, MD5 (from `frostlab-compress`) as the
//! strong hash.
//!
//! [`signature`], [`delta`], [`apply`] and [`sync`] are the stock
//! algorithm over two whole files. Campaigns do not run it: their logs are
//! stamped and append-only, so what a round ships follows from two lengths
//! ([`crate::collector::log_delta`]). This module is the reference the
//! tests hold that closed form to.

use std::collections::HashMap;

use frostlab_compress::md5::md5;

/// The rolling weak checksum (rsync's a/b split, mod 2¹⁶).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rolling {
    a: u32,
    b: u32,
    len: usize,
}

impl Rolling {
    /// Compute over an initial window.
    pub fn new(window: &[u8]) -> Self {
        let mut a = 0u32;
        let mut b = 0u32;
        let n = window.len() as u32;
        for (i, &x) in window.iter().enumerate() {
            a = (a + u32::from(x)) & 0xFFFF;
            b = (b + (n - i as u32) * u32::from(x)) & 0xFFFF;
        }
        Rolling {
            a,
            b,
            len: window.len(),
        }
    }

    /// Slide the window one byte: drop `out`, take in `inn`.
    pub fn roll(&mut self, out: u8, inn: u8) {
        let n = self.len as u32;
        self.a = (self
            .a
            .wrapping_sub(u32::from(out))
            .wrapping_add(u32::from(inn)))
            & 0xFFFF;
        self.b = (self.b.wrapping_sub(n * u32::from(out)).wrapping_add(self.a)) & 0xFFFF;
    }

    /// The 32-bit digest.
    pub fn digest(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// Per-block signature of the receiver's current copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Block size used.
    pub block_size: usize,
    /// `(weak, strong)` per block, in order.
    pub blocks: Vec<(u32, [u8; 16])>,
    /// Total length of the signed data.
    pub total_len: usize,
}

/// Compute the signature of `data` with the given block size.
///
/// # Panics
/// Panics if `block_size == 0`.
pub fn signature(data: &[u8], block_size: usize) -> Signature {
    assert!(block_size > 0, "block size must be positive");
    let blocks = data
        .chunks(block_size)
        .map(|c| (Rolling::new(c).digest(), md5(c)))
        .collect();
    Signature {
        block_size,
        blocks,
        total_len: data.len(),
    }
}

/// One instruction in a delta.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Copy block `index` of the old file.
    Copy {
        /// Index into the signature's block list.
        index: u32,
    },
    /// Insert literal bytes.
    Literal(Vec<u8>),
}

/// A delta transforming the signed old file into the new file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Delta {
    /// The instructions, in output order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Bytes of literal data carried (what actually crosses the wire,
    /// besides tiny copy tokens).
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(v) => v.len(),
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Number of copy instructions.
    pub fn copy_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, DeltaOp::Copy { .. }))
            .count()
    }
}

/// Weak checksum → candidate block indices (collisions kept in a list).
/// Only full blocks are matchable by the rolling window; the final short
/// block (if any) is matched separately at the tail.
fn weak_index(sig: &Signature) -> HashMap<u32, Vec<u32>> {
    let bs = sig.block_size;
    let mut index: HashMap<u32, Vec<u32>> = HashMap::new();
    for (i, (weak, _)) in sig.blocks.iter().enumerate() {
        if (i + 1) * bs <= sig.total_len {
            index.entry(*weak).or_default().push(i as u32);
        }
    }
    index
}

/// Compute the delta producing `new_data` given the receiver's `sig`.
///
/// The sender slides a block-sized window over `new_data`. Where the
/// window's weak digest names a full block and MD5 confirms it, it emits a
/// copy and jumps a block; elsewhere it rolls one byte on, and the bytes
/// it passes become literals. The final short block, if the old file has
/// one, is matched separately at the tail.
pub fn delta(sig: &Signature, new_data: &[u8]) -> Delta {
    let bs = sig.block_size;
    let index = weak_index(sig);
    let mut ops = Vec::new();
    let flush = |ops: &mut Vec<DeltaOp>, from: usize, to: usize| {
        if from < to {
            ops.push(DeltaOp::Literal(new_data[from..to].to_vec()));
        }
    };
    // With no full block to find, the window jumps straight to the tail.
    let mut pos = if index.is_empty() {
        (new_data.len() + 1).saturating_sub(bs)
    } else {
        0
    };
    let mut literal_from = 0;
    let mut roll: Option<Rolling> = None;
    while pos + bs <= new_data.len() {
        let window = &new_data[pos..pos + bs];
        let r = roll.get_or_insert_with(|| Rolling::new(window));
        let found = index.get(&r.digest()).and_then(|candidates| {
            let strong = md5(window);
            candidates
                .iter()
                .find(|&&i| sig.blocks[i as usize].1 == strong)
                .copied()
        });
        if let Some(index) = found {
            flush(&mut ops, literal_from, pos);
            ops.push(DeltaOp::Copy { index });
            pos += bs;
            literal_from = pos;
            roll = None;
        } else {
            pos += 1;
            if pos + bs <= new_data.len() {
                r.roll(new_data[pos - 1], new_data[pos + bs - 1]);
            }
        }
    }
    // Tail: try to match the final short block, else literal.
    let short_tail = sig.total_len % bs;
    let tail = &new_data[pos..];
    let last = sig.blocks.len().wrapping_sub(1);
    if short_tail != 0 && tail.len() == short_tail && sig.blocks[last].1 == md5(tail) {
        flush(&mut ops, literal_from, pos);
        ops.push(DeltaOp::Copy { index: last as u32 });
        literal_from = new_data.len();
    }
    flush(&mut ops, literal_from, new_data.len());
    Delta { ops }
}

/// Errors from [`apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A copy op referenced a block the old file does not have.
    BadBlockIndex,
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta references a nonexistent block")
    }
}

impl std::error::Error for ApplyError {}

/// Apply a delta to the old data, producing the new file.
pub fn apply(old_data: &[u8], block_size: usize, d: &Delta) -> Result<Vec<u8>, ApplyError> {
    let mut out = Vec::new();
    for op in &d.ops {
        match op {
            DeltaOp::Copy { index } => {
                let start = *index as usize * block_size;
                if start >= old_data.len() {
                    return Err(ApplyError::BadBlockIndex);
                }
                let end = (start + block_size).min(old_data.len());
                out.extend_from_slice(&old_data[start..end]);
            }
            DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

/// Convenience: one-shot sync. Returns `(new_copy, delta)` so callers can
/// account transferred bytes.
pub fn sync(old_data: &[u8], new_data: &[u8], block_size: usize) -> (Vec<u8>, Delta) {
    let sig = signature(old_data, block_size);
    let d = delta(&sig, new_data);
    // A delta built against this very signature can only reference blocks
    // the old file has, so `apply` is total here; the fallback keeps the
    // result correct regardless (the rebuilt file IS the new file).
    let rebuilt = apply(old_data, block_size, &d).unwrap_or_else(|_| new_data.to_vec());
    debug_assert_eq!(rebuilt, new_data);
    (rebuilt, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_fresh_computation() {
        let data: Vec<u8> = (0..200u8).collect();
        let w = 16;
        let mut r = Rolling::new(&data[0..w]);
        for pos in 1..(data.len() - w) {
            r.roll(data[pos - 1], data[pos + w - 1]);
            let fresh = Rolling::new(&data[pos..pos + w]);
            assert_eq!(r.digest(), fresh.digest(), "at pos {pos}");
        }
    }

    #[test]
    fn identical_files_are_all_copies() {
        let data = b"the monitoring host recovers all calculated md5sums".repeat(20);
        let (rebuilt, d) = sync(&data, &data, 64);
        assert_eq!(rebuilt, data);
        assert_eq!(
            d.literal_bytes(),
            0,
            "identical file must ship zero literals"
        );
        assert_eq!(d.copy_count(), data.len().div_ceil(64));
    }

    #[test]
    fn appended_log_ships_only_the_tail() {
        // The collector's common case: a log file that grew.
        let old = b"line-one\nline-two\nline-three\n".repeat(40);
        let mut new = old.clone();
        new.extend_from_slice(b"line-new 2010-03-07 04:40 host15 wrong-hash\n");
        let (rebuilt, d) = sync(&old, &new, 64);
        assert_eq!(rebuilt, new);
        assert!(
            d.literal_bytes() < 64 + 64,
            "append case should ship ≲ 2 blocks of literals, got {}",
            d.literal_bytes()
        );
    }

    #[test]
    fn middle_edit_localized() {
        let old: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        new[2000] ^= 0xFF;
        let (rebuilt, d) = sync(&old, &new, 128);
        assert_eq!(rebuilt, new);
        assert!(
            d.literal_bytes() <= 256,
            "single-byte edit should cost ≈ one block: {}",
            d.literal_bytes()
        );
    }

    #[test]
    fn completely_different_files() {
        let old = vec![0xAAu8; 2000];
        let new: Vec<u8> = (0..2000u32).map(|i| (i * 17 % 256) as u8).collect();
        let (rebuilt, d) = sync(&old, &new, 128);
        assert_eq!(rebuilt, new);
        assert_eq!(d.literal_bytes(), 2000);
        assert_eq!(d.copy_count(), 0);
    }

    #[test]
    fn empty_edge_cases() {
        let (r1, _) = sync(b"", b"", 64);
        assert!(r1.is_empty());
        let (r2, d2) = sync(b"", b"fresh content", 64);
        assert_eq!(r2, b"fresh content");
        assert_eq!(d2.literal_bytes(), 13);
        let (r3, _) = sync(b"old content", b"", 64);
        assert!(r3.is_empty());
    }

    #[test]
    fn short_tail_block_matched() {
        // Old file not a multiple of block size; unchanged tail reused.
        let old = b"0123456789".repeat(13); // 130 bytes, bs 64 → tail 2
        let new = old.clone();
        let (rebuilt, d) = sync(&old, &new, 64);
        assert_eq!(rebuilt, new);
        assert_eq!(d.literal_bytes(), 0);
    }

    #[test]
    fn prepended_content() {
        let old = b"BBBBCCCCDDDD".repeat(32);
        let mut new = b"AAAA-prefix-".to_vec();
        new.extend_from_slice(&old);
        let (rebuilt, d) = sync(&old, &new, 48);
        assert_eq!(rebuilt, new);
        // Rolling matching must re-anchor after the prefix.
        assert!(
            d.literal_bytes() < 48 + 16,
            "prefix insert should stay local: {}",
            d.literal_bytes()
        );
    }

    #[test]
    fn bad_delta_rejected() {
        let d = Delta {
            ops: vec![DeltaOp::Copy { index: 99 }],
        };
        assert_eq!(apply(b"short", 64, &d), Err(ApplyError::BadBlockIndex));
    }

    #[test]
    fn weak_collision_resolved_by_strong_hash() {
        // Construct two different blocks with the same weak checksum:
        // swapping two equal-sum byte pairs preserves `a`; craft data where
        // the rolling sum collides but content differs.
        let a_block = [1u8, 3, 2, 0];
        let b_block = [3u8, 1, 0, 2]; // same multiset sums differently in b-term
                                      // Even if weak sums collide or not, correctness must hold:
        let old: Vec<u8> = a_block.repeat(8);
        let new: Vec<u8> = b_block.repeat(8);
        let (rebuilt, _) = sync(&old, &new, 4);
        assert_eq!(rebuilt, new);
    }
}
