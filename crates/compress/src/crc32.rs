//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
//!
//! Used as the per-block integrity check in the [`crate::block`] container —
//! the same role bzip2's block CRC plays in letting `bzip2recover` decide
//! which salvaged blocks are intact.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lookup table, generated at first use.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *slot = c;
        }
        t
    })
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a new CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = table();
        for &b in data {
            self.state = (self.state >> 8) ^ t[((self.state ^ u32::from(b)) & 0xFF) as usize];
        }
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = b"zero degrees".repeat(50);
        let base = crc32(&data);
        for byte_idx in [0usize, 100, data.len() - 1] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte_idx] ^= 1 << bit;
                assert_ne!(
                    crc32(&corrupted),
                    base,
                    "flip at {byte_idx}:{bit} undetected"
                );
            }
        }
    }
}
