//! MD5 message digest, RFC 1321.
//!
//! MD5 is cryptographically broken, but that is irrelevant here: the paper
//! uses `md5sum` purely as an integrity witness for the packed tarball —
//! compare against a golden value computed at install time, store the
//! archive if they differ. We implement it from the RFC so the workload's
//! verification step is the real computation the hosts performed.

/// Streaming MD5 state.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Md5 {
    /// Start a new digest.
    pub fn new() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Feed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                process(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            process(&mut self.state, block.try_into().expect("a 64-byte chunk"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, then the bit length. When
        // the 0x80 leaves no room for the length, the zeros fill this block
        // and the next.
        let block = &mut self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            process(&mut self.state, block);
            block.fill(0);
        }
        block[56..].copy_from_slice(&bit_len.to_le_bytes());
        process(&mut self.state, block);
        let mut out = [0u8; 16];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Finish and return the digest as a lowercase hex string, as `md5sum`
    /// prints it.
    pub fn finalize_hex(self) -> String {
        to_hex(&self.finalize())
    }
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

/// Fold one 64-byte block into the state: the RFC's four rounds of
/// sixteen steps, unrolled with each step's shift, message word and
/// constant spelled out.
fn process(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // One step: a = b + ((a + f(b, c, d) + m[g] + k) <<< s). The sum
    // adds f last, so the other terms need not wait on the previous step.
    macro_rules! step {
        ($f:expr, $a:ident, $b:ident, $c:ident, $d:ident, $g:expr, $k:expr, $s:expr) => {
            $a = $b.wrapping_add(
                $a.wrapping_add($k)
                    .wrapping_add(m[$g])
                    .wrapping_add($f($b, $c, $d))
                    .rotate_left($s),
            );
        };
    }
    // The round functions, written so the fewest operations wait on x.
    let f = |x: u32, y: u32, z: u32| ((y ^ z) & x) ^ z;
    let g = |x: u32, y: u32, z: u32| (x & z) | (y & !z);
    let h = |x: u32, y: u32, z: u32| x ^ (y ^ z);
    let i = |x: u32, y: u32, z: u32| y ^ (x | !z);

    step!(f, a, b, c, d, 0, 0xd76aa478, 7);
    step!(f, d, a, b, c, 1, 0xe8c7b756, 12);
    step!(f, c, d, a, b, 2, 0x242070db, 17);
    step!(f, b, c, d, a, 3, 0xc1bdceee, 22);
    step!(f, a, b, c, d, 4, 0xf57c0faf, 7);
    step!(f, d, a, b, c, 5, 0x4787c62a, 12);
    step!(f, c, d, a, b, 6, 0xa8304613, 17);
    step!(f, b, c, d, a, 7, 0xfd469501, 22);
    step!(f, a, b, c, d, 8, 0x698098d8, 7);
    step!(f, d, a, b, c, 9, 0x8b44f7af, 12);
    step!(f, c, d, a, b, 10, 0xffff5bb1, 17);
    step!(f, b, c, d, a, 11, 0x895cd7be, 22);
    step!(f, a, b, c, d, 12, 0x6b901122, 7);
    step!(f, d, a, b, c, 13, 0xfd987193, 12);
    step!(f, c, d, a, b, 14, 0xa679438e, 17);
    step!(f, b, c, d, a, 15, 0x49b40821, 22);

    step!(g, a, b, c, d, 1, 0xf61e2562, 5);
    step!(g, d, a, b, c, 6, 0xc040b340, 9);
    step!(g, c, d, a, b, 11, 0x265e5a51, 14);
    step!(g, b, c, d, a, 0, 0xe9b6c7aa, 20);
    step!(g, a, b, c, d, 5, 0xd62f105d, 5);
    step!(g, d, a, b, c, 10, 0x02441453, 9);
    step!(g, c, d, a, b, 15, 0xd8a1e681, 14);
    step!(g, b, c, d, a, 4, 0xe7d3fbc8, 20);
    step!(g, a, b, c, d, 9, 0x21e1cde6, 5);
    step!(g, d, a, b, c, 14, 0xc33707d6, 9);
    step!(g, c, d, a, b, 3, 0xf4d50d87, 14);
    step!(g, b, c, d, a, 8, 0x455a14ed, 20);
    step!(g, a, b, c, d, 13, 0xa9e3e905, 5);
    step!(g, d, a, b, c, 2, 0xfcefa3f8, 9);
    step!(g, c, d, a, b, 7, 0x676f02d9, 14);
    step!(g, b, c, d, a, 12, 0x8d2a4c8a, 20);

    step!(h, a, b, c, d, 5, 0xfffa3942, 4);
    step!(h, d, a, b, c, 8, 0x8771f681, 11);
    step!(h, c, d, a, b, 11, 0x6d9d6122, 16);
    step!(h, b, c, d, a, 14, 0xfde5380c, 23);
    step!(h, a, b, c, d, 1, 0xa4beea44, 4);
    step!(h, d, a, b, c, 4, 0x4bdecfa9, 11);
    step!(h, c, d, a, b, 7, 0xf6bb4b60, 16);
    step!(h, b, c, d, a, 10, 0xbebfbc70, 23);
    step!(h, a, b, c, d, 13, 0x289b7ec6, 4);
    step!(h, d, a, b, c, 0, 0xeaa127fa, 11);
    step!(h, c, d, a, b, 3, 0xd4ef3085, 16);
    step!(h, b, c, d, a, 6, 0x04881d05, 23);
    step!(h, a, b, c, d, 9, 0xd9d4d039, 4);
    step!(h, d, a, b, c, 12, 0xe6db99e5, 11);
    step!(h, c, d, a, b, 15, 0x1fa27cf8, 16);
    step!(h, b, c, d, a, 2, 0xc4ac5665, 23);

    step!(i, a, b, c, d, 0, 0xf4292244, 6);
    step!(i, d, a, b, c, 7, 0x432aff97, 10);
    step!(i, c, d, a, b, 14, 0xab9423a7, 15);
    step!(i, b, c, d, a, 5, 0xfc93a039, 21);
    step!(i, a, b, c, d, 12, 0x655b59c3, 6);
    step!(i, d, a, b, c, 3, 0x8f0ccc92, 10);
    step!(i, c, d, a, b, 10, 0xffeff47d, 15);
    step!(i, b, c, d, a, 1, 0x85845dd1, 21);
    step!(i, a, b, c, d, 8, 0x6fa87e4f, 6);
    step!(i, d, a, b, c, 15, 0xfe2ce6e0, 10);
    step!(i, c, d, a, b, 6, 0xa3014314, 15);
    step!(i, b, c, d, a, 13, 0x4e0811a1, 21);
    step!(i, a, b, c, d, 4, 0xf7537e82, 6);
    step!(i, d, a, b, c, 11, 0xbd3af235, 10);
    step!(i, c, d, a, b, 2, 0x2ad7d2bb, 15);
    step!(i, b, c, d, a, 9, 0xeb86d391, 21);

    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot digest.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest as a lowercase hex string.
pub fn md5_hex(data: &[u8]) -> String {
    to_hex(&md5(data))
}

fn to_hex(digest: &[u8; 16]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(32);
    for &b in digest {
        s.push(char::from(HEX[usize::from(b >> 4)]));
        s.push(char::from(HEX[usize::from(b & 0xf)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_1321_test_suite() {
        // The complete test suite from RFC 1321 appendix A.5.
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(
                md5_hex(input),
                want,
                "input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn to_hex_spells_every_byte_value() {
        for chunk in (0..=255u8).collect::<Vec<_>>().chunks(16) {
            let digest: [u8; 16] = chunk.try_into().expect("256 splits into 16-byte chunks");
            let want: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(to_hex(&digest), want);
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0u32..100_000).map(|i| (i * 31 % 251) as u8).collect();
        for chunk_size in [1usize, 7, 63, 64, 65, 1000] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), md5(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn length_boundary_cases() {
        // Padding boundaries: 55, 56, 57, 63, 64, 65 bytes.
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![b'x'; n];
            let digest = md5(&data);
            // Compare against a second, chunked computation.
            let mut h = Md5::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), digest, "length {n}");
        }
    }

    /// `n` bytes of a fixed pattern: `(31·i + 7) mod 251`.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((31 * i + 7) % 251) as u8).collect()
    }

    #[test]
    fn padding_boundary_digests() {
        // Python's hashlib.md5 over the same pattern bytes.
        let cases = [
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (55, "d39f7454bbe034082797e66c125a31ad"),
            (56, "8e9dbcce67719f0304ad52c59ff3d743"),
            (63, "19a31d9b1afbd6867266fd6cf4c8821f"),
            (64, "8d9cfa334d4e690843fa68e59c798b84"),
            (65, "72d8b171f7f46898ee558ad1a86fb907"),
            (119, "ae6c390e7155118a1660c98861bc0d69"),
            (120, "b4a4ce125f8932c19665e554892473c4"),
            (128, "8ce39ed43121181a0846c282c5ce287a"),
        ];
        for (n, want) in cases {
            assert_eq!(md5_hex(&pattern(n)), want, "length {n}");
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_every_length_and_chunk_size() {
        let data = pattern(200);
        for n in 0..=200 {
            let want = md5(&data[..n]);
            for chunk_size in 1..=65 {
                let mut h = Md5::new();
                for chunk in data[..n].chunks(chunk_size) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), want, "length {n}, chunk size {chunk_size}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let data = b"the tarball is overwritten in the next cycle".repeat(20);
        let base = md5(&data);
        let mut corrupted = data.clone();
        corrupted[data.len() / 2] ^= 0x10;
        assert_ne!(md5(&corrupted), base);
    }

    #[test]
    fn hex_format() {
        assert_eq!(md5_hex(b"").len(), 32);
        assert!(md5_hex(b"abc").chars().all(|c| c.is_ascii_hexdigit()));
    }
}
