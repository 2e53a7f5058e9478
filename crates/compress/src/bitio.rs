//! Bit-level I/O for the Huffman coder.
//!
//! MSB-first bit order (like bzip2): the first bit written becomes the most
//! significant bit of the first output byte.

/// Accumulates bits into a byte vector, MSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u8,
    nbits: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "at most 32 bits per call");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            self.acc = (self.acc << 1) | bit as u8;
            self.nbits += 1;
            if self.nbits == 8 {
                self.out.push(self.acc);
                self.acc = 0;
                self.nbits = 0;
            }
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + u64::from(self.nbits)
    }

    /// Flush (zero-padding the final byte) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.acc <<= 8 - self.nbits;
            self.out.push(self.acc);
        }
        self.out
    }
}

/// Reads bits from a byte slice, MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos_bits: u64,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos_bits: 0 }
    }

    /// Read a single bit; `None` at end of data.
    pub fn read_bit(&mut self) -> Option<u8> {
        let byte = self.data.get((self.pos_bits / 8) as usize)?;
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1;
        self.pos_bits += 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read `count` bits as an MSB-first integer; `None` if data runs out.
    fn read_bits(r: &mut BitReader<'_>, count: u8) -> Option<u32> {
        (0..count).try_fold(0u32, |v, _| Some((v << 1) | u32::from(r.read_bit()?)))
    }

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0b1u32, 1u8),
            (0b1010, 4),
            (0xABCD, 16),
            (0x1FFFFF, 21),
            (0, 3),
            (1, 1),
        ];
        for (v, n) in values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in values {
            assert_eq!(read_bits(&mut r, n), Some(v), "width {n}");
        }
    }

    #[test]
    fn msb_first_byte_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0, 1);
        w.write_bits(0b111111, 6);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1011_1111]);
    }

    #[test]
    fn padding_is_zero() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        assert_eq!(w.finish(), vec![0b1010_0000]);
    }

    #[test]
    fn bit_len_tracks() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 11);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn reader_end_of_data() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_bits(&mut r, 8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(read_bits(&mut r, 1), None);
    }
}
