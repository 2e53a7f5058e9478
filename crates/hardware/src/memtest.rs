//! A Memtest86+-style memory tester.
//!
//! §4.2.1: after host #15's second failure it was taken indoors and "a
//! standard Memtest86+ run caused another system failure within a few
//! hours" — the diagnosis that condemned the machine. This module
//! implements the classic test patterns over a simulated DRAM array with
//! injectable defects, so the repair workflow's indoor diagnosis is a real
//! computation rather than a coin flip.
//!
//! Defect models:
//! * **stuck-at** bits (a cell that always reads 0 or 1);
//! * **intermittent** cells that fail only every Nth access, which is why
//!   Memtest runs take "a few hours" to condemn marginal DIMMs.

use frostlab_simkern::rng::Rng;

/// A simulated DRAM array with injectable defects.
#[derive(Debug, Clone)]
pub struct DramArray {
    words: Vec<u64>,
    /// Stuck-at faults: `(word, mask, stuck_value_bits)`.
    stuck: Vec<(usize, u64, u64)>,
    /// Intermittent faults: `(word, mask, period, counter)` — the fault
    /// manifests on every `period`-th read of the word.
    intermittent: Vec<(usize, u64, u32, u32)>,
}

impl DramArray {
    /// A healthy array of `words` 64-bit words.
    pub fn new(words: usize) -> Self {
        DramArray {
            words: vec![0; words],
            stuck: Vec::new(),
            intermittent: Vec::new(),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the array has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Inject a stuck-at fault: `mask` bits of `word` always read as the
    /// corresponding bits of `value`.
    pub fn inject_stuck_at(&mut self, word: usize, mask: u64, value: u64) {
        assert!(word < self.words.len());
        self.stuck.push((word, mask, value & mask));
    }

    /// Inject an intermittent fault: every `period`-th read of `word`
    /// returns `mask` bits flipped.
    pub fn inject_intermittent(&mut self, word: usize, mask: u64, period: u32) {
        assert!(word < self.words.len() && period > 0);
        self.intermittent.push((word, mask, period, 0));
    }

    /// Write a word.
    pub fn write(&mut self, index: usize, value: u64) {
        self.words[index] = value;
    }

    /// Read a word (through the fault layers).
    pub fn read(&mut self, index: usize) -> u64 {
        let mut v = self.words[index];
        for &(w, mask, value) in &self.stuck {
            if w == index {
                v = (v & !mask) | value;
            }
        }
        for (w, mask, period, counter) in &mut self.intermittent {
            if *w == index {
                *counter += 1;
                if *counter % *period == 0 {
                    v ^= *mask;
                }
            }
        }
        v
    }
}

/// One detected miscompare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Word index.
    pub word: usize,
    /// Expected value.
    pub expected: u64,
    /// Value read back.
    pub actual: u64,
    /// Which test pattern caught it.
    pub pass: TestPass,
}

/// The classic Memtest pattern families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestPass {
    /// All zeros / all ones solid fills.
    SolidBits,
    /// Alternating 0x55/0xAA checkerboard.
    Checkerboard,
    /// A single 1 bit walking across each word.
    WalkingOnes,
    /// March-style up/down with inverted rewrites (catches coupling).
    MarchC,
    /// Pseudo-random data, multiple rounds (catches intermittents).
    RandomData,
}

/// Result of a full run.
#[derive(Debug, Clone)]
pub struct MemtestReport {
    /// Every miscompare found (bounded at 256 to mimic the real screen).
    pub errors: Vec<MemError>,
    /// Passes completed.
    pub passes_run: usize,
}

impl MemtestReport {
    /// Verdict: did the DIMM pass?
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

fn fill_verify(
    mem: &mut DramArray,
    pattern: impl Fn(usize) -> u64,
    pass: TestPass,
    errors: &mut Vec<MemError>,
) {
    for i in 0..mem.len() {
        mem.write(i, pattern(i));
    }
    for i in 0..mem.len() {
        let expected = pattern(i);
        let actual = mem.read(i);
        if actual != expected && errors.len() < 256 {
            errors.push(MemError {
                word: i,
                expected,
                actual,
                pass,
            });
        }
    }
}

/// Run the full suite; `rounds` controls the random-data repetitions (the
/// real tool loops for hours — more rounds catch rarer intermittents).
pub fn run_memtest(mem: &mut DramArray, rounds: u32, seed: u64) -> MemtestReport {
    let mut errors = Vec::new();
    let mut passes = 0usize;

    // Solid bits.
    fill_verify(mem, |_| 0, TestPass::SolidBits, &mut errors);
    fill_verify(mem, |_| !0u64, TestPass::SolidBits, &mut errors);
    passes += 1;

    // Checkerboard, both phases.
    fill_verify(
        mem,
        |i| {
            if i % 2 == 0 {
                0x5555_5555_5555_5555
            } else {
                0xAAAA_AAAA_AAAA_AAAA
            }
        },
        TestPass::Checkerboard,
        &mut errors,
    );
    fill_verify(
        mem,
        |i| {
            if i % 2 == 0 {
                0xAAAA_AAAA_AAAA_AAAA
            } else {
                0x5555_5555_5555_5555
            }
        },
        TestPass::Checkerboard,
        &mut errors,
    );
    passes += 1;

    // Walking ones.
    for bit in 0..64u32 {
        let value = 1u64 << bit;
        fill_verify(mem, |_| value, TestPass::WalkingOnes, &mut errors);
    }
    passes += 1;

    // March C−: up-write 0, up read-0/write-1, up read-1/write-0,
    // down read-0/write-1, down read-1, catches coupling faults.
    for i in 0..mem.len() {
        mem.write(i, 0);
    }
    for i in 0..mem.len() {
        let v = mem.read(i);
        if v != 0 && errors.len() < 256 {
            errors.push(MemError {
                word: i,
                expected: 0,
                actual: v,
                pass: TestPass::MarchC,
            });
        }
        mem.write(i, !0);
    }
    for i in (0..mem.len()).rev() {
        let v = mem.read(i);
        if v != !0 && errors.len() < 256 {
            errors.push(MemError {
                word: i,
                expected: !0,
                actual: v,
                pass: TestPass::MarchC,
            });
        }
        mem.write(i, 0);
    }
    for i in (0..mem.len()).rev() {
        let v = mem.read(i);
        if v != 0 && errors.len() < 256 {
            errors.push(MemError {
                word: i,
                expected: 0,
                actual: v,
                pass: TestPass::MarchC,
            });
        }
    }
    passes += 1;

    // Random data, several rounds.
    for round in 0..rounds {
        let mut rng = Rng::new(seed ^ u64::from(round));
        let values: Vec<u64> = (0..mem.len()).map(|_| rng.next_u64()).collect();
        for (i, &v) in values.iter().enumerate() {
            mem.write(i, v);
        }
        for (i, &expected) in values.iter().enumerate() {
            let actual = mem.read(i);
            if actual != expected && errors.len() < 256 {
                errors.push(MemError {
                    word: i,
                    expected,
                    actual,
                    pass: TestPass::RandomData,
                });
            }
        }
    }
    passes += 1;

    MemtestReport {
        errors,
        passes_run: passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_memory_passes() {
        let mut mem = DramArray::new(512);
        let report = run_memtest(&mut mem, 2, 1);
        assert!(
            report.passed(),
            "errors: {:?}",
            &report.errors[..report.errors.len().min(3)]
        );
        assert_eq!(report.passes_run, 5);
    }

    #[test]
    fn stuck_at_caught_by_solid_bits() {
        let mut mem = DramArray::new(256);
        mem.inject_stuck_at(17, 1 << 5, 0); // bit 5 of word 17 stuck at 0
        let report = run_memtest(&mut mem, 1, 2);
        assert!(!report.passed());
        assert!(report.errors.iter().any(|e| e.word == 17));
        // The all-ones fill must catch a stuck-at-0.
        assert!(report
            .errors
            .iter()
            .any(|e| e.pass == TestPass::SolidBits && e.expected & (1 << 5) != 0));
    }

    #[test]
    fn stuck_at_one_caught() {
        let mut mem = DramArray::new(64);
        mem.inject_stuck_at(3, 1 << 60, 1 << 60);
        let report = run_memtest(&mut mem, 1, 3);
        assert!(!report.passed());
        assert!(report
            .errors
            .iter()
            .any(|e| e.word == 3 && e.actual & (1 << 60) != 0));
    }

    #[test]
    fn rare_intermittent_needs_more_rounds() {
        // Fault fires every 23rd read: one round may miss it, many rounds
        // won't. (23 is chosen to dodge the deterministic pass counts.)
        let fresh = || {
            let mut mem = DramArray::new(64);
            mem.inject_intermittent(10, 1 << 8, 23);
            mem
        };
        let mut caught_with_many = false;
        let mut mem = fresh();
        let long = run_memtest(&mut mem, 12, 5);
        if !long.passed() {
            caught_with_many = true;
        }
        assert!(
            caught_with_many,
            "12 random rounds must trip a 1-in-23 fault"
        );
    }

    #[test]
    fn host15_diagnosis_scenario() {
        // The §4.2.1 story: the defective vendor-B host fails its indoor
        // Memtest "within a few hours" — modeled as a marginal DIMM with an
        // intermittent cell.
        let mut mem = DramArray::new(1024);
        mem.inject_intermittent(700, 1 << 3, 17);
        let report = run_memtest(&mut mem, 6, 15);
        assert!(!report.passed(), "host #15's DIMM must be condemned");
        assert!(report.errors.len() >= 2);
    }

    #[test]
    fn error_reporting_is_bounded() {
        let mut mem = DramArray::new(512);
        for w in 0..512 {
            mem.inject_stuck_at(w, 1, 0);
        }
        let report = run_memtest(&mut mem, 1, 6);
        assert!(report.errors.len() <= 256);
    }

    #[test]
    fn reads_and_writes_roundtrip_when_healthy() {
        let mut mem = DramArray::new(16);
        for i in 0..16 {
            mem.write(i, (i as u64) * 0x0101_0101_0101_0101);
        }
        for i in 0..16 {
            assert_eq!(mem.read(i), (i as u64) * 0x0101_0101_0101_0101);
        }
    }
}
