//! Workspace-wide property tests (proptest): the invariants that must hold
//! for *arbitrary* inputs, not just the paper's.

use frostlab::climate::psychro;
use frostlab::compress::archive::{archive, unarchive, FileEntry};
use frostlab::compress::block::{compress, decompress};
use frostlab::compress::bwt::{bwt_forward, bwt_inverse};
use frostlab::compress::huffman;
use frostlab::compress::md5::md5;
use frostlab::compress::mtf::{mtf_decode, mtf_encode};
use frostlab::compress::recover::recover;
use frostlab::compress::rle::{rle_decode, rle_encode};
use frostlab::netsim::collector::{
    log_delta, log_line_len, CollectOutcome, Collector, Log, MonitoredHost, MAX_LINE, RSYNC_BLOCK,
};
use frostlab::netsim::rsyncp;
use frostlab::simkern::rng::Rng;
use frostlab::simkern::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_compression_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..8192),
                                    block_size in 64usize..4096) {
        let packed = compress(&data, block_size);
        prop_assert_eq!(decompress(&packed).expect("clean stream"), data);
    }

    #[test]
    fn rle_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(rle_decode(&rle_encode(&data)).expect("self-encoded"), data);
    }

    #[test]
    fn bwt_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (last, primary) = bwt_forward(&data);
        prop_assert_eq!(bwt_inverse(&last, primary).expect("valid transform"), data);
    }

    #[test]
    fn mtf_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(mtf_decode(&mtf_encode(&data)), data);
    }

    #[test]
    fn huffman_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let (lengths, bits, _) = huffman::encode(&data);
        prop_assert_eq!(huffman::decode(&lengths, &bits, data.len()).expect("own code"), data);
    }

    #[test]
    fn single_bit_flip_never_passes_silently(
        data in proptest::collection::vec(any::<u8>(), 256..4096),
        flip_seed in any::<u64>(),
    ) {
        // Any single-bit corruption of the archive must change the MD5 —
        // the property the whole verification scheme rests on.
        let packed = compress(&data, 512);
        let mut rng = Rng::new(flip_seed);
        let byte = rng.below(packed.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        let mut corrupted = packed.clone();
        corrupted[byte] ^= 1 << bit;
        prop_assert_ne!(md5(&corrupted), md5(&packed));
        // And recover never reports more than one bad block for one flip.
        let report = recover(&corrupted);
        prop_assert!(report.corrupted_count() <= 1);
    }

    #[test]
    fn rsync_reconstructs_any_pair(
        old in proptest::collection::vec(any::<u8>(), 0..4096),
        new in proptest::collection::vec(any::<u8>(), 0..4096),
        block in 16usize..512,
    ) {
        let (rebuilt, _) = rsyncp::sync(&old, &new, block);
        prop_assert_eq!(rebuilt, new);
    }

    #[test]
    fn rsync_identical_files_ship_no_literals(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        block in 16usize..512,
    ) {
        let (_, delta) = rsyncp::sync(&data, &data, block);
        prop_assert_eq!(delta.literal_bytes(), 0);
    }

    #[test]
    fn log_delta_matches_stock_sync(
        rounds in proptest::collection::vec(
            (0u8..8, 0u8..4, proptest::collection::vec((0usize..3, 0usize..235, 1i64..5), 0..8)),
            1..32,
        ),
    ) {
        // A host logs stamped lines of at most MAX_LINE bytes, rotating to
        // a new daily file now and then; the collector's rounds sometimes
        // find nothing new and sometimes cannot reach the host. In every
        // round that ships a file, the closed form must equal stock rsync
        // of the collector's copy against the host's whole file, and the
        // collector must report the sum.
        let mut collector = Collector::new(&Rng::new(7));
        let mut host = MonitoredHost::new(1);
        // The bytes the host's counted store stands for, and the synced copy,
        // by day.
        let mut logs: BTreeMap<i64, (Vec<u8>, Vec<u8>)> = BTreeMap::new();
        let mut t = SimTime::from_secs(0);
        let mut day = 0;
        for (round, (rotate, reach, lines)) in rounds.into_iter().enumerate() {
            if rotate == 0 {
                day = round as i64;
                t += SimDuration::secs(86_400);
            }
            for (kind, len, step) in lines {
                t += SimDuration::secs(step);
                let line = stamped_line(t, kind, len);
                host.append(Log::Md5sums, day, log_line_len(&line));
                logs.entry(day).or_default().0.extend_from_slice(line.as_bytes());
            }
            let reachable = reach != 0;
            let (mut files_updated, mut literal_bytes) = (0, 0);
            let grown = logs.values_mut().filter(|(log, synced)| log.len() != synced.len());
            for (log, synced) in grown {
                let (_, stock) = rsyncp::sync(synced, log, RSYNC_BLOCK);
                let closed = log_delta(synced.len(), log.len());
                prop_assert_eq!(closed.literal_bytes, stock.literal_bytes());
                prop_assert_eq!(closed.copies, stock.copy_count());
                if reachable {
                    files_updated += 1;
                    literal_bytes += closed.literal_bytes;
                    *synced = log.clone();
                }
            }
            let outcome = collector.collect(&mut host, reachable, t);
            if reachable {
                prop_assert_eq!(outcome, CollectOutcome::Success { files_updated, literal_bytes });
            }
        }
    }

    #[test]
    fn tar_roundtrips(files in proptest::collection::vec(
        (proptest::string::string_regex("[a-z]{1,12}(/[a-z]{1,12}){0,3}").expect("valid regex"),
         proptest::collection::vec(any::<u8>(), 0..2048)),
        0..8,
    )) {
        // Deduplicate paths (tar allows duplicates, but equality then needs
        // order bookkeeping that obscures the property).
        let mut seen = std::collections::BTreeSet::new();
        let entries: Vec<FileEntry> = files
            .into_iter()
            .filter(|(p, _)| seen.insert(p.clone()))
            .map(|(path, data)| FileEntry { path, mode: 0o644, mtime: 1_266_000_000, data })
            .collect();
        let tar = archive(&entries);
        prop_assert_eq!(unarchive(&tar).expect("own archive"), entries);
    }

    #[test]
    fn dew_point_never_exceeds_temperature(
        t in -40.0f64..40.0,
        rh in 0.1f64..100.0,
    ) {
        let dp = psychro::dew_point_c(t, rh);
        prop_assert!(dp <= t + 0.3, "dp {dp} > t {t} at rh {rh}");
        // And heating at constant moisture always lowers RH.
        let rh_after = psychro::rh_after_heating(t, rh, t + 10.0);
        prop_assert!(rh_after <= rh + 1e-9);
    }

    #[test]
    fn rng_streams_stay_in_unit_interval(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..256 {
            let x = rng.f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn memtest_no_false_positives(words in 16usize..512, rounds in 0u32..4, seed in any::<u64>()) {
        // A healthy DRAM array must never be condemned, for any geometry,
        // round count or random-data seed.
        let mut mem = frostlab::hardware::memtest::DramArray::new(words);
        let report = frostlab::hardware::memtest::run_memtest(&mut mem, rounds, seed);
        prop_assert!(report.passed(), "false positive: {:?}", &report.errors[..report.errors.len().min(2)]);
    }

    #[test]
    fn memtest_always_catches_stuck_bits(
        words in 16usize..256,
        word in 0usize..256,
        bit in 0u8..64,
        stuck_high in any::<bool>(),
    ) {
        // A hard stuck-at fault must be caught by the deterministic passes
        // alone (zero random rounds).
        let word = word % words;
        let mut mem = frostlab::hardware::memtest::DramArray::new(words);
        let value = if stuck_high { 1u64 << bit } else { 0 };
        mem.inject_stuck_at(word, 1u64 << bit, value);
        let report = frostlab::hardware::memtest::run_memtest(&mut mem, 0, 1);
        prop_assert!(!report.passed(), "stuck bit {bit} of word {word} escaped");
        prop_assert!(report.errors.iter().any(|e| e.word == word));
    }

    #[test]
    fn wilson_interval_always_contains_point_estimate(
        successes in 0u64..1000,
        extra in 0u64..1000,
    ) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let (lo, hi) = frostlab::analysis::stats::wilson_interval(successes, trials);
        let p = successes as f64 / trials as f64;
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "[{lo},{hi}] vs {p}");
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn kaplan_meier_monotone_and_bounded(
        obs in proptest::collection::vec((1.0f64..5000.0, any::<bool>()), 1..60),
    ) {
        use frostlab::analysis::survival::{kaplan_meier, Observation};
        let data: Vec<Observation> = obs
            .into_iter()
            .map(|(hours, failed)| Observation { hours, failed })
            .collect();
        let curve = kaplan_meier(&data);
        let mut prev = 1.0;
        for step in &curve {
            prop_assert!(step.survival <= prev + 1e-12);
            prop_assert!((0.0..=1.0).contains(&step.survival));
            prev = step.survival;
        }
    }

    #[test]
    fn wet_bulb_never_exceeds_dry_bulb(t in -25.0f64..45.0, rh in 5.0f64..99.0) {
        let wb = frostlab::energy::wetside::wet_bulb_c(t, rh);
        prop_assert!(wb <= t, "wb {wb} > t {t} at rh {rh}");
        prop_assert!(wb > t - 30.0, "absurd depression: {wb} at t {t}, rh {rh}");
    }

    #[test]
    fn huffman_never_beats_entropy(
        data in proptest::collection::vec(0u8..8, 64..2048),
    ) {
        // Information-theoretic sanity: coded length ≥ Shannon entropy.
        let mut counts = [0u64; 256];
        for &b in &data {
            counts[b as usize] += 1;
        }
        let n = data.len() as f64;
        let entropy_bits: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -(c as f64) * p.log2()
            })
            .sum();
        let (_, _, bits) = huffman::encode(&data);
        prop_assert!(bits as f64 >= entropy_bits - 1e-6, "{bits} bits vs H = {entropy_bits}");
        // And within one bit per symbol of optimal.
        prop_assert!((bits as f64) <= entropy_bits + n + 1.0);
    }
}

/// A log line as the campaign hosts write them: the stamp, a space, and a
/// `len`-byte payload cut from one of three repeating templates (an md5sums
/// tail, a sensor reading, and stamp-like digits and dashes with no `:`, so
/// no payload can hold a stamp).
fn stamped_line(t: SimTime, kind: usize, len: usize) -> String {
    let template = [
        "0cc175b9c0f1b6a831c399e269772661 run",
        " cpu=-3.5 rh=80",
        "-2010-03-07 04-40-00",
    ][kind];
    let payload: String = template.chars().cycle().take(len).collect();
    let line = format!("{} {payload}\n", t.datetime());
    assert!(line.len() <= MAX_LINE);
    line
}

#[test]
fn log_delta_needs_stamped_lines() {
    // The same growth with its stamps stripped: repeated lines let stock
    // rsync match the appended bytes against synced blocks, so it ships
    // fewer literals than the closed form claims.
    let old = "x".repeat(63) + "\n";
    let old = old.repeat(32);
    let new = old.repeat(2);
    let (_, stock) = rsyncp::sync(old.as_bytes(), new.as_bytes(), RSYNC_BLOCK);
    let closed = log_delta(old.len(), new.len());
    assert_eq!((stock.literal_bytes(), stock.copy_count()), (0, 8));
    assert_eq!((closed.literal_bytes, closed.copies), (2048, 4));

    // With stamps, the same line lengths satisfy the closed form.
    let line = |i: i64| stamped_line(SimTime::from_secs(i), 0, 43);
    let old: String = (0..32).map(line).collect();
    let new: String = (0..64).map(line).collect();
    assert_eq!((old.len(), new.len()), (2048, 4096));
    let (_, stock) = rsyncp::sync(old.as_bytes(), new.as_bytes(), RSYNC_BLOCK);
    assert_eq!((stock.literal_bytes(), stock.copy_count()), (2048, 4));
}

// ---------------------------------------------------------------------------
// Ensemble engine: streaming aggregation vs exact offline computation, and
// order-independence of the merge (the property the thread-count-invariance
// gate rests on).
// ---------------------------------------------------------------------------

use frostlab::analysis::stats::{Histogram, Welford};
use frostlab::analysis::{
    mean as offline_mean, percentile as offline_percentile, std_dev as offline_std_dev,
};
use frostlab::core::results::CampaignSummary;
use frostlab::ensemble::CampaignAggregate;

/// Synthetic campaign summary from a proptest-drawn tuple: failure counts,
/// a fleet rate in [0, 1], an availability in [0, 1], and an energy figure.
fn synth_summary(
    seed: u64,
    (tent, control, rate, avail, energy): (u64, u64, f64, f64, f64),
) -> CampaignSummary {
    CampaignSummary {
        seed,
        start: "2010-02-12 00:00".into(),
        end: "2010-02-14 00:00".into(),
        total_runs: 10 * seed,
        wrong_hashes: (tent + control) as usize,
        wrong_hashes_tent: tent as usize,
        silent_corruptions: control,
        stored_archives: tent as usize,
        failed_hosts_tent: tent,
        failed_hosts_control: control,
        host_resets: seed % 3,
        fleet_failure_rate: rate,
        comparable_with_intel: rate < 0.3,
        outside_min_c: -30.0 + rate * 10.0,
        tent_temp_min_c: -10.0 + avail,
        tent_temp_max_c: 20.0 + avail,
        tent_rh_max_pct: 50.0 + 40.0 * avail,
        fleet_min_cpu_c: -5.0 + rate,
        collection_availability: avail,
        tent_energy_kwh: energy,
        lascar_outliers_removed: 0,
        total_page_ops: 1000 + seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_mean_variance_match_offline(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..128),
    ) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let m = offline_mean(&xs).expect("non-empty");
        let sd = offline_std_dev(&xs).expect("n >= 2");
        prop_assert!((w.mean().unwrap() - m).abs() <= 1e-9 * (1.0 + m.abs()));
        prop_assert!((w.std_dev().unwrap() - sd).abs() <= 1e-7 * (1.0 + sd));
    }

    #[test]
    fn welford_merge_is_order_independent_up_to_rounding(
        xs in proptest::collection::vec(-1e3f64..1e3, 3..96),
        cut_a in 0usize..96,
        cut_b in 0usize..96,
    ) {
        // Split the samples into three runs at arbitrary points and merge
        // the partials in two different association orders; both must
        // agree with the single-pass fold to floating-point tolerance.
        let (mut i, mut j) = (cut_a % xs.len(), cut_b % xs.len());
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let parts = [&xs[..i], &xs[i..j], &xs[j..]];
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let fold = |slice: &[f64]| {
            let mut w = Welford::new();
            for &x in slice {
                w.push(x);
            }
            w
        };
        let (a, b, c) = (fold(parts[0]), fold(parts[1]), fold(parts[2]));
        // (a ∪ b) ∪ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // c ∪ (b ∪ a): different association AND different order.
        let mut right = c;
        let mut ba = b;
        ba.merge(&a);
        right.merge(&ba);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(right.count(), whole.count());
        for w in [&left, &right] {
            prop_assert!((w.mean().unwrap() - whole.mean().unwrap()).abs() <= 1e-9);
            prop_assert!((w.variance().unwrap() - whole.variance().unwrap()).abs() <= 1e-6);
        }
    }

    #[test]
    fn histogram_percentile_matches_offline_within_one_bin(
        xs in proptest::collection::vec(0f64..1.0, 1..256),
        p in 0f64..100.0,
    ) {
        // Tolerance: the histogram only knows which 0.0125-wide bin each
        // sample fell in. It mirrors `percentile`'s rank interpolation,
        // and both anchor estimates stay inside their sample's bin, so
        // ONE bin width bounds the error against the exact offline
        // computation.
        let mut h = Histogram::new(0.0, 0.0125, 80);
        for &x in &xs {
            h.push(x);
        }
        let exact = offline_percentile(&xs, p).unwrap();
        let est = h.percentile(p).expect("non-empty");
        prop_assert!(
            (est - exact).abs() <= h.width + 1e-12,
            "p{}: estimate {} vs exact {}", p, est, exact
        );
    }

    #[test]
    fn ensemble_merge_is_associative_and_order_independent(
        raws in proptest::collection::vec(
            (0u64..4, 0u64..3, 0f64..1.0, 0f64..1.0, 0f64..1500.0),
            1..40,
        ),
        cut_a in 0usize..40,
        cut_b in 0usize..40,
    ) {
        let summaries: Vec<CampaignSummary> = raws
            .iter()
            .enumerate()
            .map(|(i, raw)| synth_summary(i as u64, *raw))
            .collect();
        let mut whole = CampaignAggregate::new();
        for s in &summaries {
            whole.absorb(s);
        }
        let (mut i, mut j) = (cut_a % summaries.len(), cut_b % summaries.len());
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let fold = |slice: &[CampaignSummary]| {
            let mut agg = CampaignAggregate::new();
            for s in slice {
                agg.absorb(s);
            }
            agg
        };
        let (a, b, c) = (fold(&summaries[..i]), fold(&summaries[i..j]), fold(&summaries[j..]));
        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // (c ∪ b) ∪ a — different association and order.
        let mut right = c;
        right.merge(&b);
        right.merge(&a);

        let whole = whole.finish(0, 1);
        for merged in [left.finish(0, 1), right.finish(0, 1)] {
            // Counters, min/max and histogram percentiles merge exactly.
            prop_assert_eq!(merged.campaigns, whole.campaigns);
            prop_assert_eq!(merged.total_page_ops, whole.total_page_ops);
            prop_assert_eq!(merged.campaigns_like_paper, whole.campaigns_like_paper);
            prop_assert_eq!(merged.campaigns_with_tent_failure, whole.campaigns_with_tent_failure);
            prop_assert_eq!(merged.silent_corruptions_total, whole.silent_corruptions_total);
            prop_assert_eq!(merged.outside_min_c, whole.outside_min_c);
            prop_assert_eq!(merged.tent_temp_min_c, whole.tent_temp_min_c);
            prop_assert_eq!(merged.tent_temp_max_c, whole.tent_temp_max_c);
            prop_assert_eq!(merged.fleet_failure_rate_p50, whole.fleet_failure_rate_p50);
            prop_assert_eq!(merged.fleet_failure_rate_p90, whole.fleet_failure_rate_p90);
            // Welford moments are associative up to rounding only.
            prop_assert!((merged.fleet_failure_rate_mean - whole.fleet_failure_rate_mean).abs() <= 1e-9);
            prop_assert!((merged.fleet_failure_rate_std - whole.fleet_failure_rate_std).abs() <= 1e-6);
            prop_assert!((merged.tent_energy_kwh_mean - whole.tent_energy_kwh_mean).abs() <= 1e-6);
            prop_assert!((merged.collection_availability_mean - whole.collection_availability_mean).abs() <= 1e-9);
        }
    }
}
