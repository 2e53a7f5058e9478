//! The §4.2.2 forensic chain, end to end.
//!
//! A host's synthetic run produces a wrong md5sum; the tarball is kept; we
//! run the `bzip2recover` equivalent over it, find that exactly one of the
//! ~396 compression blocks is damaged, check the drives' S.M.A.R.T. long
//! tests (clean), and conclude — like the authors — that a non-ECC memory
//! bit flip is the culprit, at a rate we then estimate.
//!
//! ```sh
//! cargo run --release --example fault_forensics
//! ```

use frostlab::analysis::memory_est::{estimate, ExposureInputs};
use frostlab::analysis::report::one_in;
use frostlab::compress::recover::recover;
use frostlab::hardware::columns::HostBank;
use frostlab::hardware::server::ServerSpec;
use frostlab::simkern::rng::Rng;
use frostlab::workload::job::{JobConfig, JobRunner};

fn main() {
    println!("fault forensics — reproducing the paper's §4.2.2 chain\n");

    // A vendor-A host (non-ECC memory) runs its pack-verify cycle.
    let rng = Rng::new(2010);
    let mut job = JobRunner::new(JobConfig::default(), &rng);
    println!("golden md5 (computed at install): {}", job.golden_hash());
    println!(
        "archive: {} bytes, {} compression blocks\n",
        job.compressed_len(),
        job.block_count()
    );

    // Months pass; one run gets hit by a memory bit flip.
    let clean = job.run(0);
    assert!(clean.hash_ok);
    println!(
        "clean run    : md5 {} — matches, tarball overwritten",
        clean.hash
    );

    let corrupted = job.run(1);
    assert!(!corrupted.hash_ok);
    println!(
        "faulted run  : md5 {} — MISMATCH, tarball stored\n",
        corrupted.hash
    );

    // bzip2recover-style salvage.
    let archive = corrupted
        .stored_archive
        .expect("mismatch stores the archive")
        .bytes();
    let report = recover(&archive);
    println!(
        "recover: {} blocks scanned, {} corrupted {:?}",
        report.total_blocks(),
        report.corrupted_count(),
        report.corrupted_indices()
    );
    println!(
        "salvaged {} of {} bytes ({:.1} %)\n",
        report.salvaged.len(),
        archive.len(),
        100.0 * report.salvaged.len() as f64 / archive.len() as f64
    );

    // Rule out the disks, like the paper did: months of cold operation
    // left no pending sector on either drive of the mirror.
    let mut hosts = HostBank::new();
    let host = hosts.push_host(&ServerSpec::vendor_a());
    let all_pass = hosts.disks_all_long_tests_pass(host);
    println!(
        "S.M.A.R.T. long tests: {}",
        if all_pass {
            "all drives PASS — storage exonerated"
        } else {
            "failures found"
        }
    );
    println!("file system / kernel errors: none reported\n");

    // The conjecture and the estimate.
    println!("conjecture: single bit flip in non-ECC DRAM during packing");
    let est = estimate(&ExposureInputs::paper_ballpark(), 6);
    println!(
        "exposure estimate: {:.2e} page ops → fault ratio {}",
        est.page_ops as f64,
        one_in(est.ops_per_fault)
    );
    println!("(paper: ballpark 3.2 billion page ops, one in 570 million)");
}
