//! The calibration job's memory stays out of the reported peak. Its own
//! test binary, so no other test shares the process while it measures.

use nezha_perfbench::calib::Sampler;
use nezha_perfbench::workload::{Kind, Scale};
use nezha_perfbench::{rss, run};

#[test]
fn a_calibrated_repetition_reports_the_peak_of_an_uncalibrated_one() {
    if !rss::reset_peak() {
        eprintln!("no /proc/self/clear_refs here; nothing to check");
        return;
    }
    let scale = Scale(0.02);
    let plain = run::rep(Kind::CrrSteady, 1, scale).peak_rss;
    let mut sampler = Sampler::new();
    let calibrated = run::rep_with(Kind::CrrSteady, 1, scale, &mut sampler).peak_rss;
    let arena = sampler.resident_bytes();
    let mb = |b: u64| b as f64 / 1048576.0;
    eprintln!(
        "plain {:.1} MB, calibrated {:.1} MB, job memory {:.1} MB",
        mb(plain),
        mb(calibrated),
        mb(arena)
    );
    assert!(arena > 4 << 20, "the job holds {:.1} MB", mb(arena));
    assert!(
        plain.abs_diff(calibrated) < arena / 2,
        "calibrated {:.1} MB against plain {:.1} MB",
        mb(calibrated),
        mb(plain)
    );
}
