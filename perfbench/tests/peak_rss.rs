//! Peak resident memory is per repetition: a small workload run after a
//! large one reports its own peak, not the large one's. Its own test
//! binary, so no other test shares the process while it measures.

use nezha_perfbench::run;
use nezha_perfbench::workload::{Kind, Scale};

#[test]
fn a_small_run_after_a_large_one_reports_its_own_peak() {
    if !nezha_perfbench::rss::reset_peak() {
        eprintln!("no /proc/self/clear_refs here; nothing to check");
        return;
    }
    let small = || run::rep(Kind::CrrSteady, 1, Scale(0.02)).peak_rss;
    let alone = small();
    let large = run::rep(Kind::FlowsPersistent, 1, Scale(0.5)).peak_rss;
    let after = small();
    let mb = |b: u64| b as f64 / 1048576.0;
    eprintln!(
        "small alone {:.1} MB, large {:.1} MB, small after large {:.1} MB",
        mb(alone),
        mb(large),
        mb(after)
    );
    assert!(
        large > alone + (32 << 20),
        "the large run must be clearly larger"
    );
    assert!(
        after < alone + (large - alone) / 4,
        "the small run after the large one reported {:.1} MB (alone {:.1} MB, large {:.1} MB)",
        mb(after),
        mb(alone),
        mb(large)
    );
}
