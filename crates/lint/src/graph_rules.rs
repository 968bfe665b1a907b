//! Pass 2's call-graph / dataflow rule families (D8–D11), run over the
//! pass-1 symbol index and the conservative call graph.
//!
//! - **D8 panic reachability** — every function in a control-plane file
//!   is an entry point; a `panic!/todo!/unimplemented!/.unwrap()/.expect()`
//!   site transitively reachable from one is an error, reported *at the
//!   panic site* with the entry and call path. Sites inside control-plane
//!   files themselves are D4's (textual) jurisdiction and are skipped.
//! - **D9 RNG-stream lineage** — `SimRng::new(..)` whose seed argument
//!   does not trace through `derive_seed`/`derive_seed_indexed` is an
//!   ad-hoc seed; a stream name derived in two different files of the
//!   same crate is cross-module reuse. Both are errors.
//! - **D10 hot-path allocation** — heap allocation (`Vec::new`,
//!   `with_capacity`, `vec!`, `format!`, `.to_vec()`, `.collect()`,
//!   `.clone()` of a heap-typed binding …) inside, or reachable from,
//!   the event-queue drain, the DenseMap probe path, the NSH codec,
//!   or a datapath handler.
//! - **D11 shard safety** — `static mut`, `static` items,
//!   `thread_local!`, `Rc`, `RefCell` in sim-visible crates outside the
//!   allow-listed observability modules.
//!
//! Fixture trees opt in by convention instead of by path: D8 entries are
//! fns in files named `entry.rs` (or a control-plane name), D10 roots are
//! fns named `hot_*`; D9/D11 apply to every fixture file.

use crate::callgraph::{reachable_from, reachable_from_where, CallGraph};
use crate::rules::{Severity, Violation, CONTROL_PLANE_FILES, CONTROL_PLANE_PATHS, SIM_VISIBLE};
use crate::symbols::Workspace;
use std::collections::{BTreeMap, BTreeSet};

const HINT_D8: &str = "return a NezhaResult and propagate the error; every path below a \
     control-plane entry point must be panic-free (or allow-list the site with a justification)";
const HINT_D9: &str = "seed through nezha_sim::rng::derive_seed(base, \"component.stream\") \
     (or derive_seed_indexed for per-instance streams) so shards can re-derive exactly \
     their own streams";
const HINT_D9_REUSE: &str = "give each module its own stream name; two modules sharing one \
     stream would collide when shards re-derive their streams independently";
const HINT_D10: &str = "hoist the allocation to a startup path or reuse a preallocated \
     buffer; the drain/probe/codec/handler paths must be allocation-free to keep the \
     raw-speed envelope";
const HINT_D11: &str = "pass per-shard state by &mut instead; shared mutable statics and \
     Rc/RefCell break deterministic shard merges";

/// Observability modules allowed to keep `Rc`/`RefCell` internals: they
/// are never shared across shard boundaries (one instance per shard,
/// merged through explicit snapshots).
const D11_ALLOWED_FILES: [&str; 6] = [
    "crates/sim/src/metrics.rs",
    "crates/sim/src/profile.rs",
    "crates/sim/src/obs/mod.rs",
    "crates/sim/src/obs/loghist.rs",
    "crates/sim/src/obs/slo.rs",
    "crates/sim/src/obs/export.rs",
];

/// Hot-path files where *every* function is a D10 root (the PR 6
/// datapath handler layer, including the `HandlerCtx` plumbing).
const HOT_FILES: [&str; 5] = [
    "crates/core/src/datapath/be.rs",
    "crates/core/src/datapath/fe.rs",
    "crates/core/src/datapath/dispatch.rs",
    "crates/core/src/datapath/ctx.rs",
    "crates/core/src/datapath/mod.rs",
];

/// Hot-path files where only the named functions are D10 roots. The
/// event queue's schedule side and the DenseMap write side allocate by
/// design (amortised growth, spare-buffer recycling) — the drain and
/// probe paths must not. The drain side includes opening blocks into
/// buckets, the far-heap migration, and the key filing (`stage_key`)
/// both share with scheduling. `LogHistogram`'s record path is pinned too: it
/// runs per sample on the datapath and must stay fixed-memory.
const HOT_FNS: [(&str, &[&str]); 4] = [
    (
        "crates/sim/src/engine.rs",
        &[
            "pop",
            "pop_until",
            "pop_batch_until",
            "due_by",
            "refill",
            "open_blocks",
            "migrate_far",
            "stage_key",
            "horizon_near_clock",
            "peek_time",
        ],
    ),
    ("crates/sim/src/obs/loghist.rs", &["record", "bucket_index"]),
    (
        "crates/sim/src/dense.rs",
        &["probe", "get", "get_mut", "contains_key"],
    ),
    (
        "crates/types/src/nsh.rs",
        &[
            "encode",
            "encode_into",
            "decode",
            "parse",
            "wire_len",
            "encode_pre_action",
            "encode_pre_action_into",
            "decode_pre_action",
        ],
    ),
];

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn is_fixture(path: &str) -> bool {
    path.contains("fixtures")
}

fn sim_visible(path: &str) -> bool {
    SIM_VISIBLE.iter().any(|p| path.starts_with(p))
}

/// True for real control-plane files — D4's textual jurisdiction, and
/// the set whose functions are D8 entry points.
fn control_plane_real(path: &str) -> bool {
    sim_visible(path)
        && (CONTROL_PLANE_FILES.contains(&file_name(path))
            || CONTROL_PLANE_PATHS.contains(&path)
            || path.starts_with("crates/core/src/datapath/"))
}

/// Is every fn in this file a D8 entry point?
fn d8_entry_file(path: &str) -> bool {
    if is_fixture(path) {
        let name = file_name(path);
        name == "entry.rs" || CONTROL_PLANE_FILES.contains(&name)
    } else {
        control_plane_real(path)
    }
}

fn d9_scope(path: &str) -> bool {
    if is_fixture(path) {
        return true;
    }
    // rng.rs defines derive_seed and the raw constructor itself.
    sim_visible(path) && path != "crates/sim/src/rng.rs"
}

fn d11_scope(path: &str) -> bool {
    if is_fixture(path) {
        return true;
    }
    sim_visible(path) && !D11_ALLOWED_FILES.contains(&path)
}

/// Slow-path boundary for the D10 walk: control-plane modules invoked
/// from a handler (config pushes, scale events, fallback triggers) are
/// rare-event excursions, not per-packet work — the walk does not
/// descend into them.
fn d10_boundary(path: &str) -> bool {
    !is_fixture(path)
        && sim_visible(path)
        && (CONTROL_PLANE_FILES.contains(&file_name(path)) || CONTROL_PLANE_PATHS.contains(&path))
}

/// Is this fn a D10 hot-path root?
fn d10_root(path: &str, fn_name: &str) -> bool {
    if is_fixture(path) {
        return fn_name.starts_with("hot_");
    }
    if HOT_FILES.contains(&path) {
        return true;
    }
    HOT_FNS
        .iter()
        .any(|(p, fns)| *p == path && fns.contains(&fn_name))
}

/// Runs D8–D11 over the whole index; returns raw violations (allow
/// directives are applied per file by the caller).
pub fn check_workspace(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    check_d8(ws, graph, &mut out);
    check_d9(ws, &mut out);
    check_d10(ws, graph, &mut out);
    check_d11(ws, &mut out);
    out
}

fn path_names(ws: &Workspace, path: &[usize]) -> String {
    path.iter()
        .map(|&id| ws.fns[id].name.as_str())
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn check_d8(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Violation>) {
    // Dedup per panic site, keeping the first (lowest-entry-id, shortest)
    // path that reaches it.
    let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    for (entry, f) in ws.fns.iter().enumerate() {
        if !d8_entry_file(&ws.files[f.file].path) {
            continue;
        }
        for r in reachable_from(graph, entry) {
            let rf = &ws.fns[r.fn_id];
            let rpath = &ws.files[rf.file].path;
            // Panics *inside* control-plane/entry files are D4's job.
            if d8_entry_file(rpath) {
                continue;
            }
            for site in &rf.panics {
                if !seen.insert((rf.file, site.line, site.what.clone())) {
                    continue;
                }
                out.push(Violation {
                    file: rpath.clone(),
                    line: site.line,
                    rule: "D8",
                    severity: Severity::Error,
                    message: format!(
                        "panic site `{}` is reachable from control-plane entry `{}` \
                         (path: {})",
                        site.what,
                        f.name,
                        path_names(ws, &r.path),
                    ),
                    hint: HINT_D8,
                });
            }
        }
    }
}

fn check_d9(ws: &Workspace, out: &mut Vec<Violation>) {
    // Ad-hoc seeds.
    for file in &ws.files {
        if !d9_scope(&file.path) {
            continue;
        }
        for rng in &file.rng_news {
            if rng.derived {
                continue;
            }
            out.push(Violation {
                file: file.path.clone(),
                line: rng.line,
                rule: "D9",
                severity: Severity::Error,
                message: "`SimRng::new` seeded outside the derive_seed stream discipline \
                          (ad-hoc seed)"
                    .to_string(),
                hint: HINT_D9,
            });
        }
    }

    // Stream reuse across files of one crate: stream -> unit -> files.
    let mut streams: BTreeMap<(String, String), BTreeSet<usize>> = BTreeMap::new();
    for (idx, file) in ws.files.iter().enumerate() {
        if !d9_scope(&file.path) {
            continue;
        }
        for d in &file.derive_calls {
            if let Some(s) = &d.stream {
                streams
                    .entry((file.crate_key.clone(), s.clone()))
                    .or_default()
                    .insert(idx);
            }
        }
    }
    for ((_unit, stream), files) in &streams {
        if files.len() < 2 {
            continue;
        }
        // The lexicographically first file keeps the stream; every other
        // file's uses are reuse errors.
        let mut paths: Vec<usize> = files.iter().copied().collect();
        paths.sort_by(|&a, &b| ws.files[a].path.cmp(&ws.files[b].path));
        let owner = ws.files[paths[0]].path.clone();
        for &idx in &paths[1..] {
            let file = &ws.files[idx];
            for d in &file.derive_calls {
                if d.stream.as_deref() == Some(stream.as_str()) {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: d.line,
                        rule: "D9",
                        severity: Severity::Error,
                        message: format!(
                            "RNG stream \"{stream}\" is also derived in {owner}; stream \
                             names must be unique per module"
                        ),
                        hint: HINT_D9_REUSE,
                    });
                }
            }
        }
    }
}

fn check_d10(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Violation>) {
    let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    for (root, f) in ws.fns.iter().enumerate() {
        if !d10_root(&ws.files[f.file].path, &f.name) {
            continue;
        }
        // Allocations written directly in the hot fn.
        for site in &f.allocs {
            if !seen.insert((f.file, site.line, site.what.clone())) {
                continue;
            }
            out.push(Violation {
                file: ws.files[f.file].path.clone(),
                line: site.line,
                rule: "D10",
                severity: Severity::Error,
                message: format!(
                    "heap allocation `{}` in hot-path fn `{}`",
                    site.what, f.name
                ),
                hint: HINT_D10,
            });
        }
        // Allocations in functions the hot fn (transitively) calls,
        // stopping at the slow-path boundary.
        for r in reachable_from_where(graph, root, |id| {
            !d10_boundary(&ws.files[ws.fns[id].file].path)
        }) {
            let rf = &ws.fns[r.fn_id];
            if d10_root(&ws.files[rf.file].path, &rf.name) {
                continue; // flagged as its own root
            }
            for site in &rf.allocs {
                if !seen.insert((rf.file, site.line, site.what.clone())) {
                    continue;
                }
                out.push(Violation {
                    file: ws.files[rf.file].path.clone(),
                    line: site.line,
                    rule: "D10",
                    severity: Severity::Error,
                    message: format!(
                        "heap allocation `{}` is reachable from hot-path fn `{}` (path: {})",
                        site.what,
                        f.name,
                        path_names(ws, &r.path),
                    ),
                    hint: HINT_D10,
                });
            }
        }
    }
}

fn check_d11(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if !d11_scope(&file.path) {
            continue;
        }
        for site in &file.shard_hazards {
            out.push(Violation {
                file: file.path.clone(),
                line: site.line,
                rule: "D11",
                severity: Severity::Error,
                message: format!("{} in sim-visible shard-candidate code", site.what),
                hint: HINT_D11,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::lex;
    use crate::rules::strip_tests;

    fn run(files: &[(&str, &str)]) -> Vec<(String, u32, &'static str)> {
        let lexed: Vec<(String, Vec<crate::lexer::SpannedTok>)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), strip_tests(&lex(s).toks)))
            .collect();
        let ws = Workspace::build(&lexed);
        let graph = callgraph::build(&ws);
        check_workspace(&ws, &graph)
            .into_iter()
            .map(|v| (v.file, v.line, v.rule))
            .collect()
    }

    #[test]
    fn d8_flags_transitive_panic_from_control_plane() {
        let got = run(&[
            (
                "crates/core/src/cluster.rs",
                "fn step(&mut self) { advance_epoch(self); }",
            ),
            (
                "crates/core/src/epoch.rs",
                "fn advance_epoch(cl: &mut Cluster) { cl.slots.checked_add(1).unwrap(); }",
            ),
        ]);
        assert_eq!(got, vec![("crates/core/src/epoch.rs".to_string(), 1, "D8")]);
    }

    #[test]
    fn d8_skips_panics_inside_control_plane_files_and_unreached_code() {
        // Direct control-plane panics are D4's job; unreachable panics in
        // helper files are out of the D8 envelope.
        let got = run(&[
            ("crates/core/src/cluster.rs", "fn step() { x.unwrap(); }"),
            ("crates/core/src/epoch.rs", "fn never_called() { panic!() }"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn d9_flags_adhoc_seed_but_not_derived() {
        let got = run(&[(
            "crates/core/src/region.rs",
            "fn a(cfg: &Config) -> SimRng { SimRng::new(cfg.seed) }\n\
             fn b(cfg: &Config) -> SimRng { SimRng::new(derive_seed(cfg.seed, \"region.rng\")) }",
        )]);
        assert_eq!(
            got,
            vec![("crates/core/src/region.rs".to_string(), 1, "D9")]
        );
    }

    #[test]
    fn d9_flags_stream_reuse_across_files_only() {
        let got = run(&[
            (
                "crates/core/src/alpha.rs",
                "fn a(s: u64) -> u64 { derive_seed(s, \"shared.stream\") }\n\
                 fn a2(s: u64) -> u64 { derive_seed(s, \"shared.stream\") }",
            ),
            (
                "crates/core/src/beta.rs",
                "fn b(s: u64) -> u64 { derive_seed(s, \"shared.stream\") }",
            ),
        ]);
        // Same-file repetition is fine; the second file's use is flagged.
        assert_eq!(got, vec![("crates/core/src/beta.rs".to_string(), 1, "D9")]);
    }

    #[test]
    fn d10_flags_direct_and_transitive_allocs_from_hot_roots() {
        let got = run(&[
            (
                "crates/core/src/datapath/be.rs",
                "fn be_handle_tx(ctx: &mut HandlerCtx) { let v = vec![1]; route_miss(ctx); }",
            ),
            (
                "crates/core/src/routing.rs",
                "fn route_miss(ctx: &mut HandlerCtx) { let s = format!(\"{}\", 1); }",
            ),
        ]);
        assert_eq!(
            got,
            vec![
                ("crates/core/src/datapath/be.rs".to_string(), 1, "D10"),
                ("crates/core/src/routing.rs".to_string(), 1, "D10"),
            ]
        );
    }

    #[test]
    fn d10_ignores_cold_fns_and_non_root_engine_fns() {
        let got = run(&[
            (
                "crates/core/src/monitor.rs",
                "fn rebalance() { let v = Vec::new(); }",
            ),
            (
                "crates/sim/src/engine.rs",
                "impl Engine { fn schedule_at(&mut self) { self.buckets.push(Vec::new()); } }",
            ),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn d11_flags_hazards_outside_the_allow_list() {
        let got = run(&[
            (
                "crates/core/src/region.rs",
                "static mut HITS: u64 = 0;\nfn f() { let c = Rc::new(1); }",
            ),
            (
                "crates/sim/src/profile.rs",
                "fn g() { let c = Rc::new(RefCell::new(1)); }",
            ),
            ("crates/lint/src/lexer.rs", "static TABLE: u8 = 1;"),
        ]);
        assert_eq!(
            got,
            vec![
                ("crates/core/src/region.rs".to_string(), 1, "D11"),
                ("crates/core/src/region.rs".to_string(), 2, "D11"),
            ]
        );
    }

    #[test]
    fn fixture_conventions_entry_and_hot_prefix() {
        let got = run(&[
            (
                "crates/lint/tests/fixtures/d8_violation/entry.rs",
                "fn route(x: Option<u32>) { helper(x); }",
            ),
            (
                "crates/lint/tests/fixtures/d8_violation/util.rs",
                "fn helper(x: Option<u32>) -> u32 { x.unwrap() }",
            ),
            (
                "crates/lint/tests/fixtures/d10_violation.rs",
                "fn hot_drain() { let v = Vec::new(); }\nfn setup() { let v = Vec::new(); }",
            ),
        ]);
        assert_eq!(
            got,
            vec![
                (
                    "crates/lint/tests/fixtures/d8_violation/util.rs".to_string(),
                    1,
                    "D8"
                ),
                (
                    "crates/lint/tests/fixtures/d10_violation.rs".to_string(),
                    1,
                    "D10"
                ),
            ]
        );
    }
}
