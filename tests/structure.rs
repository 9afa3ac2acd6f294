//! The structural rules, checked as text: each row of [`RULES`] keeps a design choice an earlier
//! change paid for from growing back. One walker reads a tree into `(path, text)` pairs, one cutter
//! drops each file's test tail, and one matcher counts needles per line, as `grep` does: a needle
//! is literal but for `\b` (word boundary), `\s*` / `\s+` (runs of `[[:space:]]`) and a leading
//! `^` (line start; a bare `^` hits any file).

use std::{collections::BTreeSet, fs, path::Path, process::Command};
use Expect::{Files, Hits, Lacking};

/// What a check's hits must come to: the files holding a hit are exactly these (sorted), the
/// hits number exactly this over all files, or every file holding no hit is one of these.
#[derive(Debug, Clone, Copy)]
#[rustfmt::skip]
enum Expect { Files(&'static [&'static str]), Hits(usize), Lacking(&'static [&'static str]) }

/// One text check over part of the tree: `roots` are files or whole directories (a root with a
/// `*`, any text in one name, names files), `rs_only` keeps only `.rs` files, `word` matches whole
/// words only (`grep -w`), `cut_tests` ignores each file from its first column-0 `#[cfg(test)]`
/// line on, and `each` judges every needle on its own rather than all of them together.
#[derive(Clone, Copy)]
struct Check {
    roots: &'static [&'static str],
    rs_only: bool,
    needles: &'static [&'static str],
    word: bool,
    cut_tests: bool,
    each: bool,
    expect: Expect,
}

/// The defaults: all files under the code roots, no file may hit.
#[rustfmt::skip]
const C: Check = Check { roots: &["crates", "src", "tests", "examples"], rs_only: false,
    needles: &[], word: false, cut_tests: false, each: false, expect: Files(&[]) };

/// A rule: its checks, one edit of the tree that breaks it, and the commit whose
/// tree it rejects. Each row's comment gives its reason and the commit adding it.
struct Rule {
    name: &'static str,
    checks: &'static [Check],
    sample: (&'static str, &'static str),
    base: &'static str,
}

#[rustfmt::skip]
const RULES: &[Rule] = &[
    // 7befa9a. Only the binaries read the environment, once (`RunOptions::from_env`):
    // a second reader would make a pin mean something else under another shell.
    Rule { name: "environment (one reader)", base: "5bc9c97",
        checks: &[Check { needles: &[r"env::var\b", r"env::var_os\b", r"env::vars\b",
            r"env::vars_os\b", r"env::set_var\b", r"env::remove_var\b"],
            expect: Files(&["crates/sim/src/options.rs"]), ..C }],
        sample: ("examples/reader.rs", "let seed = std::env::var(\"EESMR_SEED\");") },
    // 682e102. `unsafe` is in the SHA kernel's CPU-checked call and the counting allocator only.
    Rule { name: "unsafe (two files, forbidden elsewhere)", base: "70673e3",
        checks: &[Check { rs_only: true,
                needles: &[r"unsafe\s*{", r"unsafe\s*fn", r"unsafe\s*impl"],
                expect: Files(&["crates/crypto/src/sha256.rs", "tests/alloc_budget.rs"]), ..C },
            Check { roots: &["src/lib.rs", "crates/*/src/lib.rs"],
                needles: &["^#![forbid(unsafe_code)]"],
                expect: Lacking(&["crates/crypto/src/lib.rs"]), ..C }],
        sample: ("crates/core/src/lib.rs", "//! eesmr-core, unguarded.\npub mod smr;\n") },
    // d0e700e, widened in 32da268. The protocols are one replica skeleton under their rules;
    // its handlers, once written twice, drifted apart in thirteen places; Leader(v) is one too.
    Rule { name: "written once (shared replica handlers, in smr.rs)", base: "5cf6a05",
        checks: &[Check { expect: Hits(1), ..HANDLERS },
            Check { expect: Files(&["crates/core/src/smr.rs"]), ..HANDLERS }],
        sample: ("crates/baselines/src/sync_hotstuff.rs", "fn on_blame(&mut self) {}") },
    // 9487304. Digest- and counter-keyed tables use the one hasher (`KeyMap`, `KeySet`):
    // SipHash was ~12 % of a replica's time. txpool.rs (client-chosen keys) is exempt.
    Rule { name: "table hasher (no std hash tables on the replica path)", base: "d1ffe9c",
        checks: &[Check { roots: &["crates"], rs_only: true, needles: &[r"impl\s+Hasher\s+for"],
                expect: Hits(1), ..C },
            Check { needles: &["HashMap", "HashSet"], word: true, cut_tests: true, roots: &[
                "crates/baselines/src/sync_hotstuff.rs", "crates/baselines/src/trusted.rs",
                "crates/core/src/block.rs", "crates/core/src/replica.rs", "crates/core/src/smr.rs",
                "crates/core/src/view_change.rs"], ..C }],
        sample: ("crates/core/src/replica.rs", "use std::collections::HashMap;") },
    // bf75d65, widened in 4dcec53. One loop (SimNet), one queue (CalendarQueue); the
    // deleted names live on only as hidden shims that keep benchmark/ compiling (ROADMAP 1A).
    Rule { name: "benchmark shims (one event loop, one queue)", base: "d6686b1",
        checks: &[Check { needles: &["ShardedNet", "SchedulerKind", "EventQueue"], word: true,
            each: true, expect: Files(&["crates/net/src/lib.rs"]), ..C }],
        sample: ("examples/queue.rs", "use eesmr_net::EventQueue;") },
    // 7382ac2, widened in 57a9ce0. One push counter makes a calendar lane append-only and
    // keyless: no sorted insert or keyed lane in sched.rs, no per-origin key anywhere.
    Rule { name: "append-only lanes (one push counter)", base: "37dd310",
        checks: &[Check { roots: &["crates/net/src/sched.rs"], cut_tests: true,
                needles: &["rposition", ".insert(", "VecDeque<Entry"], ..C },
            Check { roots: &["crates"], needles: &["push_ctr", "SEQ_NODE_BITS"], word: true, ..C }],
        sample: ("crates/net/src/sched.rs", "lane.insert(at, event);") },
    // 61f8e43. eesmr-hypergraph keeps the topology builders, diameter and Lemma A.5; the
    // unused partition search, random topologies, independence and Lemma A.6 went.
    Rule { name: "hypergraph surface (topology, diameter, Lemma A.5)", base: "385c08a",
        checks: &[Check { roots: &["crates", "src", "tests", "examples", "vendor"], word: true,
            needles: &["EdgeId", "make_independent", "is_independent", "kcast_fault_bound",
                "is_partition_resistant", "find_partitioning_set", "random_kcast",
                "random_resilient_kcast", "complete_unicast", "SliceRandom"], ..C }],
        sample: ("crates/hypergraph/src/partition.rs", "pub fn find_partitioning_set() {}") },
    // fdad9a6. The driver pool and ProcNet's queue run on std; the crossbeam stand-in went.
    Rule { name: "no vendored crossbeam", base: "45291d4",
        checks: &[Check { roots: &["vendor/crossbeam"], needles: &["^"], ..C },
            Check { roots: &["crates", "src", "tests", "examples", "vendor", "Cargo.toml",
                "Cargo.lock"], needles: &["crossbeam"], word: true, ..C }],
        sample: ("vendor/crossbeam/Cargo.toml", "") },
    // 72703b9, narrowed in 85d8592. An actor is stepped (Context built, meter stamped,
    // handler called, outputs taken) only in Harness, under both transports.
    Rule { name: "one node step (Harness)", base: "13b1ab1", checks: &[Check {
        needles: &["= Context {"], expect: Files(&["crates/net/src/harness.rs"]), ..C }],
        sample: ("crates/sim/src/step.rs", "let ctx = Context { id, now };") },
    // 85d8592. Both transports price a reception through `ChannelCost::reception`; a raw
    // receive price called outside a test module is a private charge growing back.
    Rule { name: "one receive price (ChannelCost::reception)", base: "13b1ab1", checks: &[Check {
            roots: &["crates/net/src/*.rs", "crates/sim/src/*.rs", "crates/sim/src/bin/*.rs"],
            needles: &[".recv_mj(", ".shared_recv_mj(", ".dup_recv_mj("], cut_tests: true,
            expect: Files(&["crates/net/src/channel.rs"]), ..C }],
        sample: ("crates/sim/src/bin/price.rs", "let mj = cost.recv_mj(40);") },
    // 280622c. The trusted baseline is a rule on the skeleton; its replica, faults and timers went.
    Rule { name: "trusted baseline (a rule on the skeleton)", base: "49ec302", checks: &[Check {
        needles: &["TbNode", "TbFault", "TbTimer", "build_tb_nodes", "ReplicaView"], word: true,
        ..C }], sample: ("crates/sim/src/tb.rs", "impl ReplicaView for TbNode {}") },
    // The seven variants every payload family shares have one declaration, `Shared<P>` in smr.rs.
    Rule { name: "shared payload variants (declared once, in smr.rs)", base: "65081ea", checks: &[
        Check { needles: &["smr_payload"], word: true, ..C },
        Check { roots: &["crates/core", "crates/baselines"], needles: &["    Blame {",
            "    BlameQc(", "    SyncRequest {", "    SyncResponse {", "    Forward {",
            "    Repair {", "    RepairReply {"], expect: Files(&["crates/core/src/smr.rs"]),
            ..C }],
        sample: ("crates/baselines/src/trusted.rs", "enum TbPayload {\n    Forward {}\n}") },
    // One eesmr-bench table per suite summary, the Scenario as the cell key, one `Pacing` for all.
    Rule { name: "one suite sink and cell key, no dead variants", base: "9dd3ac7", checks: &[Check {
        word: true, needles: &["CellStats", "SuitePaths", "write_json", "Announce", "ChainRelation",
            "BleGatt", "CellKey", "HsPacing", "max_outstanding"], ..C }],
        sample: ("crates/driver/src/report.rs", "pub struct CellStats;") },
    // A ledger entry is the block's handle: store and log keep no second copy of the id it carries.
    Rule { name: "one handle per ledger entry", base: "fc150be", checks: &[Check { needles: &[
        r"KeyMap<Digest,\s*Block>", r"committed_log:\s*Vec<Digest>"], roots: &["crates/core/src"],
        ..C }], sample: ("crates/core/src/block.rs", "    blocks: KeyMap<Digest, Block>,") },
];

#[rustfmt::skip]
const HANDLERS: Check = Check {
    roots: &["crates/core/src", "crates/baselines/src"], rs_only: true, each: true,
    needles: &[r"fn on_forward\b", r"fn on_blame\b", r"fn on_blame_qc\b", r"fn on_blame_timeout\b",
        r"fn on_equivocation\b", r"fn proof_is_valid\b", r"fn schedule_quit\b", r"fn leader_of\b",
        r"fn forward_backlog\b", r"fn maybe_forward_backlog\b", r"fn prune_bookkeeping\b",
        r"fn on_arrival\b", r"fn commit_block\b", r"fn request_sync\b", r"fn on_sync_request\b",
        r"fn on_sync_response\b", r"fn on_restart\b", r"fn on_repair\b", r"fn on_repair_reply\b",
        r"fn reset_blame_timer\b", r"fn cancel_commit_timers\b", r"fn verify_envelope\b"], ..C };

/// A tree as `(path relative to its root, text)`, sorted by path.
type Tree = Vec<(String, String)>;

/// Reads every file under the roots' top-level names, in path order (each path comes before
/// what it holds), skipping symlinks as `grep -r` does and this file, which spells every needle.
fn walk(root: &Path) -> Tree {
    let roots = RULES.iter().flat_map(|r| r.checks).flat_map(|c| c.roots);
    let mut todo: BTreeSet<String> = roots.map(|r| r.split('/').next().unwrap().into()).collect();
    let mut tree = Tree::new();
    while let Some(rel) = todo.pop_first() {
        let path = root.join(&rel);
        let Ok(meta) = fs::symlink_metadata(&path) else { continue };
        if meta.is_dir() {
            for entry in fs::read_dir(&path).expect("readable directory") {
                todo.insert(format!("{rel}/{}", entry.expect("entry").file_name().display()));
            }
        } else if meta.is_file() && rel != "tests/structure.rs" {
            tree.push((rel, String::from_utf8_lossy(&fs::read(&path).expect("readable")).into()));
        }
    }
    tree
}

/// Whether `path` lies under `root` (see [`Check::roots`]).
fn in_root(root: &str, path: &str) -> bool {
    let glob = |pat: &str, name: &str| match pat.split_once('*') {
        Some((pre, suf)) => name.strip_prefix(pre).is_some_and(|rest| rest.ends_with(suf)),
        None => pat == name,
    };
    let mut names = path.split('/');
    root.split('/').all(|pat| names.next().is_some_and(|name| glob(pat, name)))
        && (names.next().is_none() || !root.contains('*'))
}

/// `text` up to its first line that starts with `#[cfg(test)]`.
fn cut_tests(text: &str) -> &str {
    let mut starts = text.match_indices("#[cfg(test)]").map(|(at, _)| at);
    starts.find(|&at| at == 0 || text.as_bytes()[at - 1] == b'\n').map_or(text, |at| &text[..at])
}

/// The end of the longest match of `pat` in `line` starting at `i`.
fn match_at(pat: &[u8], line: &[u8], i: usize) -> Option<usize> {
    let word = |j: usize| j < line.len() && (line[j].is_ascii_alphanumeric() || line[j] == b'_');
    match pat {
        [] => Some(i),
        [b'\\', b'b', rest @ ..] => {
            (word(i) != (i > 0 && word(i - 1))).then(|| match_at(rest, line, i)).flatten()
        }
        [b'\\', b's', run @ (b'*' | b'+'), rest @ ..] => {
            let len = line[i..].iter().take_while(|b| matches!(b, b' ' | b'\t'..=b'\r')).count();
            (usize::from(*run == b'+')..=len).rev().find_map(|k| match_at(rest, line, i + k))
        }
        [c, rest @ ..] => (line.get(i) == Some(c)).then(|| match_at(rest, line, i + 1)).flatten(),
    }
}

/// Non-overlapping matches of `needle` in `text`, line by line.
fn hits(needle: &str, word: bool, text: &str) -> usize {
    let pat = if word { format!(r"\b{needle}\b") } else { needle.to_string() };
    let count = |line: &[u8]| match pat.strip_prefix('^') {
        Some(anchored) => usize::from(match_at(anchored.as_bytes(), line, 0).is_some()),
        None => {
            let end_from = |i| Some(match_at(pat.as_bytes(), line, i)?.max(i + 1));
            let next = |from| (from..=line.len()).find_map(end_from);
            std::iter::successors(next(0), |&end| next(end)).count()
        }
    };
    text.split('\n').map(|line| count(line.as_bytes())).sum()
}

/// What `check` finds wrong with `tree`, one line per failing needle group.
fn judge(check: &Check, tree: &Tree) -> Vec<String> {
    let files: Vec<_> = tree
        .iter()
        .filter(|(path, _)| check.roots.iter().any(|root| in_root(root, path)))
        .filter(|(path, _)| !check.rs_only || path.ends_with(".rs"))
        .map(|(path, text)| (path.as_str(), if check.cut_tests { cut_tests(text) } else { text }))
        .collect();
    let mut wrong = Vec::new();
    for needles in check.needles.chunks(if check.each { 1 } else { check.needles.len() }) {
        let count = |text| needles.iter().map(|n| hits(n, check.word, text)).sum::<usize>();
        let found: Vec<(&str, usize)> = files.iter().map(|&(p, text)| (p, count(text))).collect();
        let with = |hit: bool| found.iter().filter(move |f| (f.1 > 0) == hit).map(|f| f.0);
        let holds = match check.expect {
            Files(allowed) => with(true).eq(allowed.iter().copied()),
            Hits(n) => found.iter().map(|f| f.1).sum::<usize>() == n,
            Lacking(allowed) => with(false).all(|path| allowed.contains(&path)),
        };
        if !holds {
            let found: Vec<_> = found.iter().filter(|f| f.1 > 0).collect();
            wrong.push(format!("{needles:?}: found {found:?}, expected {:?}", check.expect));
        }
    }
    wrong
}

/// Every complaint of `rule` about `tree`, each prefixed with its name.
fn violations(rule: &Rule, tree: &Tree) -> Vec<String> {
    let wrong = rule.checks.iter().flat_map(|check| judge(check, tree));
    wrong.map(|line| format!("{}: {line}", rule.name)).collect()
}

const REPO: &str = env!("CARGO_MANIFEST_DIR");

#[test]
fn every_rule_holds_at_head_and_flags_its_sample() {
    let head = walk(Path::new(REPO));
    for rule in RULES {
        let wrong = violations(rule, &head);
        assert!(wrong.is_empty(), "structural rule broken:\n{}", wrong.join("\n"));
        let (path, text) = rule.sample;
        let mut sampled: Tree = head.iter().filter(|f| f.0 != path).cloned().collect();
        sampled.push((path.to_string(), text.to_string()));
        sampled.sort();
        assert!(!violations(rule, &sampled).is_empty(), "{}: its sample {path} passes", rule.name);
    }
}

#[test]
fn matcher_and_cutter_edge_cases() {
    assert_eq!(hits(r"unsafe\s*{", false, "unsafe{unsafe {"), 2);
    assert_eq!(hits(r"impl\s+Hasher\s+for", false, "impl  Hasher\tfor K {}\nimplHasher for"), 1);
    assert_eq!(hits("EventQueue", true, "EventQueueX, EventQueue_, EventQueue::new()"), 1);
    assert_eq!(hits(r"fn on_blame\b", false, "fn on_blame_qc(); fn on_blame()"), 1);
    assert_eq!(hits("^#![forbid", false, "// #![forbid\n#![forbid(unsafe_code)]"), 1);
    assert_eq!(cut_tests("a\n    #[cfg(test)]\nb"), "a\n    #[cfg(test)]\nb");
    assert_eq!(cut_tests("a\n#[cfg(test)] mod t;\nb"), "a\n");
    // A tail is ignored in exactly the checks that cut tails.
    let tree = vec![("crates/a.rs".into(), "fn f() {}\n#[cfg(test)]\nv.insert(0, 1);".into())];
    let insert = Check { roots: &["crates"], needles: &[".insert("], expect: Hits(0), ..C };
    for cut_tests in [false, true] {
        assert_eq!(judge(&Check { cut_tests, ..insert }, &tree).is_empty(), cut_tests);
    }
}

/// Each rule rejects the tree of its base commit (needs the full history: shallow clones skip).
#[test]
#[ignore]
fn each_rule_flags_its_base_tree() {
    for rule in RULES {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("structure-{}", rule.base));
        fs::create_dir_all(&dir).expect("temp dir");
        let extract = format!("git -C {REPO} archive {} | tar -x -C {dir:?}", rule.base);
        let run = Command::new("bash").args(["-o", "pipefail", "-c", &extract]).status();
        assert!(run.is_ok_and(|s| s.success()), "{extract}");
        let wrong = violations(rule, &walk(&dir));
        assert!(!wrong.is_empty(), "{} passes on its base {}", rule.name, rule.base);
        println!("at {}: {}", rule.base, wrong[0]);
    }
}
