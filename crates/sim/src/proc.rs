//! ProcNet execution: run a [`Scenario`] as real OS processes.
//!
//! [`Scenario::run_proc`] binds a control listener, spawns one
//! `proc_replica` child per node (the `eesmr-sim` binary of that name),
//! releases them once all have checked in, meshes them over TCP or Unix
//! domain sockets via `eesmr_net::proc` (see its bring-up order), drives
//! them with the coordinator control protocol, and reassembles the
//! children's report blobs into the same [`RunReport`] the simulator
//! emits. Wall clock replaces virtual time — `elapsed_us` and the latency
//! figures are real — while the energy figures come from the same
//! channel model and receive rule, priced on the same encoded bytes with
//! the cell's scan window (`NetConfig::hop_delay_max`).
//!
//! # Δ padding
//!
//! Child protocol configs run their timers on
//! `max(simulated Δ, DELTA_PAD_US)`: with the simulator's
//! millisecond-scale Δ, a leader preempted by the OS scheduler for a few
//! milliseconds would look silent and draw spurious blame. Padding Δ
//! changes timer spacing only, never block contents, which is what lets
//! the conformance suite assert bit-identical commit sequences between
//! the two backends (`tests/proc_conformance.rs`).

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use eesmr_core::smr::Msg;
use eesmr_core::{Rule, Smr};
use eesmr_crypto::SigScheme;
use eesmr_net::proc::{
    alloc_addrs, run_node, ChildOpts, ChildProc, ControlListener, Coordinator, ProcTransport,
};
use eesmr_net::{NetConfig, NetStats, NodeId, SimDuration, WireCodec};
use eesmr_trace::hist::LogHistogram;

use crate::cell::{Cell, NodeRole, Replicas};
use crate::faults::FaultPlan;
use crate::report::{NodeEnergy, NodeReport, RunReport};
use crate::scenario::{Protocol, Scenario, StopWhen};

/// Floor on the Δ child processes run their timers with, µs (see the
/// module docs on Δ padding).
pub const DELTA_PAD_US: u64 = 25_000;

/// How long the coordinator waits for every child to reach its block
/// target before declaring the run wedged.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// Bring-up's one deadline: how long the coordinator waits, from the
/// last spawn, for every child to check in (a child that has not is
/// named in the `TimedOut` error). The same bound then applies to every
/// control write and to the final report collection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// `--protocol` flag values, paired with [`parse_protocol`].
fn protocol_flag(p: Protocol) -> &'static str {
    match p {
        Protocol::Eesmr => "eesmr",
        Protocol::SyncHotStuff => "sync-hotstuff",
        Protocol::OptSync => "optsync",
        Protocol::TrustedBaseline => "trusted",
    }
}

/// Parses a [`protocol_flag`] value.
fn parse_protocol(s: &str) -> Option<Protocol> {
    match s {
        "eesmr" => Some(Protocol::Eesmr),
        "sync-hotstuff" => Some(Protocol::SyncHotStuff),
        "optsync" => Some(Protocol::OptSync),
        "trusted" => Some(Protocol::TrustedBaseline),
        _ => None,
    }
}

/// One valued `proc_replica` flag: its name, how the coordinator renders
/// it from a scenario (`None` omits it), and how the child parses it
/// back into one (`None` rejects the value).
type ValueFlag =
    (&'static str, fn(&Scenario) -> Option<String>, fn(&mut Scenario, &str) -> Option<()>);

/// The flag table: every [`Scenario`] knob that shapes a replica and
/// that `run_proc` supports, once. The coordinator renders a child's
/// command line from it and the child parses the same rows back, so a
/// knob added here reaches the children with no further plumbing.
const VALUE_FLAGS: &[ValueFlag] = &[
    (
        "--protocol",
        |s| Some(protocol_flag(s.protocol).into()),
        |s, v| parse_protocol(v).map(|p| s.protocol = p),
    ),
    ("--n", |s| Some(s.n.to_string()), |s, v| v.parse().ok().map(|n| s.n = n)),
    ("--k", |s| Some(s.k.to_string()), |s, v| v.parse().ok().map(|k| s.k = k)),
    (
        "--payload",
        |s| Some(s.payload_bytes.to_string()),
        |s, v| v.parse().ok().map(|b| s.payload_bytes = b),
    ),
    ("--seed", |s| Some(s.seed.to_string()), |s, v| v.parse().ok().map(|x| s.seed = x)),
    (
        "--scheme",
        |s| Some(s.scheme.wire_tag().to_string()),
        |s, v| SigScheme::from_wire_tag(v.parse().ok()?).map(|x| s.scheme = x),
    ),
    (
        "--offered-load",
        |s| Some(s.offered_load.to_string()),
        |s, v| v.parse().ok().map(|l| s.offered_load = l),
    ),
    (
        "--forward-batch",
        |s| Some(s.forward_batch.to_string()),
        |s, v| v.parse().ok().map(|t| s.forward_batch = t),
    ),
    (
        "--checkpoint",
        |s| s.checkpoint_interval.map(|c| c.to_string()),
        |s, v| v.parse().ok().map(|c| s.checkpoint_interval = Some(c)),
    ),
    (
        "--fault-bound",
        |s| s.fault_bound.map(|f| f.to_string()),
        |s, v| v.parse().ok().map(|f| s.fault_bound = Some(f)),
    ),
];

/// One valueless flag: its name, whether the scenario sets it, and how
/// the child sets it.
type Switch = (&'static str, fn(&Scenario) -> bool, fn(&mut Scenario));

/// The valueless rows of the flag table.
const SWITCHES: &[Switch] = &[
    ("--streaming", |s| s.streaming, |s| s.streaming = true),
    ("--paper-optimizations", |s| s.paper_optimizations, |s| s.paper_optimizations = true),
];

/// The flags a child cannot run without: `Scenario::new` has a default
/// for every other knob.
const REQUIRED_FLAGS: [&str; 4] = ["--protocol", "--n", "--k", "--delta-us"];

/// Renders `scenario` and the padded Δ as `proc_replica` command-line
/// arguments (everything except the per-child `--node-id`/`--transport`/
/// `--listen`/`--peers`/`--control` identity flags).
fn child_args(scenario: &Scenario, delta: SimDuration) -> Vec<String> {
    let mut args = vec!["--delta-us".to_string(), delta.as_micros().to_string()];
    for (name, render, _) in VALUE_FLAGS {
        if let Some(value) = render(scenario) {
            args.extend([name.to_string(), value]);
        }
    }
    for (name, is_set, _) in SWITCHES {
        if is_set(scenario) {
            args.push(name.to_string());
        }
    }
    args
}

/// Parses a `proc_replica` command line back into the scenario cell, the
/// Δ the mesh agreed on, and the transport options. Returns `None` on
/// any unknown flag, missing required flag, malformed value, or a cell
/// `Scenario::new` would refuse (`1 ≤ k < n`, `node-id < n`).
pub fn parse_child_args(args: &[String]) -> Option<(Scenario, SimDuration, ChildOpts)> {
    // The placeholder shape is overwritten: --protocol/--n/--k are required.
    let mut scenario = Scenario::new(Protocol::Eesmr, 2, 1);
    let mut seen = Vec::new();
    let (mut delta_us, mut node_id, mut transport, mut listen, mut peers, mut control) =
        (None, None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if let Some((_, _, set)) = SWITCHES.iter().find(|row| row.0 == flag) {
            set(&mut scenario);
            continue;
        }
        let value = it.next()?;
        seen.push(flag);
        match flag {
            "--delta-us" => delta_us = Some(value.parse().ok()?),
            "--node-id" => node_id = Some(value.parse().ok()?),
            "--transport" => transport = Some(ProcTransport::parse(value)?),
            "--listen" => listen = Some(value.clone()),
            "--peers" => peers = Some(ChildOpts::parse_peers(value)?),
            "--control" => control = Some(value.clone()),
            _ => {
                let (_, _, parse) = VALUE_FLAGS.iter().find(|row| row.0 == flag)?;
                parse(&mut scenario, value)?;
            }
        }
    }
    let opts = ChildOpts {
        node_id: node_id?,
        transport: transport?,
        listen: listen?,
        peers: peers?,
        control: control?,
    };
    let shaped = REQUIRED_FLAGS.iter().all(|f| seen.contains(f))
        && (1..scenario.n).contains(&scenario.k)
        && (opts.node_id as usize) < scenario.n;
    shaped.then_some((scenario, SimDuration::from_micros(delta_us?), opts))
}

/// Report-blob schema magic + version ("EESMR Proc Report, v2").
const REPORT_MAGIC: &[u8; 4] = b"EPR2";

eesmr_net::wire_struct! { NodeEnergy {
    send_mj: f64,
    recv_mj: f64,
    sign_mj: f64,
    verify_mj: f64,
    hash_mj: f64,
} }

eesmr_net::wire_struct! { NodeReport {
    id: NodeId,
    faulty: bool,
    is_hub: bool,
    energy: NodeEnergy,
    committed_height: u64,
    blocks_committed: u64,
    view_changes: u64,
    signs: u64,
    verifies: u64,
    mean_commit_latency: Option<SimDuration>,
    tx_injected: u64,
    tx_forwarded: u64,
    forward_retries: u64,
    peak_backlog: u64,
    mean_batch_fill_pct: Option<f64>,
    tx_latency_hist: LogHistogram,
    commit_fps: Vec<u64> = "commit fingerprints",
    commit_txs: Vec<u32> = "commit tx counts",
} }

/// Encodes one child's [`NodeReport`] plus its transport counters as the
/// opaque control-channel blob `run_proc` collects: `REPORT_MAGIC`, then
/// the two tables. The layout is an internal coordinator↔child contract
/// versioned by the magic — both ends always come from the same build,
/// so it can evolve freely (unlike the frozen v1 message wire format).
fn encode_node_report(node: &NodeReport, stats: &NetStats) -> Vec<u8> {
    let mut out = REPORT_MAGIC.to_vec();
    node.encode_into(&mut out);
    stats.encode_into(&mut out);
    out
}

/// Decodes a blob produced by [`encode_node_report`].
fn decode_node_report(blob: &[u8]) -> io::Result<(NodeReport, NetStats)> {
    let body = blob
        .strip_prefix(REPORT_MAGIC)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "report blob: bad magic"))?;
    <(NodeReport, NetStats)>::decode(body)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, format!("report blob: {err}")))
}

fn unsupported(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("run_proc covers the happy-path cell only: {what} is not supported"),
    )
}

impl Scenario {
    /// Runs this scenario's happy-path cell as real OS processes: one
    /// `proc_replica` child per node (spawned from `binary`), meshed
    /// over `transport`, stopped once every node reports the scenario's
    /// block target. Returns the same [`RunReport`] shape `run` does,
    /// with wall-clock `elapsed_us` and latencies.
    ///
    /// Supported cells: no fault plan, no client workload, no explicit
    /// batch policy, and a [`StopWhen::Blocks`] stop — the subset where
    /// commit sequences are timing-independent, so the conformance
    /// suite can compare backends bit for bit. Anything else returns
    /// `InvalidInput`.
    pub fn run_proc(&self, transport: ProcTransport, binary: &Path) -> io::Result<RunReport> {
        let blocks = match self.stop {
            StopWhen::Blocks(b) => b,
            _ => return Err(unsupported("a non-Blocks stop condition")),
        };
        if self.workload.is_some() {
            return Err(unsupported("a client workload"));
        }
        if self.fault_spec.is_some() || self.faults.count() > 0 {
            return Err(unsupported("a fault plan"));
        }
        if self.batch_policy.is_some() {
            return Err(unsupported("an explicit batch policy"));
        }
        if !binary.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not built — run `cargo build -p eesmr-sim --bins`", binary.display()),
            ));
        }

        // The coordinator builds the same cell its children do, for the
        // fault bound the report states.
        let net = self.net_config();
        let delta = net.delta().max(SimDuration::from_micros(DELTA_PAD_US));
        let f = self.build(net, delta, &FaultPlan::none()).f;
        // Declared before the children so it drops after them: the
        // socket directory goes once no child can still be using it.
        let addrs = alloc_addrs(transport, self.n)?;
        // Bound before the first spawn, so each child's one dial finds it.
        let control = ControlListener::bind(transport, &addrs.control_addr(), CONNECT_TIMEOUT)?;
        let cell_args = child_args(self, delta);
        let mut children = Vec::with_capacity(self.n);
        for id in 0..self.n {
            let peers: Vec<(u32, String)> =
                (0..self.n).filter(|p| *p != id).map(|p| (p as u32, addrs[p].clone())).collect();
            let mut cmd = std::process::Command::new(binary);
            cmd.args(&cell_args)
                .arg("--node-id")
                .arg(id.to_string())
                .arg("--transport")
                .arg(transport.flag())
                .arg("--listen")
                .arg(&addrs[id])
                .arg("--peers")
                .arg(ChildOpts::peers_flag(&peers))
                .arg("--control")
                .arg(control.addr())
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::null());
            children.push(ChildProc(cmd.spawn()?));
        }

        let started = Instant::now();
        let mut coord = Coordinator::check_in(control, self.n)?;
        coord.start()?;
        coord.run_until(|statuses| statuses.iter().all(|h| *h >= blocks), RUN_TIMEOUT)?;
        let blobs = coord.stop_and_collect()?;
        let elapsed_us = started.elapsed().as_micros() as u64;
        // Each child exits once the coordinator's drop closed its control
        // stream; kill-on-drop reaps them, ending any still on its way out.
        drop(children);

        let mut net = NetStats::default();
        let mut nodes = Vec::with_capacity(self.n);
        for (i, blob) in blobs.iter().enumerate() {
            let (node, stats) = decode_node_report(blob)?;
            if node.id as usize != i {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("child {i} reported as node {}", node.id),
                ));
            }
            net.absorb(&stats);
            nodes.push(node);
        }
        Ok(RunReport::new(self, f, delta, elapsed_us, nodes, net))
    }

    /// The child's half of [`run_proc`](Self::run_proc): rebuilds the
    /// cell exactly as the simulator would — minus the fault plan, on
    /// the mesh's padded Δ — keeps replica `opts.node_id`, and runs it
    /// over the process transport until the coordinator stops it.
    pub fn run_child(&self, delta: SimDuration, opts: ChildOpts) -> io::Result<()> {
        let Cell { net, roles, replicas, .. } =
            self.build(self.net_config(), delta, &FaultPlan::none());
        let role = roles[opts.node_id as usize];
        match replicas {
            Replicas::Eesmr(r) => run_replica(opts, &net, role, r),
            Replicas::SyncHs(r) => run_replica(opts, &net, role, r),
            Replicas::Trusted(r) => run_replica(opts, &net, role, r),
        }
    }
}

/// Runs replica `opts.node_id` of `replicas` as this process's node,
/// priced by the cell's channel with the simulator's scan window
/// (`hop_delay_max`); its final report blob is the [`NodeReport`] the
/// simulator would emit.
fn run_replica<R: Rule>(
    opts: ChildOpts,
    net: &NetConfig,
    role: NodeRole,
    mut replicas: Vec<Smr<R>>,
) -> io::Result<()>
where
    Msg<R>: WireCodec + Send + 'static,
{
    let id = opts.node_id;
    let actor = replicas.swap_remove(id as usize);
    run_node(
        opts,
        actor,
        net.channel,
        net.hop_delay_max,
        |r| r.committed_height(),
        |r, meter, stats| {
            let node = NodeReport::from_view(id, role.faulty, role.is_hub, r, meter);
            encode_node_report(&node, stats)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_args_roundtrip_through_the_child_parser() {
        let identity: Vec<String> =
            "--node-id 3 --transport uds --listen /tmp/x.sock --peers 0@a --control /tmp/ctrl.sock"
                .split(' ')
                .map(String::from)
                .collect();
        let delta = SimDuration::from_micros(30_000);
        for protocol in
            [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
        {
            // Every optional flag unset, then every one set.
            let plain = Scenario::new(protocol, 7, 3);
            let full = plain
                .clone()
                .payload(64)
                .seed(9)
                .scheme(SigScheme::Hmac)
                .offered_load(2)
                .forward_batch(4)
                .streaming()
                .with_paper_optimizations()
                .checkpoint_every(8)
                .fault_bound(2);
            assert!(full.paper_optimizations && full.streaming);
            for original in [plain, full] {
                let mut args = child_args(&original, delta);
                args.extend(identity.clone());
                let (back, back_delta, opts) = parse_child_args(&args).expect("parses");
                assert_eq!(back_delta, delta);
                // Every field, the replica-shaping knobs outside the label
                // (pacing, optimizations, checkpoint, fault bound) included.
                assert_eq!(back, original);
                assert_eq!(opts.node_id, 3);
                assert_eq!(opts.transport, ProcTransport::Uds);
                assert_eq!(opts.listen, "/tmp/x.sock");
                assert_eq!(opts.peers, vec![(0, "a".to_string())]);
                assert_eq!(opts.control, "/tmp/ctrl.sock");
            }
        }
        // Unknown flags, missing values, bad numbers, missing required
        // flags and impossible shapes are rejected, not ignored.
        let with = |extra: &[&str]| {
            let mut args = child_args(&Scenario::new(Protocol::Eesmr, 7, 3), delta);
            args.extend(identity.clone());
            args.extend(extra.iter().map(|s| s.to_string()));
            parse_child_args(&args).map(|(s, ..)| s)
        };
        assert_eq!(with(&[]).expect("the baseline parses").n, 7);
        assert!(with(&["--bogus", "1"]).is_none());
        assert!(with(&["--n"]).is_none());
        assert!(with(&["--seed", "x"]).is_none());
        assert!(with(&["--k", "7"]).is_none(), "k must stay below n");
        assert!(with(&["--n", "3", "--k", "2"]).is_none(), "no node 3 when n = 3");
        assert!(parse_child_args(&identity).is_none(), "--protocol/--n/--k/--delta-us required");
        let mut uncontrolled = child_args(&Scenario::new(Protocol::Eesmr, 7, 3), delta);
        uncontrolled.extend(identity[..8].iter().cloned());
        assert!(parse_child_args(&uncontrolled).is_none(), "--control required");
    }

    /// A node report with every field set, and its transport counters.
    fn sample_report() -> (NodeReport, NetStats) {
        let mut hist = LogHistogram::new();
        for v in [5u64, 900, 77_000] {
            hist.record(v);
        }
        let node = NodeReport {
            id: 4,
            faulty: false,
            is_hub: true,
            energy: NodeEnergy {
                send_mj: 1.5,
                recv_mj: 2.25,
                sign_mj: 0.125,
                verify_mj: 3.0,
                hash_mj: 0.5,
            },
            committed_height: 20,
            blocks_committed: 21,
            view_changes: 1,
            signs: 40,
            verifies: 160,
            mean_commit_latency: Some(SimDuration::from_micros(123_456)),
            tx_injected: 7,
            tx_forwarded: 3,
            forward_retries: 1,
            peak_backlog: 9,
            mean_batch_fill_pct: Some(87.5),
            tx_latency_hist: hist,
            commit_fps: vec![1, u64::MAX, 42],
            commit_txs: vec![1, 1, 2],
        };
        let stats = NetStats {
            kcasts: 10,
            deliveries: 20,
            loopbacks: 5,
            flood_relays: 0,
            bytes_on_air: 12_345,
            dropped: 1,
        };
        (node, stats)
    }

    #[test]
    fn report_blob_roundtrip() {
        let (node, stats) = sample_report();
        let blob = encode_node_report(&node, &stats);
        let (node2, stats2) = decode_node_report(&blob).expect("decodes");
        assert_eq!(node2, node);
        assert_eq!(stats2, stats);
        // Corruption surfaces as an error, not a panic.
        assert!(decode_node_report(&blob[..blob.len() - 1]).is_err());
        assert!(decode_node_report(b"nope").is_err());
        let mut hostile = blob.clone();
        let fps_at = blob.len() - 6 * 8 - (3 * 4 + 4) - (3 * 8 + 4);
        hostile[fps_at..fps_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_node_report(&hostile).unwrap_err();
        assert!(err.to_string().contains("commit fingerprints"), "hostile count prefix: {err}");
        // One count in bucket 1930, past the last bucket a u64 sample
        // fills: decoded, `tx_latency_stats` would panic in `percentile`.
        let mut buckets = vec![0; 1931];
        buckets[1930] = 1;
        let corrupt = NodeReport {
            tx_latency_hist: LogHistogram::from_raw_parts(buckets, 1, 7, 7, 7),
            ..node
        };
        let err = decode_node_report(&encode_node_report(&corrupt, &stats)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// The coordinator decodes whatever a child sent: every truncation and
    /// every single-byte corruption of a report blob is an error or a
    /// report whose latency statistics can be read, never a panic.
    #[test]
    fn report_blob_decoding_is_total() {
        let (node, stats) = sample_report();
        let blob = encode_node_report(&node, &stats);
        let scenario = Scenario::new(Protocol::Eesmr, 5, 2);
        for len in 0..blob.len() {
            assert!(decode_node_report(&blob[..len]).is_err(), "{len}-byte prefix decoded");
        }
        for at in 0..blob.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = blob.clone();
                flipped[at] ^= mask;
                if let Ok((decoded, net)) = decode_node_report(&flipped) {
                    // Pooled with an intact node, as the coordinator pools children.
                    let nodes = vec![node.clone(), decoded];
                    let report =
                        RunReport::new(&scenario, 2, SimDuration::from_millis(1), 1, nodes, net);
                    let _ = report.tx_latency_stats();
                }
            }
        }
    }

    #[test]
    fn run_proc_rejects_cells_outside_the_happy_path() {
        let bin = Path::new("/nonexistent/proc_replica");
        let base = Scenario::new(Protocol::Eesmr, 4, 2).stop(StopWhen::Blocks(2));
        let err = |s: Scenario| s.run_proc(ProcTransport::Uds, bin).unwrap_err().kind();
        assert_eq!(
            err(base.clone().stop(StopWhen::Elapsed(SimDuration::from_millis(1)))),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            err(base.clone().faults(crate::faults::FaultPlan::silent_leader())),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            err(base
                .clone()
                .workload(crate::Workload::new(crate::ArrivalProcess::Poisson { rate: 10 }))),
            io::ErrorKind::InvalidInput
        );
        // A valid cell with a missing binary fails with NotFound (and a
        // build hint), not a spawn error.
        assert_eq!(err(base), io::ErrorKind::NotFound);
    }
}
