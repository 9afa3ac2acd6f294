//! The figure table, then each figure's claims and body in table order.
//! A body runs its sweeps on the driver it is handed (its worker count
//! parallelises them, quick mode shrinks them) and returns its tables.

use std::collections::BTreeSet;
use std::path::Path;

use eesmr_crypto::SigScheme;
use eesmr_driver::{progress, CellResult, Driver, ScenarioGrid, SuiteReport};
use eesmr_energy::complexity::table3_rows;
use eesmr_energy::medium::{Medium, ANCHOR_SIZES};
use eesmr_energy::{BleGattModel, BleKcastModel, EnergyClass, FeasibleCell, FeasibleRegion};
use eesmr_net::{SimDuration, TraceClass, TraceLevel};
use eesmr_sim::{ArrivalProcess, BatchPolicy, FaultPlan, FaultSpec, Protocol, RunReport};
use eesmr_sim::{RunOptions, Scenario, Skew, StopWhen, Workload};
use eesmr_trace::audit::{audit, AuditConfig};

use crate::{below, col, data, falling, near, ratio_within, rises, rising, shape, share_within};
use crate::{mean, num, shown, Claim, Figure, Output, Table};

/// The two protocols the paper compares throughout.
const BOTH: [Protocol; 2] = [Protocol::Eesmr, Protocol::SyncHotStuff];

/// A cell's total correct-node energy per block, mJ, averaged over its
/// repeats.
fn energy_per_block(cell: &CellResult) -> f64 {
    mean(cell.runs.iter().map(RunReport::energy_per_block_mj)).expect("a cell has a run")
}

/// Every figure, in the order `figures all` runs them.
pub static FIGURES: &[Figure] = &[
    Figure::new("table1", "Table 1", table1, TABLE1),
    Figure::new("table2", "Table 2", table2, TABLE2),
    Figure::new("table3", "Table 3", table3, TABLE3),
    Figure::new("fig1_feasible_region", "Fig. 1", fig1_feasible_region, FIG1),
    Figure::new("fig2a_kcast_reliability", "Fig. 2a", fig2a_kcast_reliability, FIG2A),
    Figure::new("fig2b_unicast_vs_multicast", "Fig. 2b", fig2b_unicast_vs_multicast, FIG2B),
    Figure::new("fig2c_leader_replica", "Fig. 2c", fig2c_leader_replica, FIG2C),
    Figure::new("fig2d_blocksize", "Fig. 2d", fig2d_blocksize, FIG2D),
    Figure::new("fig2e_viewchange", "Fig. 2e", fig2e_viewchange, FIG2E),
    Figure::new("fig2f_total_energy", "Fig. 2f", fig2f_total_energy, FIG2F),
    Figure::new("fig3_eesmr_vs_synchs", "Fig. 3", fig3_eesmr_vs_synchs, FIG3),
    Figure::new("fig_workload", "beyond the paper", fig_workload, WORKLOAD),
    Figure::new("fig_adversarial", "beyond the paper", fig_adversarial, ADVERSARIAL),
    Figure::new("headline", "§5.7, abstract", headline, HEADLINE),
    Figure::new("ablation_schemes", "ablation, §5.5", ablation_schemes, SCHEMES),
    Figure::new("ablation_reliability", "ablation, §5.4", ablation_reliability, RELIABILITY),
    Figure::new("ablation_votes", "ablation", ablation_votes, VOTES),
    Figure::new("ablation_checkpoint", "ablation, §3.5", ablation_checkpoint, CHECKPOINT),
];

const TABLE1: &[Claim] =
    &[Claim::holds("energy per message rises with size, every medium", "Table 1", |o| {
        let t = o.table("table1_media");
        let costs = &t.columns[1..];
        let ok = costs.iter().all(|c| rising(&t.col(c.key.as_deref().unwrap_or_default())));
        shape(ok, format!("{} sizes × {} costs", t.rows.len(), costs.len()), "rising")
    })];

/// Table 1: energy per message for BLE, 4G LTE and WiFi at 256 B – 2 kB.
fn table1(driver: &Driver) -> Output {
    let mut t = Table::new("table1_media", "Table 1: energy per message (mJ)").cols(vec![
        col("Size", "size_bytes").unit(" B"),
        col("BLE send", "ble_send").dp(2),
        col("BLE recv", "ble_recv").dp(2),
        col("BLE mcast", "ble_multicast").dp(2),
        col("4G send", "fourg_send").dp(2),
        col("4G recv", "fourg_recv").dp(2),
        col("WiFi send", "wifi_send").dp(2),
        col("WiFi recv", "wifi_recv").dp(2),
    ]);
    t.extend(driver.map(&ANCHOR_SIZES, |&size| {
        let (ble, fourg, wifi) = (Medium::Ble, Medium::FourG, Medium::Wifi);
        let costs = [ble.send_mj(size), ble.recv_mj(size), ble.multicast_send_mj(size)];
        let costs = costs.into_iter().chain([fourg.send_mj(size), fourg.recv_mj(size)]);
        let costs = costs.chain([wifi.send_mj(size), wifi.recv_mj(size)]);
        [size.to_string()].into_iter().chain(costs.map(|c| c.to_string())).collect()
    }));
    Output::of(t)
}

const TABLE2: &[Claim] =
    &[Claim::holds("RSA-1024 verifies cheapest of every scheme", "§5.5", |o| {
        let t = o.table("table2_signatures");
        let rsa = t.col_where("verify_j", "scheme", "RSA 1024-bit")[0];
        shape(t.col("verify_j").iter().all(|&v| rsa <= v), format!("{rsa:.3} J"), "lowest")
    })];

/// Table 2: signing/verification energy and sizes per signature scheme.
fn table2(driver: &Driver) -> Output {
    let title = "Table 2: signature scheme energy (J) and sizes";
    let mut t = Table::new("table2_signatures", title).cols(vec![
        col("Scheme", "scheme"),
        col("Sign (J)", "sign_j").dp(2),
        col("Verify (J)", "verify_j").dp(2),
        col("Sig (B)", "sig_bytes"),
        col("PK (B)", "pk_bytes"),
        col("Security", "security_bits"),
    ]);
    t.extend(driver.map(&SigScheme::ALL, |s| {
        let (sign, verify) = (s.sign_energy_j(), s.verify_energy_j());
        row![s.name(), sign, verify, s.signature_size(), s.public_key_size(), s.security_bits()]
    }));
    let mut out = Output::of(t);
    out.note("\nThe paper's pick for CPS: RSA-1024 (cheap verification fits one-signer/many-verifiers SMR).");
    out
}

const TABLE3: &[Claim] = &[
    Claim::holds("EESMR k-casts per block as n doubles (k = 3)", "O(nd): ×2", |o| {
        near(doubling(o, "EESMR"), 2.0, 0.05)
    }),
    Claim::holds("Sync HotStuff k-casts per block as n doubles (k = 3)", "O(n²d): ×4", |o| {
        ratio_within(doubling(o, "Sync HotStuff"), 3.0, 4.0)
    }),
];

/// Table 3: best/worst-case complexity, plus per-block k-casts as n doubles.
fn table3(driver: &Driver) -> Output {
    let heads = ["Protocol", "Comm (best)", "Sign", "Verify", "Period", "Comm (worst)", "Sign"];
    let columns = heads.into_iter().chain(["Verify", "Period"]).map(shown).collect();
    let title = "Table 3: best-case vs worst-case comparison";
    let mut complexity = Table::new("table3", title).no_csv().cols(columns);
    for r in table3_rows() {
        let cases =
            [&r.best, &r.worst].map(|c| row![c.communication, c.signs, c.verifies, c.period]);
        complexity.row(row![r.name].into_iter().chain(cases.into_iter().flatten()).collect());
    }

    let grid = ScenarioGrid::named("table3_empirical")
        .protocols(BOTH)
        .nodes([6, 12])
        .degrees([3])
        .stop(StopWhen::Blocks(10));
    let suite = driver.run_grid_with_progress(&grid, progress::stderr_status());
    let title = "Empirical k-casts per committed block (k = 3)";
    let mut t = Table::new("table3_empirical", title).cols(vec![
        col("Protocol", "protocol"),
        col("n", "n"),
        data("k"),
        col("k-casts/block", "kcasts_per_block").dp(1),
    ]);
    for protocol in BOTH {
        for n in [6usize, 12] {
            let r = suite.find(|c| c.protocol == protocol && c.n == n).expect("on grid").report();
            let per_block = r.net.kcasts as f64 / r.committed_height().max(1) as f64;
            t.row(row![protocol.name(), n, 3, per_block]);
        }
    }
    let mut out = Output::of(complexity);
    out.add(t);
    let (e, s) = (doubling(&out, "EESMR"), doubling(&out, "Sync HotStuff"));
    out.note(format!(
        "\nscaling when n doubles (6 -> 12): EESMR x{e:.2} (expect ~2), SyncHS x{s:.2} (expect ~4)"
    ));
    out
}

/// Table 3's k-casts per block at n = 12 over n = 6.
fn doubling(out: &Output, protocol: &str) -> f64 {
    let v = out.table("table3_empirical").col_where("kcasts_per_block", "protocol", protocol);
    v[1] / v[0]
}

const FIG1: &[Claim] =
    &[Claim::holds("EESMR beats the trusted baseline iff n ≤ crossover(m)", "Fig. 1", |o| {
        let t = o.table("fig1_feasible_region");
        let mut crossovers = Vec::new();
        for m in t.distinct("payload_bytes") {
            // EESMR's cells (negative deltas) must be a prefix of the n axis.
            let deltas = t.col_where("delta_mj", "payload_bytes", &m);
            let wins = deltas.iter().take_while(|&&d| d < 0.0).count();
            let prefix = wins > 0 && deltas[wins..].iter().all(|&d| d >= 0.0);
            let n = t.col_where("n", "payload_bytes", &m);
            crossovers.push(if prefix { n[wins - 1] } else { f64::NAN });
        }
        let (lo, hi) = (crossovers[crossovers.len() - 1], crossovers[0]);
        let ok = crossovers.windows(2).all(|w| w[0] >= w[1]) && lo >= 5.0 && hi <= 6.0;
        shape(ok, format!("crossover n = {lo}–{hi}"), "5–6, non-increasing in m")
    })];

/// Fig. 1: ψ^EESMR − ψ^Baseline over n and message size (RSA-1024, WiFi
/// between nodes, 4G to the trusted node); negative means EESMR wins.
fn fig1_feasible_region(driver: &Driver) -> Output {
    let n_values: Vec<usize> = (3..=16).collect();
    let m_values: Vec<usize> = vec![64, 128, 256, 512, 1024, 1536, 2048];
    let rows: Vec<Vec<FeasibleCell>> =
        driver.map(&n_values, |&n| FeasibleRegion::compute(&[n], &m_values).cells().to_vec());
    let region =
        FeasibleRegion::from_rows(&n_values, &m_values, rows.into_iter().flatten().collect());

    let keys = ["n", "payload_bytes", "eesmr_mj", "baseline_mj", "delta_mj"];
    let mut cells = Table::series("fig1_feasible_region").cols(keys.map(data).to_vec());
    for c in region.cells() {
        cells.row(row![c.n, c.payload, c.eesmr_mj, c.baseline_mj, c.delta_mj]);
    }
    let heads = [shown("")].into_iter().chain(m_values.iter().map(|m| shown(&format!("m={m}B"))));
    let mut winners = Table::new("fig1_winners", "Fig. 1: who wins per (n, m) cell")
        .no_csv()
        .cols(heads.collect());
    for &n in &n_values {
        let won = |m| region.cell(n, m).expect("on-grid").eesmr_favoured();
        let cells = m_values.iter().map(|&m| if won(m) { "EESMR" } else { "BL" }.to_string());
        winners.row([format!("n={n}")].into_iter().chain(cells).collect());
    }
    let mut out = Output::of(winners);
    out.note(format!("\nEESMR favoured on {:.0}% of the grid", region.favoured_fraction() * 100.0));
    for (m, crossover) in region.crossover_frontier() {
        out.note(match crossover {
            Some(n) => format!("  m={m:>5}B: EESMR up to n={n}"),
            None => format!("  m={m:>5}B: baseline always wins"),
        });
    }
    out.add(cells);
    out
}

const FIG2A: &[Claim] =
    &[Claim::holds("k-cast failure falls with redundancy, rises with k", "Fig. 2a", |o| {
        let t = o.table("fig2a_kcast_reliability");
        let fail = |x: &str, at| t.col_where("failure_pct", x, at);
        let ok = t.distinct("k").into_iter().all(|k| falling(&fail("k", k)))
            && t.distinct("redundancy").into_iter().all(|r| rising(&fail("redundancy", r)));
        shape(ok, format!("{} points", t.rows.len()), "monotone in both")
    })];

/// Fig. 2a: 25 B k-cast failure rate vs energy, over BLE redundancy.
fn fig2a_kcast_reliability(driver: &Driver) -> Output {
    let max_redundancy = if driver.config().quick_mode { 3 } else { 10 };
    let points: Vec<(usize, u32)> =
        [1usize, 3, 7].iter().flat_map(|&k| (1..=max_redundancy).map(move |r| (k, r))).collect();
    let model = BleKcastModel::default();
    let title = "Fig. 2a: 25 B k-cast failure rate vs energy";
    let mut t = Table::new("fig2a_kcast_reliability", title)
        .cols(vec![
            col("k", "k"),
            col("redundancy", "redundancy"),
            col("sender mJ", "sender_mj").dp(2),
            col("receiver mJ", "receiver_mj").dp(2),
            col("failure %", "failure_pct").dp(4),
        ])
        .print_only(|row| num(&row[1]) <= 8.0);
    t.extend(driver.map(&points, |&(k, r)| {
        let (send, recv) = (model.kcast_send_mj(25, r), model.kcast_recv_mj(25, r));
        row![k, r, send, recv, model.fragment_failure_prob(k, r) * 100.0]
    }));
    let mut out = Output::of(t);
    for k in [1usize, 3, 7] {
        let r = model.redundancy_for(k, 0.9999);
        let (send, recv) = (model.kcast_send_mj(25, r), model.kcast_recv_mj(25, r));
        out.note(format!(
            "k={k}: four-nines at redundancy {r} -> {send:.2} mJ sender / {recv:.2} mJ receiver"
        ));
    }
    out
}

const FIG2B: &[Claim] =
    &[Claim::holds("k = 7 k-cast beats 7 unicasts at 25 B, not at 400+ B", "Fig. 2b", |o| {
        let t = o.table("fig2b_unicast_vs_multicast");
        let (ks, us, kr, ur) =
            (t.col("kcast_s_k7"), t.col("uc_s_d7"), t.col("kcast_r_k7"), t.col("uc_r_d7"));
        let ok = ks[0] < us[0] && kr[0] < ur[0] && ks[ks.len() - 1] > us[us.len() - 1];
        shape(ok, format!("sender 25 B {:.1} vs {:.1} mJ", ks[0], us[0]), "cheaper, then dearer")
    })];

/// Fig. 2b: GATT unicasts (d = 1, 7) vs a 99.99 % k = 7 k-cast, 25–500 B.
fn fig2b_unicast_vs_multicast(driver: &Driver) -> Output {
    let step = if driver.config().quick_mode { 125 } else { 25 };
    let payloads: Vec<usize> = (25..=500).step_by(step).collect();
    let (kcast, gatt) = (BleKcastModel::default(), BleGattModel::default());
    let title = "Fig. 2b: unicast vs multicast energy (mJ)";
    let mut t = Table::new("fig2b_unicast_vs_multicast", title)
        .cols(vec![
            col("Payload", "payload_bytes").unit(" B"),
            col("UC S d=1", "uc_s_d1").dp(1),
            col("UC R d=1", "uc_r_d1").dp(1),
            col("UC S d=7", "uc_s_d7").dp(1),
            col("UC R d=7", "uc_r_d7").dp(1),
            col("kcast S k=7", "kcast_s_k7").dp(1),
            col("kcast R k=7", "kcast_r_k7").dp(1),
        ])
        .print_only(|row| num(&row[0]) % 100.0 == 0.0 || num(&row[0]) == 25.0);
    t.extend(driver.map(&payloads, |&m| {
        let (send, recv) = (|d| gatt.unicast_send_mj(m, d), |d| gatt.unicast_recv_mj(m, d));
        let ks = kcast.reliable_kcast_send_mj(m, 7, 0.9999);
        row![m, send(1), recv(1), send(7), recv(7), ks, kcast.reliable_kcast_recv_mj(m, 7, 0.9999)]
    }));
    Output::of(t)
}

const FIG2C: &[Claim] = &[
    Claim::holds("replica energy per SMR rises with k", "Fig. 2c: rising in k", |o| {
        rises(&o.col("fig2c_leader_replica", "replica_mj_per_smr"))
    })
    .full_size(),
    Claim::deviation("leader energy per SMR rises with k", "Fig. 2c: rising in k", |o| {
        let l = o.col("fig2c_leader_replica", "leader_mj_per_smr");
        let ok = rising(&l[..5]) && l[5] < l[4];
        shape(ok, format!("k=7 {:.1} < k=6 {:.1} mJ", l[5], l[4]), "rising to k=6 only")
    }),
];

/// Fig. 2c: EESMR leader and average replica energy per SMR against k.
fn fig2c_leader_replica(driver: &Driver) -> Output {
    let (n, ks) = (10, 2..=7usize);
    let grid = ScenarioGrid::named("fig2c_leader_replica")
        .nodes([n])
        .degrees(ks.clone())
        .stop(StopWhen::Blocks(30));
    let suite = driver.run_grid(&grid);
    let title = "Fig. 2c: EESMR energy per SMR, |b|=16 B, n=10 (mJ)";
    let mut t = Table::new("fig2c_leader_replica", title).cols(vec![
        col("k", "k"),
        col("leader", "leader_mj_per_smr").dp(1),
        col("replica (avg)", "replica_mj_per_smr").dp(1),
    ]);
    for k in ks {
        let report = suite.find(|c| c.k == k).expect("every k cell ran").report();
        let replica = (1..n as u32).map(|id| report.node_energy_per_block_mj(id)).sum::<f64>();
        // Node 0 leads view 1.
        t.row(row![k, report.node_energy_per_block_mj(0), replica / (n - 1) as f64]);
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const FIG2D: &[Claim] =
    &[Claim::holds("leader energy per SMR rises with payload, every k", "Fig. 2d", |o| {
        let t = o.table("fig2d_blocksize");
        let by_k = |k| rising(&t.col_where("leader_mj_per_smr", "k", k));
        shape(t.distinct("k").into_iter().all(by_k), "16 → 128 → 256 B", "rising")
    })];

/// Fig. 2d: EESMR leader energy per SMR by block payload against k, plus
/// fixed vs adaptive batching under offered load (beyond the paper).
fn fig2d_blocksize(driver: &Driver) -> Output {
    let (n, payloads, ks) = (10, [16usize, 128, 256], 2..=7usize);
    let grid = ScenarioGrid::named("fig2d_blocksize")
        .nodes([n])
        .degrees(ks.clone())
        .payloads(payloads)
        .stop(StopWhen::Blocks(30));
    let suite = driver.run_grid(&grid);
    let keys = ["k", "payload_bytes", "leader_mj_per_smr"];
    let mut series = Table::series("fig2d_blocksize").cols(keys.map(data).to_vec());
    let title = "Fig. 2d: EESMR leader energy per SMR by payload (mJ), n=10";
    let heads = [shown("k"), shown("16 B").dp(1), shown("128 B").dp(1), shown("256 B").dp(1)];
    let mut by_k = Table::new("fig2d_by_k", title).no_csv().cols(heads.to_vec());
    for k in ks {
        let mut row = row![k];
        for m in payloads {
            let cell = suite.find(|c| c.k == k && c.payload_bytes == m).expect("every cell ran");
            let leader = cell.report().node_energy_per_block_mj(0);
            series.row(row![k, m, leader]);
            row.push(leader.to_string());
        }
        by_k.row(row);
    }
    let mut out = Output::of(by_k);
    out.add(series);
    out.add(Table::suite(&suite));

    let adaptive = |target_fill_pct| BatchPolicy::Adaptive { min: 1, max: 64, target_fill_pct };
    let fixed = [1, 16, 64].map(BatchPolicy::Fixed);
    let grid = ScenarioGrid::named("fig2d_batch_policy")
        .nodes([n])
        .degrees([3])
        .batch_policies(fixed.into_iter().chain([adaptive(50), adaptive(100)]))
        .configure(|s| s.offered_load(64))
        .stop(StopWhen::Blocks(30));
    let suite = driver.run_grid(&grid);
    // This series has always kept the energies at the printed decimal.
    let title = "Fig. 2d ablation: batch policy under 64-command offered load, n=10 k=3";
    let mut t = Table::new("fig2d_batch_policy", title).cols(vec![
        col("policy", "policy"),
        col("leader mJ/SMR", "leader_mj_per_smr"),
        col("total mJ/SMR", "total_mj_per_smr"),
        col("bytes on air", "bytes_on_air"),
    ]);
    for cell in &suite.cells {
        let report = cell.report();
        let leader = format!("{:.1}", report.node_energy_per_block_mj(0));
        let total = format!("{:.1}", report.energy_per_block_mj());
        let policy = cell.scenario.effective_batch_policy().label();
        t.row(row![policy, leader, total, report.net.bytes_on_air]);
    }
    out.add(t);
    out.add(Table::suite(&suite));
    out
}

const FIG2E: &[Claim] = &[
    Claim::holds("no-progress view-change energy rises with f", "Fig. 2e: rising in f", |o| {
        rises(&o.col("fig2e_viewchange", "no_progress_vc_mj"))
    }),
    Claim::holds("honest-SMR leader energy rises with f", "Fig. 2e: rising in f", |o| {
        rises(&o.col("fig2e_viewchange", "honest_smr_mj"))
    })
    .full_size(),
    Claim::deviation("equivocation view-change energy rises with f", "Fig. 2e: rising in f", |o| {
        let v = o.col("fig2e_viewchange", "equivocation_vc_mj");
        let ok = rising(&v[..3]) && v[3] < v[2] && rising(&v[3..]);
        shape(ok, format!("k=5 {:.0} < k=4 {:.0} mJ", v[3], v[2]), "one dip, at k=5")
    }),
];

/// Fig. 2e: the EESMR leader's energy per view change against f, next to
/// an honest SMR; like the paper's, view changes use the §5.6 optimizations.
fn fig2e_viewchange(driver: &Driver) -> Output {
    let (n, fs) = (15, 1..=6usize);
    let mut grid = ScenarioGrid::named("fig2e_viewchange");
    for f in fs.clone() {
        let scenario = || Scenario::new(Protocol::Eesmr, n, f + 1).fault_bound(f);
        let vc = |p| scenario().faults(p).with_paper_optimizations().stop(StopWhen::ViewReached(2));
        grid = grid
            .scenario(format!("equivocation f={f}"), vc(FaultPlan::equivocating_leader()))
            .scenario(format!("no-progress f={f}"), vc(FaultPlan::silent_leader()))
            .scenario(format!("honest f={f}"), scenario().stop(StopWhen::Blocks(20)));
    }
    let suite = driver.run_grid(&grid);
    let title = "Fig. 2e: EESMR leader energy per view change, n=15 (mJ)";
    let mut t = Table::new("fig2e_viewchange", title).cols(vec![
        col("k", "k"),
        col("f", "f"),
        col("Equivocation VC", "equivocation_vc_mj").dp(0),
        col("No-progress VC", "no_progress_vc_mj").dp(0),
        col("Honest SMR", "honest_smr_mj").dp(0),
    ]);
    for f in fs {
        // View changes: the new leader's (node 1) energy for the whole
        // change; honest: the leader's energy per committed block.
        let by = |case: &str| suite.by_label(&format!("{case} f={f}")).expect("cell ran").report();
        let (equivocation, silent) =
            (by("equivocation").node_energy_mj(1), by("no-progress").node_energy_mj(1));
        t.row(row![f + 1, f, equivocation, silent, by("honest").node_energy_per_block_mj(0)]);
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const FIG2F: &[Claim] = &[
    Claim::holds("EESMR total energy per SMR is below Sync HotStuff's", "Fig. 2f", |o| {
        let t = o.table("fig2f_total_energy");
        below(&t.col("eesmr_mj"), &t.col("synchs_mj"), "(n, k)")
    }),
    Claim::holds("Sync HotStuff / EESMR grows with n (k = 3)", "Fig. 2f: O(n²d) vs O(nd)", |o| {
        let at_k3 = |key| o.table("fig2f_total_energy").col_where(key, "k", 3);
        let (s, e) = (at_k3("synchs_mj"), at_k3("eesmr_mj"));
        rises(&s.iter().zip(&e).map(|(s, e)| s / e).collect::<Vec<_>>())
    }),
];

/// Fig. 2f: total correct-node energy per SMR, EESMR vs Sync HotStuff.
fn fig2f_total_energy(driver: &Driver) -> Output {
    let grid = ScenarioGrid::named("fig2f_total_energy")
        .protocols(BOTH)
        .nodes(4..=9)
        .degrees([3, 5])
        .stop(StopWhen::Blocks(20));
    let suite = driver.run_grid_with_progress(&grid, progress::stderr_status());
    let mut t = Table::new("fig2f_total_energy", "Fig. 2f: total correct-node energy per SMR (mJ)")
        .cols(vec![
            col("n", "n"),
            col("k", "k"),
            col("EESMR", "eesmr_mj").dp(0),
            col("Sync HotStuff", "synchs_mj").dp(0),
            shown("SyncHS/EESMR").dp(2).unit("x"),
        ]);
    for n in 4..=9usize {
        // A ring k-cast needs k < n; the grid skips those cells too.
        for k in [3usize, 5].into_iter().filter(|&k| k < n) {
            let per_smr = |protocol| {
                let cell = suite.find(|c| c.protocol == protocol && c.n == n && c.k == k);
                energy_per_block(cell.expect("cell on the grid"))
            };
            let (e, s) = (per_smr(Protocol::Eesmr), per_smr(Protocol::SyncHotStuff));
            t.row(row![n, k, e, s, s / e]);
        }
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const FIG3: &[Claim] = &[
    Claim::holds("EESMR honest-leader energy is below Sync HotStuff's", "Fig. 3", |o| {
        let t = o.table("fig3_eesmr_vs_synchs");
        below(&t.col("eesmr_honest_mj"), &t.col("synchs_honest_mj"), "f")
    }),
    Claim::holds("EESMR's view change costs more than Sync HotStuff's", "Fig. 3, §5.7", |o| {
        let t = o.table("fig3_eesmr_vs_synchs");
        below(&t.col("synchs_vc_mj"), &t.col("eesmr_vc_mj"), "f")
    }),
    Claim::deviation("EESMR honest-leader energy rises with f", "Fig. 3: rising in f", |o| {
        let v = o.col("fig3_eesmr_vs_synchs", "eesmr_honest_mj");
        let ok = rising(&v[..5]) && v[5] < v[4];
        shape(ok, format!("f=6 {:.0} < f=5 {:.0} mJ", v[5], v[4]), "rising to f=5 only")
    }),
];

/// Fig. 3: EESMR vs Sync HotStuff leader energy against f (n = 13): per
/// SMR with an honest leader, per view change with a silent one.
fn fig3_eesmr_vs_synchs(driver: &Driver) -> Output {
    let label = |case: &str, protocol: Protocol, f| format!("{case}/{}/f={f}", protocol.name());
    let mut grid = ScenarioGrid::named("fig3_eesmr_vs_synchs");
    for f in 1..=6usize {
        for protocol in BOTH {
            let scenario = || Scenario::new(protocol, 13, f + 1).fault_bound(f).payload(16);
            // Honest: f mid-ring nodes silent, away from the leader's
            // in-neighbourhood so it still receives relays.
            let silent = FaultPlan::silent_nodes(2u32..2 + f as u32);
            let honest = scenario().faults(silent).stop(StopWhen::Blocks(15));
            let vc = scenario().faults(FaultPlan::silent_leader()).stop(StopWhen::ViewReached(2));
            let vc = if protocol == Protocol::Eesmr { vc.with_paper_optimizations() } else { vc };
            grid = grid
                .scenario(label("honest", protocol, f), honest)
                .scenario(label("vc", protocol, f), vc);
        }
    }
    let suite = driver.run_grid_with_progress(&grid, progress::stderr_status());
    let mut t = Table::new("fig3_eesmr_vs_synchs", "Fig. 3: leader energy, n=13 (mJ)").cols(vec![
        col("f", "f"),
        col("k", "k"),
        col("EESMR honest SMR", "eesmr_honest_mj").dp(0),
        col("SyncHS honest SMR", "synchs_honest_mj").dp(0),
        col("EESMR VC", "eesmr_vc_mj").dp(0),
        col("SyncHS VC", "synchs_vc_mj").dp(0),
    ]);
    for f in 1..=6usize {
        // Honest: the leader's energy per block; view change: the
        // incoming leader's energy for the whole change.
        let report = |case, p| suite.by_label(&label(case, p, f)).expect("cell ran").report();
        let honest = |p| report("honest", p).node_energy_per_block_mj(0);
        let vc = |p| report("vc", p).node_energy_mj(1);
        let (e, s) = (Protocol::Eesmr, Protocol::SyncHotStuff);
        t.row(row![f, f + 1, honest(e), honest(s), vc(e), vc(s)]);
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const WORKLOAD: &[Claim] =
    &[Claim::holds("every cell commits, never more than it injected", "—", |o| {
        let t = o.table("fig_workload");
        let (tx_in, done) = (t.col("tx_injected"), t.col("tx_committed"));
        let ok = tx_in.iter().zip(&done).all(|(i, d)| *d > 0.0 && d <= i);
        shape(ok, format!("{} cells", done.len()), "0 < committed ≤ injected")
    })];

/// Client workloads (arrival × skew × protocol): per-transaction commit
/// latency p50/p99 next to energy per block.
fn fig_workload(driver: &Driver) -> Output {
    let arrivals = [
        ArrivalProcess::Constant { rate: 2_000 },
        ArrivalProcess::Poisson { rate: 2_000 },
        ArrivalProcess::Bursty { rate: 6_000, on_ms: 40, off_ms: 80 },
        ArrivalProcess::Diurnal { base: 2_000, amplitude: 1_500, period_ms: 400 },
    ];
    let skews = [Skew::Uniform, Skew::Zipf, Skew::Hotspot { pct: 90 }];
    let workloads =
        arrivals.iter().flat_map(|&a| skews.iter().map(move |&s| Workload::new(a).skew(s)));
    let grid = ScenarioGrid::named("fig_workload")
        .protocols(BOTH)
        .nodes([6])
        .degrees([3])
        .batch_policies([BatchPolicy::Adaptive { min: 1, max: 64, target_fill_pct: 100 }])
        .workloads(workloads)
        .stop(StopWhen::Blocks(30));
    let suite = driver.run_grid(&grid);
    let title = "Workload sweep: commit latency and energy under client traffic, n=6 k=3";
    let mut t = Table::new("fig_workload", title).cols(vec![
        col("protocol", "protocol"),
        col("workload", "workload"),
        col("tx in", "tx_injected"),
        col("tx done", "tx_committed"),
        shown("p50 ms").dp(1),
        shown("p99 ms").dp(1),
        data("tx_latency_p50_us"),
        data("tx_latency_p99_us"),
        col("mJ/block", "energy_per_block_mj").dp(1),
    ]);
    for cell in &suite.cells {
        let r = cell.report();
        let workload = cell.scenario.workload.expect("every cell sweeps a workload").label();
        // No committed transaction: "-" printed, an empty CSV cell.
        let stats = r.tx_latency_stats().map(|s| [s.p50_us, s.p99_us]);
        let us = stats.map_or([String::new(), String::new()], |s| s.map(|us| us.to_string()));
        let ms = stats
            .map_or([String::new(), String::new()], |s| s.map(|us| (us as f64 / 1e3).to_string()));
        let (tx_in, done, energy) = (r.tx_injected(), r.tx_committed(), r.energy_per_block_mj());
        t.row(row![r.protocol, workload, tx_in, done, ms[0], ms[1], us[0], us[1], energy]);
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const ADVERSARIAL: &[Claim] =
    &[Claim::holds("every fault × protocol cell audits clean", "§3: safety, liveness", |o| {
        let v = o.col("fig_adversarial", "violations");
        let clean = v.iter().filter(|&&v| v == 0.0).count();
        shape(clean == v.len(), format!("{clean} of {} cells clean", v.len()), "all clean")
    })];

/// Every [`FaultSpec`] × protocol, each cell's trace replayed through the
/// auditor: safety (no forks or rewinds) and post-heal liveness.
fn fig_adversarial(driver: &Driver) -> Output {
    use Protocol::*;
    let blocks = if driver.config().quick_mode { 4 } else { 12 };
    let grid = ScenarioGrid::named("fig_adversarial")
        .protocols([Eesmr, SyncHotStuff, OptSync, TrustedBaseline])
        .nodes([6])
        .degrees([3])
        .faults(FaultSpec::ALL)
        .stop(StopWhen::Blocks(blocks));
    let cells = grid.build();
    // The suite keeps reports only and the auditor needs the traces, so
    // each cell runs (traced) and is audited on the worker that ran it.
    let results = driver.map(&cells, |cell| {
        let (report, traces) = cell.scenario.clone().trace(TraceLevel::Commit).run_traced();
        let s = &cell.scenario;
        let plan = s.effective_faults(SimDuration::from_micros(report.delta_us));
        let excused = |id| FaultPlan::excuses(plan.mode(s.protocol, id));
        let honest: BTreeSet<u32> = (0..s.n as u32).filter(|&id| !excused(id)).collect();
        let heal_us = plan.heal_time_us();
        let config = if heal_us == u64::MAX {
            // A fault that never heals bounds nothing; safety still holds.
            AuditConfig::safety_only()
        } else if heal_us >= report.elapsed_us {
            // The run met its target before the nominal heal point (quick
            // mode): every honest node must still commit at some point.
            AuditConfig::new(honest, 0, report.elapsed_us)
        } else {
            // The run stops the instant the last lagging node catches up;
            // for crash-recovery that is the heal instant itself (the
            // restarted node repairs its whole log at once), so honest
            // peers' last commits sit a few pipeline latencies earlier.
            AuditConfig::new(honest, heal_us.saturating_sub(5 * report.delta_us), report.elapsed_us)
        };
        (report, audit(&traces, &config))
    });

    let title = "Adversarial sweep: fault axis x protocol, every cell trace-audited, n=6 k=3";
    let mut t = Table::new("fig_adversarial", title).cols(vec![
        col("protocol", "protocol"),
        col("fault", "fault"),
        col("height", "committed_height"),
        col("VCs", "view_changes"),
        col("net drops", "net_dropped"),
        col("commits", "trace_commits"),
        shown("audit"),
        data("violations"),
    ]);
    let mut suite = SuiteReport { name: grid.name().to_string(), cells: Vec::new() };
    let mut violations: Vec<String> = Vec::new();
    for (cell, (r, verdict)) in cells.iter().zip(&results) {
        let fault = cell.scenario.fault_spec.unwrap_or(FaultSpec::None).label();
        let found = verdict.violations.len();
        let status = if found == 0 { "clean".to_string() } else { format!("{found} VIOLATION(S)") };
        let (height, vcs, commits) = (r.committed_height(), r.view_changes(), verdict.commits);
        t.row(row![r.protocol, fault, height, vcs, r.net.dropped, commits, status, found]);
        let protocol = r.protocol;
        violations
            .extend(verdict.violations.iter().map(|v| format!("  {protocol} fault={fault}: {v}")));
        let (label, scenario) = (cell.label.clone(), cell.scenario.clone());
        suite.cells.push(CellResult { label, scenario, runs: vec![r.clone()] });
    }
    let mut out = Output::of(t);
    if violations.is_empty() {
        out.note(format!("trace audit: all {} cells clean", results.len()));
    } else {
        out.note(format!("trace audit failed: {} violation(s)", violations.len()));
        violations.into_iter().for_each(|v| out.note(v));
    }
    out.add(Table::suite(&suite));
    out
}

const HEADLINE: &[Claim] = &[
    Claim::holds("steady-state leader ratio, SyncHS / EESMR (n=13, f=6)", "2.85×", |o| {
        near(o.col("headline_claims", "steady_ratio")[0], 2.85, 0.25)
    }),
    Claim::holds("view-change leader ratio, EESMR / SyncHS (n=13, f=6)", "2.05×", |o| {
        near(o.col("headline_claims", "vc_ratio")[0], 2.05, 0.20)
    }),
    Claim::holds("steady-state saving vs SyncHS at n=10, k=5", "64 %", |o| {
        share_within(o.col("headline_claims", "saving_n10")[0], 0.5, 0.95)
    }),
    Claim::deviation("steady-state savings vs SyncHS over n=4..10", "33–64 %", |o| {
        let range = ["saving_min", "saving_max"].map(|k| o.col("headline_claims", k)[0] * 100.0);
        shape(
            range[0] > 64.0,
            format!("{:.0}–{:.0} %", range[0], range[1]),
            "all above the paper's 64 %",
        )
    }),
];

/// §5.7's leader ratios (steady state and view change) and the abstract's
/// 33–64 % steady-state saving (64 % is its n = 10 BLE setting).
fn headline(driver: &Driver) -> Output {
    // n = 13, k = f+1 = 7: the Fig. 3 midpoint the §5.7 prose quotes.
    let f = 6usize;
    let scenario = |protocol| Scenario::new(protocol, 13, f + 1).fault_bound(f);
    let silent = || FaultPlan::silent_nodes(2u32..2 + f as u32);
    let steady = |p| scenario(p).faults(silent()).stop(StopWhen::Blocks(15));
    let vc = |p| scenario(p).faults(FaultPlan::silent_leader()).stop(StopWhen::ViewReached(2));
    let grid = ScenarioGrid::named("headline")
        .scenario("steady-eesmr", steady(Protocol::Eesmr))
        .scenario("steady-synchs", steady(Protocol::SyncHotStuff))
        .scenario("vc-eesmr", vc(Protocol::Eesmr).with_paper_optimizations())
        .scenario("vc-synchs", vc(Protocol::SyncHotStuff));
    let suite = driver.run_grid(&grid);
    let report = |label: &str| suite.by_label(label).expect("explicit cell ran").report();
    let steady = report("steady-synchs").node_energy_per_block_mj(0)
        / report("steady-eesmr").node_energy_per_block_mj(0);
    // EESMR's is the dearer view change; node 1 leads once the silent
    // leader is blamed.
    let vc = report("vc-eesmr").node_energy_mj(1) / report("vc-synchs").node_energy_mj(1);

    // Savings over the Fig. 2f range (total correct-node energy per SMR).
    let sweep = ScenarioGrid::named("headline_savings")
        .protocols(BOTH)
        .nodes(4..=10)
        .degrees([3, 5])
        .stop(StopWhen::Blocks(15));
    let sweep = driver.run_grid(&sweep);
    let (mut min, mut max, mut at_n10) = (f64::MAX, 0.0f64, f64::NAN);
    for cell in sweep.cells.iter().filter(|c| c.scenario.protocol == Protocol::Eesmr) {
        let (n, k) = (cell.scenario.n, cell.scenario.k);
        let synchs = sweep.find(|c| c.protocol == Protocol::SyncHotStuff && c.n == n && c.k == k);
        let saving = 1.0 - energy_per_block(cell) / energy_per_block(synchs.expect("paired"));
        (min, max) = (min.min(saving), max.max(saving));
        if (n, k) == (10, 5) {
            at_n10 = saving;
        }
    }

    let mut out = Output::default();
    out.note(format!(
        "steady state (leader, n=13, f=6): SyncHS / EESMR = {steady:.2}x (paper: 2.85x)"
    ));
    out.note(format!("view change (new leader):         EESMR / SyncHS = {vc:.2}x (paper: 2.05x)"));
    let (lo, hi) = (min * 100.0, max * 100.0);
    out.note(format!(
        "steady-state savings vs SyncHS over n=4..10: {lo:.0}%..{hi:.0}% (paper: 33-64%)"
    ));
    let mut csv =
        Table::series("headline").cols(["metric", "paper", "measured"].map(data).to_vec());
    csv.row(row!["steady_state_leader_ratio", "2.85", format!("{steady:.3}")]);
    csv.row(row!["view_change_leader_ratio", "2.05", format!("{vc:.3}")]);
    csv.row(row!["steady_state_savings_range_pct", "33-64", format!("{lo:.1}-{hi:.1}")]);
    out.add(csv);
    let keys = ["steady_ratio", "vc_ratio", "saving_n10", "saving_min", "saving_max"];
    let mut claims = Table::ledger("headline_claims").cols(keys.map(data).to_vec());
    claims.row(row![steady, vc, at_n10, min, max]);
    out.add(claims);
    out
}

/// What `figures headline` adds at a trace level of `commit` or finer: a
/// small workload run traced at `options.trace` and sampled per
/// `options.metrics`, its first committed transaction's per-hop breakdown,
/// and the run's Perfetto and metrics files written where `options` names
/// them.
pub fn traced_run(options: &RunOptions) -> Output {
    let mut out = Output::default();
    let trace = options.trace;
    if trace.enables(TraceClass::Commit) {
        let (report, traces) = Scenario::new(Protocol::Eesmr, 5, 2)
            .workload(Workload::new(ArrivalProcess::Poisson { rate: 2_000 }))
            .trace(trace)
            .metrics(options.metrics)
            .stop(StopWhen::Blocks(5))
            .run_traced();
        if let Some(path) = &options.trace_out {
            write(path, eesmr_trace::perfetto::render(&traces));
        }
        if let Some(path) = options.metrics_out.as_ref().filter(|_| options.metrics.enabled) {
            write(path, render_metrics(path, &report));
        }
        let (events, dropped) = (traces.total_events(), traces.total_dropped());
        out.note(format!(
            "\ntraced workload run ({}): {events} events, {dropped} dropped",
            trace.name()
        ));
        if report.trace_dropped_total() > 0 {
            eprintln!(
                "WARNING: {} trace events were dropped by full per-node rings; \
                 lower the trace level or widen the ring to keep full coverage",
                report.trace_dropped_total()
            );
        }
        out.note(match &report.commit_path {
            Some(path) => path.render().trim_end_matches('\n').to_string(),
            None => "no committed workload transaction to trace".to_string(),
        });
        if report.energy_attr.iter().any(|attr| !attr.is_empty()) {
            out.add(energy_by_class(&report));
        }
    }
    out
}

/// Writes an export file, warning on failure (the run's output stands).
fn write(path: &Path, contents: String) {
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("warning: failed to write {}: {err}", path.display());
    }
}

/// The metrics export in the format `path`'s extension selects:
/// Prometheus text for `.prom` or `.txt`, JSON (`eesmr-metrics/v1`)
/// otherwise.
fn render_metrics(path: &Path, report: &RunReport) -> String {
    let energy: Vec<(eesmr_energy::EnergyAttribution, f64)> = report
        .energy_attr
        .iter()
        .zip(&report.nodes)
        .map(|(attr, node)| (attr.clone(), node.energy.total_mj()))
        .collect();
    if matches!(path.extension().and_then(|e| e.to_str()), Some("prom" | "txt")) {
        eesmr_metrics::export::prometheus(&report.metrics, &energy)
    } else {
        eesmr_metrics::export::json(&report.metrics, &energy)
    }
}

/// Per-node energy by [`EnergyClass`]; a row sums to the node's meter
/// total to the µJ (the determinism suite pins this).
fn energy_by_class(report: &RunReport) -> Table {
    let classes = EnergyClass::ALL.iter().map(|c| shown(&format!("{} (mJ)", c.as_str())).dp(3));
    let columns = [shown("node")].into_iter().chain(classes).chain([shown("total (mJ)").dp(3)]);
    let title = "per-node energy by class (§5.7 breakdown)";
    let mut t = Table::new("energy_by_class", title).no_csv().cols(columns.collect());
    for node in &report.nodes {
        let Some(attr) = report.energy_attr.get(node.id as usize) else { continue };
        let mut row = row![node.id];
        row.extend(EnergyClass::ALL.iter().map(|&c| attr.class_mj(c).to_string()));
        row.push(node.energy.total_mj().to_string());
        t.row(row);
    }
    t
}

const SCHEMES: &[Claim] = &[Claim::holds("replicas spend least under RSA-1024", "§5.5", |o| {
    let t = o.table("ablation_schemes");
    let rsa = t.col_where("replica_mj_per_smr", "scheme", "RSA 1024-bit")[0];
    let ok = t.col("replica_mj_per_smr").iter().all(|&v| rsa <= v);
    shape(ok, format!("{rsa:.0} mJ"), "lowest")
})];

/// Ablation: EESMR energy per SMR under each signature scheme (§5.5).
fn ablation_schemes(driver: &Driver) -> Output {
    use SigScheme as S;
    let schemes =
        [S::Rsa1024, S::Rsa2048, S::EcdsaSecp192R1, S::EcdsaSecp256K1, S::EcdsaBp160R1, S::Hmac];
    let grid = ScenarioGrid::named("ablation_schemes")
        .nodes([10])
        .degrees([3])
        .schemes(schemes)
        .stop(StopWhen::Blocks(20));
    let suite = driver.run_grid_with_progress(&grid, progress::stderr_status());
    let title = "Ablation: EESMR energy per SMR by signature scheme (mJ), n=10 k=3";
    let mut t = Table::new("ablation_schemes", title).cols(vec![
        col("Scheme", "scheme"),
        col("Leader", "leader_mj_per_smr").dp(0),
        col("Replica (avg)", "replica_mj_per_smr").dp(0),
    ]);
    for scheme in schemes {
        let report = suite.find(|c| c.scheme == scheme).expect("scheme on the grid").report();
        let replica: f64 = (1..10).map(|id| report.node_energy_per_block_mj(id)).sum::<f64>() / 9.0;
        t.row(row![scheme.name(), report.node_energy_per_block_mj(0), replica]);
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const RELIABILITY: &[Claim] =
    &[Claim::holds("redundancy and energy rise with the target, every k", "§5.4", |o| {
        let t = o.table("ablation_reliability");
        let at = |k: &String| {
            ["redundancy", "sender_mj_25b"].iter().all(|y| rising(&t.col_where(y, "k", k)))
        };
        let ok = t.distinct("k").iter().all(at);
        shape(ok, format!("{} points", t.rows.len()), "rising")
    })];

/// Ablation: the cost of a k-cast reliability target above 99.99 % (§5.4).
fn ablation_reliability(driver: &Driver) -> Output {
    let all = [0.99, 0.999, 0.9999, 0.99999, 0.999999];
    let targets: &[f64] = if driver.config().quick_mode { &[0.99, 0.9999] } else { &all };
    let points: Vec<(usize, f64)> =
        [3usize, 7].iter().flat_map(|&k| targets.iter().map(move |&t| (k, t))).collect();
    let model = BleKcastModel::default();
    let title = "Ablation: redundancy & sender energy per 25 B k-cast vs reliability target";
    let mut t = Table::new("ablation_reliability", title).cols(vec![
        col("k", "k"),
        shown("Reliability").dp(4).unit("%"),
        data("reliability"),
        col("Redundancy", "redundancy"),
        col("Sender mJ", "sender_mj_25b").dp(2),
    ]);
    t.extend(driver.map(&points, |&(k, target)| {
        let r = model.redundancy_for(k, target);
        row![k, target * 100.0, target, r, model.kcast_send_mj(25, r)]
    }));
    Output::of(t)
}

const VOTES: &[Claim] =
    &[Claim::holds("implicit votes sign, verify, k-cast, spend least", "vote in the head", |o| {
        let t = o.table("ablation_votes");
        let keys =
            ["signs", "verifies", "kcasts", "total_mj"].map(|k| t.col(&format!("{k}_per_block")));
        let ok = keys.iter().all(|v| v[1..].iter().all(|&x| v[0] < x));
        let v = t.col("verifies_per_block");
        shape(ok, format!("verifies {:.1} vs {:.1}", v[0], v[1]), "EESMR lowest")
    })];

/// Ablation: EESMR's implicit votes vs explicit votes and certificates.
fn ablation_votes(driver: &Driver) -> Output {
    let protocols = [
        (Protocol::Eesmr, "EESMR (implicit votes)"),
        (Protocol::SyncHotStuff, "Sync HotStuff (explicit votes)"),
        (Protocol::OptSync, "OptSync (explicit votes, fast path)"),
    ];
    let grid = ScenarioGrid::named("ablation_votes")
        .protocols(protocols.map(|(protocol, _)| protocol))
        .nodes([9])
        .degrees([3])
        .stop(StopWhen::Blocks(20));
    let suite = driver.run_grid_with_progress(&grid, progress::stderr_status());
    let title = "Ablation: implicit vs explicit voting (per committed block, n=9 k=3)";
    let mut t = Table::new("ablation_votes", title).cols(vec![
        col("Protocol", "protocol"),
        col("Signs", "signs_per_block").dp(1),
        col("Verifies", "verifies_per_block").dp(1),
        col("k-casts", "kcasts_per_block").dp(1),
        col("Total mJ", "total_mj_per_block").dp(0),
    ]);
    for (protocol, label) in protocols {
        let r = suite.find(|c| c.protocol == protocol).expect("protocol on the grid").report();
        let per_block = |count: u64| count as f64 / r.committed_height().max(1) as f64;
        let signs = per_block(r.correct_nodes().map(|n| n.signs).sum());
        let verifies = per_block(r.correct_nodes().map(|n| n.verifies).sum());
        t.row(row![label, signs, verifies, per_block(r.net.kcasts), r.energy_per_block_mj()]);
    }
    let mut out = Output::of(t);
    out.add(Table::suite(&suite));
    out
}

const CHECKPOINT: &[Claim] =
    &[Claim::holds("replica verifies and energy fall as c grows", "§3.5", |o| {
        let t = o.table("ablation_checkpoint");
        let (v, mj) = (t.col("replica_verifies_per_smr"), t.col("replica_mj_per_smr"));
        let measured = format!("{:.2} → {:.2} verifies", v[0], v[v.len() - 1]);
        shape(falling(&v) && falling(&mj), measured, "falling")
    })
    .full_size()];

/// Ablation: §3.5's checkpoints (full verification every c rounds) as
/// replica verification saved under a correct leader.
fn ablation_checkpoint(driver: &Driver) -> Output {
    const INTERVALS: [u64; 5] = [0, 2, 4, 8, 16];
    let mut grid = ScenarioGrid::named("ablation_checkpoint");
    for c in INTERVALS {
        let s = Scenario::new(Protocol::Eesmr, 10, 3).stop(StopWhen::Blocks(32));
        grid = grid.scenario(format!("c{c}"), if c > 0 { s.checkpoint_every(c) } else { s });
    }
    let suite = driver.run_grid(&grid);
    let title = "Ablation: checkpoint optimization (replica mJ & verifies per SMR, n=10 k=3)";
    let mut t = Table::new("ablation_checkpoint", title).cols(vec![
        shown("Checkpoint"),
        data("checkpoint_interval"),
        col("Replica mJ/SMR", "replica_mj_per_smr").dp(0),
        col("Verifies/SMR", "replica_verifies_per_smr").dp(2),
    ]);
    for c in INTERVALS {
        let report = suite.by_label(&format!("c{c}")).expect("cell ran").report();
        let blocks = report.committed_height().max(1) as f64;
        let replica: f64 = (1..10).map(|id| report.node_energy_per_block_mj(id)).sum::<f64>() / 9.0;
        let verifies: f64 =
            report.nodes[1..].iter().map(|n| n.verifies as f64).sum::<f64>() / (9.0 * blocks);
        let label = if c == 0 { "off".to_string() } else { format!("c={c}") };
        t.row(row![label, c, replica, verifies]);
    }
    Output::of(t)
}
