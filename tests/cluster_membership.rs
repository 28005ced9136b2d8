//! End-to-end checks of the cluster membership plane (crates/cluster):
//! gossip, phi-accrual failure detection, quarantine, view changes, and
//! HDNS replication.
//!
//! Booting runs on real `ClusterNode`s over loopback TCP. The chaos
//! scenarios — a killed node, a restarted node, a 2/3 partition — run
//! the same sans-IO `Plane` under the simnet driver in `sim_cluster`, in
//! seeded virtual time: the failures are the simulated network's
//! (crashed hosts, partition groups), and every failing seed replays
//! exactly.

mod sim_cluster;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hdns::{HdnsEntry, Op};
use rndi::serve::{serve_cluster_hdns, HdnsCluster};
use rndi_cluster::ClusterNode;
use rndi_core::env::{keys, Environment};
use rndi_net::proto::MemberState;

use sim_cluster::SimCluster;

/// Fast-failure-detector environment: 10ms gossip rounds put the phi
/// suspect bound around 180ms and the dead bound around 370ms, and a
/// 400ms quarantine keeps restart scenarios quick.
fn chaos_env() -> Environment {
    Environment::new()
        .with(keys::CLUSTER_GOSSIP_INTERVAL_MS, "10")
        .with(keys::CLUSTER_PHI_THRESHOLD, "8")
        .with(keys::CLUSTER_QUARANTINE_MS, "400")
}

/// Poll `cond` on the wall clock until it holds or `budget` elapses;
/// panics with `what` on timeout.
fn wait_for(budget: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    loop {
        if cond() {
            return;
        }
        if Instant::now() >= deadline {
            panic!("timed out waiting for {what}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn view_members(node: &ClusterNode) -> Vec<String> {
    node.view().map(|v| v.members).unwrap_or_default()
}

fn converged(cluster: &HdnsCluster, n: usize) -> bool {
    cluster.nodes().iter().all(|node| {
        view_members(node).len() == n
            && node.members().iter().all(|m| m.state == MemberState::Alive)
            && node.members().len() == n
    })
}

fn bind_op(path: &str, value: &[u8]) -> Op {
    Op::Bind {
        path: path.to_string(),
        entry: HdnsEntry::leaf(value.to_vec()),
        overwrite: true,
    }
}

fn mkdir_op(path: &str) -> Op {
    Op::CreateContext {
        path: path.to_string(),
    }
}

fn bind_ok(node: &ClusterNode, path: &str, value: &[u8]) -> bool {
    node.write_sync(bind_op(path, value)).is_ok()
}

fn mkdir_ok(node: &ClusterNode, path: &str) -> bool {
    node.write_sync(mkdir_op(path)).is_ok()
}

/// Every live simulated node has an `n`-member view and holds exactly
/// `n` members, all Alive.
fn sim_converged(c: &SimCluster, n: usize) -> bool {
    c.live().into_iter().all(|i| {
        c.view_members(i).len() == n
            && c.members(i).iter().all(|m| m.state == MemberState::Alive)
            && c.members(i).len() == n
    })
}

/// Every live simulated node has installed the same view.
fn one_view(c: &SimCluster) -> bool {
    let live = c.live();
    live.iter()
        .all(|&n| c.view_members(n) == c.view_members(live[0]))
}

fn declared_dead(c: &SimCluster, name: &str) -> bool {
    c.live().into_iter().all(|i| {
        c.members(i)
            .iter()
            .any(|m| m.name == name && m.state >= MemberState::Dead)
    })
}

#[test]
fn five_nodes_boot_from_one_seed_and_converge() {
    let env = chaos_env();
    let cluster = serve_cluster_hdns(5, "hdns-e2e", &env).expect("boot");

    wait_for(Duration::from_secs(10), "5-node convergence", || {
        converged(&cluster, 5)
    });

    // Every node agrees on the same view, coordinated by the seed.
    let reference = view_members(cluster.node(0));
    assert_eq!(reference[0], "node-0", "seed leads the lineage");
    for node in cluster.nodes() {
        assert_eq!(view_members(node), reference);
        assert!(
            node.writes_allowed(),
            "{} should accept writes",
            node.name()
        );
    }

    // A write through any replica becomes visible on every replica
    // (the context creation replicates too).
    assert!(mkdir_ok(cluster.node(1), "services"));
    assert!(bind_ok(cluster.node(3), "services/db", b"db:5432"));
    wait_for(Duration::from_secs(5), "replicated bind", || {
        cluster.nodes().iter().all(|n| {
            n.lookup("services/db")
                .is_some_and(|e| e.value == b"db:5432")
        })
    });

    cluster.shutdown();
}

#[test]
fn killed_node_is_suspected_then_excised_while_writes_continue() {
    let mut c = SimCluster::boot(4, "hdns-kill", &chaos_env(), 1);
    c.wait_for(Duration::from_secs(10), "4-node convergence", |c| {
        sim_converged(c, 4)
    });

    // A write burst straddles the crash: writes before, during, and
    // after the kill of a non-coordinator replica.
    assert!(c.write(0, mkdir_op("burst")));
    for i in 0..5 {
        assert!(c.write(0, bind_op(&format!("burst/pre-{i}"), b"v")));
    }
    assert_eq!(c.name(3), "node-3");
    c.kill(3); // host off the network, no goodbye

    // Phi accrues: the survivors demote node-3 (Suspect on the way to
    // Dead — at 10ms gossip the whole slide takes well under a second),
    // and the view shrinks to the 3 survivors.
    c.wait_for(Duration::from_secs(10), "node-3 declared dead", |c| {
        declared_dead(c, "node-3")
    });
    c.wait_for(Duration::from_secs(10), "view excises node-3", |c| {
        c.live()
            .into_iter()
            .all(|i| c.view_members(i) == vec!["node-0", "node-1", "node-2"])
    });

    // 3 of 4 known members is still a quorum: writes keep flowing.
    assert!(c.write(1, bind_op("burst/post", b"v")));
    c.wait_for(Duration::from_secs(5), "post-kill write replicates", |c| {
        c.live()
            .into_iter()
            .all(|i| c.lookup(i, "burst/post").is_some())
    });
    // Nothing acknowledged before the crash was lost.
    for i in 0..5 {
        for n in c.live() {
            assert!(
                c.lookup(n, &format!("burst/pre-{i}")).is_some(),
                "acked pre-kill write burst/pre-{i} lost on {}",
                c.name(n)
            );
        }
    }
}

#[test]
fn restarted_node_rejoins_with_a_bumped_incarnation() {
    let mut c = SimCluster::boot(3, "hdns-restart", &chaos_env(), 1);
    c.wait_for(Duration::from_secs(10), "3-node convergence", |c| {
        sim_converged(c, 3)
    });
    assert!(c.write(0, mkdir_op("persist")));
    assert!(c.write(0, bind_op("persist/me", b"survives")));

    c.kill(2);
    c.wait_for(Duration::from_secs(10), "node-2 declared dead", |c| {
        declared_dead(c, "node-2")
    });

    // Restart under the same name on a fresh endpoint with empty state,
    // seeded with node-0: the first gossip exchange teaches it the
    // cluster holds it dead, it refutes with a bumped incarnation that
    // carries the new endpoint, and quarantine admits it once the 400ms
    // cooldown has served.
    let old_endpoint = c.endpoint(2);
    c.restart(2, 0);
    assert_ne!(
        c.endpoint(2),
        old_endpoint,
        "a restart gets a fresh endpoint"
    );
    c.wait_for(Duration::from_secs(15), "node-2 re-admitted", |c| {
        sim_converged(c, 3)
    });
    assert!(
        c.incarnation(2) > 1,
        "rejoin must carry a bumped incarnation, got {}",
        c.incarnation(2)
    );
    let new_endpoint = c.endpoint(2);
    for n in c.live() {
        assert!(
            c.members(n)
                .iter()
                .any(|m| m.name == "node-2" && m.endpoint == new_endpoint),
            "{} must reach node-2 at its new endpoint",
            c.name(n)
        );
    }
    // State transfer on the re-admitting view change restores the data.
    c.wait_for(Duration::from_secs(5), "state transfer to node-2", |c| {
        c.lookup(2, "persist/me")
            .is_some_and(|e| e.value == b"survives")
    });
}

#[test]
fn non_transitive_cut_heals_through_the_bridging_node() {
    let c = SimCluster::boot(3, "hdns-cut", &chaos_env(), 1);
    c.wait_for(Duration::from_secs(10), "3-node convergence", |c| {
        sim_converged(c, 3)
    });

    // node-1 and node-2 lose each other, while node-0 still reaches
    // both: each declares the other Dead and tells node-0, which heard
    // from both itself. node-0 passes each verdict to its subject, the
    // subject refutes with a bump, and the bump travels back through
    // node-0 to the side that cannot reach it.
    c.cut(1, 2);
    c.wait_for(
        Duration::from_secs(10),
        "both refute a death verdict",
        |c| c.incarnation(1) > 1 && c.incarnation(2) > 1,
    );
    c.wait_for(Duration::from_secs(15), "views converge", |c| {
        sim_converged(c, 3) && one_view(c)
    });
    assert!(c.live().into_iter().all(|n| c.writes_allowed(n)));
}

/// Boot 5 nodes, split the seed-side minority {0,1} from the majority
/// {2,3,4}, write on both sides, heal, and check one primary lineage
/// survives with every acknowledged write and no refused one. Returns
/// the cluster for history inspection.
fn partition_scenario(seed: u64) -> SimCluster {
    let c = SimCluster::boot(5, "hdns-split", &chaos_env(), seed);
    c.wait_for(Duration::from_secs(10), "5-node convergence", |c| {
        sim_converged(c, 5)
    });
    assert!(c.write(0, mkdir_op("split")));
    assert!(c.write(0, bind_op("split/before", b"v")));
    c.wait_for(Duration::from_secs(5), "pre-split write replicates", |c| {
        c.live()
            .into_iter()
            .all(|i| c.lookup(i, "split/before").is_some())
    });

    // The harder direction: the old coordinator lands in the minority.
    c.partition(&[&[0, 1], &[2, 3, 4]]);

    // The majority elects the senior survivor (node-2) and keeps
    // writing; the minority freezes on its stale view and refuses.
    c.wait_for(
        Duration::from_secs(15),
        "majority forms its own view",
        |c| (2..5).all(|i| c.view_members(i) == vec!["node-2", "node-3", "node-4"]),
    );
    c.wait_for(Duration::from_secs(10), "minority refuses writes", |c| {
        !c.writes_allowed(0) && !c.writes_allowed(1)
    });
    assert!(
        !c.write(0, bind_op("split/minority", b"must-not-ack")),
        "a minority write must not be acknowledged (seed {seed})"
    );
    assert!(c.write(2, bind_op("split/majority", b"acked")));

    // Heal. Refutation bumps + the quarantine cooldown re-admit both
    // sides into one lineage again; the majority's history wins. Every
    // table agreeing is not yet one view: the last `InstallView` may
    // still be in flight to a node that holds its stale pre-split view.
    c.heal();
    c.wait_for(Duration::from_secs(20), "post-heal convergence", |c| {
        sim_converged(c, 5) && one_view(c)
    });
    let reference = c.view_members(0);
    assert_eq!(
        reference[0], "node-2",
        "the healed lineage descends from the majority's view (seed {seed})"
    );
    // One lineage all along: no two nodes ever installed different
    // views under the same sequence number.
    let mut by_seq = std::collections::BTreeMap::new();
    for (ms, node, seq, members) in c.history() {
        let first = by_seq.entry(seq).or_insert_with(|| members.clone());
        assert_eq!(
            *first, members,
            "{node} forked view {seq} at {ms} ms (seed {seed})"
        );
    }

    // No acknowledged write was lost, on either side of the split...
    c.wait_for(Duration::from_secs(10), "acked writes on every node", |c| {
        c.live().into_iter().all(|i| {
            c.lookup(i, "split/before").is_some() && c.lookup(i, "split/majority").is_some()
        })
    });
    // ...and the refused minority write never materialised.
    for n in c.live() {
        assert!(
            c.lookup(n, "split/minority").is_none(),
            "unacknowledged minority write leaked into {} (seed {seed})",
            c.name(n)
        );
    }
    c
}

#[test]
fn partition_keeps_one_primary_and_loses_no_acknowledged_write() {
    partition_scenario(1);
}

/// A minority coordinator that wrote off two majority members but only
/// suspected the third used to count that Suspect toward quorum and mint
/// a view of the same seq as the majority's. Suspects no longer vote a
/// view in; with them voting, this seed forks view 3.
#[test]
fn partition_seed_5_minority_cannot_count_a_suspect_toward_quorum() {
    partition_scenario(5);
}

/// At heal, the minority's stale "node-2 and node-4 are Dead" rumours
/// used to knock live majority members out of their colleagues' tables
/// at equal incarnation, and a majority member minted a view without
/// them. A rumour no longer demotes a peer heard from directly; with it
/// adopted, this seed forks view 4.
#[test]
fn partition_seed_9_stale_death_rumours_cannot_fork_the_majority() {
    partition_scenario(9);
}

/// Seed 194 once read the healed lineage as node-0's: every table had
/// all five members Alive while node-2's last `InstallView` to node-0
/// was still in flight, and node-0 still held its pre-split view. The
/// post-heal wait now also waits for that view to land.
#[test]
fn partition_seed_194_waits_for_the_last_install_view() {
    partition_scenario(194);
}

#[test]
fn same_seed_replays_the_same_view_history() {
    let first = partition_scenario(7).history();
    let second = partition_scenario(7).history();
    assert!(
        first.iter().any(|(_, _, _, members)| members.len() == 3),
        "the run installs the majority's 3-member view"
    );
    assert_eq!(first, second);
}

/// The partition scenario over seeds 1..=200 (about 15 s in a debug
/// build, so not part of the default run): `cargo test --test
/// cluster_membership -- --ignored`.
#[test]
#[ignore]
fn partition_scenario_holds_for_seeds_1_to_200() {
    let failed: Vec<u64> = (1..=200)
        .filter(|&seed| catch_unwind(AssertUnwindSafe(|| partition_scenario(seed))).is_err())
        .collect();
    assert!(failed.is_empty(), "failing seeds: {failed:?}");
}
