//! Extension experiment — the paper's future work, §8: "Building a large
//! scale information service federation, and its thorough experimental
//! evaluation, will therefore be the focus of our future work."
//!
//! Scales the HDNS intermediate layer from 1 to 8 replicas under a fixed
//! 100-client closed-loop load (reads spread across replicas — the
//! "matching requesters to local nodes" deployment of §6) and measures:
//!
//! * **aggregate read throughput** — should scale out with replicas, since
//!   every replica answers reads locally;
//! * **write throughput** — should *fall* with replicas, since every write
//!   must propagate to the whole group (the §4 replication trade-off).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use rndi_bench::cost;
use rndi_bench::loadgen::{run_closed_loop, DoneFn, Operation, RoundTrips};
use simnet::{QueueingServer, ServerConfig, Sim, SimRng};

/// Spreads successive operations round-robin across per-replica ops.
struct RoundRobin {
    ops: Vec<Rc<RoundTrips>>,
    next: Cell<usize>,
}

impl Operation for RoundRobin {
    fn issue(&self, sim: &Sim, done: DoneFn) {
        let i = self.next.get();
        self.next.set((i + 1) % self.ops.len());
        Operation::issue(&self.ops[i].clone(), sim, done);
    }
}

fn read_point(replicas: usize, clients: usize) -> f64 {
    let sim = Sim::new();
    let rng = SimRng::seed_from_u64(4242 + replicas as u64);
    let realm = hdns::HdnsRealm::new(
        "scale",
        replicas,
        groupcast::StackConfig::default(),
        None,
        5,
    );
    realm
        .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]), None)
        .expect("seed");
    let ops: Vec<Rc<RoundTrips>> = (0..replicas)
        .map(|node| {
            let realm = realm.clone();
            Rc::new(
                RoundTrips::new(
                    QueueingServer::new(&sim, ServerConfig::default()),
                    rng.fork(),
                    cost::net_rtt(),
                    vec![cost::hdns_read()],
                )
                .with_work(
                    Rc::new(move |_| {
                        realm.lookup(node, "bench").expect("replicated entry");
                    }),
                    8,
                ),
            )
        })
        .collect();
    let op = Rc::new(RoundRobin {
        ops,
        next: Cell::new(0),
    });
    run_closed_loop(
        &sim,
        op as Rc<dyn Operation>,
        clients,
        cost::think_time(),
        Duration::from_secs(2),
        Duration::from_secs(15),
        &rng,
    )
    .throughput
}

fn write_point(replicas: usize, clients: usize) -> f64 {
    let sim = Sim::new();
    let rng = SimRng::seed_from_u64(777 + replicas as u64);
    let realm = hdns::HdnsRealm::new(
        "scale-w",
        replicas,
        groupcast::StackConfig::default(),
        None,
        6,
    );
    // Write cost grows with group size: the multicast fans out to every
    // member and stability needs everyone's ack.
    let per_member = 0.35;
    let service = Duration::from_nanos(
        (cost::hdns_write().as_nanos() as f64 * (1.0 + per_member * (replicas - 1) as f64)) as u64,
    );
    let op = Rc::new(
        RoundTrips::new(
            QueueingServer::new(&sim, ServerConfig::default()),
            rng.fork(),
            cost::net_rtt(),
            vec![service],
        )
        .with_work(
            Rc::new(move |_| {
                realm
                    .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]), None)
                    .expect("replicated rebind");
            }),
            64,
        ),
    );
    run_closed_loop(
        &sim,
        Rc::new(op) as Rc<dyn Operation>,
        clients,
        cost::think_time(),
        Duration::from_secs(2),
        Duration::from_secs(15),
        &rng,
    )
    .throughput
}

fn main() {
    let clients = 600;
    println!();
    println!("# Extension — HDNS layer scaling (fixed {clients} closed-loop clients)");
    println!(
        "{:>9}  {:>22}  {:>18}",
        "replicas", "aggregate reads [op/s]", "writes [op/s]"
    );
    for replicas in [1usize, 2, 3, 4, 6, 8] {
        let r = read_point(replicas, clients);
        let w = write_point(replicas, clients);
        println!("{replicas:>9}  {r:>22.0}  {w:>18.0}");
    }
    println!("## reads scale out with replicas; writes pay the replication fan-out");
}
