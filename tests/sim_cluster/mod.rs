//! A simnet driver for the membership [`Plane`]: N planes, each under an
//! HDNS replica, gossiping over a simulated network in seeded virtual
//! time.
//!
//! It is the plane's second driver next to `ClusterNode`'s TCP pacer and
//! mirrors it: every node runs one plane round per pacer period, carries
//! the round's sends as v2 `Gossip` envelopes, and pumps its replica
//! after the round. Inbound requests go to [`Plane::handle`] and the
//! reply travels back as its own packet, so a partition or crash can
//! drop a request and its reply independently. Partitions, crashes and
//! cut links are the network's (`Network::partition`/`heal`/`crash`,
//! `set_link` with loss 1.0); nothing in the plane knows about them.
//! Given a seed, a run is fully deterministic: the same scenario replays
//! the same view history.
//!
//! The traffic model follows loopback TCP runs of `serve_cluster_hdns`
//! with 5 nodes at a 10 ms gossip interval (release build, 2-vCPU host;
//! one idle cluster, and three clusters side by side under continuous
//! in-process writes):
//!
//! * gossip round trips measured p50 57–94 µs, p90 143–280 µs, p99
//!   375–875 µs, p99.9 1.3–6.6 ms, max 6–12 ms. Each direction of each
//!   link gets a base latency drawn once from 30..150 µs, one packet in
//!   a hundred is held up a further 0.2–6 ms, and, as on a TCP
//!   connection, a link never reorders its packets (the group
//!   protocol's state transfer relies on that).
//! * pacer periods were never early and ran late by a median 6–8%, p99
//!   13–39%, max 45–84% of the interval. A period here is the interval
//!   plus 2–20% of it, or, one period in fifty, plus 20–85%.
//!
//! What the model leaves out: a server shard blocked by a *served* write
//! (up to its 250 ms budget) delays every gossip frame behind it. The
//! scenarios write in process, as the TCP tests they replace did.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Duration;

use hdns::{HdnsEntry, Op, Replica};
use rndi_cluster::{ClusterConfig, NodeReplica, Plane, PlaneChannel};
use rndi_core::env::{keys, Environment};
use rndi_net::proto::bin::{decode_envelope, encode_envelope};
use rndi_net::proto::{Envelope, EnvelopeBody, MemberEntry};
use simnet::{LinkSpec, Network, NodeId, Packet, Sim, SimRng, SimTime};

/// Simulated port carrying gossip requests.
const REQUEST: u16 = 1;
/// Simulated port carrying gossip replies.
const REPLY: u16 = 2;
/// How long a write waits for its ordered self-delivery (the TCP
/// driver's in-process `write_sync` budget).
const WRITE_BUDGET: Duration = Duration::from_secs(3);

/// One installed-view change: (virtual ms, node, view seq, members).
pub type ViewRecord = (u64, String, u64, Vec<String>);

/// One node's process: its plane and the replica on top of it.
struct Process {
    /// The network node this life of the process runs on.
    id: NodeId,
    plane: PlaneChannel,
    replica: NodeReplica,
    /// Bumped on crash and restart, so the pacer of a dead life stops.
    life: u64,
    last_view: Option<(u64, Vec<String>)>,
}

type Slot = Rc<RefCell<Process>>;

/// Per directed link: its base latency and when its last packet lands.
type Links = HashMap<(NodeId, NodeId), (Duration, SimTime)>;

/// What every event callback needs.
struct World {
    net: Network,
    rng: SimRng,
    interval: Duration,
    links: RefCell<Links>,
    /// Directed links that lose every packet.
    cut: RefCell<HashSet<(NodeId, NodeId)>>,
    history: RefCell<Vec<ViewRecord>>,
}

/// N membership planes on one simulated network.
pub struct SimCluster {
    world: Rc<World>,
    env: Environment,
    group: String,
    seed: u64,
    slots: Vec<Slot>,
    alive: Vec<bool>,
}

fn endpoint(id: NodeId) -> String {
    format!("sim:{}", id.0)
}

fn node_of(endpoint: &str) -> Option<NodeId> {
    endpoint.strip_prefix("sim:")?.parse().ok().map(NodeId)
}

fn now_ms(sim: &Sim) -> u64 {
    sim.now().as_nanos() / 1_000_000
}

impl World {
    /// Send one envelope over the link model of the module doc.
    fn send(&self, src: NodeId, dst: NodeId, port: u16, body: EnvelopeBody) {
        let now = self.net.sim().now();
        let latency = {
            let mut links = self.links.borrow_mut();
            let (base, last) = links
                .entry((src, dst))
                .or_insert_with(|| (Duration::from_micros(self.rng.gen_range(30..150)), now));
            let mut arrive = now + *base;
            if self.rng.chance(0.01) {
                arrive += Duration::from_micros(self.rng.gen_range(200..6_000));
            }
            *last = arrive.max(*last);
            last.saturating_since(now)
        };
        let loss = if self.cut.borrow().contains(&(src, dst)) {
            1.0
        } else {
            0.0
        };
        let spec = LinkSpec {
            latency,
            jitter: 0.0,
            loss,
        };
        self.net.set_link(src, dst, spec);
        let bytes = encode_envelope(&Envelope { req_id: 0, body }).expect("gossip encodes");
        self.net.send(src, dst, port, bytes);
    }

    /// One pacer period (see the module doc).
    fn period(&self) -> Duration {
        let late = if self.rng.chance(0.98) {
            0.02 + 0.18 * self.rng.gen_f64()
        } else {
            0.2 + 0.65 * self.rng.gen_f64()
        };
        self.interval.mul_f64(1.0 + late)
    }
}

impl SimCluster {
    /// Boot `n` nodes named `node-0..`: `node-0` founds the lineage and
    /// every other node is seeded with its endpoint, as
    /// `serve_cluster_hdns` does over TCP.
    pub fn boot(n: usize, group: &str, env: &Environment, seed: u64) -> SimCluster {
        let sim = Sim::new();
        let rng = SimRng::seed_from_u64(seed);
        let net = Network::new(&sim, rng.fork(), LinkSpec::lan());
        let interval = ClusterConfig::from_env("probe", group, env)
            .expect("cluster keys parse")
            .gossip_interval_ms;
        let world = Rc::new(World {
            net,
            rng,
            interval: Duration::from_millis(interval),
            links: RefCell::new(HashMap::new()),
            cut: RefCell::new(HashSet::new()),
            history: RefCell::new(Vec::new()),
        });
        let mut cluster = SimCluster {
            world,
            env: env.clone(),
            group: group.to_string(),
            seed,
            slots: Vec::new(),
            alive: Vec::new(),
        };
        for i in 0..n {
            let id = cluster.world.net.add_node();
            let seed_ep = (i > 0).then(|| endpoint(cluster.slots[0].borrow().id));
            let slot = Rc::new(RefCell::new(cluster.process(i, id, seed_ep, 0)));
            bind(&cluster.world, &slot, id);
            cluster.slots.push(slot.clone());
            cluster.alive.push(true);
            // One node after another, as `serve_cluster_hdns` brings them
            // up: each runs its first round as soon as it starts.
            let first = Duration::from_millis(i as u64);
            schedule_round(cluster.world.clone(), slot, id, 0, first);
        }
        cluster
    }

    /// Process `node-{i}` on network node `id`.
    fn process(&self, i: usize, id: NodeId, seed: Option<String>, life: u64) -> Process {
        let env = self
            .env
            .clone()
            .with(keys::CLUSTER_SEED, seed.unwrap_or_default());
        let config = ClusterConfig::from_env(format!("node-{i}"), self.group.as_str(), &env)
            .expect("cluster keys parse");
        let plane = PlaneChannel::new(Plane::new(&config));
        plane.plane().set_endpoint(&endpoint(id));
        let replica = NodeReplica::join(&plane, &self.group).expect("join group");
        Process {
            id,
            plane,
            replica,
            life,
            last_view: None,
        }
    }

    /// Indices of the nodes not crashed.
    pub fn live(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&i| self.alive[i]).collect()
    }

    pub fn name(&self, i: usize) -> String {
        self.plane(i).plane().name().to_string()
    }

    /// Where node `i` currently listens.
    pub fn endpoint(&self, i: usize) -> String {
        endpoint(self.id(i))
    }

    pub fn view_members(&self, i: usize) -> Vec<String> {
        self.plane(i)
            .plane()
            .view()
            .map(|v| v.members)
            .unwrap_or_default()
    }

    pub fn members(&self, i: usize) -> Vec<MemberEntry> {
        self.plane(i).plane().members()
    }

    pub fn writes_allowed(&self, i: usize) -> bool {
        self.plane(i).plane().writes_allowed()
    }

    pub fn incarnation(&self, i: usize) -> u64 {
        self.plane(i).plane().incarnation()
    }

    pub fn lookup(&self, i: usize, path: &str) -> Option<HdnsEntry> {
        self.slots[i].borrow().replica.lookup(path)
    }

    fn plane(&self, i: usize) -> PlaneChannel {
        self.slots[i].borrow().plane.clone()
    }

    fn id(&self, i: usize) -> NodeId {
        self.slots[i].borrow().id
    }

    /// Node `i`'s write path — the one the TCP driver serves — with
    /// virtual time stepping a millisecond between polls.
    pub fn write(&self, i: usize, op: Op) -> bool {
        let replica = self.slots[i].borrow().replica.clone();
        let sim = self.world.net.sim();
        replica
            .write_within(
                op,
                WRITE_BUDGET,
                || Duration::from_nanos(sim.now().as_nanos()),
                || {
                    sim.step(Duration::from_millis(1));
                },
            )
            .is_ok()
    }

    /// Run virtual time in 5 ms steps until `cond` holds; panics with
    /// `what` (and the seed) once `budget` has passed.
    pub fn wait_for(&self, budget: Duration, what: &str, mut cond: impl FnMut(&Self) -> bool) {
        let sim = self.world.net.sim();
        let deadline = sim.now() + budget;
        while !cond(self) {
            assert!(
                sim.now() < deadline,
                "timed out waiting for {what} (seed {}){}",
                self.seed,
                self.dump()
            );
            sim.step(Duration::from_millis(5));
        }
    }

    /// Every live node's view and beliefs, one line each.
    fn dump(&self) -> String {
        let mut out = String::new();
        for i in self.live() {
            let p = self.plane(i);
            let plane = p.plane();
            let beliefs: Vec<String> = plane
                .members()
                .iter()
                .map(|m| format!("{}@{}:{:?}", m.name, m.incarnation, m.state))
                .collect();
            out += &format!(
                "\n  {}: view {:?} writes {} | {}",
                plane.name(),
                plane.view().map(|v| (v.seq, v.members)),
                plane.writes_allowed(),
                beliefs.join(" ")
            );
        }
        out
    }

    /// Crash node `i`: its host drops off the network and its process
    /// stops, with no goodbye.
    pub fn kill(&mut self, i: usize) {
        self.world.net.crash(self.id(i));
        self.slots[i].borrow_mut().life += 1;
        self.alive[i] = false;
    }

    /// Restart node `i` under the same name with empty state, on a new
    /// host (so a fresh endpoint, as a restarted TCP node gets a fresh
    /// port), seeded with node `seed`'s endpoint.
    pub fn restart(&mut self, i: usize, seed: usize) {
        let id = self.world.net.add_node();
        let life = self.slots[i].borrow().life + 1;
        let process = self.process(i, id, Some(self.endpoint(seed)), life);
        *self.slots[i].borrow_mut() = process;
        bind(&self.world, &self.slots[i], id);
        self.alive[i] = true;
        let first = self.world.rng.jittered(self.world.interval / 2, 1.0);
        schedule_round(self.world.clone(), self.slots[i].clone(), id, life, first);
    }

    /// Split the network into the given groups of node indices.
    pub fn partition(&self, groups: &[&[usize]]) {
        let ids: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| self.id(i)).collect())
            .collect();
        let refs: Vec<&[NodeId]> = ids.iter().map(Vec::as_slice).collect();
        self.world.net.partition(&refs);
    }

    pub fn heal(&self) {
        self.world.net.heal();
    }

    /// Cut the link between nodes `a` and `b`, both ways, leaving every
    /// other link up: a non-transitive partition.
    pub fn cut(&self, a: usize, b: usize) {
        let (a, b) = (self.id(a), self.id(b));
        self.world.cut.borrow_mut().extend([(a, b), (b, a)]);
    }

    /// Every installed-view change so far, in event order.
    pub fn history(&self) -> Vec<ViewRecord> {
        self.world.history.borrow().clone()
    }
}

/// Serve gossip requests (replying in a packet of their own) and absorb
/// replies, for the process in `slot` on network node `id`.
fn bind(world: &Rc<World>, slot: &Slot, id: NodeId) {
    let (w, s) = (world.clone(), slot.clone());
    world.net.bind(id, REQUEST, move |sim, pkt: Packet| {
        let Ok(Envelope {
            body: EnvelopeBody::Gossip(req),
            ..
        }) = decode_envelope(&pkt.bytes)
        else {
            return;
        };
        let now = now_ms(sim);
        let reply = s.borrow().plane.plane().handle(req, now);
        note_view(&w, &s, now);
        w.send(pkt.dst, pkt.src, REPLY, EnvelopeBody::GossipOk(reply));
    });
    let s = slot.clone();
    world.net.bind(id, REPLY, move |sim, pkt: Packet| {
        if let Ok(Envelope {
            body: EnvelopeBody::GossipOk(reply),
            ..
        }) = decode_envelope(&pkt.bytes)
        {
            let plane = s.borrow().plane.clone();
            plane
                .plane()
                .on_reply(&endpoint(pkt.src), &reply, now_ms(sim));
        }
    });
}

/// Run one round of `slot`'s process life `life` after `delay`, then
/// keep its pacer going every pacer period.
fn schedule_round(world: Rc<World>, slot: Slot, id: NodeId, life: u64, delay: Duration) {
    let sim = world.net.sim().clone();
    sim.schedule(delay, move |sim| {
        if slot.borrow().life != life {
            return;
        }
        let now = now_ms(sim);
        let sends = slot.borrow().plane.plane().round(now);
        for (ep, req) in sends {
            if let Some(to) = node_of(&ep) {
                world.send(id, to, REQUEST, EnvelopeBody::Gossip(req));
            }
        }
        slot.borrow().replica.pump();
        note_view(&world, &slot, now);
        let next = world.period();
        schedule_round(world, slot, id, life, next);
    });
}

/// Append to the history when `slot`'s installed view changed.
fn note_view(world: &World, slot: &Slot, now: u64) {
    let mut p = slot.borrow_mut();
    let (name, view) = {
        let plane = p.plane.plane();
        let view = plane.view().map(|v| (v.seq, v.members));
        (plane.name().to_string(), view)
    };
    if view != p.last_view {
        if let Some((seq, members)) = view.clone() {
            world.history.borrow_mut().push((now, name, seq, members));
        }
        p.last_view = view;
    }
}
