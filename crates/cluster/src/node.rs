//! [`ClusterNode`]: one member of the TCP membership plane.
//!
//! Each node hosts a [`NetServer`] whose v2 envelope protocol carries
//! three planes over the *same* listener: naming calls (the HDNS
//! provider's standard pipeline over the local replica, so the full
//! `DirContext`), admin telemetry
//! (scrapes see membership through `Admin::Health`), and the new
//! `Gossip` family — membership Syncs plus `Group`-wrapped
//! [`groupcast::Wire`] frames that carry the replication protocol
//! (sequencer forwards, ordered deliveries, view installs, state
//! snapshots) peer-to-peer.
//!
//! Concurrency model: every protocol decision lives in the node's
//! sans-IO [`Plane`] behind a mutex, and **no TCP I/O ever happens while
//! it is held**. This module is only the plane's TCP driver: the
//! server's gossip handler runs inline on a shard event loop and hands
//! each request to the plane, and a per-node pacer thread runs the
//! plane's gossip rounds on the wall clock, carries its sends over
//! `NetClient`s, feeds the replies back, pumps the HDNS replica, and
//! exports telemetry.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hdns::{HdnsEntry, HdnsEvent, HdnsNode, Op, OpOutcome as HdnsOutcome, RealmError, Replica};
use rndi_core::error::{NamingError, Result};
use rndi_net::proto::{GossipReply, GossipRequest, MemberEntry, ViewSummary};
use rndi_net::{GossipHandler, MembershipStats, NetClient, NetServer, ServerConfig};
use rndi_obs::metrics::{names, Registry};
use rndi_obs::TraceCtx;
use rndi_providers::hdns::HdnsProviderContext;

use crate::config::ClusterConfig;
use crate::plane::{Plane, PlaneChannel};

/// How long an in-process [`ClusterNode::write_sync`] waits for its
/// ordered self-delivery.
const WRITE_BUDGET: Duration = Duration::from_millis(3_000);

/// How long a *served* write waits. Provider calls run inline on a
/// server shard's event loop, so this must stay well under the phi
/// suspect bound (~18× the gossip interval at the default threshold) —
/// a stalled wait must surface as a retryable error to the remote
/// caller, not as seconds of inbound-frame starvation that read as this
/// node going silent.
const BACKEND_WRITE_BUDGET: Duration = Duration::from_millis(250);

/// Serves inbound `Gossip` envelopes on the server's event loop.
struct Handler {
    plane: PlaneChannel,
    epoch: Instant,
}

impl GossipHandler for Handler {
    fn handle(&self, req: GossipRequest) -> GossipReply {
        let now = self.epoch.elapsed().as_millis() as u64;
        self.plane.plane().handle(req, now)
    }
}

/// The node's HDNS replica as the provider sees it: reads answer from
/// the local store ("nearest node" semantics); writes replicate through
/// the group and only acknowledge after ordered self-delivery — and only
/// while this node sits in the primary partition. Both plane drivers
/// write through it.
#[derive(Clone)]
pub struct NodeReplica {
    plane: PlaneChannel,
    hdns: Arc<Mutex<HdnsNode<PlaneChannel>>>,
}

impl NodeReplica {
    /// A replica over `plane`, joined to `group`.
    pub fn join(plane: &PlaneChannel, group: &str) -> Result<NodeReplica> {
        let hdns = HdnsNode::new(plane.clone(), None);
        hdns.connect(group)
            .map_err(|e| NamingError::service(format!("join group: {e}")))?;
        Ok(NodeReplica {
            plane: plane.clone(),
            hdns: Arc::new(Mutex::new(hdns)),
        })
    }

    /// The one write path: the write gate, then submit, then pump the
    /// replica until the ordered outcome arrives or `budget` has passed
    /// on `now`. The driver supplies the clock and the `wait` between
    /// polls (a wall-clock sleep, or a step of virtual time).
    pub fn write_within(
        &self,
        op: Op,
        budget: Duration,
        now: impl Fn() -> Duration,
        mut wait: impl FnMut(),
    ) -> std::result::Result<(), RealmError> {
        if !self.plane.plane().writes_allowed() {
            return Err(RealmError::Unavailable(
                "not in the primary partition: writes refused",
            ));
        }
        let ticket = self
            .hdns
            .lock()
            .submit(op)
            .map_err(|_| RealmError::Unavailable("replica is not in the group"))?;
        let deadline = now() + budget;
        loop {
            {
                let mut node = self.hdns.lock();
                node.process();
                match node.outcome(ticket) {
                    HdnsOutcome::Pending => {}
                    HdnsOutcome::Done(r) => return r.map_err(RealmError::from),
                    HdnsOutcome::Lost => {
                        return Err(RealmError::Unavailable("replica lost the op"))
                    }
                }
            }
            if now() >= deadline {
                return Err(RealmError::Unavailable("write not ordered within budget"));
            }
            wait();
        }
    }

    /// [`NodeReplica::write_within`] on the wall clock.
    fn write_wall(&self, op: Op, budget: Duration) -> std::result::Result<(), RealmError> {
        let start = Instant::now();
        self.write_within(
            op,
            budget,
            || start.elapsed(),
            || std::thread::sleep(Duration::from_millis(1)),
        )
    }
}

impl Replica for NodeReplica {
    fn write(&self, op: Op, _trace: Option<TraceCtx>) -> std::result::Result<(), RealmError> {
        self.write_wall(op, BACKEND_WRITE_BUDGET)
    }

    fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.hdns.lock().lookup(path)
    }

    fn for_each_child(&self, prefix: &str, visit: &mut dyn FnMut(&str, &HdnsEntry)) {
        self.hdns.lock().for_each_child(prefix, visit)
    }

    fn take_events(&self) -> Vec<HdnsEvent> {
        self.hdns.lock().take_events()
    }

    fn pump(&self) {
        self.hdns.lock().process()
    }
}

/// One booted member of the cluster membership plane.
pub struct ClusterNode {
    config: ClusterConfig,
    endpoint: String,
    plane: PlaneChannel,
    replica: Arc<NodeReplica>,
    server: Option<NetServer>,
    registry: Arc<Registry>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    pacer: Option<JoinHandle<()>>,
}

impl ClusterNode {
    /// Boot a node: join the group, bind the server, start gossiping.
    /// With no seed configured the node bootstraps the view lineage as a
    /// singleton; otherwise it courts the seed until absorbed.
    pub fn start(config: ClusterConfig) -> Result<ClusterNode> {
        let epoch = Instant::now();
        let plane = PlaneChannel::new(Plane::new(&config));
        let replica = Arc::new(NodeReplica::join(&plane, &config.group)?);
        let registry = Arc::new(Registry::new());
        let pipeline = HdnsProviderContext::for_replica(replica.clone(), &config.name, &config.env);
        let provider = pipeline.backend().clone();
        let server = NetServer::with_registry(
            pipeline,
            ServerConfig::from_env(&config.env)?,
            registry.clone(),
        )?;
        let endpoint = server.local_addr().to_string();
        server.set_gossip_handler(Arc::new(Handler {
            plane: plane.clone(),
            epoch,
        }));
        let membership = server.membership_stats();

        plane.plane().set_endpoint(&endpoint);

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pacer = {
            let plane = plane.clone();
            let stop = stop.clone();
            let registry = registry.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("cluster-pacer-{}", config.name))
                .spawn(move || pace(plane, provider, stop, registry, membership, config, epoch))
                .map_err(|e| NamingError::service(format!("spawn pacer: {e}")))?
        };

        Ok(ClusterNode {
            config,
            endpoint,
            plane,
            replica,
            server: Some(server),
            registry,
            stop,
            pacer: Some(pacer),
        })
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// `host:port` this node's server (naming + admin + gossip) is on.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub fn incarnation(&self) -> u64 {
        self.plane.plane().incarnation()
    }

    /// This node's current belief about every member.
    pub fn members(&self) -> Vec<MemberEntry> {
        self.plane.plane().members()
    }

    /// The installed group view, in member names.
    pub fn view(&self) -> Option<ViewSummary> {
        self.plane.plane().view()
    }

    /// Is this node currently allowed to acknowledge writes?
    pub fn writes_allowed(&self) -> bool {
        self.plane.plane().writes_allowed()
    }

    /// Entries in the local replica store.
    pub fn entry_count(&self) -> usize {
        self.replica.hdns.lock().entry_count()
    }

    /// Replica-local read.
    pub fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.replica.lookup(path)
    }

    /// Replicate a write and wait for its ordered outcome (primary
    /// partition only) — the served write path with a longer budget.
    pub fn write_sync(&self, op: Op) -> std::result::Result<(), RealmError> {
        self.replica.write_wall(op, WRITE_BUDGET)
    }

    /// The node's private metrics registry (scraped remotely via admin).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Crash the node: tear sockets down mid-request, no goodbyes. The
    /// rest of the cluster finds out the phi-accrual way.
    pub fn kill(mut self) {
        self.stop_pacer();
        if let Some(s) = self.server.take() {
            s.abort();
        }
    }

    /// Graceful exit: persist, leave the group, drain the server.
    pub fn shutdown(mut self) {
        self.stop_pacer();
        self.replica.hdns.lock().shutdown();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }

    fn stop_pacer(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.pacer.take() {
            let _ = p.join();
        }
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.stop_pacer();
        if let Some(s) = self.server.take() {
            s.abort();
        }
    }
}

/// The pacer: one plane round per gossip interval on the wall clock.
fn pace(
    plane: PlaneChannel,
    provider: Arc<HdnsProviderContext>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    registry: Arc<Registry>,
    membership: Arc<MembershipStats>,
    config: ClusterConfig,
    epoch: Instant,
) {
    let now_ms = || epoch.elapsed().as_millis() as u64;
    let mut clients: BTreeMap<String, NetClient> = BTreeMap::new();
    let interval = Duration::from_millis(config.gossip_interval_ms);
    while !stop.load(Ordering::SeqCst) {
        // The round's sends are planned under the lock and carried off
        // it. Failed peers just miss heartbeats — that is the signal,
        // not an error to handle.
        let sends = plane.plane().round(now_ms());
        for (ep, req) in sends {
            if !clients.contains_key(&ep) {
                match NetClient::new(&ep, &config.env) {
                    Ok(c) => clients.insert(ep.clone(), c),
                    Err(_) => continue,
                };
            }
            match clients[&ep].gossip(req) {
                Ok(reply) => plane.plane().on_reply(&ep, &reply, now_ms()),
                Err(_) => {
                    clients.remove(&ep);
                }
            }
        }

        // Pump the replica (applies deliveries, answers state requests
        // into the plane for the next round) and hand the resulting
        // change events to the provider's listeners.
        provider.poll_events();

        export(&plane.plane(), &registry, &membership, now_ms());
        std::thread::sleep(interval);
    }
}

/// Export membership into the health atomics (served by `Admin::Health`)
/// and the node's registry (merged by cluster scrapes).
fn export(plane: &Plane, registry: &Registry, membership: &MembershipStats, now_ms: u64) {
    let s = plane.stats(now_ms);
    membership.alive.store(s.alive, Ordering::Relaxed);
    membership.suspect.store(s.suspect, Ordering::Relaxed);
    membership.dead.store(s.dead, Ordering::Relaxed);
    membership.view_epoch.store(s.view_epoch, Ordering::Relaxed);

    registry
        .gauge(names::CLUSTER_MEMBERS, &[])
        .set(s.alive as i64);
    registry
        .gauge(names::CLUSTER_SUSPECTS, &[])
        .set(s.suspect as i64);
    registry
        .gauge(names::CLUSTER_VIEW_EPOCH, &[])
        .set(s.view_epoch as i64);
    registry
        .gauge(names::CLUSTER_PHI, &[])
        .set((s.max_phi * 1_000.0) as i64);
    let counter = registry.counter(names::CLUSTER_GOSSIP_ROUNDS, &[]);
    let done = counter.get();
    if s.rounds > done {
        counter.add(s.rounds - done);
    }
}
