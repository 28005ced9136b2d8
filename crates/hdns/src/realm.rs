//! A deployment of HDNS replicas with a synchronous client surface.
//!
//! The realm owns the [`groupcast::Cluster`] and the replicas, and runs the
//! drive loop that pumps messages, processes replica events, and — in
//! bimodal stacks — runs gossip/stability rounds until writes resolve.
//! Fault injection (crash, restart, partition, heal) mirrors the paper's
//! recovery scenarios.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rndi_obs::metrics::names;
use rndi_obs::{SpanOutcome, SpanRecord, TraceCtx};

use groupcast::{Addr, Cluster, StackConfig};

use crate::node::{HdnsEvent, HdnsNode, OpOutcome, Ticket};
use crate::store::{AttrEdit, HdnsEntry, HdnsError, Op};

/// Client-visible failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RealmError {
    Store(HdnsError),
    /// The write was not applied: the contacted replica is down, refused
    /// it, or it never resolved. Carries the reason.
    Unavailable(&'static str),
}

impl From<HdnsError> for RealmError {
    fn from(e: HdnsError) -> Self {
        RealmError::Store(e)
    }
}

impl std::fmt::Display for RealmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealmError::Store(e) => write!(f, "{e}"),
            RealmError::Unavailable(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for RealmError {}

/// The node is down or the write never resolved.
const NODE_UNAVAILABLE: RealmError = RealmError::Unavailable("hdns node unavailable");

/// What a naming front end needs from one HDNS replica: replicated
/// writes, replica-local reads, change events and a pump. A realm replica
/// ([`RealmReplica`]) and a TCP cluster node implement it, so one provider
/// serves both.
pub trait Replica: Send + Sync {
    /// Replicate `op` and wait for its ordered outcome. `trace` is the
    /// client span's context, if the write is traced.
    fn write(&self, op: Op, trace: Option<TraceCtx>) -> Result<(), RealmError>;

    /// Replica-local read.
    fn lookup(&self, path: &str) -> Option<HdnsEntry>;

    /// Replica-local visit of the direct children of `prefix`, borrowing
    /// each entry in place. Runs under the replica's lock, so `visit` must
    /// not call back into the replica.
    fn for_each_child(&self, prefix: &str, visit: &mut dyn FnMut(&str, &HdnsEntry));

    /// Drain the replica's change events.
    fn take_events(&self) -> Vec<HdnsEvent>;

    /// Move pending group traffic and apply what it delivered.
    fn pump(&self);
}

/// Replica `node` of a realm, as a [`Replica`].
#[derive(Clone)]
pub struct RealmReplica {
    realm: HdnsRealm,
    node: usize,
}

impl Replica for RealmReplica {
    fn write(&self, op: Op, trace: Option<TraceCtx>) -> Result<(), RealmError> {
        self.realm.write(self.node, op, trace)
    }

    fn lookup(&self, path: &str) -> Option<HdnsEntry> {
        self.realm.lookup(self.node, path)
    }

    fn for_each_child(&self, prefix: &str, visit: &mut dyn FnMut(&str, &HdnsEntry)) {
        self.realm.for_each_child(self.node, prefix, visit)
    }

    fn take_events(&self) -> Vec<HdnsEvent> {
        self.realm.take_events(self.node)
    }

    fn pump(&self) {
        self.realm.drive()
    }
}

/// A running HDNS deployment.
///
/// ```
/// use groupcast::StackConfig;
/// use hdns::{HdnsEntry, HdnsRealm};
///
/// let realm = HdnsRealm::new("docs", 2, StackConfig::default(), None, 1);
/// realm.bind(0, "svc", HdnsEntry::leaf(b"hello".to_vec()), None).unwrap();
/// // Reads are replica-local: the other node already has it.
/// assert_eq!(realm.lookup(1, "svc").unwrap().value, b"hello");
/// ```
#[derive(Clone)]
pub struct HdnsRealm {
    cluster: Cluster,
    group: String,
    config: StackConfig,
    nodes: Arc<Mutex<Vec<Arc<Mutex<HdnsNode>>>>>,
    data_dir: Option<PathBuf>,
}

impl HdnsRealm {
    /// Deploy `replicas` nodes into group `group`. With a `data_dir`, each
    /// replica persists snapshots to `<data_dir>/replica-<i>.json`.
    pub fn new(
        group: &str,
        replicas: usize,
        config: StackConfig,
        data_dir: Option<PathBuf>,
        seed: u64,
    ) -> HdnsRealm {
        assert!(replicas >= 1, "a realm needs at least one replica");
        let cluster = Cluster::new(seed);
        let realm = HdnsRealm {
            cluster,
            group: group.to_string(),
            config,
            nodes: Arc::new(Mutex::new(Vec::new())),
            data_dir,
        };
        for i in 0..replicas {
            realm.spawn_replica(i);
        }
        realm.drive();
        realm
    }

    fn snapshot_path(&self, idx: usize) -> Option<PathBuf> {
        self.data_dir
            .as_ref()
            .map(|d| d.join(format!("replica-{idx}.json")))
    }

    fn spawn_replica(&self, idx: usize) {
        let channel = self.cluster.create_channel(self.config.clone());
        let node = HdnsNode::new(channel, self.snapshot_path(idx));
        let _ = node.connect(&self.group);
        let mut nodes = self.nodes.lock();
        if idx < nodes.len() {
            nodes[idx] = Arc::new(Mutex::new(node));
        } else {
            nodes.push(Arc::new(Mutex::new(node)));
        }
    }

    /// Number of replicas (including dead ones).
    pub fn replica_count(&self) -> usize {
        self.nodes.lock().len()
    }

    /// Replica `node` as a [`Replica`] (what the HDNS provider serves).
    pub fn replica(&self, node: usize) -> RealmReplica {
        RealmReplica {
            realm: self.clone(),
            node,
        }
    }

    /// The group address of replica `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.nodes.lock()[i].lock().addr()
    }

    /// Whether replica `i` is alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.nodes.lock()[i].lock().is_alive()
    }

    /// The underlying cluster (for advanced fault scripting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Pump messages and process replica events until quiescent, running
    /// gossip/stability rounds so bimodal stacks repair losses.
    pub fn drive(&self) {
        let nodes: Vec<Arc<Mutex<HdnsNode>>> = self.nodes.lock().clone();
        for round in 0..12 {
            self.cluster.pump_all();
            for n in &nodes {
                n.lock().process();
            }
            if self.cluster.in_flight() == 0 {
                // Anti-entropy: repair bimodal losses, then check whether
                // the repair generated new traffic.
                self.cluster.gossip_round();
                self.cluster.pump_all();
                for n in &nodes {
                    n.lock().process();
                }
                if self.cluster.in_flight() == 0 && round > 0 {
                    break;
                }
            }
        }
        self.cluster.stable_round();
    }

    fn op_label(op: &Op) -> &'static str {
        match op {
            Op::Bind {
                overwrite: false, ..
            } => "bind",
            Op::Bind {
                overwrite: true, ..
            } => "rebind",
            Op::Unbind { .. } => "unbind",
            Op::Rename { .. } => "rename",
            Op::CreateContext { .. } => "create_subcontext",
            Op::ModifyAttrs { .. } => "modify_attributes",
        }
    }

    /// Submit a write via replica `node`. With the client's `trace`
    /// context the realm records a `"server"` span as its child; the
    /// stored bytes are the same either way.
    fn write(&self, node: usize, op: Op, trace: Option<TraceCtx>) -> Result<(), RealmError> {
        let label = Self::op_label(&op);
        let start = Instant::now();
        let result = self.write_inner(node, op);
        let server = format!("hdns:{}", self.group);
        rndi_obs::metrics::counter(names::SERVER_OPS, &[("server", &server), ("op", label)]).inc();
        rndi_obs::metrics::histogram(
            names::SERVER_DURATION,
            &[("server", &server), ("op", label)],
        )
        .record_duration(start.elapsed());
        // A span is emitted only for a traced write — it becomes a child
        // of the client-side span that issued it.
        if let Some(client_ctx) = trace {
            rndi_obs::trace::record(SpanRecord::new(
                &client_ctx.child(),
                "server",
                server.as_str(),
                label,
                if result.is_ok() {
                    SpanOutcome::Ok
                } else {
                    SpanOutcome::Err
                },
                start.elapsed(),
            ));
        }
        result
    }

    fn write_inner(&self, node: usize, op: Op) -> Result<(), RealmError> {
        let handle = self.nodes.lock()[node].clone();
        let ticket: Ticket = handle.lock().submit(op).map_err(|_| NODE_UNAVAILABLE)?;
        self.drive();
        // Give gossip a few more chances before declaring the write lost.
        for _ in 0..4 {
            match handle.lock().outcome(ticket) {
                OpOutcome::Done(r) => return r.map_err(RealmError::from),
                OpOutcome::Lost => return Err(NODE_UNAVAILABLE),
                OpOutcome::Pending => self.drive(),
            }
        }
        let outcome = handle.lock().outcome(ticket);
        match outcome {
            OpOutcome::Done(r) => r.map_err(RealmError::from),
            _ => Err(NODE_UNAVAILABLE),
        }
    }

    /// Atomic bind via replica `node`. `trace` is the client span's
    /// context, if the write is traced.
    pub fn bind(
        &self,
        node: usize,
        path: &str,
        entry: HdnsEntry,
        trace: Option<TraceCtx>,
    ) -> Result<(), RealmError> {
        self.write(
            node,
            Op::Bind {
                path: path.to_string(),
                entry,
                overwrite: false,
            },
            trace,
        )
    }

    /// Rebind (overwrite) via replica `node`; `trace` as for
    /// [`HdnsRealm::bind`].
    pub fn rebind(
        &self,
        node: usize,
        path: &str,
        entry: HdnsEntry,
        trace: Option<TraceCtx>,
    ) -> Result<(), RealmError> {
        self.write(
            node,
            Op::Bind {
                path: path.to_string(),
                entry,
                overwrite: true,
            },
            trace,
        )
    }

    pub fn unbind(&self, node: usize, path: &str) -> Result<(), RealmError> {
        self.write(
            node,
            Op::Unbind {
                path: path.to_string(),
            },
            None,
        )
    }

    pub fn rename(&self, node: usize, from: &str, to: &str) -> Result<(), RealmError> {
        self.write(
            node,
            Op::Rename {
                from: from.to_string(),
                to: to.to_string(),
            },
            None,
        )
    }

    pub fn create_context(&self, node: usize, path: &str) -> Result<(), RealmError> {
        self.write(
            node,
            Op::CreateContext {
                path: path.to_string(),
            },
            None,
        )
    }

    /// Apply attribute `edits` to `path` atomically: the edits travel as
    /// one op and every replica applies them to the entry as delivered.
    pub fn modify_attrs(
        &self,
        node: usize,
        path: &str,
        edits: Vec<AttrEdit>,
    ) -> Result<(), RealmError> {
        self.write(
            node,
            Op::ModifyAttrs {
                path: path.to_string(),
                edits,
            },
            None,
        )
    }

    /// Replica-local read on `node`.
    pub fn lookup(&self, node: usize, path: &str) -> Option<HdnsEntry> {
        self.nodes.lock()[node].lock().lookup(path)
    }

    /// Replica-local listing on `node`.
    pub fn list(&self, node: usize, prefix: &str) -> Vec<(String, HdnsEntry)> {
        self.nodes.lock()[node].lock().list(prefix)
    }

    /// Replica-local visit of the direct children of `prefix` on `node`,
    /// borrowing each entry in place. Runs under that replica's lock (the
    /// realm-wide replica table is released first), so `visit` must not
    /// call back into the realm.
    pub fn for_each_child(&self, node: usize, prefix: &str, visit: impl FnMut(&str, &HdnsEntry)) {
        let handle = self.nodes.lock()[node].clone();
        handle.lock().for_each_child(prefix, visit);
    }

    /// Drain replica `node`'s change events.
    pub fn take_events(&self, node: usize) -> Vec<HdnsEvent> {
        self.nodes.lock()[node].lock().take_events()
    }

    /// Serialized store of replica `node` (convergence checks / backups).
    pub fn store_snapshot(&self, node: usize) -> Vec<u8> {
        self.nodes.lock()[node].lock().store_snapshot()
    }

    /// Deploy an additional replica into the running group (§6: "Additional
    /// nodes can be deployed dynamically at a later stage as well, while
    /// the system is already in operation"). The newcomer is brought
    /// current by state transfer; returns its replica index.
    pub fn add_replica(&self) -> usize {
        let idx = self.nodes.lock().len();
        self.spawn_replica(idx);
        self.cluster.detect_failures();
        self.drive();
        idx
    }

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    /// Hard-crash replica `i` (no snapshot flush — disk has whatever the
    /// last periodic snapshot wrote).
    pub fn crash(&self, i: usize) {
        let addr = self.addr(i);
        self.cluster.crash(addr);
        self.cluster.detect_failures();
        let nodes: Vec<Arc<Mutex<HdnsNode>>> = self.nodes.lock().clone();
        for n in &nodes {
            n.lock().process();
        }
        self.drive();
    }

    /// Restart a crashed replica: a fresh incarnation recovers its disk
    /// snapshot, rejoins, and is brought current by state transfer.
    pub fn restart(&self, i: usize) {
        self.spawn_replica(i);
        self.cluster.detect_failures();
        self.drive();
    }

    /// Gracefully stop replica `i` (persists to disk first).
    pub fn shutdown_replica(&self, i: usize) {
        let handle = self.nodes.lock()[i].clone();
        handle.lock().shutdown();
        self.cluster.detect_failures();
        self.drive();
    }

    /// Partition the realm: each listed side is a set of replica indices.
    pub fn partition(&self, sides: &[&[usize]]) {
        let addr_sides: Vec<Vec<Addr>> = sides
            .iter()
            .map(|side| side.iter().map(|i| self.addr(*i)).collect())
            .collect();
        let refs: Vec<&[Addr]> = addr_sides.iter().map(|v| v.as_slice()).collect();
        self.cluster.partition(&refs);
        self.cluster.detect_failures();
        self.drive();
    }

    /// Heal all partitions; PRIMARY_PARTITION reconciles state.
    pub fn heal(&self) {
        self.cluster.heal();
        self.cluster.detect_failures();
        self.drive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupcast::OrderingMode;

    fn realm(n: usize) -> HdnsRealm {
        HdnsRealm::new("test", n, StackConfig::default(), None, 5)
    }

    #[test]
    fn reads_from_any_replica() {
        let r = realm(3);
        r.bind(0, "svc", HdnsEntry::leaf(vec![1]), None).unwrap();
        for i in 0..3 {
            assert_eq!(r.lookup(i, "svc").unwrap().value, vec![1], "replica {i}");
        }
    }

    #[test]
    fn atomic_bind_conflict_detected() {
        let r = realm(2);
        r.bind(0, "k", HdnsEntry::leaf(vec![1]), None).unwrap();
        assert_eq!(
            r.bind(1, "k", HdnsEntry::leaf(vec![2]), None),
            Err(RealmError::Store(HdnsError::AlreadyBound("k".into())))
        );
        r.rebind(1, "k", HdnsEntry::leaf(vec![2]), None).unwrap();
        assert_eq!(r.lookup(0, "k").unwrap().value, vec![2]);
    }

    #[test]
    fn crash_and_restart_recovers_via_state_transfer() {
        let r = realm(3);
        r.bind(0, "before", HdnsEntry::leaf(vec![1]), None).unwrap();
        r.crash(2);
        assert!(!r.is_alive(2));
        // Writes continue on the surviving majority.
        r.bind(0, "during", HdnsEntry::leaf(vec![2]), None).unwrap();
        r.restart(2);
        assert!(r.is_alive(2));
        assert_eq!(r.lookup(2, "before").unwrap().value, vec![1]);
        assert_eq!(r.lookup(2, "during").unwrap().value, vec![2]);
    }

    #[test]
    fn partition_then_primary_partition_resync() {
        let r = realm(3);
        r.bind(0, "base", HdnsEntry::leaf(vec![0]), None).unwrap();
        // Isolate replica 2; both sides keep serving.
        r.partition(&[&[0, 1], &[2]]);
        r.bind(0, "majority-write", HdnsEntry::leaf(vec![1]), None)
            .unwrap();
        // The minority side also accepts a (divergent) write.
        r.bind(2, "minority-write", HdnsEntry::leaf(vec![9]), None)
            .unwrap();
        assert!(r.lookup(0, "minority-write").is_none());

        r.heal();
        // PRIMARY_PARTITION: side {0,1} held the old coordinator → wins;
        // replica 2 resyncs and loses its divergent write.
        for i in 0..3 {
            assert!(
                r.lookup(i, "majority-write").is_some(),
                "replica {i} has the winning state"
            );
            assert!(
                r.lookup(i, "minority-write").is_none(),
                "replica {i} dropped the losing write"
            );
        }
        assert!(r.take_events(2).contains(&HdnsEvent::Resynced));
    }

    #[test]
    fn bimodal_stack_converges_despite_loss() {
        let r = HdnsRealm::new(
            "bimodal",
            3,
            StackConfig {
                ordering: OrderingMode::Bimodal {
                    loss: 0.3,
                    fanout: 2,
                },
                ..Default::default()
            },
            None,
            42,
        );
        for i in 0..10u8 {
            r.rebind(0, &format!("k{i}"), HdnsEntry::leaf(vec![i]), None)
                .unwrap();
        }
        for node in 0..3 {
            for i in 0..10u8 {
                assert_eq!(
                    r.lookup(node, &format!("k{i}")).map(|e| e.value),
                    Some(vec![i]),
                    "node {node} key k{i}"
                );
            }
        }
    }

    #[test]
    fn graceful_shutdown_persists_and_cold_restart_recovers() {
        let dir = std::env::temp_dir().join(format!("hdns-realm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let r = HdnsRealm::new("p", 1, StackConfig::default(), Some(dir.clone()), 1);
            r.bind(0, "durable", HdnsEntry::leaf(vec![7]), None)
                .unwrap();
            r.shutdown_replica(0);
        }
        // A brand-new realm over the same data dir: complete-shutdown
        // recovery from disk.
        let r2 = HdnsRealm::new("p", 1, StackConfig::default(), Some(dir.clone()), 2);
        assert_eq!(r2.lookup(0, "durable").unwrap().value, vec![7]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dynamic_replica_deployment() {
        let r = realm(2);
        r.bind(0, "pre-existing", HdnsEntry::leaf(vec![1]), None)
            .unwrap();
        // Scale out while in operation.
        let idx = r.add_replica();
        assert_eq!(idx, 2);
        assert_eq!(r.replica_count(), 3);
        assert_eq!(
            r.lookup(idx, "pre-existing").unwrap().value,
            vec![1],
            "newcomer received state transfer"
        );
        // The newcomer is a full citizen: it can accept writes.
        r.bind(idx, "from-newcomer", HdnsEntry::leaf(vec![2]), None)
            .unwrap();
        assert_eq!(r.lookup(0, "from-newcomer").unwrap().value, vec![2]);
    }

    #[test]
    fn listing_and_contexts() {
        let r = realm(2);
        r.create_context(0, "dept").unwrap();
        r.bind(0, "dept/a", HdnsEntry::leaf(vec![1]), None).unwrap();
        r.bind(1, "dept/b", HdnsEntry::leaf(vec![2]), None).unwrap();
        let mut names: Vec<String> = r.list(1, "dept").into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }
}
