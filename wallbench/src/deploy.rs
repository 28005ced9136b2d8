//! Standing the program up over loopback TCP through its public
//! composition, plainly or with the timing wrappers of [`crate::layers`]
//! between the layers, and reading its counters afterwards.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi::cluster::ClusterNode;
use rndi::core::env::{keys, Environment};
use rndi::core::error::{NamingError, Result};
use rndi::core::spi::{PipelineStats, ProviderBackend, ProviderPipeline};
use rndi::groupcast::StackConfig;
use rndi::hdns::HdnsRealm;
use rndi::net::proto::MemberState;
use rndi::net::{NetClient, NetServer};
use rndi::obs::HealthSummary;
use rndi::providers::hdns::HdnsProviderContext;
use rndi::serve::{self, HdnsCluster, ShardCluster};
use rndi::shard::{ShardMap, ShardRouter};

use crate::layers::Timed;
use crate::trace::{Layer, SpanSink};
use crate::workload::Workload;

pub const SHARDS: usize = 4;
pub const REPLICAS: usize = 3;
/// The follower the `replicated` caller reads from and half its writes go
/// through (`node-0` coordinates the view).
pub const FOLLOWER: usize = 2;

enum Servers {
    Single(NetServer),
    Sharded(ShardCluster),
    Cluster(HdnsCluster),
}

/// One stood-up workload: the servers, the client pipeline(s) callers
/// dispatch into, and handles for reading counters.
pub struct Deployment {
    servers: Servers,
    /// The client pipelines; `replicated` has the coordinator's first and
    /// the follower's second, the others one shared by every caller.
    pub clients: Vec<Arc<dyn ProviderBackend>>,
    stats: Vec<Arc<PipelineStats>>,
    /// The `NetClient`s under the pipelines (none for the plain
    /// `discovery` composition, whose router does not hand them out).
    net_clients: Vec<Arc<NetClient>>,
    router: Option<Arc<ShardRouter>>,
    /// One admin-only client per server endpoint, for health scrapes.
    admin: Vec<NetClient>,
    pub map: Option<ShardMap>,
}

fn realm(group: &str, seed: u64) -> HdnsRealm {
    HdnsRealm::new(group, 1, StackConfig::default(), None, seed)
}

/// An HDNS server-side pipeline with its raw backend and the pipeline as
/// a whole timed: `ProviderPipeline::standard` over the wrapped backend,
/// wrapped again.
fn timed_hdns(
    realm: HdnsRealm,
    instance: &str,
    shard: u16,
    env: &Environment,
    sink: &Arc<SpanSink>,
) -> Arc<dyn ProviderBackend> {
    let plain = HdnsProviderContext::with_env(realm, 0, instance, env);
    let backend = Timed::new(plain.backend().clone(), Layer::Backend, shard, sink.clone());
    let rebuilt = ProviderPipeline::standard(backend, env);
    Timed::new(rebuilt, Layer::ServerPipeline, shard, sink.clone())
}

/// A client pipeline, its stats, and the `NetClient` under it.
type Client = (Arc<dyn ProviderBackend>, Arc<PipelineStats>, Arc<NetClient>);

/// A client pipeline over one endpoint: `NetClient::connect`, or the same
/// stack over a timed `NetClient`.
fn client(
    endpoint: &str,
    env: &Environment,
    sink: Option<&Arc<SpanSink>>,
    shard: u16,
) -> Result<Client> {
    Ok(match sink {
        None => {
            let p = NetClient::connect(endpoint, env)?;
            let stats = p.stats().expect("the standard stack records stats");
            let nc = p.backend().clone();
            (p, stats, nc)
        }
        Some(sink) => {
            let nc = Arc::new(NetClient::new(endpoint, env)?);
            let p = ProviderPipeline::standard(
                Timed::new(nc.clone(), Layer::Net, shard, sink.clone()),
                env,
            );
            let stats = p.stats().expect("the standard stack records stats");
            (p, stats, nc)
        }
    })
}

fn cluster_converged(cluster: &HdnsCluster) -> bool {
    let views: Vec<_> = cluster.nodes().iter().map(|n| n.view()).collect();
    views.iter().all(|v| {
        v.as_ref().is_some_and(|v| {
            v.members.len() == REPLICAS && Some(v.seq) == views[0].as_ref().map(|f| f.seq)
        })
    }) && cluster.nodes().iter().all(|node| {
        node.writes_allowed()
            && node.members().len() == REPLICAS
            && node.members().iter().all(|m| m.state == MemberState::Alive)
    })
}

impl Deployment {
    /// Start the servers (and, for `replicated`, wait until the cluster
    /// has converged) and connect the client(s). Preloading is the
    /// caller's next step.
    pub fn start(
        workload: Workload,
        env: &Environment,
        sink: Option<&Arc<SpanSink>>,
    ) -> Result<Self> {
        let admin_for = |endpoints: &[String]| -> Result<Vec<NetClient>> {
            endpoints
                .iter()
                .map(|e| NetClient::new(e.as_str(), env))
                .collect()
        };
        match workload {
            Workload::PointRead | Workload::WriteHeavy => {
                let server = match sink {
                    None => serve::serve_hdns(realm("bench", 1), 0, "bench-hdns", env)?,
                    Some(sink) => NetServer::bind(
                        timed_hdns(realm("bench", 1), "bench-hdns", 0, env, sink),
                        env,
                    )?,
                };
                let endpoint = server.local_addr().to_string();
                let (pipeline, stats, nc) = client(&endpoint, env, sink, 0)?;
                Ok(Deployment {
                    servers: Servers::Single(server),
                    clients: vec![pipeline],
                    stats: vec![stats],
                    net_clients: vec![nc],
                    router: None,
                    admin: admin_for(&[endpoint])?,
                    map: None,
                })
            }
            Workload::Discovery => {
                let cluster = match sink {
                    None => serve::serve_sharded_hdns(SHARDS, env)?,
                    Some(sink) => serve::serve_sharded(
                        (0..SHARDS)
                            .map(|i| {
                                let r = realm(&format!("shard-{i}"), i as u64 + 1);
                                timed_hdns(r, &format!("hdns-shard-{i}"), i as u16, env, sink)
                            })
                            .collect(),
                        env,
                    )?,
                };
                let map = cluster.map().clone();
                let endpoints: Vec<String> = map
                    .shards()
                    .iter()
                    .map(|s| s.endpoint().to_string())
                    .collect();
                let (pipeline, stats, router, net_clients): (Arc<dyn ProviderBackend>, _, _, _) =
                    match sink {
                        None => {
                            let p = cluster.connect(env)?;
                            let stats = p.stats().expect("the standard stack records stats");
                            let router = p.backend().clone();
                            (p, stats, router, Vec::new())
                        }
                        Some(sink) => {
                            let ncs = endpoints
                                .iter()
                                .map(|e| NetClient::new(e.as_str(), env).map(Arc::new))
                                .collect::<Result<Vec<_>>>()?;
                            let legs = ncs
                                .iter()
                                .enumerate()
                                .map(|(i, nc)| {
                                    Timed::new(nc.clone(), Layer::Net, i as u16, sink.clone())
                                        as Arc<dyn ProviderBackend>
                                })
                                .collect();
                            let router = Arc::new(ShardRouter::new(map.clone(), legs, env)?);
                            let p = ProviderPipeline::standard(
                                Timed::new(router.clone(), Layer::Router, 0, sink.clone()),
                                env,
                            );
                            let stats = p.stats().expect("the standard stack records stats");
                            (p, stats, router, ncs)
                        }
                    };
                Ok(Deployment {
                    servers: Servers::Sharded(cluster),
                    clients: vec![pipeline],
                    stats: vec![stats],
                    net_clients,
                    router: Some(router),
                    admin: admin_for(&endpoints)?,
                    map: Some(map),
                })
            }
            Workload::Replicated => {
                let cluster = serve::serve_cluster_hdns(REPLICAS, "bench-replicated", env)?;
                let deadline = Instant::now() + Duration::from_secs(20);
                while !cluster_converged(&cluster) {
                    if Instant::now() >= deadline {
                        cluster.shutdown();
                        return Err(NamingError::service("cluster did not converge in 20 s"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                let endpoints: Vec<String> = cluster
                    .nodes()
                    .iter()
                    .map(|n| n.endpoint().to_string())
                    .collect();
                let mut clients = Vec::new();
                let mut stats = Vec::new();
                let mut net_clients = Vec::new();
                for node in [0, FOLLOWER] {
                    let (p, s, nc) = client(&endpoints[node], env, sink, node as u16)?;
                    clients.push(p);
                    stats.push(s);
                    net_clients.push(nc);
                }
                Ok(Deployment {
                    servers: Servers::Cluster(cluster),
                    clients,
                    stats,
                    net_clients,
                    router: None,
                    admin: admin_for(&endpoints)?,
                    map: None,
                })
            }
        }
    }

    /// The replicated cluster's nodes (`replicated` only).
    pub fn nodes(&self) -> &[ClusterNode] {
        match &self.servers {
            Servers::Cluster(c) => c.nodes(),
            _ => &[],
        }
    }

    /// Sum of the installed view sequence numbers over the replicated
    /// nodes (0 elsewhere): its growth counts view changes.
    pub fn view_seqs(&self) -> u64 {
        self.nodes()
            .iter()
            .filter_map(|n| n.view())
            .map(|v| v.seq)
            .sum()
    }

    /// Failed client-pipeline ops so far, all kinds.
    pub fn pipeline_errors(&self) -> u64 {
        self.stats
            .iter()
            .flat_map(|s| s.snapshot())
            .map(|row| row.errors)
            .sum()
    }

    /// Client connections currently open under the pipelines.
    pub fn client_conns(&self) -> usize {
        self.net_clients.iter().map(|c| c.pooled()).sum()
    }

    pub fn partial_scatters(&self) -> u64 {
        self.router.as_ref().map_or(0, |r| r.partial_scatters())
    }

    /// Every server's health: read in-process where the composition hands
    /// the server out, over the admin scrape otherwise.
    pub fn health(&self) -> Vec<HealthSummary> {
        match &self.servers {
            Servers::Single(s) => vec![s.health()],
            _ => self
                .admin
                .iter()
                .filter_map(|c| c.scrape_health().ok())
                .collect(),
        }
    }

    /// A counter summed over every server's admin metrics scrape.
    pub fn scraped_counter(&self, name: &str) -> u64 {
        self.admin
            .iter()
            .filter_map(|c| c.scrape_metrics().ok())
            .map(|m| m.counter_total(name))
            .sum()
    }

    /// The effective event-loop shard count of each server: the
    /// `rndi.net.server.shards` key, or the server's default of
    /// `min(available cores, 4)`. `NetServer` does not expose the figure,
    /// so this repeats its rule.
    pub fn effective_server_shards(env: &Environment) -> usize {
        match env.get_u64(keys::NET_SERVER_SHARDS, 0) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 4),
            n => n as usize,
        }
    }

    /// Close the clients, then stop the servers.
    pub fn shutdown(self) {
        drop(self.clients);
        drop(self.net_clients);
        drop(self.router);
        drop(self.admin);
        match self.servers {
            Servers::Single(s) => s.shutdown(),
            Servers::Sharded(c) => c.shutdown(),
            Servers::Cluster(c) => c.shutdown(),
        }
    }
}
