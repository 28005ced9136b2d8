//! rndi-cluster: the cluster membership plane.
//!
//! Where the simnet-backed group stack (crates/groupcomm, crates/hdns)
//! checks the replication protocols against a reachability oracle, this
//! crate detects failures and mints views itself, and runs the same
//! replication protocols between real processes on real TCP. It is
//! split core/driver:
//!
//! * [`Plane`] — the sans-IO core: every membership, view and
//!   write-gate decision, with time passed in and `(endpoint,
//!   GossipRequest)` sends handed out. It is built from
//!   - [`MembershipTable`] — SWIM-style `(incarnation, state)` beliefs
//!     merged under a total precedence order
//!     (`Alive < Suspect < Dead < Quarantined`);
//!   - [`GossipEngine`] — periodic anti-entropy Syncs over the v2
//!     envelope protocol's `Gossip` family, piggybacking the group-view
//!     lineage;
//!   - [`PhiFailureDetector`] — phi-accrual suspicion over gossip
//!     inter-arrival times (`Suspect` at the configured threshold,
//!     `Dead` at twice it);
//!   - [`QuarantineTable`] — time-gated re-admission of flapping nodes;
//!   - [`bridge`] — converged beliefs → [`groupcast::View`] proposals
//!     (lineage-anchored candidate, strict-majority quorum of Alive
//!     members).
//! * [`PlaneChannel`] — the shared plane handle an HDNS replica sends
//!   its group traffic through.
//! * [`NodeReplica`] — the HDNS replica over a plane, with the one
//!   write path (gate, submit, wait for the ordered outcome) that both
//!   drivers use, each with its own clock.
//! * [`ClusterNode`] — the TCP driver: a `NetServer` serving the HDNS
//!   provider's pipeline over the node's replica and handing inbound
//!   gossip to the plane, plus a wall-clock pacer thread that runs the
//!   plane's rounds over `NetClient`s and exports membership through
//!   `Admin::Health` and the node's metrics registry. The second driver,
//!   in `tests/cluster_membership.rs`, runs planes on a simnet network
//!   in seeded virtual time, where partitions and crashes are the
//!   network's.
//!
//! Knobs (`rndi.cluster.*`): `seed`, `gossip-interval-ms`,
//! `phi-threshold`, `quarantine-ms` — see [`ClusterConfig`].

pub mod bridge;
pub mod config;
pub mod gossip;
pub mod membership;
pub mod node;
pub mod phi;
pub mod plane;
pub mod quarantine;

pub use config::ClusterConfig;
pub use gossip::GossipEngine;
pub use membership::{MemberInfo, MembershipTable};
pub use node::{ClusterNode, NodeReplica};
pub use phi::PhiFailureDetector;
pub use plane::{Plane, PlaneChannel};
pub use quarantine::QuarantineTable;
