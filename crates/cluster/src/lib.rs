//! rndi-cluster: the cluster membership plane.
//!
//! Where the simnet-backed group stack (crates/groupcomm, crates/hdns)
//! proves the replication protocols against a deterministic oracle, this
//! crate runs the same protocols between real processes on real TCP:
//!
//! * [`MembershipTable`] — SWIM-style `(incarnation, state)` beliefs
//!   merged under a total precedence order
//!   (`Alive < Suspect < Dead < Quarantined`);
//! * [`GossipEngine`] — periodic anti-entropy Syncs over the v2 envelope
//!   protocol's `Gossip` family, piggybacking the group-view lineage;
//! * [`PhiFailureDetector`] — phi-accrual suspicion over gossip
//!   inter-arrival times (`Suspect` at the configured threshold, `Dead`
//!   at twice it);
//! * [`QuarantineTable`] — time-gated re-admission of flapping nodes;
//! * [`bridge`] — converged beliefs → [`groupcast::View`] proposals
//!   (lineage-anchored candidate, strict-majority quorum);
//! * [`ClusterNode`] — one booted member: a `NetServer` serving the HDNS
//!   provider's pipeline over the node's replica, plus the gossip pacer,
//!   with membership exported through `Admin::Health` and the node's
//!   metrics registry.
//!
//! Knobs (`rndi.cluster.*`): `seed`, `gossip-interval-ms`,
//! `phi-threshold`, `quarantine-ms` — see [`ClusterConfig`].

pub mod bridge;
pub mod config;
pub mod gossip;
pub mod membership;
pub mod node;
pub mod phi;
pub mod quarantine;

pub use bridge::addr_of;
pub use config::ClusterConfig;
pub use gossip::GossipEngine;
pub use membership::{MemberInfo, MembershipTable};
pub use node::{ClusterNode, TcpChannel};
pub use phi::PhiFailureDetector;
pub use quarantine::QuarantineTable;
