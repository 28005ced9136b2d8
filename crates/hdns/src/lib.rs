//! # hdns — the Harness Distributed Naming Service
//!
//! A fault-tolerant, persistent, replicated naming service (paper §4):
//! "HDNS establishes a group of naming service nodes which maintain
//! consistent replicas of the registration data. Read requests can be
//! handled entirely by any of the nodes … Write requests, in turn, are
//! propagated to each member of the group."
//!
//! * [`store::HdnsStore`] — the hierarchical name→entry store each replica
//!   maintains, with deterministic [`store::Op`] application (so replicas
//!   that apply the same op sequence converge).
//! * [`node::HdnsNode`] — one replica: submits writes as group multicasts,
//!   serves reads locally, answers state-transfer requests, persists
//!   snapshots to disk ("each node maintains persistent view of the
//!   registration data on a local disk"), and re-synchronizes after losing
//!   a PRIMARY_PARTITION decision.
//! * [`realm::HdnsRealm`] — a deployment of replicas over a
//!   [`groupcast::Cluster`], with the synchronous drive loop clients use,
//!   plus crash/restart/partition fault injection.
//! * [`realm::Replica`] — what a naming front end needs from one replica
//!   (replicated write, local reads, events, a pump); implemented by a
//!   realm replica and by a TCP cluster node (`rndi-cluster`).
//!
//! Unlike the Jini lookup service, HDNS was co-designed with the JNDI
//! mapping in mind: `bind` is natively atomic (first delivered bind wins,
//! duplicates are rejected deterministically at every replica), so the
//! JNDI provider needs no distributed locking.

pub mod node;
pub mod realm;
pub mod store;

pub use node::{HdnsEvent, HdnsNode, OpOutcome, ReplicaChannel, Ticket};
pub use realm::{HdnsRealm, RealmError, RealmReplica, Replica};
pub use store::{AttrEdit, HdnsEntry, HdnsError, HdnsStore, Op};
