//! [`Plane`]: the membership plane as a sans-IO state machine.
//!
//! Every membership, view and write-gate decision of a cluster node
//! lives here — the gossip engine, the group member core, the view
//! bridge — and none of its I/O. Time comes in as `now_ms`, inbound
//! gossip comes in through [`Plane::handle`] and [`Plane::on_reply`],
//! and every send goes out as an `(endpoint, GossipRequest)` pair from
//! [`Plane::round`]. The plane owns no socket, thread or clock, so the
//! same code runs under two drivers: [`ClusterNode`](crate::ClusterNode)
//! over real TCP with a wall-clock pacer, and the simnet driver of
//! `tests/cluster_membership.rs` in seeded virtual time, where network
//! partitions are the simulated network's job.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use groupcast::{Addr, ChannelEvent, MemberCore, OrderingMode, Outgoing, SendError, Wire};
use hdns::ReplicaChannel;
use rndi_net::proto::{GossipReply, GossipRequest, MemberEntry, MemberState, ViewSummary};

use crate::bridge::{self, addr_of};
use crate::config::ClusterConfig;
use crate::gossip::GossipEngine;
use crate::membership::MembershipTable;

/// Membership figures for telemetry export.
pub(crate) struct PlaneStats {
    pub alive: u64,
    pub suspect: u64,
    /// Dead plus Quarantined.
    pub dead: u64,
    pub view_epoch: u64,
    pub rounds: u64,
    pub max_phi: f64,
}

/// One node's membership plane.
pub struct Plane {
    name: String,
    engine: GossipEngine,
    core: MemberCore,
    group: String,
    connected: bool,
    /// Reverse of [`bridge::addr_of`] over every known member name.
    names_by_addr: BTreeMap<Addr, String>,
    /// Group wires awaiting the next [`Plane::round`], per target endpoint.
    outbox: Vec<(String, GossipRequest)>,
    /// Seed endpoint to court until absorbed; `None` on the node that
    /// founds the view lineage (and on every node once absorbed).
    seed: Option<String>,
}

impl Plane {
    pub fn new(config: &ClusterConfig) -> Plane {
        let table = MembershipTable::new(&config.name, "", config.quarantine_ms);
        Plane {
            name: config.name.clone(),
            engine: GossipEngine::new(table, config.phi_threshold, config.gossip_interval_ms),
            core: MemberCore::new(addr_of(&config.name), OrderingMode::Sequencer),
            group: config.group.clone(),
            connected: false,
            names_by_addr: BTreeMap::new(),
            outbox: Vec::new(),
            seed: config.seed.clone(),
        }
    }

    /// Record where this node listens (known once its server binds).
    pub fn set_endpoint(&mut self, endpoint: &str) {
        self.engine.table.set_my_endpoint(endpoint);
        self.refresh_names();
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn incarnation(&self) -> u64 {
        self.engine.table.incarnation()
    }

    /// This node's current belief about every member.
    pub fn members(&self) -> Vec<MemberEntry> {
        self.engine.table.entries()
    }

    /// The installed group view, in member names.
    pub fn view(&self) -> Option<ViewSummary> {
        let view = self.core.view()?;
        let members = view
            .members
            .iter()
            .map(|a| {
                self.names_by_addr
                    .get(a)
                    .cloned()
                    .unwrap_or_else(|| format!("?{}", a.0))
            })
            .collect();
        Some(ViewSummary {
            seq: view.id.seq,
            members,
        })
    }

    /// Strict-majority write gate: the installed view must contain a
    /// strict majority of *all known* member names still believed Alive.
    /// A minority partition fails this and refuses writes, which is what
    /// makes "no acknowledged write lost" hold across heals.
    pub fn writes_allowed(&self) -> bool {
        let Some(view) = self.core.view() else {
            return false;
        };
        // A node whose installed view trails the lineage it has *heard*
        // is healing from a partition: the gossip piggyback guarantees it
        // learned the higher-sequence view no later than it learned its
        // peers were back, so refusing here closes the window where a
        // stale five-member view would pass the quorum count again.
        if self
            .engine
            .best_view()
            .is_some_and(|best| best.seq > view.id.seq)
        {
            return false;
        }
        let alive_in_view = view
            .members
            .iter()
            .filter(|a| {
                self.names_by_addr
                    .get(a)
                    .and_then(|n| self.engine.table.get(n))
                    .is_some_and(|m| m.state == MemberState::Alive)
            })
            .count();
        alive_in_view * 2 > self.engine.table.known_count()
    }

    pub(crate) fn stats(&self, now_ms: u64) -> PlaneStats {
        let table = &self.engine.table;
        PlaneStats {
            alive: table.count(MemberState::Alive) as u64,
            suspect: table.count(MemberState::Suspect) as u64,
            dead: (table.count(MemberState::Dead) + table.count(MemberState::Quarantined)) as u64,
            view_epoch: self.core.view().map_or(0, |v| v.id.seq),
            rounds: self.engine.rounds,
            max_phi: self.engine.max_phi(now_ms),
        }
    }

    /// Serve one inbound gossip request: state merges only, every
    /// resulting send queued for the next round.
    pub fn handle(&mut self, req: GossipRequest, now_ms: u64) -> GossipReply {
        match req {
            GossipRequest::Sync {
                from,
                entries,
                view,
            } => {
                let reply = self
                    .engine
                    .handle_sync(&from, &entries, view.as_ref(), now_ms);
                self.refresh_names();
                reply
            }
            GossipRequest::Group { group, from, wire } => {
                if group != self.group || !self.connected {
                    return GossipReply::Ack;
                }
                let from = Addr(from);
                if let Some(name) = self.names_by_addr.get(&from) {
                    self.engine.note_contact(&name.clone(), now_ms);
                }
                if let Ok(w) = serde_json::from_slice::<Wire>(&wire) {
                    // Never regress the lineage: a candidate that healed
                    // out of a minority partition keeps re-asserting its
                    // stale view until gossip catches it up, and blindly
                    // installing that would roll a majority-side member
                    // back. (Same-seq conflicts cannot arise — a minority
                    // can never reach the quorum needed to mint one.)
                    let stale_install = matches!(&w, Wire::InstallView(v)
                        if self.core.view().is_some_and(|cur| v.id.seq < cur.id.seq));
                    if !stale_install {
                        let outgoing = self.core.on_wire(from, w);
                        self.deliver(outgoing);
                    }
                }
                GossipReply::Ack
            }
        }
    }

    /// Absorb the reply a send of [`Plane::round`] to `endpoint` got.
    /// Only a `Sync` reply counts: it is the peer's heartbeat.
    pub fn on_reply(&mut self, endpoint: &str, reply: &GossipReply, now_ms: u64) {
        let GossipReply::Sync { entries, .. } = reply else {
            return;
        };
        // A seed contact is not in the table yet: its reply names it.
        let name = self
            .engine
            .table
            .entries()
            .into_iter()
            .chain(entries.iter().cloned())
            .find(|e| e.endpoint == endpoint && e.name != self.name)
            .map(|e| e.name);
        if let Some(name) = name {
            self.engine.absorb_reply(&name, reply, now_ms);
            self.refresh_names();
        }
    }

    /// One gossip round at `now_ms`: accrue suspicion, drive the view
    /// lineage, and hand out this round's sends — a Sync to every gossip
    /// target (or the seed, until absorbed), then the queued group wires.
    pub fn round(&mut self, now_ms: u64) -> Vec<(String, GossipRequest)> {
        self.engine.tick(now_ms);
        self.refresh_names();
        self.maintain_views();
        let mut targets = self.engine.gossip_targets();
        if let Some(seed) = self.seed.clone() {
            if targets.iter().any(|(_, ep)| *ep == seed) || self.engine.table.known_count() > 1 {
                self.seed = None; // absorbed; normal gossip takes over
            } else {
                targets.push((String::new(), seed));
            }
        }
        let me = self.engine.table.me().endpoint.clone();
        targets.retain(|(_, ep)| !ep.is_empty() && *ep != me);
        self.engine.rounds += 1;
        let mut sends: Vec<_> = targets
            .into_iter()
            .map(|(name, ep)| (ep, self.engine.sync_request(&name)))
            .collect();
        sends.append(&mut self.outbox);
        sends
    }

    fn refresh_names(&mut self) {
        self.names_by_addr = self
            .engine
            .table
            .entries()
            .into_iter()
            .map(|e| (addr_of(&e.name), e.name))
            .collect();
    }

    /// Drive the view lineage: fold the installed view in, let the
    /// (unique) candidate propose the next view when the alive-set
    /// changed and quorum holds, and keep re-asserting the current view
    /// to its members so a dropped `InstallView` heals instead of
    /// wedging a joiner.
    fn maintain_views(&mut self) {
        if !self.connected {
            return;
        }
        if let Some(summary) = self.view() {
            self.engine.observe_view(&summary);
        }
        let install = match bridge::propose(&self.engine, &self.name) {
            Some(p) => {
                self.engine
                    .observe_view(&bridge::summarize(&p.view, &p.names));
                self.core.install_view(p.view.clone());
                Some((p.view, p.names))
            }
            // Steady state: the candidate re-asserts (idempotent at
            // receivers).
            None if bridge::is_candidate(&self.engine, &self.name) => self
                .core
                .view()
                .cloned()
                .zip(self.view().map(|s| s.members)),
            None => None,
        };
        if let Some((view, names)) = install {
            let wire = Wire::InstallView(view);
            for name in &names {
                self.send_wire(name, &wire);
            }
        }
    }

    /// Route protocol sends: self-targeted wires loop straight back into
    /// the core (worklist, not recursion — a Forward to myself yields the
    /// Ordered fan-out in the same pass); peer wires go to the outbox.
    fn deliver(&mut self, mut work: Vec<Outgoing>) {
        let me = self.core.me();
        while let Some(out) = work.pop() {
            if out.to == me {
                work.extend(self.core.on_wire(me, out.wire));
            } else if let Some(name) = self.names_by_addr.get(&out.to).cloned() {
                self.send_wire(&name, &out.wire);
            }
        }
    }

    /// Queue one group wire for the peer called `name` (never myself).
    fn send_wire(&mut self, name: &str, wire: &Wire) {
        if name == self.name {
            return;
        }
        let Some(ep) = self
            .engine
            .table
            .get(name)
            .map(|m| m.endpoint.clone())
            .filter(|ep| !ep.is_empty())
        else {
            return;
        };
        let bytes = serde_json::to_vec(wire).expect("wires serialize");
        self.outbox.push((
            ep,
            GossipRequest::Group {
                group: self.group.clone(),
                from: self.core.me().0,
                wire: bytes,
            },
        ));
    }
}

/// A shared handle on one [`Plane`], and the replica's transport: it
/// routes an [`HdnsNode`](hdns::HdnsNode)'s group traffic through the
/// plane, whichever driver carries the plane's sends.
#[derive(Clone)]
pub struct PlaneChannel(Arc<Mutex<Plane>>);

impl PlaneChannel {
    pub fn new(plane: Plane) -> PlaneChannel {
        PlaneChannel(Arc::new(Mutex::new(plane)))
    }

    /// Lock the plane. Drivers hold the guard for state changes only,
    /// never across I/O.
    pub fn plane(&self) -> MutexGuard<'_, Plane> {
        self.0.lock()
    }
}

impl ReplicaChannel for PlaneChannel {
    fn addr(&self) -> Addr {
        self.0.lock().core.me()
    }

    /// Join `group`. A node with no seed founds the view lineage here as
    /// a singleton.
    fn connect(&self, group: &str) -> Result<(), SendError> {
        let mut plane = self.0.lock();
        plane.group = group.to_string();
        plane.connected = true;
        if plane.seed.is_none() && plane.engine.best_view().is_none() {
            let (view, summary) = bridge::bootstrap(&plane.name);
            plane.engine.observe_view(&summary);
            plane.core.install_view(view);
        }
        Ok(())
    }

    fn disconnect(&self) {
        let mut plane = self.0.lock();
        plane.connected = false;
        plane.core.clear_view();
    }

    fn mcast(&self, bytes: Vec<u8>) -> Result<(), SendError> {
        let mut plane = self.0.lock();
        if !plane.connected {
            return Err(SendError::NotConnected);
        }
        let outgoing = plane.core.mcast(bytes)?;
        plane.deliver(outgoing);
        Ok(())
    }

    fn poll(&self) -> Vec<ChannelEvent> {
        self.0.lock().core.take_events()
    }

    fn provide_state(&self, to: Addr, bytes: Vec<u8>) -> Result<(), SendError> {
        let mut plane = self.0.lock();
        let out = plane.core.provide_state(to, bytes);
        plane.deliver(vec![out]);
        Ok(())
    }
}
