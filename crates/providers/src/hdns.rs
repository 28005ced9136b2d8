//! The HDNS service provider (paper §5.2).
//!
//! "The control over the source code of HDNS allowed us to avoid certain
//! problems encountered in the context of Jini. HDNS was designed in a way
//! that mapping through JNDI was simple … a distributed locking algorithm
//! was not needed to implement an atomic bind for HDNS. In fact, all
//! methods from the JNDI DirContext interface are atomic in the HDNS
//! service provider." The same state/object factory translation and lease
//! shape as the Jini provider apply, but every operation maps 1:1 onto a
//! replicated store op whose outcome is decided identically at every
//! replica.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hdns::{AttrEdit, HdnsEntry, HdnsError, HdnsEvent, HdnsRealm, Op, RealmError, Replica};

use rndi_core::attrs::{AttrMod, AttrValue, Attribute, Attributes};
use rndi_core::context::{
    Binding, DirContext, NameClassPair, SearchControls, SearchItem, SearchScope,
};
use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::event::EventHub;
use rndi_core::filter::Filter;
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome, OpPayload};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory, WireFormat};
use rndi_core::url::RndiUrl;
use rndi_core::value::BoundValue;
use rndi_obs::TraceCtx;

use crate::common;

fn realm_err(e: RealmError, name: &str) -> NamingError {
    use RealmError::*;
    match e {
        Store(HdnsError::AlreadyBound(p)) => NamingError::already_bound(p),
        Store(HdnsError::NotFound(p)) => NamingError::not_found(p),
        Store(HdnsError::NotAContext(p)) => NamingError::NotAContext { name: p },
        Store(HdnsError::NotEmpty(p)) => NamingError::ContextNotEmpty { name: p },
        Store(HdnsError::InvalidPath(p)) => NamingError::invalid_name(p, "invalid HDNS path"),
        Unavailable(why) => NamingError::service(format!("{why}: {name}")),
    }
}

/// The string values of an attribute. HDNS stores string attributes
/// only; binary values are dropped on the way in.
fn str_values(a: &Attribute) -> Vec<String> {
    a.values
        .iter()
        .filter_map(|v| v.as_str())
        .map(String::from)
        .collect()
}

/// Encode a marshalled payload + `Attributes` into an HDNS entry (binds
/// arrive wire-encoded from the pipeline's marshalling layer).
fn to_entry(payload: Vec<u8>, attrs: &Attributes) -> HdnsEntry {
    let mut e = HdnsEntry::leaf(payload);
    for a in attrs.iter() {
        e.attrs.insert(a.id.clone(), str_values(a));
    }
    e
}

fn to_attribute(id: &str, values: &[String]) -> Attribute {
    Attribute {
        id: id.to_string(),
        values: values.iter().cloned().map(AttrValue::Str).collect(),
    }
}

fn from_entry_attrs(e: &HdnsEntry) -> Attributes {
    e.attrs
        .iter()
        .map(|(id, vals)| to_attribute(id, vals))
        .collect()
}

/// Evaluate `filter` on the entry's stored attributes, in place.
fn entry_matches(filter: &Filter, entry: &HdnsEntry) -> bool {
    filter.matches_by(&|id: &str| {
        entry
            .attr(id)
            .map(|(_, vals)| vals.iter().map(String::as_str))
    })
}

/// The modifications as HDNS attribute edits, with the same effect on
/// the stored strings as [`AttrMod::apply`] on the decoded set.
fn to_edits(mods: &[AttrMod]) -> Vec<AttrEdit> {
    mods.iter()
        .filter_map(|m| match m {
            // Adding no values leaves the set as it is (not even an
            // empty attribute is created).
            AttrMod::Add(a) if a.values.is_empty() => None,
            AttrMod::Add(a) => Some(AttrEdit::Add(a.id.clone(), str_values(a))),
            AttrMod::Replace(a) => Some(AttrEdit::Replace(a.id.clone(), str_values(a))),
            AttrMod::Remove(id) => Some(AttrEdit::Remove(id.clone())),
            AttrMod::RemoveValues(a) => Some(AttrEdit::RemoveValues(a.id.clone(), str_values(a))),
        })
        .collect()
}

fn from_entry_value(e: &HdnsEntry) -> BoundValue {
    if e.is_context {
        // Represented to clients as a null placeholder; navigation happens
        // through composite names, not live handles.
        BoundValue::Null
    } else {
        common::unmarshal(&e.value)
    }
}

/// A naming backend over one HDNS replica (reads are replica-local; writes
/// replicate through the group). Implements [`ProviderBackend`]; the
/// `Context`/`DirContext` surface comes from the [`ProviderPipeline`]
/// returned by [`HdnsProviderContext::new`]. The replica is a realm's
/// ([`HdnsProviderContext::with_env`]) or a cluster node's
/// ([`HdnsProviderContext::for_replica`]).
pub struct HdnsProviderContext {
    /// The replica this context talks to (the paper's "nearest node").
    replica: Arc<dyn Replica>,
    hub: Arc<EventHub>,
    instance: String,
}

impl HdnsProviderContext {
    pub fn new(realm: HdnsRealm, node: usize, instance: &str) -> Arc<ProviderPipeline<Self>> {
        Self::with_env(realm, node, instance, &Environment::new())
    }

    /// Replica `node` of `realm`, with an environment controlling the
    /// pipeline stack.
    pub fn with_env(
        realm: HdnsRealm,
        node: usize,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        Self::for_replica(
            Arc::new(realm.replica(node)),
            &format!("{instance}#{node}"),
            env,
        )
    }

    /// The standard pipeline over any replica; `instance` names it in the
    /// provider id (`hdns:<instance>`).
    pub fn for_replica(
        replica: Arc<dyn Replica>,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        ProviderPipeline::standard(
            Arc::new(HdnsProviderContext {
                replica,
                hub: Arc::new(EventHub::new()),
                instance: instance.to_string(),
            }),
            env,
        )
    }

    /// Replicate `op`, then deliver the change events it produced.
    fn write(&self, op: Op, trace: Option<TraceCtx>, path: &str) -> Result<()> {
        let r = self
            .replica
            .write(op, trace)
            .map_err(|e| realm_err(e, path));
        self.drain_events();
        r
    }

    fn path(&self, name: &CompositeName) -> Result<String> {
        if name.is_empty() {
            return Err(NamingError::invalid_name("", "empty name"));
        }
        Ok(name.components().join("/"))
    }

    /// Walk the path for a federation mount: the longest bound prefix whose
    /// value is a URL reference diverts resolution elsewhere. Strict
    /// prefixes only — the final component names the mount itself.
    fn check_mount(&self, name: &CompositeName) -> Option<NamingError> {
        self.check_mount_upto(name, name.len())
    }

    /// Like [`Self::check_mount`], but also treats the *full* name as a
    /// potential mount (used by `list`/`search`, whose base may be a
    /// mounted foreign context — the remaining name is then empty).
    fn check_mount_inclusive(&self, name: &CompositeName) -> Option<NamingError> {
        self.check_mount_upto(name, name.len() + 1)
    }

    fn check_mount_upto(&self, name: &CompositeName, upper: usize) -> Option<NamingError> {
        for k in 1..upper.min(name.len() + 1) {
            let prefix = name.prefix(k).components().join("/");
            if let Some(e) = self.replica.lookup(&prefix) {
                if !e.is_context {
                    let v = common::unmarshal(&e.value);
                    if v.is_federation_link() {
                        return Some(NamingError::Continue {
                            resolved: v,
                            remaining: name.suffix(k),
                        });
                    }
                }
            }
        }
        None
    }

    /// Pump replica events into the provider hub. Driven by write
    /// operations (which already pump the replica) and by
    /// [`HdnsProviderContext::poll_events`].
    fn drain_events(&self) {
        for ev in self.replica.take_events() {
            match ev {
                HdnsEvent::Bound { path } => {
                    self.hub.fire_added(path_to_name(&path), BoundValue::Null)
                }
                HdnsEvent::Changed { path } => {
                    self.hub
                        .fire_changed(path_to_name(&path), None, BoundValue::Null)
                }
                HdnsEvent::Removed { path } => self.hub.fire_removed(path_to_name(&path), None),
                HdnsEvent::Renamed { from, to } => {
                    self.hub.fire_removed(path_to_name(&from), None);
                    self.hub.fire_added(path_to_name(&to), BoundValue::Null);
                }
                HdnsEvent::Resynced => {}
            }
        }
    }

    /// Deliver pending replica change events to listeners.
    pub fn poll_events(&self) {
        self.replica.pump();
        self.drain_events();
    }

    /// Append the hits under `base` to `out` in pre-order: a context's
    /// subtree follows the context, before its next sibling. Each level
    /// is one in-place visit of the replica's store that evaluates the
    /// filter on the stored attributes and builds output only for hits;
    /// subcontexts are descended once the visit has released the replica.
    fn search_level(
        &self,
        base: &str,
        rel: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
        out: &mut Vec<SearchItem>,
    ) {
        enum Step {
            Hit(SearchItem),
            Descend(String),
        }
        let limit = match controls.count_limit {
            0 => usize::MAX,
            n => n.saturating_sub(out.len()),
        };
        let subtree = controls.scope == SearchScope::Subtree;
        let mut steps = Vec::new();
        let mut hits = 0;
        self.replica.for_each_child(base, &mut |child, entry| {
            // Once this level alone fills the limit, nothing later in it
            // (or below it) can be returned.
            if hits >= limit {
                return;
            }
            if entry_matches(filter, entry) {
                hits += 1;
                let attrs = match &controls.return_attrs {
                    Some(ids) => ids
                        .iter()
                        .filter_map(|id| entry.attr(id))
                        .map(|(id, vals)| to_attribute(id, vals))
                        .collect(),
                    None => from_entry_attrs(entry),
                };
                steps.push(Step::Hit(SearchItem {
                    name: rel.child(child).to_string(),
                    value: controls.return_values.then(|| from_entry_value(entry)),
                    attrs,
                }));
            }
            if subtree && entry.is_context {
                steps.push(Step::Descend(child.to_string()));
            }
        });
        for step in steps {
            if controls.count_limit > 0 && out.len() >= controls.count_limit {
                return;
            }
            match step {
                Step::Hit(item) => out.push(item),
                Step::Descend(child) => {
                    let child_base = if base.is_empty() {
                        child.clone()
                    } else {
                        format!("{base}/{child}")
                    };
                    self.search_level(&child_base, &rel.child(child), filter, controls, out);
                }
            }
        }
    }
}

fn path_to_name(path: &str) -> CompositeName {
    CompositeName::from_components(path.split('/').map(String::from))
}

impl HdnsProviderContext {
    fn lookup(&self, name: &CompositeName) -> Result<BoundValue> {
        if let Some(cont) = self.check_mount(name) {
            return Err(cont);
        }
        let path = self.path(name)?;
        let entry = self
            .replica
            .lookup(&path)
            .ok_or_else(|| NamingError::not_found(&path))?;
        Ok(from_entry_value(&entry))
    }

    fn unbind(&self, name: &CompositeName) -> Result<()> {
        if let Some(cont) = self.check_mount(name) {
            return Err(cont);
        }
        let path = self.path(name)?;
        self.write(Op::Unbind { path: path.clone() }, None, &path)
    }

    fn rename(&self, old: &CompositeName, new: &CompositeName) -> Result<()> {
        let from = self.path(old)?;
        let to = self.path(new)?;
        let op = Op::Rename {
            from: from.clone(),
            to,
        };
        self.write(op, None, &from)
    }

    fn list(&self, name: &CompositeName) -> Result<Vec<NameClassPair>> {
        let prefix = if name.is_empty() {
            String::new()
        } else {
            if let Some(cont) = self.check_mount_inclusive(name) {
                return Err(cont);
            }
            self.path(name)?
        };
        let mut out = Vec::new();
        self.replica.for_each_child(&prefix, &mut |n, e| {
            out.push(NameClassPair {
                name: n.to_string(),
                class_name: if e.is_context {
                    "context".to_string()
                } else {
                    from_entry_value(e).class_name().to_string()
                },
            })
        });
        Ok(out)
    }

    fn list_bindings(&self, name: &CompositeName) -> Result<Vec<Binding>> {
        let prefix = if name.is_empty() {
            String::new()
        } else {
            if let Some(cont) = self.check_mount_inclusive(name) {
                return Err(cont);
            }
            self.path(name)?
        };
        let mut out = Vec::new();
        self.replica.for_each_child(&prefix, &mut |n, e| {
            out.push(Binding {
                name: n.to_string(),
                value: from_entry_value(e),
            })
        });
        Ok(out)
    }

    fn create_subcontext(&self, name: &CompositeName) -> Result<()> {
        let path = self.path(name)?;
        self.write(Op::CreateContext { path: path.clone() }, None, &path)
    }

    fn destroy_subcontext(&self, name: &CompositeName) -> Result<()> {
        let path = self.path(name)?;
        match self.replica.lookup(&path) {
            None => Ok(()),
            Some(e) if e.is_context => self.write(Op::Unbind { path: path.clone() }, None, &path),
            Some(_) => Err(NamingError::ContextExpected { name: path }),
        }
    }

    fn get_attributes(&self, name: &CompositeName) -> Result<Attributes> {
        if let Some(cont) = self.check_mount(name) {
            return Err(cont);
        }
        let path = self.path(name)?;
        let entry = self
            .replica
            .lookup(&path)
            .ok_or_else(|| NamingError::not_found(&path))?;
        Ok(from_entry_attrs(&entry))
    }

    /// Atomic (§5.2): the edits replicate as one op, applied by every
    /// replica to the entry as it stands, so concurrent modifications of
    /// one entry compose.
    fn modify_attributes(&self, name: &CompositeName, mods: &[AttrMod]) -> Result<()> {
        let path = self.path(name)?;
        let op = Op::ModifyAttrs {
            path: path.clone(),
            edits: to_edits(mods),
        };
        self.write(op, None, &path)
    }

    /// Bind (or, with `overwrite`, rebind) `op`'s marshalled payload and
    /// attributes. A traced op hands its context to the replica; a realm
    /// links its server span under the client's.
    fn write_entry(&self, op: &NamingOp, overwrite: bool) -> Result<()> {
        let (payload, _) = op.wire_value()?;
        if let Some(cont) = self.check_mount(&op.name) {
            return Err(cont);
        }
        let path = self.path(&op.name)?;
        let entry = to_entry(payload, op.attrs.as_ref().unwrap_or(&Attributes::new()));
        let bind = Op::Bind {
            path: path.clone(),
            entry,
            overwrite,
        };
        self.write(bind, op.trace_ctx(), &path)
    }

    fn search(
        &self,
        name: &CompositeName,
        filter: &Filter,
        controls: &SearchControls,
    ) -> Result<Vec<SearchItem>> {
        // HDNS has no server-side query engine; the provider evaluates the
        // filter client-side over a replica-local listing (§3's
        // capability-emulation point).
        let base = if name.is_empty() {
            String::new()
        } else {
            if let Some(cont) = self.check_mount_inclusive(name) {
                return Err(cont);
            }
            self.path(name)?
        };
        let mut out = Vec::new();
        self.search_level(&base, &CompositeName::empty(), filter, controls, &mut out);
        Ok(out)
    }
}

impl ProviderBackend for HdnsProviderContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        match op.kind {
            OpKind::Lookup => self.lookup(&op.name).map(OpOutcome::Value),
            OpKind::Bind | OpKind::BindWithAttrs => {
                self.write_entry(op, false).map(|_| OpOutcome::Done)
            }
            OpKind::Rebind | OpKind::RebindWithAttrs => {
                self.write_entry(op, true).map(|_| OpOutcome::Done)
            }
            OpKind::Unbind => self.unbind(&op.name).map(|_| OpOutcome::Done),
            OpKind::Rename => self
                .rename(&op.name, op.new_name()?)
                .map(|_| OpOutcome::Done),
            OpKind::List => self.list(&op.name).map(OpOutcome::Names),
            OpKind::ListBindings => self.list_bindings(&op.name).map(OpOutcome::Bindings),
            OpKind::CreateSubcontext => self.create_subcontext(&op.name).map(|_| OpOutcome::Done),
            OpKind::DestroySubcontext => self.destroy_subcontext(&op.name).map(|_| OpOutcome::Done),
            OpKind::GetAttributes => self.get_attributes(&op.name).map(OpOutcome::Attrs),
            OpKind::ModifyAttributes => match &op.payload {
                OpPayload::Mods(mods) => self
                    .modify_attributes(&op.name, mods)
                    .map(|_| OpOutcome::Done),
                _ => Err(NamingError::service("modify_attributes payload missing")),
            },
            OpKind::Search => match &op.payload {
                OpPayload::Query { filter, controls } => self
                    .search(&op.name, filter, controls)
                    .map(OpOutcome::Found),
                _ => Err(NamingError::service("search payload missing")),
            },
            OpKind::AddListener => match &op.payload {
                OpPayload::Listener(l) => Ok(OpOutcome::Subscribed(
                    self.hub.subscribe(op.name.clone(), l.clone()),
                )),
                _ => Err(NamingError::service("listener payload missing")),
            },
            OpKind::RemoveListener => match &op.payload {
                OpPayload::Handle(h) => {
                    self.hub.unsubscribe(*h);
                    Ok(OpOutcome::Done)
                }
                _ => Err(NamingError::service("listener handle missing")),
            },
        }
    }

    fn provider_id(&self) -> String {
        format!("hdns:{}", self.instance)
    }

    fn event_hub(&self) -> Option<Arc<EventHub>> {
        Some(self.hub.clone())
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Encoded
    }
}

/// URL factory: `hdns://host[:port]/...`. Hosts map to `(realm, replica)`
/// pairs registered by the deployment.
pub struct HdnsFactory {
    hosts: Mutex<HashMap<String, (HdnsRealm, usize)>>,
    /// One pipeline per host, so interceptor state (cache, stats) survives
    /// across `create` calls for the same replica.
    contexts: Mutex<HashMap<String, Arc<ProviderPipeline<HdnsProviderContext>>>>,
}

impl HdnsFactory {
    pub fn new() -> Arc<Self> {
        Arc::new(HdnsFactory {
            hosts: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
        })
    }

    /// Register `host` as reaching replica `node` of `realm`.
    pub fn register_host(&self, host: &str, realm: HdnsRealm, node: usize) {
        self.hosts.lock().insert(host.to_string(), (realm, node));
        self.contexts.lock().remove(host);
    }
}

impl UrlContextFactory for HdnsFactory {
    fn scheme(&self) -> &str {
        "hdns"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        if let Some(ctx) = self.contexts.lock().get(&url.host) {
            return Ok(ctx.clone());
        }
        let (realm, node) =
            self.hosts.lock().get(&url.host).cloned().ok_or_else(|| {
                NamingError::service(format!("no HDNS node known as {}", url.host))
            })?;
        let ctx = HdnsProviderContext::with_env(realm, node, &url.host, env);
        self.contexts.lock().insert(url.host.clone(), ctx.clone());
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupcast::StackConfig;
    use proptest::prelude::*;
    use rndi_core::context::{Context, ContextExt};
    use rndi_core::event::EventType;
    use rndi_core::value::Reference;

    type Pipeline = Arc<ProviderPipeline<HdnsProviderContext>>;

    fn setup() -> (Pipeline, Pipeline) {
        let realm = HdnsRealm::new("t", 2, StackConfig::default(), None, 3);
        let a = HdnsProviderContext::new(realm.clone(), 0, "t");
        let b = HdnsProviderContext::new(realm, 1, "t");
        (a, b)
    }

    #[test]
    fn bind_visible_from_other_replica() {
        let (a, b) = setup();
        a.bind_str("svc", "value").unwrap();
        assert_eq!(b.lookup_str("svc").unwrap().as_str(), Some("value"));
    }

    #[test]
    fn atomic_bind_native() {
        let (a, b) = setup();
        a.bind_str("k", "1").unwrap();
        assert!(matches!(
            b.bind_str("k", "2"),
            Err(NamingError::AlreadyBound { .. })
        ));
        b.rebind_str("k", "2").unwrap();
        assert_eq!(a.lookup_str("k").unwrap().as_str(), Some("2"));
    }

    #[test]
    fn hierarchy_and_listing() {
        let (a, b) = setup();
        a.create_subcontext(&"dept".into()).unwrap();
        a.bind_str("dept/x", "1").unwrap();
        b.bind_str("dept/y", "2").unwrap();
        let names: Vec<String> = b
            .list(&"dept".into())
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["x", "y"]);
        // Destroy guards.
        assert!(matches!(
            a.destroy_subcontext(&"dept".into()),
            Err(NamingError::ContextNotEmpty { .. })
        ));
        a.unbind_str("dept/x").unwrap();
        a.unbind_str("dept/y").unwrap();
        a.destroy_subcontext(&"dept".into()).unwrap();
    }

    #[test]
    fn attributes_and_search() {
        let (a, b) = setup();
        a.bind_with_attrs(
            &"n1".into(),
            BoundValue::str("s"),
            common::attrs(&[("os", "linux"), ("cpu", "16")]),
        )
        .unwrap();
        a.bind_with_attrs(
            &"n2".into(),
            BoundValue::str("s"),
            common::attrs(&[("os", "irix")]),
        )
        .unwrap();
        let attrs = b.get_attributes(&"n1".into()).unwrap();
        assert_eq!(attrs.get("cpu").unwrap().first_str(), Some("16"));

        let hits = b
            .search(
                &CompositeName::empty(),
                &Filter::parse("(os=linux)").unwrap(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "n1");
    }

    #[test]
    fn subtree_search() {
        let (a, _) = setup();
        a.create_subcontext(&"d".into()).unwrap();
        a.bind_with_attrs(
            &"d/deep".into(),
            BoundValue::Null,
            common::attrs(&[("kind", "x")]),
        )
        .unwrap();
        let hits = a
            .search(
                &CompositeName::empty(),
                &Filter::parse("(kind=x)").unwrap(),
                &SearchControls {
                    scope: SearchScope::Subtree,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "d/deep");
    }

    #[test]
    fn federation_mount_continues() {
        let (a, _) = setup();
        a.bind(
            &"jiniCtx".into(),
            BoundValue::Reference(Reference::url("jini://host1")),
        )
        .unwrap();
        let err = a.lookup(&"jiniCtx/service".into()).unwrap_err();
        assert!(err.is_continue());
    }

    #[test]
    fn rename_moves_binding() {
        let (a, b) = setup();
        a.bind_str("old", "v").unwrap();
        a.rename(&"old".into(), &"new".into()).unwrap();
        assert!(b.lookup_str("old").is_err());
        assert_eq!(b.lookup_str("new").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn events_delivered_to_listeners() {
        let (a, b) = setup();
        let l = rndi_core::event::CollectingListener::new();
        b.add_listener(&CompositeName::empty(), l.clone()).unwrap();
        a.bind_str("e", "1").unwrap();
        b.poll_events();
        assert!(l.count() >= 1, "replica 1 saw the replicated bind");
    }

    #[test]
    fn destroy_subcontext_delivers_its_removal() {
        let (a, _) = setup();
        a.create_subcontext(&"dept".into()).unwrap();
        let l = rndi_core::event::CollectingListener::new();
        a.add_listener(&CompositeName::empty(), l.clone()).unwrap();
        a.destroy_subcontext(&"dept".into()).unwrap();
        let events = l.drain();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].event_type, EventType::ObjectRemoved);
        assert_eq!(events[0].name, CompositeName::parse("dept").unwrap());
    }

    #[test]
    fn traced_bind_links_server_span_and_stores_bare_payload() {
        let realm = HdnsRealm::new("obs-hdns", 2, StackConfig::default(), None, 3);
        let a = HdnsProviderContext::new(realm.clone(), 0, "obs-hdns");
        let b = HdnsProviderContext::new(realm.clone(), 1, "obs-hdns");
        a.bind_str("traced", "payload").unwrap();
        // The trace travels beside the payload, not in it: the stored
        // bytes are exactly an untraced write's and replicate normally.
        assert_eq!(b.lookup_str("traced").unwrap().as_str(), Some("payload"));
        let raw = realm.lookup(0, "traced").unwrap();
        assert_eq!(
            raw.value,
            common::marshal(&BoundValue::str("payload")).unwrap()
        );
        // And the realm recorded a server span linked into the client's
        // trace: its parent is the client-side span that issued the write.
        let spans = rndi_obs::trace::ring().snapshot();
        let server = spans
            .iter()
            .rev()
            .find(|s| s.layer == "server" && &*s.provider == "hdns:obs-hdns" && s.op == "bind")
            .expect("server span recorded");
        assert_ne!(server.parent_span, 0);
        let trace = rndi_obs::trace::ring().trace(server.trace_id);
        assert!(
            trace
                .iter()
                .any(|s| s.span_id == server.parent_span && s.layer != "server"),
            "server span links to a client-side span in the same trace"
        );
    }

    #[test]
    fn modify_attributes_roundtrip() {
        let (a, b) = setup();
        a.bind_with_attrs(
            &"m".into(),
            BoundValue::Null,
            common::attrs(&[("state", "up")]),
        )
        .unwrap();
        a.modify_attributes(
            &"m".into(),
            &[AttrMod::Add(Attribute::single("note", "ok"))],
        )
        .unwrap();
        let attrs = b.get_attributes(&"m".into()).unwrap();
        assert!(attrs.contains("state") && attrs.contains("note"));
    }

    /// A namespace whose key order differs from the search's pre-order:
    /// `a-b` sorts between `a` and `a/c` as a path, but `a`'s subtree
    /// comes first in a search.
    fn nested_namespace() -> Pipeline {
        let (a, _) = setup();
        let kind = |k: &str| common::attrs(&[("kind", k)]);
        a.create_subcontext(&"a".into()).unwrap();
        a.modify_attributes(
            &"a".into(),
            &[AttrMod::Replace(Attribute::single("Kind", "x"))],
        )
        .unwrap();
        a.bind_with_attrs(&"a-b".into(), BoundValue::str("ab"), kind("x"))
            .unwrap();
        a.bind_with_attrs(
            &"a/c".into(),
            BoundValue::str("c"),
            common::attrs(&[("kind", "X"), ("note", "n1"), ("cpu", "8")]),
        )
        .unwrap();
        a.create_subcontext(&"a/d".into()).unwrap();
        a.modify_attributes(
            &"a/d".into(),
            &[AttrMod::Add(Attribute::single("kind", "y"))],
        )
        .unwrap();
        a.bind_with_attrs(&"a/d/e".into(), BoundValue::str("e"), kind("x"))
            .unwrap();
        a.bind_with_attrs(&"b".into(), BoundValue::I64(7), kind("x"))
            .unwrap();
        a
    }

    fn names(hits: &[SearchItem]) -> Vec<&str> {
        hits.iter().map(|h| h.name.as_str()).collect()
    }

    #[test]
    fn subtree_search_is_pre_order_and_honours_count_limit() {
        let ctx = nested_namespace();
        let search = |base: &str, scope, count_limit| {
            ctx.search(
                &CompositeName::parse(base).unwrap(),
                &Filter::parse("(kind=x)").unwrap(),
                &SearchControls {
                    scope,
                    count_limit,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let all = search("", SearchScope::Subtree, 0);
        assert_eq!(names(&all), ["a", "a/c", "a/d/e", "a-b", "b"]);
        for limit in 1..=5 {
            let cut = search("", SearchScope::Subtree, limit);
            assert_eq!(names(&cut), names(&all)[..limit], "count_limit {limit}");
        }
        assert_eq!(
            names(&search("", SearchScope::OneLevel, 0)),
            ["a", "a-b", "b"]
        );
        assert_eq!(names(&search("a", SearchScope::OneLevel, 0)), ["c"]);
        assert_eq!(names(&search("a", SearchScope::Subtree, 0)), ["c", "d/e"]);
        assert_eq!(names(&search("a", SearchScope::Subtree, 1)), ["c"]);
        // Without return_values, no values; every stored attribute comes back.
        assert!(all.iter().all(|h| h.value.is_none()));
        assert_eq!(
            all[1].attrs,
            common::attrs(&[("kind", "X"), ("note", "n1"), ("cpu", "8")])
        );
        assert_eq!(all[0].attrs.get("KIND").unwrap().id, "Kind");
    }

    #[test]
    fn search_projects_return_attrs_and_returns_values() {
        let ctx = nested_namespace();
        let hits = ctx
            .search(
                &CompositeName::empty(),
                &Filter::parse("(|(note=*)(cpu>=8)(kind=y))").unwrap(),
                &SearchControls {
                    scope: SearchScope::Subtree,
                    return_attrs: Some(vec!["NOTE".into(), "Kind".into(), "missing".into()]),
                    return_values: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(names(&hits), ["a/c", "a/d"]);
        assert_eq!(hits[0].value, Some(BoundValue::str("c")));
        assert_eq!(
            hits[1].value,
            Some(BoundValue::Null),
            "contexts carry no value"
        );
        assert_eq!(
            hits[0].attrs,
            common::attrs(&[("note", "n1"), ("kind", "X")]),
            "projected to the requested ids that exist"
        );
        assert_eq!(
            hits[0].attrs.get("note").unwrap().id,
            "note",
            "stored case kept"
        );
        assert_eq!(hits[1].attrs, common::attrs(&[("kind", "y")]));
        let none = ctx
            .search(
                &CompositeName::empty(),
                &Filter::parse("(kind=x)").unwrap(),
                &SearchControls {
                    return_attrs: Some(vec![]),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(names(&none), ["a", "a-b", "b"]);
        assert!(none.iter().all(|h| h.attrs.is_empty()));
    }

    #[test]
    fn search_through_a_mount_continues() {
        let ctx = nested_namespace();
        ctx.bind(
            &"m".into(),
            BoundValue::Reference(Reference::url("ldap://dir/o=grid")),
        )
        .unwrap();
        for base in ["m", "m/x/y"] {
            let err = ctx
                .search(
                    &CompositeName::parse(base).unwrap(),
                    &Filter::always(),
                    &SearchControls::default(),
                )
                .unwrap_err();
            match err {
                NamingError::Continue { remaining, .. } => {
                    assert_eq!(remaining, CompositeName::parse(base).unwrap().suffix(1))
                }
                other => panic!("{base}: expected Continue, got {other:?}"),
            }
        }
        // A mount inside the searched tree is a plain leaf hit.
        let hits = ctx
            .search(
                &CompositeName::empty(),
                &Filter::always(),
                &SearchControls::default(),
            )
            .unwrap();
        assert_eq!(names(&hits), ["a", "a-b", "b", "m"]);
    }

    #[test]
    fn concurrent_modifies_of_one_attribute_lose_nothing() {
        let (a, b) = setup();
        a.bind_with_attrs(
            &"shared".into(),
            BoundValue::Null,
            common::attrs(&[("tag", "seed")]),
        )
        .unwrap();
        const EACH: usize = 100;
        let start = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = [(a.clone(), "a"), (b.clone(), "b")]
            .into_iter()
            .map(|(ctx, who)| {
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..EACH {
                        ctx.modify_attributes(
                            &"shared".into(),
                            &[AttrMod::Add(Attribute::single("TAG", format!("{who}{i}")))],
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for ctx in [&a, &b] {
            let tag = ctx.get_attributes(&"shared".into()).unwrap();
            let tag = tag.get("tag").unwrap();
            assert_eq!(tag.id, "tag", "added values join the stored attribute");
            assert_eq!(tag.values.len(), 2 * EACH + 1, "every added value survives");
            for who in ["a", "b"] {
                for i in 0..EACH {
                    assert!(tag.contains_str(&format!("{who}{i}")), "{who}{i} lost");
                }
            }
        }
    }

    #[test]
    fn modifications_match_the_decoded_attribute_semantics() {
        let (a, _) = setup();
        let start = Attributes::new()
            .with("Color", "red")
            .with("size", "xl")
            .with("gone", "1");
        a.bind_with_attrs(&"m".into(), BoundValue::Null, start.clone())
            .unwrap();
        let mods = [
            AttrMod::Add(Attribute::single("COLOR", "blue")),
            AttrMod::Add(Attribute::new("nothing")),
            AttrMod::Add(Attribute::new("bin").with(AttrValue::Bytes(vec![1]))),
            AttrMod::Replace(Attribute::single("SIZE", "s")),
            AttrMod::RemoveValues(Attribute::single("color", "red")),
            AttrMod::RemoveValues(Attribute::single("gone", "1")),
            AttrMod::Remove("nope".into()),
        ];
        a.modify_attributes(&"m".into(), &mods).unwrap();
        // What the attribute set itself does, less the binary values HDNS
        // does not store.
        let mut want = start;
        for m in &mods {
            m.apply(&mut want);
        }
        let want: Attributes = want
            .iter()
            .map(|attr| Attribute {
                id: attr.id.clone(),
                values: attr
                    .values
                    .iter()
                    .filter(|v| v.as_str().is_some())
                    .cloned()
                    .collect(),
            })
            .collect();
        let got = a.get_attributes(&"m".into()).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.get("size").unwrap().id, "SIZE");
        assert!(got.contains("bin") && !got.contains("nothing") && !got.contains("gone"));
        assert!(matches!(
            a.modify_attributes(&"ghost".into(), &mods),
            Err(NamingError::NameNotFound { .. })
        ));
    }

    fn arb_id() -> impl Strategy<Value = String> {
        // A few ids in several cases, so filters and stored maps differ
        // in case and a map can hold two case variants of one id.
        (0usize..6).prop_map(|i| ["os", "OS", "Os", "cpu", "CPU", "tag"][i].to_string())
    }

    fn arb_value() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[ab1-3 ]{0,3}").expect("valid regex")
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        let substring = (
            proptest::option::of(arb_value()),
            proptest::collection::vec(arb_value(), 0..2),
            proptest::option::of(arb_value()),
        )
            .prop_map(
                |(initial, any, final_)| rndi_core::filter::SubstringPattern {
                    initial,
                    any,
                    final_,
                },
            );
        let leaf = prop_oneof![
            arb_id().prop_map(Filter::Present),
            (arb_id(), arb_value()).prop_map(|(a, v)| Filter::Eq(a, v)),
            (arb_id(), arb_value()).prop_map(|(a, v)| Filter::Approx(a, v)),
            (arb_id(), arb_value()).prop_map(|(a, v)| Filter::Ge(a, v)),
            (arb_id(), arb_value()).prop_map(|(a, v)| Filter::Le(a, v)),
            (arb_id(), substring).prop_map(|(a, p)| Filter::Substring(a, p)),
        ];
        leaf.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::And),
                proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
                inner.prop_map(|f| Filter::Not(Box::new(f))),
            ]
        })
    }

    proptest! {
        /// The in-place evaluation a search runs on a stored entry agrees
        /// with evaluating the decoded attribute set, empty-valued
        /// attributes and case-variant ids included.
        #[test]
        fn in_place_filter_matches_decoded_attributes(
            filter in arb_filter(),
            stored in proptest::collection::vec(
                (arb_id(), proptest::collection::vec(arb_value(), 0..3)),
                0..4
            )
        ) {
            let mut entry = HdnsEntry::leaf(Vec::new());
            entry.attrs.extend(stored);
            prop_assert_eq!(
                entry_matches(&filter, &entry),
                filter.matches(&from_entry_attrs(&entry))
            );
        }
    }
}
