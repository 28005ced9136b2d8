//! The DNS service provider.
//!
//! DNS is the read-only, world-scale root of the paper's federation (§6):
//! "we propose to anchor the federated naming system in DNS, so that a
//! common, well-known service name is resolved to a nearest HDNS node."
//!
//! Mapping: the URL host selects an *anchor domain* (e.g. `global` →
//! `global.emory.edu`); composite-name components become DNS labels under
//! it (reversed — most significant last in DNS). Values live in TXT
//! records; a TXT value that parses as a naming URL is a federation link.
//! Resolution finds the **longest bound prefix**: if it covers the whole
//! name the value is returned, otherwise resolution continues in the
//! naming system the link points at. Updates are administrative (zone
//! edits), so all write operations report `NotSupported` — exactly DNS's
//! "updates are rare and client-driven update is absent" profile.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use minidns::{DnsName, RData, RecordType, ResolveError, Resolver};

use rndi_core::attrs::Attributes;
use rndi_core::context::DirContext;
use rndi_core::env::Environment;
use rndi_core::error::{NamingError, Result};
use rndi_core::name::CompositeName;
use rndi_core::op::{NamingOp, OpKind, OpOutcome};
use rndi_core::spi::{ProviderBackend, ProviderPipeline, UrlContextFactory};
use rndi_core::url::{looks_like_url, RndiUrl};
use rndi_core::value::{BoundValue, Reference};
use rndi_obs::clock::Clock;

/// A read-only naming backend over a DNS resolver, rooted at an anchor
/// domain. Implements [`ProviderBackend`]; the full `Context`/`DirContext`
/// surface comes from the [`ProviderPipeline`] wrapper returned by
/// [`DnsProviderContext::new`].
pub struct DnsProviderContext {
    resolver: Arc<Resolver>,
    anchor: DnsName,
    clock: Arc<dyn Clock>,
    instance: String,
}

impl DnsProviderContext {
    pub fn new(
        resolver: Arc<Resolver>,
        anchor: DnsName,
        clock: Arc<dyn Clock>,
        instance: &str,
    ) -> Arc<ProviderPipeline<Self>> {
        Self::with_env(resolver, anchor, clock, instance, &Environment::new())
    }

    /// Construct with an environment controlling the pipeline stack
    /// (cache TTL, retry policy).
    pub fn with_env(
        resolver: Arc<Resolver>,
        anchor: DnsName,
        clock: Arc<dyn Clock>,
        instance: &str,
        env: &Environment,
    ) -> Arc<ProviderPipeline<Self>> {
        ProviderPipeline::standard(
            Arc::new(DnsProviderContext {
                resolver,
                anchor,
                clock,
                instance: instance.to_string(),
            }),
            env,
        )
    }

    /// DNS name for the first `k` components of a composite name:
    /// components map to labels, most significant first in the composite
    /// ⇒ appended leaf-outward under the anchor.
    fn dns_name(&self, name: &CompositeName, k: usize) -> Result<DnsName> {
        let mut out = self.anchor.clone();
        for c in name.components().iter().take(k) {
            out = out.child(c);
            if DnsName::parse(&out.to_string()).is_err() {
                return Err(NamingError::invalid_name(
                    name.to_string(),
                    "component is not a valid DNS label",
                ));
            }
        }
        Ok(out)
    }

    fn txt_at(
        &self,
        dns_name: &DnsName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<Option<String>> {
        match self
            .resolver
            .resolve_traced(dns_name, RecordType::Txt, self.clock.now_ms(), trace)
        {
            Ok(rrs) => Ok(rrs.iter().find_map(|rr| match &rr.rdata {
                RData::Txt(t) => Some(t.clone()),
                _ => None,
            })),
            Err(ResolveError::NxDomain(_)) => Ok(None),
            Err(e) => Err(NamingError::service(e.to_string())),
        }
    }

    fn decode(text: &str) -> BoundValue {
        if looks_like_url(text) {
            BoundValue::Reference(Reference::url(text))
        } else {
            BoundValue::Str(text.to_string())
        }
    }

    /// Writes cannot land in DNS itself — but a name whose strict prefix
    /// resolves to a federation link continues into the linked system,
    /// which may well be writable (binding through
    /// `dns://global/…/hdns-entry` is exactly the paper's scenario).
    fn continue_write(
        &self,
        name: &CompositeName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<NamingError> {
        for k in (0..name.len()).rev() {
            let dns_name = self.dns_name(name, k)?;
            let Some(text) = self.txt_at(&dns_name, trace)? else {
                continue;
            };
            let value = Self::decode(&text);
            if value.is_federation_link() {
                return Ok(NamingError::Continue {
                    resolved: value,
                    remaining: name.suffix(k),
                });
            }
            break;
        }
        Ok(NamingError::unsupported(
            "DNS updates are administrative (edit the zone)",
        ))
    }

    fn lookup(
        &self,
        name: &CompositeName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<BoundValue> {
        if name.is_empty() {
            // The anchor itself: return its TXT value if any.
            let text = self
                .txt_at(&self.anchor, trace)?
                .ok_or_else(|| NamingError::not_found(self.anchor.to_string()))?;
            return Ok(Self::decode(&text));
        }
        // Longest bound prefix wins.
        for k in (0..=name.len()).rev() {
            let dns_name = self.dns_name(name, k)?;
            let Some(text) = self.txt_at(&dns_name, trace)? else {
                continue;
            };
            let value = Self::decode(&text);
            if k == name.len() {
                return Ok(value);
            }
            if value.is_federation_link() {
                return Err(NamingError::Continue {
                    resolved: value,
                    remaining: name.suffix(k),
                });
            }
            return Err(NamingError::NotAContext {
                name: dns_name.to_string(),
            });
        }
        Err(NamingError::not_found(name.to_string()))
    }

    fn get_attributes(
        &self,
        name: &CompositeName,
        trace: Option<&rndi_obs::TraceCtx>,
    ) -> Result<Attributes> {
        // Expose the record's TTL as the sole attribute.
        let dns_name = self.dns_name(name, name.len())?;
        match self
            .resolver
            .resolve_traced(&dns_name, RecordType::Txt, self.clock.now_ms(), trace)
        {
            Ok(rrs) if !rrs.is_empty() => Ok(Attributes::new().with("ttl", rrs[0].ttl.to_string())),
            Ok(_) => Ok(Attributes::new()),
            Err(ResolveError::NxDomain(n)) => Err(NamingError::not_found(n)),
            Err(e) => Err(NamingError::service(e.to_string())),
        }
    }
}

impl ProviderBackend for DnsProviderContext {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let trace = op.trace_ctx();
        let trace = trace.as_ref();
        match op.kind {
            OpKind::Lookup => self.lookup(&op.name, trace).map(OpOutcome::Value),
            // Writes cannot land in DNS; they either continue through a
            // federation link or report NotSupported.
            OpKind::Bind
            | OpKind::Rebind
            | OpKind::Unbind
            | OpKind::BindWithAttrs
            | OpKind::RebindWithAttrs => Err(self.continue_write(&op.name, trace)?),
            // DNS offers no enumeration (zone transfers are not a client
            // API).
            OpKind::List | OpKind::ListBindings => Err(NamingError::unsupported("DNS enumeration")),
            OpKind::GetAttributes => self.get_attributes(&op.name, trace).map(OpOutcome::Attrs),
            _ => Err(NamingError::unsupported(op.kind.label())),
        }
    }

    fn provider_id(&self) -> String {
        format!("dns:{}@{}", self.instance, self.anchor)
    }

    fn compound_syntax(&self) -> rndi_core::name::CompoundSyntax {
        rndi_core::name::CompoundSyntax::dns()
    }
}

/// URL factory: `dns://anchor/...`. Anchor hosts map to `(resolver,
/// anchor domain)` pairs registered by the deployment. Created pipelines
/// are cached per host, so repeated resolutions share one cache/stats
/// stack instead of rebuilding it per URL hop.
pub struct DnsFactory {
    anchors: Mutex<HashMap<String, (Arc<Resolver>, DnsName)>>,
    contexts: Mutex<HashMap<String, Arc<ProviderPipeline<DnsProviderContext>>>>,
    clock: Arc<dyn Clock>,
}

impl DnsFactory {
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(DnsFactory {
            anchors: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
            clock,
        })
    }

    pub fn register_anchor(&self, host: &str, resolver: Arc<Resolver>, anchor: DnsName) {
        self.anchors
            .lock()
            .insert(host.to_string(), (resolver, anchor));
        self.contexts.lock().remove(host);
    }
}

impl UrlContextFactory for DnsFactory {
    fn scheme(&self) -> &str {
        "dns"
    }

    fn create(&self, url: &RndiUrl, env: &Environment) -> Result<Arc<dyn DirContext>> {
        if let Some(pipeline) = self.contexts.lock().get(&url.host) {
            return Ok(pipeline.clone());
        }
        let (resolver, anchor) = self.anchors.lock().get(&url.host).cloned().ok_or_else(|| {
            NamingError::service(format!("no DNS anchor registered for {}", url.host))
        })?;
        let pipeline =
            DnsProviderContext::with_env(resolver, anchor, self.clock.clone(), &url.host, env);
        self.contexts
            .lock()
            .insert(url.host.clone(), pipeline.clone());
        Ok(pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidns::{AuthServer, ResourceRecord, Zone};
    use rndi_core::context::{Context, ContextExt};
    use rndi_obs::clock::ManualClock;

    fn world() -> Arc<ProviderPipeline<DnsProviderContext>> {
        let server = AuthServer::new();
        let mut zone = Zone::new(DnsName::parse("global.emory.edu").unwrap());
        zone.insert(ResourceRecord::txt(
            "global.emory.edu",
            60,
            "hdns://host2:8085",
        ));
        zone.insert(ResourceRecord::txt(
            "plain.global.emory.edu",
            60,
            "just-text",
        ));
        zone.insert(ResourceRecord::txt(
            "dcl.mathcs.global.emory.edu",
            60,
            "ldap://ldap-host/ou=dcl",
        ));
        // An intermediate that exists (so the walk can find it) — its
        // parent mathcs has no record, testing longest-prefix skipping.
        server.add_zone(zone);
        let resolver = Arc::new(Resolver::new(vec![server]));
        DnsProviderContext::new(
            resolver,
            DnsName::parse("global.emory.edu").unwrap(),
            ManualClock::new(),
            "global",
        )
    }

    #[test]
    fn leaf_txt_lookup() {
        let ctx = world();
        assert_eq!(ctx.lookup_str("plain").unwrap().as_str(), Some("just-text"));
    }

    #[test]
    fn url_txt_becomes_reference() {
        let ctx = world();
        let v = ctx.lookup(&CompositeName::empty()).unwrap();
        assert_eq!(
            v.as_reference().unwrap().url_addr(),
            Some("hdns://host2:8085")
        );
    }

    #[test]
    fn anchor_root_federation_continue() {
        // The paper's dns://global/emory/... case: no record for the path,
        // but the anchor itself points at the federation's HDNS layer.
        let ctx = world();
        let err = ctx.lookup(&"emory/mathcs/dcl/mokey".into()).unwrap_err();
        match err {
            NamingError::Continue {
                resolved,
                remaining,
            } => {
                assert_eq!(
                    resolved.as_reference().unwrap().url_addr(),
                    Some("hdns://host2:8085")
                );
                assert_eq!(remaining.to_string(), "emory/mathcs/dcl/mokey");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn longest_prefix_wins() {
        // mathcs/dcl has a record (an LDAP link) even though mathcs alone
        // does not; the walk must find the deeper prefix.
        let ctx = world();
        let err = ctx.lookup(&"mathcs/dcl/mokey".into()).unwrap_err();
        match err {
            NamingError::Continue {
                resolved,
                remaining,
            } => {
                assert_eq!(
                    resolved.as_reference().unwrap().url_addr(),
                    Some("ldap://ldap-host/ou=dcl")
                );
                assert_eq!(remaining.to_string(), "mokey");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_prefix_is_not_a_context() {
        let ctx = world();
        assert!(matches!(
            ctx.lookup(&"plain/deeper".into()),
            Err(NamingError::NotAContext { .. })
        ));
    }

    #[test]
    fn writes_unsupported_without_a_link() {
        // An anchor with no federation TXT: writes have nowhere to go.
        let server = AuthServer::new();
        let mut zone = Zone::new(DnsName::parse("static.example").unwrap());
        zone.insert(ResourceRecord::txt("data.static.example", 60, "text"));
        server.add_zone(zone);
        let ctx = DnsProviderContext::new(
            Arc::new(minidns::Resolver::new(vec![server])),
            DnsName::parse("static.example").unwrap(),
            ManualClock::new(),
            "static",
        );
        assert!(matches!(
            ctx.bind_str("x", "v"),
            Err(NamingError::NotSupported { .. })
        ));
        // An existing plain record is still not client-writable.
        assert!(matches!(
            ctx.rebind_str("data", "v"),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            ctx.unbind_str("x"),
            Err(NamingError::NotSupported { .. })
        ));
        assert!(matches!(
            ctx.list_str(""),
            Err(NamingError::NotSupported { .. })
        ));
    }

    #[test]
    fn writes_continue_through_the_anchor_link() {
        // The paper's scenario: the anchor TXT points at HDNS; a write
        // through dns://global/... must continue there, not fail.
        let ctx = world();
        let err = ctx.bind_str("emory/newservice", "v").unwrap_err();
        match err {
            NamingError::Continue { remaining, .. } => {
                assert_eq!(remaining.to_string(), "emory/newservice");
            }
            other => panic!("expected Continue, got {other:?}"),
        }
    }

    #[test]
    fn ttl_surfaces_as_attribute() {
        let ctx = world();
        let attrs = ctx.get_attributes(&"plain".into()).unwrap();
        assert_eq!(attrs.get("ttl").unwrap().first_str(), Some("60"));
    }

    #[test]
    fn invalid_label_rejected() {
        let ctx = world();
        assert!(matches!(
            ctx.lookup_str("bad label"),
            Err(NamingError::InvalidName { .. }) | Err(NamingError::NameNotFound { .. })
        ));
    }
}
