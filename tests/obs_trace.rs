//! End-to-end observability acceptance: a federated subtree search through
//! two real-provider mounts produces ONE linked trace — federation root,
//! one child span per mount, pipeline spans below those, and server-side
//! spans at the leaves — all retrievable from the trace sink, and the
//! exposition reports counters/histograms for every provider exercised.

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::obs::clock::{Clock, ManualClock};
use rndi::providers::{HdnsFactory, JiniFactory, LdapFactory};

/// HDNS base with two federation links: one to an LDAP directory, one to a
/// Jini lookup service. Mount names are unique to this test so trace-ring
/// lookups are immune to spans from concurrently running tests.
fn world() -> (InitialContext, Arc<ProviderRegistry>) {
    let clock: Arc<dyn Clock> = ManualClock::new();
    let registry = Arc::new(ProviderRegistry::new());

    let hdns_realm = rndi::hdns::HdnsRealm::new(
        "obs-acc",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        31,
    );
    let hdns_factory = HdnsFactory::new();
    hdns_factory.register_host("obs-h0", hdns_realm.clone(), 0);
    hdns_factory.register_host("obs-h1", hdns_realm, 1);
    registry.register(hdns_factory);

    let rlus_clock = ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(rlus_clock.clone(), u64::MAX / 4, 17);
    let jini_realm = rndi::rlus::DiscoveryRealm::new();
    jini_realm.announce(
        rndi::rlus::discovery::LookupLocator::new("obs-lus", 4160),
        &["dept"],
        registrar,
    );
    registry.register(JiniFactory::new(jini_realm, rlus_clock));

    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    ldap.connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=obsdept").unwrap())
                .with("objectClass", "organization")
                .with("o", "obsdept"),
        )
        .unwrap();
    let ldap_factory = LdapFactory::new(clock);
    ldap_factory.register_host("obs-dir", ldap, rndi::ldap::Dn::parse("o=obsdept").unwrap());
    registry.register(ldap_factory);

    let ctx = InitialContext::new(registry.clone(), Environment::new()).unwrap();
    (ctx, registry)
}

#[test]
fn federated_search_produces_one_linked_trace_with_server_spans() {
    let (ctx, registry) = world();

    // Two mounts under the HDNS base, plus matching entries in each leaf.
    ctx.bind(
        "hdns://obs-h0/obs-acc-jini",
        BoundValue::Reference(Reference::url("jini://obs-lus")),
    )
    .unwrap();
    ctx.bind(
        "hdns://obs-h0/obs-acc-ldap",
        BoundValue::Reference(Reference::url("ldap://obs-dir")),
    )
    .unwrap();
    ctx.bind_with_attrs(
        "jini://obs-lus/obs-node",
        BoundValue::str("stub"),
        Attributes::new().with("svc", "obs-acc"),
    )
    .unwrap();
    ctx.bind_with_attrs(
        "ldap://obs-dir/obs-printer",
        BoundValue::str("stub"),
        Attributes::new().with("svc", "obs-acc"),
    )
    .unwrap();

    // Subtree search across the federation: base first, then both mounts.
    let base = ctx.lookup_context("hdns://obs-h0").unwrap();
    let fed = FederatedContext::new(base, registry, Environment::new());
    let controls = SearchControls {
        scope: SearchScope::Subtree,
        ..Default::default()
    };
    let hits = DirContext::search(
        fed.as_ref(),
        &CompositeName::empty(),
        &Filter::parse("(svc=obs-acc)").unwrap(),
        &controls,
    )
    .unwrap();
    let names: Vec<&str> = hits.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["obs-acc-jini/obs-node", "obs-acc-ldap/cn=obs-printer"],
        "one hit through each mount, in mount-name order"
    );

    // One linked trace: root + per-mount children + leaf-layer spans.
    let ring = rndi::obs::trace::ring();
    let anchor = ring
        .snapshot()
        .into_iter()
        .rev()
        .find(|s| s.provider.as_ref() == "obs-acc-ldap")
        .expect("per-mount child span recorded");
    let trace = ring.trace(anchor.trace_id);

    let roots: Vec<_> = trace.iter().filter(|s| s.parent_span == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span in the trace");
    let root = roots[0];
    assert_eq!(
        (root.layer.as_ref(), root.op.as_ref()),
        ("federation", "search")
    );
    assert_eq!(root.depth, 0);

    for mount in ["obs-acc-jini", "obs-acc-ldap"] {
        let m = trace
            .iter()
            .find(|s| s.provider.as_ref() == mount)
            .unwrap_or_else(|| panic!("child span for mount {mount}"));
        assert_eq!(m.parent_span, root.span_id, "mount span links to the root");
        assert_eq!(m.depth, 1);
    }
    assert!(
        trace.iter().any(|s| s.layer == "pipeline"),
        "provider pipeline spans joined the trace"
    );
    let server = trace
        .iter()
        .find(|s| s.layer == "server")
        .expect("server-side span joined the trace");
    assert_ne!(
        server.parent_span, 0,
        "server span links under a client span"
    );

    // The exposition covers every provider exercised by the search.
    let text = rndi::core::spi::telemetry::render();
    let samples = rndi::obs::expo::parse(&text).expect("exposition parses");
    let provider_of = |s: &rndi::obs::expo::Sample| {
        s.labels
            .iter()
            .find(|(k, _)| k == "provider")
            .map(|(_, v)| v.clone())
    };
    // Pipeline labels are provider ids ("hdns:obs-h0#0", "jini:obs-lus",
    // "ldap:obs-dir/o=obsdept"); match by scheme prefix.
    for scheme in ["hdns:", "jini:", "ldap:"] {
        assert!(
            samples.iter().any(|s| {
                s.name == "rndi_ops_total" && provider_of(s).is_some_and(|p| p.starts_with(scheme))
            }),
            "op counter exposed for {scheme} providers"
        );
        assert!(
            samples.iter().any(|s| {
                s.name.starts_with("rndi_op_duration_ns")
                    && provider_of(s).is_some_and(|p| p.starts_with(scheme))
            }),
            "latency histogram exposed for {scheme} providers"
        );
    }
}
