//! The conformance matrix: one behavioural test suite executed against
//! every writable provider, verifying that the "lowest common denominator"
//! API really does behave identically over wildly different backends —
//! the paper's central claim.

use std::sync::Arc;

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::obs::clock::ManualClock;
use rndi::providers::common::attrs;
use rndi::providers::{FsContext, HdnsProviderContext, JiniProviderContext, LdapProviderContext};

/// Build one instance of every writable provider, each on a fresh backend.
fn all_providers(tag: &str) -> Vec<(&'static str, Arc<dyn DirContext>)> {
    let mut out: Vec<(&'static str, Arc<dyn DirContext>)> = Vec::new();

    out.push(("mem", Arc::new(MemContext::new())));

    let clock = ManualClock::new();
    let registrar = rndi::rlus::Registrar::new(clock.clone(), u64::MAX / 4, 5);
    out.push((
        "jini",
        JiniProviderContext::new(registrar, clock, Environment::new(), "conformance"),
    ));

    let realm = rndi::hdns::HdnsRealm::new(
        "conformance",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        9,
    );
    out.push(("hdns", HdnsProviderContext::new(realm, 0, "conformance")));

    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig {
        read_throttle_per_sec: None,
        ..Default::default()
    });
    ldap.connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=test").unwrap())
                .with("objectClass", "organization")
                .with("o", "test"),
        )
        .unwrap();
    out.push((
        "ldap",
        LdapProviderContext::new(
            ldap.connect_anonymous(),
            rndi::ldap::Dn::parse("o=test").unwrap(),
            ManualClock::new(),
            "conformance",
        ),
    ));

    let dir = std::env::temp_dir().join(format!("rndi-conformance-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    out.push(("fs", FsContext::new(dir)));

    out
}

#[test]
fn bind_lookup_rebind_unbind_uniform() {
    for (name, ctx) in all_providers("crud") {
        ctx.bind_str("key", "v1")
            .unwrap_or_else(|e| panic!("{name}: bind: {e}"));
        assert_eq!(
            ctx.lookup_str("key").unwrap().as_str(),
            Some("v1"),
            "{name}: lookup"
        );

        // Atomic bind: second bind fails, value untouched.
        let err = ctx.bind_str("key", "v2").unwrap_err();
        assert!(
            matches!(err, NamingError::AlreadyBound { .. }),
            "{name}: expected AlreadyBound, got {err}"
        );
        assert_eq!(
            ctx.lookup_str("key").unwrap().as_str(),
            Some("v1"),
            "{name}"
        );

        // Rebind replaces.
        ctx.rebind_str("key", "v2").unwrap();
        assert_eq!(
            ctx.lookup_str("key").unwrap().as_str(),
            Some("v2"),
            "{name}"
        );

        // Unbind is idempotent.
        ctx.unbind_str("key").unwrap();
        ctx.unbind_str("key").unwrap();
        assert!(
            matches!(ctx.lookup_str("key"), Err(NamingError::NameNotFound { .. })),
            "{name}: lookup after unbind"
        );
    }
}

#[test]
fn typed_values_roundtrip_everywhere() {
    for (name, ctx) in all_providers("typed") {
        let cases: Vec<(&str, BoundValue)> = vec![
            ("t-null", BoundValue::Null),
            ("t-str", BoundValue::str("text")),
            ("t-int", BoundValue::I64(-42)),
            ("t-bool", BoundValue::Bool(true)),
            (
                "t-json",
                BoundValue::Json(serde_json::json!({"a": [1, 2, 3]})),
            ),
            (
                "t-ref",
                BoundValue::Reference(Reference::url("jini://elsewhere")),
            ),
        ];
        for (key, value) in &cases {
            ctx.bind_str(key, value.clone())
                .unwrap_or_else(|e| panic!("{name}: bind {key}: {e}"));
            let got = ctx.lookup_str(key).unwrap();
            assert_eq!(&got, value, "{name}: roundtrip of {key}");
        }
    }
}

#[test]
fn attributes_and_search_uniform() {
    for (name, ctx) in all_providers("attrs") {
        ctx.bind_with_attrs(
            &"host-a".into(),
            BoundValue::str("stub-a"),
            attrs(&[("os", "linux"), ("cpu", "32")]),
        )
        .unwrap_or_else(|e| panic!("{name}: bind_with_attrs: {e}"));
        ctx.bind_with_attrs(
            &"host-b".into(),
            BoundValue::str("stub-b"),
            attrs(&[("os", "solaris"), ("cpu", "2")]),
        )
        .unwrap();

        let got = ctx.get_attributes(&"host-a".into()).unwrap();
        assert_eq!(got.get("os").unwrap().first_str(), Some("linux"), "{name}");

        let filter = Filter::parse("(&(os=linux)(cpu>=16))").unwrap();
        let hits = ctx
            .search(&CompositeName::empty(), &filter, &SearchControls::default())
            .unwrap_or_else(|e| panic!("{name}: search: {e}"));
        assert_eq!(hits.len(), 1, "{name}: one linux host");
        assert!(hits[0].name.contains("host-a"), "{name}: {}", hits[0].name);
    }
}

#[test]
fn list_reflects_bindings_uniform() {
    for (name, ctx) in all_providers("list") {
        ctx.bind_str("alpha", "1").unwrap();
        ctx.bind_str("beta", "2").unwrap();
        let names: Vec<String> = ctx
            .list_str("")
            .unwrap_or_else(|e| panic!("{name}: list: {e}"))
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert!(
            names.iter().any(|n| n.contains("alpha")) && names.iter().any(|n| n.contains("beta")),
            "{name}: listing {names:?}"
        );
    }
}

#[test]
fn federation_mounts_continue_uniform() {
    // Every provider must signal Continue when resolution crosses a bound
    // URL reference — the SPI contract federation depends on.
    for (name, ctx) in all_providers("mount") {
        ctx.bind(
            &"mnt".into(),
            BoundValue::Reference(Reference::url("hdns://far-away")),
        )
        .unwrap();
        let err = ctx.lookup(&"mnt/deeper/obj".into()).unwrap_err();
        match err {
            NamingError::Continue {
                remaining,
                resolved,
            } => {
                assert_eq!(remaining.to_string(), "deeper/obj", "{name}");
                assert!(resolved.is_federation_link(), "{name}");
            }
            other => panic!("{name}: expected Continue, got {other}"),
        }
    }
}

#[test]
fn hierarchical_providers_support_subcontexts() {
    // The flat LUS legitimately opts out (conformance levels!); the
    // hierarchical providers must agree with each other.
    for (name, ctx) in all_providers("subctx") {
        if name == "jini" {
            assert!(matches!(
                ctx.create_subcontext(&"sub".into()),
                Err(NamingError::NotSupported { .. })
            ));
            continue;
        }
        ctx.create_subcontext(&"sub".into())
            .unwrap_or_else(|e| panic!("{name}: create_subcontext: {e}"));
        ctx.bind_str("sub/item", "deep").unwrap();
        assert_eq!(
            ctx.lookup_str("sub/item").unwrap().as_str(),
            Some("deep"),
            "{name}"
        );
        assert!(
            matches!(
                ctx.destroy_subcontext(&"sub".into()),
                Err(NamingError::ContextNotEmpty { .. })
            ),
            "{name}: destroy of non-empty context must fail"
        );
        ctx.unbind_str("sub/item").unwrap();
        ctx.destroy_subcontext(&"sub".into()).unwrap();
    }
}
