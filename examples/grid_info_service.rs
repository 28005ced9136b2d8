//! A grid information service — the workload class the paper's
//! introduction motivates (ICENI, JGrid, Triana, Globe all needed one).
//!
//! Two departments run their own, heterogeneous registries (one Jini, one
//! LDAP). A campus-level HDNS group federates them, and a scheduler-like
//! client discovers compute resources across both with a single
//! attribute query per site — never knowing which backend served it.
//!
//! Run with: `cargo run --example grid_info_service`

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::obs::clock::SystemClock;
use rndi::providers::{HdnsFactory, JiniFactory, LdapFactory};

fn main() -> Result<()> {
    // Department A prefers Jini (like JGrid / JISGA / ALiCE).
    let clock = SystemClock::new();
    let registrar = rndi::rlus::Registrar::new(clock.clone(), 600_000, 3);
    let jini_realm = rndi::rlus::DiscoveryRealm::new();
    jini_realm.announce(
        rndi::rlus::discovery::LookupLocator::new("mathcs-lus", 4160),
        &["mathcs"],
        registrar,
    );

    // Department B runs LDAP (like Globus MDS v2).
    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig::default());
    ldap.connect_anonymous()
        .add(
            rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=physics").unwrap())
                .with("objectClass", "organization")
                .with("o", "physics"),
        )
        .unwrap();

    // The campus federation layer: HDNS.
    let hdns_realm = rndi::hdns::HdnsRealm::new(
        "campus",
        2,
        rndi::groupcast::StackConfig::default(),
        None,
        13,
    );

    let registry = Arc::new(ProviderRegistry::new());
    registry.register(JiniFactory::new(jini_realm, clock.clone()));
    let ldap_factory = LdapFactory::new(clock);
    ldap_factory.register_host(
        "physics-ldap",
        ldap,
        rndi::ldap::Dn::parse("o=physics").unwrap(),
    );
    registry.register(ldap_factory);
    let hdns_factory = HdnsFactory::new();
    hdns_factory.register_host("campus", hdns_realm, 0);
    registry.register(hdns_factory);

    let ctx = InitialContext::new(registry, Environment::new())?;

    // ---- Departments publish their resources (each in its own world) ----
    for (name, cpu, mem) in [("mc-n01", "16", "32768"), ("mc-n02", "8", "16384")] {
        ctx.bind_with_attrs(
            &format!("jini://mathcs-lus/{name}"),
            BoundValue::str(format!("endpoint://{name}.mathcs:9000")),
            Attributes::new()
                .with("type", "compute")
                .with("os", "linux")
                .with("cpu", cpu)
                .with("memoryMb", mem),
        )?;
    }
    for (name, cpu, mem) in [("ph-big01", "64", "262144"), ("ph-n07", "8", "8192")] {
        ctx.bind_with_attrs(
            &format!("ldap://physics-ldap/{name}"),
            BoundValue::str(format!("endpoint://{name}.physics:9000")),
            Attributes::new()
                .with("type", "compute")
                .with("os", "linux")
                .with("cpu", cpu)
                .with("memoryMb", mem),
        )?;
    }

    // ---- The campus mounts both departments into one name space ----
    ctx.bind(
        "hdns://campus/mathcs",
        BoundValue::Reference(Reference::url("jini://mathcs-lus")),
    )?;
    ctx.bind(
        "hdns://campus/physics",
        BoundValue::Reference(Reference::url("ldap://physics-ldap")),
    )?;

    // ---- A scheduler hunts for big machines across the federation ----
    let filter = "(&(type=compute)(cpu>=16))";
    println!("query: {filter}");
    let mut found = Vec::new();
    for dept in ["mathcs", "physics"] {
        let hits = ctx.search(
            &format!("hdns://campus/{dept}"),
            filter,
            &SearchControls {
                return_values: true,
                ..Default::default()
            },
        )?;
        for h in hits {
            let endpoint = h
                .value
                .as_ref()
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            println!(
                "  [{dept}] {:<10} cpu={:<3} mem={:<7} {endpoint}",
                h.name,
                h.attrs.get("cpu").unwrap().first_str().unwrap(),
                h.attrs.get("memoryMb").unwrap().first_str().unwrap(),
            );
            found.push(format!("{dept}/{}", h.name));
        }
    }
    found.sort();
    assert_eq!(found.len(), 2, "mc-n01 (jini) and ph-big01 (ldap)");

    // Drill into one resource through the federated path.
    let v = ctx.lookup("hdns://campus/physics/ph-big01")?;
    println!("allocated: {}", v.as_str().unwrap());

    // A department decommissions a node; the federation reflects it.
    ctx.unbind("hdns://campus/mathcs/mc-n02")?;
    assert!(ctx.lookup("jini://mathcs-lus/mc-n02").is_err());
    println!("decommissioned mc-n02 through the federated name: OK");

    println!("grid info service example OK");
    Ok(())
}
