//! The paper's §6 federation scenario, end to end.
//!
//! "When querying the status of an object referred to by the URL
//! `dns://global/emory/mathcs/dcl/mokey`, [the] JNDI client would contact
//! DNS to find the address of a nearest HDNS node belonging to the
//! 'global' federation, then it would use HDNS to query for the address of
//! the 'emory/mathcs/dcl' LDAP server, and finally, it would issue the
//! 'mokey' object query to that LDAP server."
//!
//! Run with: `cargo run --example federation`

use std::sync::Arc;

use rndi::core::prelude::*;
use rndi::core::value::StoredValue;
use rndi::obs::clock::{Clock, SystemClock};
use rndi::providers::{DnsFactory, HdnsFactory, LdapFactory};

fn main() -> Result<()> {
    let clock: Arc<dyn Clock> = SystemClock::new();

    // ------------------------- The root layer: DNS -------------------------
    // A well-known name anchors the federation: a TXT record at the
    // "global" anchor resolves to the nearest HDNS node.
    let dns_server = rndi::dns::AuthServer::new();
    let mut zone = rndi::dns::Zone::new(rndi::dns::DnsName::parse("global.example").unwrap());
    zone.insert(rndi::dns::ResourceRecord::txt(
        "global.example",
        3600,
        "hdns://hdns-east",
    ));
    dns_server.add_zone(zone);
    let resolver = Arc::new(rndi::dns::Resolver::new(vec![dns_server]));

    // -------------------- The intermediate layer: HDNS ---------------------
    // "The replicated information shared by all HDNS nodes is the set of
    // references to all department-level naming services."
    let hdns_realm = rndi::hdns::HdnsRealm::new(
        "global-federation",
        3,
        rndi::groupcast::StackConfig::default(),
        None,
        11,
    );
    hdns_realm.create_context(0, "emory").unwrap();
    hdns_realm.create_context(0, "emory/mathcs").unwrap();
    hdns_realm
        .bind(
            0,
            "emory/mathcs/dcl",
            rndi::hdns::HdnsEntry::leaf(
                StoredValue::Reference(Reference::url("ldap://dcl-ldap/ou=dcl")).encode(),
            ),
            None,
        )
        .unwrap();

    // ---------------------- The leaf layer: LDAP ---------------------------
    let ldap = rndi::ldap::DirectoryServer::new(rndi::ldap::ServerConfig::default());
    let admin = ldap.connect_anonymous();
    for entry in [
        rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("o=emory").unwrap())
            .with("objectClass", "organization")
            .with("o", "emory"),
        rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("ou=dcl,o=emory").unwrap())
            .with("objectClass", "organizationalUnit")
            .with("ou", "dcl"),
        rndi::ldap::LdapEntry::new(rndi::ldap::Dn::parse("cn=mokey,ou=dcl,o=emory").unwrap())
            .with("objectClass", "rndiObject")
            .with("cn", "mokey")
            .with(
                "rndiValue",
                String::from_utf8(StoredValue::Str("status: alive and banana-fed".into()).encode())
                    .unwrap(),
            ),
    ] {
        admin.add(entry).unwrap();
    }

    // --------------------- Client-side integration -------------------------
    let registry = Arc::new(ProviderRegistry::new());

    let dns_factory = DnsFactory::new(clock.clone());
    dns_factory.register_anchor(
        "global",
        resolver,
        rndi::dns::DnsName::parse("global.example").unwrap(),
    );
    registry.register(dns_factory);

    let hdns_factory = HdnsFactory::new();
    hdns_factory.register_host("hdns-east", hdns_realm.clone(), 0);
    registry.register(hdns_factory.clone());

    let ldap_factory = LdapFactory::new(clock);
    ldap_factory.register_host("dcl-ldap", ldap, rndi::ldap::Dn::parse("o=emory").unwrap());
    registry.register(ldap_factory);

    let ctx = InitialContext::new(registry, Environment::new())?;

    // One lookup, three naming systems, fully transparent:
    let url = "dns://global/emory/mathcs/dcl/mokey";
    let value = ctx.lookup(url)?;
    println!("{url}");
    println!("  DNS  (root)        resolved 'global' -> hdns://hdns-east");
    println!("  HDNS (intermediate) resolved 'emory/mathcs/dcl' -> ldap://dcl-ldap/ou=dcl");
    println!("  LDAP (leaf)         resolved 'mokey'");
    println!("  => {:?}", value.as_str().unwrap());
    assert_eq!(value.as_str(), Some("status: alive and banana-fed"));

    // The same works from any HDNS replica: reads are replica-local.
    hdns_factory.register_host("hdns-west", hdns_realm, 2);
    let value2 = ctx.lookup("hdns://hdns-west/emory/mathcs/dcl/mokey")?;
    assert_eq!(value2.as_str(), value.as_str());
    println!("same answer via replica hdns-west: OK");

    // And the paper's §6 API snippet — linking naming services by binding
    // one context into another:
    ctx.bind(
        "hdns://hdns-east/ldapDirect",
        BoundValue::Reference(Reference::url("ldap://dcl-ldap/ou=dcl")),
    )?;
    let shortcut = ctx.lookup("hdns://hdns-east/ldapDirect/mokey")?;
    assert_eq!(shortcut.as_str(), value.as_str());
    println!("federated shortcut hdns://hdns-east/ldapDirect/mokey: OK");

    println!("federation example OK");
    Ok(())
}
