//! Jini-style service discovery through the provider: leases that expire
//! unless renewed, the provider's automatic client-side renewal, and
//! naming events bridged from the registry's remote events (paper §5.1).
//!
//! Uses a manual clock so lease expiry is demonstrated deterministically.
//!
//! Run with: `cargo run --example service_discovery`

use rndi::core::context::ContextExt;
use rndi::core::prelude::*;
use rndi::providers::JiniProviderContext;
use rndi::rlus::{ManualClock, Registrar};

fn main() -> Result<()> {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), 600_000, 8);

    // Relaxed bind: this example has a single writer per name, the case
    // the paper calls out as safe to run without the distributed lock.
    let env = Environment::new()
        .with(env_keys::JINI_STRICT_BIND, "false")
        .with(env_keys::LEASE_MS, "60000");
    let ctx = JiniProviderContext::new(registrar.clone(), clock.clone(), env, "demo");

    // Watch the registry through the JNDI event API.
    let listener = CollectingListener::new();
    ctx.add_listener(&CompositeName::empty(), listener.clone())?;

    println!("== registration & discovery ==");
    ctx.bind_with_attrs(
        &"transcoder".into(),
        BoundValue::str("endpoint://gpu-box:7000"),
        Attributes::new()
            .with("service", "media")
            .with("codec", "h264")
            .with("codec", "av1"),
    )?;
    ctx.bind_with_attrs(
        &"thumbnailer".into(),
        BoundValue::str("endpoint://cpu-box:7001"),
        Attributes::new()
            .with("service", "media")
            .with("codec", "jpeg"),
    )?;

    let hits = ctx.search(
        &CompositeName::empty(),
        &Filter::parse("(&(service=media)(codec=av1))")?,
        &SearchControls::default(),
    )?;
    println!(
        "services speaking AV1: {:?}",
        hits.iter().map(|h| &h.name).collect::<Vec<_>>()
    );
    assert_eq!(hits.len(), 1);

    println!("== events ==");
    let events = listener.drain();
    for e in &events {
        println!("  {:?} {}", e.event_type, e.name);
    }
    assert_eq!(events.len(), 2, "two ObjectAdded events");

    println!("== leases: the provider renews, the registry reclaims ==");
    println!("lease duration 60 s; provider renews while polled");
    for t in (15_000..=180_000).step_by(15_000) {
        clock.set(t);
        let failed = ctx.poll_leases();
        assert!(failed.is_empty());
        registrar.sweep();
    }
    assert_eq!(
        ctx.lookup_str("transcoder")?.as_str(),
        Some("endpoint://gpu-box:7000"),
        "binding alive at t=180s thanks to renewal"
    );
    println!("t=180s: transcoder still registered (renewed 3+ times): OK");

    // Now simulate the owning process going away: nobody polls, leases
    // lapse, the registry cleans up — no stale references, ever.
    println!("owner stops renewing…");
    clock.set(300_000);
    registrar.sweep();
    assert!(ctx.lookup_str("transcoder").is_err());
    assert!(ctx.lookup_str("thumbnailer").is_err());
    println!("t=300s: expired registrations reclaimed: OK");

    // The registry fired removal transitions for the expiry sweeps.
    let removals = listener.drain();
    println!(
        "events after expiry: {} (registry-side reclamation)",
        removals.len()
    );

    println!("service discovery example OK");
    Ok(())
}
