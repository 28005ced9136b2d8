//! Criterion microbenchmarks — the §5.1 per-operation cost claims,
//! measured in real wall-clock time against the in-process backends.
//!
//! * raw LUS lookup vs JNDI-Jini provider lookup (the marshalling layer);
//! * raw LUS register vs relaxed-bind vs strict-bind (the Eisenberg–
//!   McGuire lock multiplies registrar round trips ≥8×);
//! * HDNS provider lookup (thin mapping — near-zero overhead over the
//!   replica-local read).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use rlus::{EntryTemplate, ManualClock, Registrar, ServiceTemplate};
use rndi_core::context::ContextExt;
use rndi_core::env::{keys, Environment};
use rndi_core::op::NamingOp;
use rndi_core::spi::{ProviderBackend, ProviderPipeline};
use rndi_providers::{HdnsProviderContext, JiniProviderContext};

fn jini_setup(strict: bool) -> (Registrar, Arc<ProviderPipeline<JiniProviderContext>>) {
    let clock = ManualClock::new();
    let registrar = Registrar::new(clock.clone(), u64::MAX / 4, 1);
    let env = Environment::new().with(
        keys::JINI_STRICT_BIND,
        if strict { "true" } else { "false" },
    );
    let ctx = JiniProviderContext::new(registrar.clone(), clock, env, "bench");
    (registrar, ctx)
}

fn bench_jini_reads(c: &mut Criterion) {
    let (registrar, ctx) = jini_setup(false);
    ctx.rebind_str("bench", "payload").unwrap();
    let template =
        ServiceTemplate::any().with_entry(EntryTemplate::new("RndiBinding").with("name", "bench"));

    let mut group = c.benchmark_group("jini_lookup");
    group.bench_function("raw_lus", |b| {
        b.iter(|| registrar.lookup(std::hint::black_box(&template)).unwrap())
    });
    group.bench_function("jndi_spi", |b| {
        b.iter(|| ctx.lookup_str(std::hint::black_box("bench")).unwrap())
    });
    group.finish();
}

fn bench_jini_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("jini_rebind");

    let (registrar, _) = jini_setup(false);
    let item = rlus::ServiceItem::new(rlus::ServiceStub::new(vec!["Bench".into()], vec![0; 64]))
        .with_id(rlus::ServiceId::new(1, 1))
        .with_entry(rlus::Entry::name("bench"));
    group.bench_function("raw_lus", |b| {
        b.iter(|| registrar.register(std::hint::black_box(item.clone()), 60_000))
    });

    let (_, relaxed) = jini_setup(false);
    group.bench_function("jndi_spi_relaxed", |b| {
        b.iter(|| relaxed.rebind_str("bench", "payload").unwrap())
    });

    let (_, strict) = jini_setup(true);
    group.bench_function("jndi_spi_strict_bind_unbind", |b| {
        // Atomic bind + unbind per iteration: binding an existing name
        // fails by design, and unbinding keeps the registry small so the
        // measurement reflects the locking cost rather than registry scans.
        b.iter(|| {
            strict.bind_str("bench-cs", "payload").unwrap();
            strict.unbind_str("bench-cs").unwrap();
        })
    });
    group.finish();
}

fn bench_hdns(c: &mut Criterion) {
    let realm = hdns::HdnsRealm::new("bench", 2, groupcast::StackConfig::default(), None, 5);
    realm
        .rebind(0, "bench", hdns::HdnsEntry::leaf(vec![0; 64]), None)
        .unwrap();
    let ctx = HdnsProviderContext::new(realm.clone(), 0, "bench");

    let mut group = c.benchmark_group("hdns_lookup");
    group.bench_function("raw_replica", |b| {
        b.iter(|| realm.lookup(0, std::hint::black_box("bench")).unwrap())
    });
    group.bench_function("jndi_spi", |b| {
        b.iter(|| ctx.lookup_str(std::hint::black_box("bench")).unwrap())
    });
    group.finish();
}

/// The cost of pipeline dispatch itself: the same reified op executed
/// directly against the backend vs through a `ProviderPipeline` with an
/// empty interceptor stack. The acceptance bar is ≤5% added latency.
fn bench_pipeline_dispatch(c: &mut Criterion) {
    let (_registrar, ctx) = jini_setup(false);
    ctx.rebind_str("bench", "payload").unwrap();
    let backend = ctx.backend().clone();
    let bare = ProviderPipeline::bare(backend.clone());
    let op = NamingOp::lookup("bench".into());

    let mut group = c.benchmark_group("pipeline_dispatch");
    group.bench_function("backend_direct", |b| {
        b.iter(|| backend.execute(std::hint::black_box(&op)).unwrap())
    });
    group.bench_function("empty_pipeline", |b| {
        b.iter(|| bare.execute(std::hint::black_box(&op)).unwrap())
    });
    group.bench_function("standard_stack_default_env", |b| {
        b.iter(|| ctx.execute(std::hint::black_box(&op)).unwrap())
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_jini_reads, bench_jini_writes, bench_hdns, bench_pipeline_dispatch
}
criterion_main!(benches);
