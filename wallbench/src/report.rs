//! One workload run end to end: set-up, the measured phase(s), the
//! correctness verdict, and the metrics, printed for people and as the
//! closing JSON line.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi::core::env::Environment;
use rndi::core::value::BoundValue;

use crate::check;
use crate::codec;
use crate::deploy::Deployment;
use crate::provenance;
use crate::runner::{self, CallerOut, Phase, QueueMonitor, WINDOWS};
use crate::stats::{median, windowed, Hist, Quantile, Samples};
use crate::trace::{self, Kind, Layer, SpanSink};
use crate::workload::{Namespace, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Ops before the measured window: connections dialled, caches and
/// allocator warm.
const WARMUP: Duration = Duration::from_millis(500);

/// The end-to-end metrics every gated workload reports with `--trace 0`,
/// in `BENCHMARK.json` order. `ops_per_s`, the p99s and `read_p50_us` are
/// printed but not gated: on a noisy 2-core host their run-to-run spread
/// reaches the largest bound the gate allows (see README.md).
const END_TO_END: [&str; 3] = ["setup_s", "main_op_p50_us", "rss_peak_mb"];

/// The per-layer metrics every gated workload reports with `--trace 1`.
const PER_LAYER: [&str; 20] = [
    "core.pipeline.self_us",
    "core.pipeline.errors",
    "net.client.rtt_us.read",
    "net.client.rtt_us.main_op",
    "net.client.conns",
    "net.codec.encode_ns",
    "net.codec.decode_ns",
    "net.codec.bytes.req",
    "net.codec.bytes.resp",
    "net.server.wire_us",
    "net.server.requests",
    "net.server.errors",
    "net.server.shed",
    "net.server.queue_depth_max",
    "server.pipeline.self_us",
    "hdns.read_us",
    "hdns.main_op_us",
    "trace.overhead_pct.read",
    "trace.overhead_pct.main_op",
    "trace.residual_us",
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For a percentile: the samples behind it and how many lie beyond.
    pub counts: String,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric value must be finite");
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            counts: String::new(),
        });
    }

    /// The p50 of `samples` scaled by `scale` (e.g. ns → µs), with its
    /// sample counts; nothing when there are no samples.
    fn p50(
        &mut self,
        name: impl Into<String>,
        samples: &mut Samples,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(Quantile { value, n, beyond }) = samples.percentile(50.0) {
            self.0.push(Metric {
                name: name.into(),
                value: value / scale,
                unit,
                counts: format!("n={n} beyond={beyond}"),
            });
        }
    }

    /// A latency percentile in µs as the median over time-window groups
    /// (see [`windowed`]), each group holding at least `min_n` samples.
    fn windowed(&mut self, name: impl Into<String>, windows: &[Hist], p: f64, min_n: usize) {
        if let Some(w) = windowed(windows, p, min_n) {
            self.0.push(Metric {
                name: name.into(),
                value: w.value / 1e3,
                unit: "us",
                counts: format!(
                    "n={} median of {} window groups, >={} beyond in each",
                    w.n, w.groups, w.min_beyond
                ),
            });
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Copy `from` under the name `to` (the `main_op` aliases).
    fn alias(&mut self, to: &str, from: &str) {
        if let Some(m) = self.get(from).cloned() {
            self.0.push(Metric {
                name: to.to_string(),
                ..m
            });
        }
    }

    fn print(&self) {
        for m in &self.0 {
            println!(
                "  {:<34} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.counts
            );
        }
    }
}

/// A finished workload run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics on the closing JSON line.
    pub reported: Vec<Metric>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric], prefix: Option<&str>) -> String {
    metrics
        .iter()
        .map(|m| {
            let name = match prefix {
                Some(p) => format!("{p}/{}", m.name),
                None => m.name.clone(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

impl Outcome {
    pub fn result_json(&self, prefix: Option<&str>) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.reported, prefix)
        )
    }
}

/// The closing line of a multi-workload run: metrics keyed
/// `<workload>/<metric>`.
pub fn combined_json(outcomes: &[(Workload, Outcome)]) -> String {
    let metrics = outcomes
        .iter()
        .map(|(w, o)| metrics_json(&o.reported, Some(w.name())))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(|(_, o)| o.correct),
        outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        outcomes.iter().map(|(_, o)| o.failed).sum::<u64>(),
        metrics
    )
}

/// Server-side counters, summed over every server of the deployment.
#[derive(Clone, Copy, Default)]
struct Counters {
    requests: u64,
    errors: u64,
    shed: u64,
    pipeline_errors: u64,
    view_epochs: u64,
    gossip_rounds: u64,
}

impl Counters {
    fn read(dep: &Deployment, workload: Workload) -> Self {
        let health = dep.health();
        Counters {
            requests: health.iter().map(|h| h.requests_ok + h.requests_err).sum(),
            errors: health.iter().map(|h| h.requests_err).sum(),
            shed: health.iter().map(|h| h.shed_total).sum(),
            pipeline_errors: dep.pipeline_errors(),
            view_epochs: dep.view_seqs(),
            gossip_rounds: if workload == Workload::Replicated {
                dep.scraped_counter(rndi::obs::metrics::names::CLUSTER_GOSSIP_ROUNDS)
            } else {
                0
            },
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            requests: self.requests.saturating_sub(before.requests),
            errors: self.errors.saturating_sub(before.errors),
            shed: self.shed.saturating_sub(before.shed),
            pipeline_errors: self.pipeline_errors.saturating_sub(before.pipeline_errors),
            view_epochs: self.view_epochs.saturating_sub(before.view_epochs),
            gossip_rounds: self.gossip_rounds.saturating_sub(before.gossip_rounds),
        }
    }
}

/// Once a `replicated` run ends, every replica must hold the same allowed
/// value for every key. Replication is asynchronous, so give the replicas
/// a moment to agree before calling a difference a violation.
fn replica_violations(dep: &Deployment, ns: &Namespace, out: &CallerOut) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let errors: Vec<String> = ns
            .names
            .iter()
            .zip(&out.models)
            .filter_map(|(name, model)| {
                let per_replica: Vec<Option<BoundValue>> = dep
                    .nodes()
                    .iter()
                    .map(|n| {
                        n.lookup(name)
                            .map(|e| rndi::core::op::codec::unmarshal(&e.value))
                    })
                    .collect();
                check::check_replicas(name, model, &per_replica).err()
            })
            .collect();
        if errors.is_empty() || Instant::now() >= deadline {
            return errors;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Set up a deployment and preload it; returns it with the set-up time.
fn stand_up(
    workload: Workload,
    env: &Environment,
    ns: &Namespace,
    sink: Option<&Arc<SpanSink>>,
) -> Result<(Deployment, f64), String> {
    let start = Instant::now();
    let dep = Deployment::start(workload, env, sink).map_err(|e| e.to_string())?;
    if let Err(e) = runner::preload(&dep, ns, workload.callers()) {
        dep.shutdown();
        return Err(format!("preload: {e}"));
    }
    Ok((dep, start.elapsed().as_secs_f64()))
}

struct PhaseResult {
    out: CallerOut,
    counters: Counters,
    violations: Vec<String>,
    measure_from: Instant,
    conns: usize,
    partial_scatters: u64,
    queue_depth_max: u64,
}

/// Run callers against a stood-up deployment, then check and shut it down.
fn measure(
    workload: Workload,
    dep: Deployment,
    ns: &Namespace,
    seed: u64,
    sink: Option<&Arc<SpanSink>>,
    seconds: f64,
) -> PhaseResult {
    let monitor = QueueMonitor::new();
    let measure_from = Instant::now() + WARMUP;
    let phase = Phase {
        workload,
        dep: &dep,
        ns,
        seed,
        sink,
        measure_from,
        end: measure_from + Duration::from_secs_f64(seconds),
    };
    let (out, before) = std::thread::scope(|s| {
        // Servers of one composition share the process registry's
        // request counters, so the counts are read as the window opens
        // rather than before set-up traffic.
        let opener = s.spawn(|| {
            std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
            Counters::read(&dep, workload)
        });
        // The queue is sampled only in traced runs: the end-to-end run
        // carries nothing but the callers.
        let watcher = sink.map(|_| s.spawn(|| monitor.watch(&dep)));
        let out = runner::run(&phase);
        monitor.stop();
        if let Some(w) = watcher {
            w.join().expect("queue monitor panicked");
        }
        (out, opener.join().expect("counter reader panicked"))
    });
    let counters = Counters::read(&dep, workload).since(before);
    let mut violations = out.violations.clone();
    if workload == Workload::Replicated {
        violations.extend(replica_violations(&dep, ns, &out));
    }
    let conns = dep.client_conns();
    let partial_scatters = dep.partial_scatters();
    dep.shutdown();
    PhaseResult {
        violations,
        counters,
        measure_from,
        conns,
        partial_scatters,
        queue_depth_max: monitor.max_depth.load(std::sync::atomic::Ordering::Relaxed),
        out,
    }
}

fn print_provenance(workload: Workload, seed: u64, seconds: f64, trace: bool, env: &Environment) {
    let root = provenance::repo_root();
    let lines = provenance::line_counts(&root);
    let total: usize = lines.iter().map(|(_, n)| n).sum();
    let per_crate = lines
        .iter()
        .map(|(c, n)| format!("{}: {n}", json_str(c)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "== wallbench {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!(
        "provenance {{\"workload\": {}, \"nproc\": {}, \"kernel\": {}, \"git_rev\": {}, \
         \"server_shards\": {}, \"runs\": 1, \"setup_repeats\": {}, \"callers\": {}, \
         \"transport\": \"loopback tcp\", \"rust_lines_total\": {total}, \"rust_lines\": {{{per_crate}}}}}",
        json_str(workload.name()),
        provenance::nproc(),
        json_str(&provenance::kernel()),
        json_str(&provenance::git_rev(&root)),
        Deployment::effective_server_shards(env),
        if trace { 1 } else { SETUP_REPEATS },
        workload.callers(),
    );
}

fn print_violations(violations: &[String], count: u64) {
    if count > 0 || !violations.is_empty() {
        println!(
            "CORRECTNESS VIOLATIONS: {}",
            count.max(violations.len() as u64)
        );
        for v in violations {
            println!("  {v}");
        }
    }
}

pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let env = Environment::new();
    print_provenance(workload, seed, seconds, trace, &env);
    let ns = Namespace::generate(workload, seed);
    if trace {
        traced(workload, &env, &ns, seed, seconds)
    } else {
        untraced(workload, &env, &ns, seed, seconds)
    }
}

/// Per op kind: p50 and p99 as medians over time-window groups (a p99
/// group needs 1000 samples, so ten lie beyond it), and the pooled p99
/// over the whole window for reference.
fn kind_latencies(m: &mut Metrics, out: &CallerOut) {
    for kind in Kind::ALL {
        let l = kind.label();
        let windows = out.windows(kind);
        m.windowed(format!("{l}_p50_us"), &windows, 50.0, 100);
        m.windowed(format!("{l}_p99_us"), &windows, 99.0, 1000);
        if let Some(q) = out.pooled(kind).percentile(99.0) {
            m.0.push(Metric {
                name: format!("{l}_p99_us.pooled"),
                value: q.value / 1e3,
                unit: "us",
                counts: format!("n={} beyond={}", q.n, q.beyond),
            });
        }
    }
}

fn untraced(
    workload: Workload,
    env: &Environment,
    ns: &Namespace,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    // The run uses the first set-up, and the peak RSS is read before the
    // repeats: leftovers of torn-down deployments would otherwise blur it.
    let (dep, first) = stand_up(workload, env, ns, None)?;
    let r = measure(workload, dep, ns, seed, None, seconds);
    let rss_peak_mb = provenance::rss_peak_mb().unwrap_or(0.0);
    let mut setups = vec![first];
    for _ in 1..SETUP_REPEATS {
        let (dep, took) = stand_up(workload, env, ns, None)?;
        setups.push(took);
        dep.shutdown();
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    let window_s = seconds / WINDOWS as f64;
    let per_window: Vec<f64> = r.out.ops.iter().map(|&n| n as f64 / window_s).collect();
    m.put("ops_per_s", median(&per_window), "1/s");
    m.0.last_mut().expect("just put").counts =
        format!("n={} ops; median of {WINDOWS} windows", r.out.attempted);
    kind_latencies(&mut m, &r.out);
    let main = workload.main_kind().label();
    m.alias("main_op_p50_us", &format!("{main}_p50_us"));
    m.alias("main_op_p99_us", &format!("{main}_p99_us"));
    m.put("rss_peak_mb", rss_peak_mb, "MiB");
    m.put(
        "error_rate",
        r.out.failed as f64 / r.out.attempted.max(1) as f64,
        "ratio",
    );
    m.put("net.server.requests", r.counters.requests as f64, "count");
    m.put("net.server.errors", r.counters.errors as f64, "count");
    m.put("net.client.conns", r.conns as f64, "count");
    if workload == Workload::Replicated {
        for (c, conn) in ["coordinator", "follower"].iter().enumerate() {
            let s = std::slice::from_ref(&r.out.write_by_conn[c]);
            m.windowed(format!("write_p50_us.{conn}"), s, 50.0, 1);
            m.windowed(format!("write_p99_us.{conn}"), s, 99.0, 1);
            m.put(
                format!("write_failures.{conn}"),
                r.out.write_failures_by_conn[c] as f64,
                "count",
            );
        }
        m.put("cluster.stale_reads", r.out.stale_reads as f64, "count");
    }
    println!("setup runs (s): {setups:?}");
    println!(
        "end-to-end metrics ({} attempted, {} failed):",
        r.out.attempted, r.out.failed
    );
    m.print();
    print_violations(&r.violations, r.out.violation_count);
    Ok(finish(
        workload,
        &m,
        &END_TO_END,
        r.violations.is_empty(),
        r.out.attempted,
        r.out.failed,
    ))
}

/// Pick the metrics for the closing line: the gated names, in order, or
/// every metric for a workload outside the gated set.
fn finish(
    workload: Workload,
    m: &Metrics,
    gated: &[&str],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Outcome {
    if !workload.gated() {
        return Outcome {
            correct,
            attempted,
            failed,
            reported: m.0.clone(),
        };
    }
    let mut reported = Vec::new();
    for name in gated {
        match m.get(name) {
            Some(metric) => reported.push(metric.clone()),
            None => eprintln!("wallbench: {}: no samples for {name}", workload.name()),
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        reported,
    }
}

/// Per-op figures gathered from the traced phase's spans.
#[derive(Default)]
struct Traced {
    total: [Samples; 3],
    selves: HashMap<(Kind, Layer), Samples>,
    residual_mean: [f64; 3],
    rtt: [Samples; 3],
    rtt_write_by_shard: HashMap<u16, Samples>,
    backend: [Samples; 3],
    leg: Samples,
    slowest_leg: Samples,
    /// Parts per million, to keep ratios in integer samples.
    leg_skew_ppm: Samples,
    fanout: Samples,
    selectivity_ppm: Samples,
}

fn analyse(spans: Vec<trace::Span>, from_ns: u64, names: usize) -> Traced {
    let mut t = Traced::default();
    let mut residual_sum = [0i64; 3];
    for spans in trace::by_trace(spans) {
        let Some(b) = trace::decompose(&spans) else {
            continue;
        };
        let root = spans
            .iter()
            .find(|s| s.layer == Layer::Op)
            .expect("decomposed");
        if root.start_ns < from_ns {
            continue;
        }
        let k = b.kind as usize;
        t.total[k].push(b.total_ns);
        residual_sum[k] += b.residual_ns;
        for (layer, v) in b.selves {
            t.selves.entry((b.kind, layer)).or_default().push(v);
        }
        let mut legs = Vec::new();
        let mut hits = 0u64;
        for s in &spans {
            match s.layer {
                Layer::Net => {
                    t.rtt[k].push(s.dur());
                    legs.push(s.dur());
                    if b.kind == Kind::Write {
                        t.rtt_write_by_shard
                            .entry(s.shard)
                            .or_default()
                            .push(s.dur());
                    }
                }
                Layer::Backend => {
                    t.backend[k].push(s.dur());
                    hits += u64::from(s.items);
                }
                _ => {}
            }
        }
        if b.kind == Kind::Search && !legs.is_empty() {
            let max = *legs.iter().max().expect("non-empty");
            let mean = legs.iter().sum::<u64>() as f64 / legs.len() as f64;
            for &l in &legs {
                t.leg.push(l);
            }
            t.slowest_leg.push(max);
            t.leg_skew_ppm
                .push((1e6 * max as f64 / mean.max(1.0)) as u64);
            t.fanout.push(legs.len() as u64);
            t.selectivity_ppm.push(1_000_000 * hits / names as u64);
        }
    }
    for ((mean, total), sum) in t.residual_mean.iter_mut().zip(&t.total).zip(residual_sum) {
        if !total.is_empty() {
            *mean = sum as f64 / total.len() as f64;
        }
    }
    t
}

/// Print one op kind's budget: p50 self time per layer on the critical
/// path, the residual that makes them add up to the traced p50 total,
/// and the same with means (where the sum is exact per op).
fn print_budget(kind: Kind, t: &mut Traced, codec: Option<(f64, f64)>) -> Option<f64> {
    let k = kind as usize;
    let total = t.total[k].percentile(50.0)?;
    let total_mean = t.total[k].mean().unwrap_or(0.0);
    println!(
        "layer budget: {} (n={}; p50 of per-op self time, mean in brackets)",
        kind.label(),
        total.n
    );
    let mut sum_p50 = 0.0;
    let mut sum_mean = 0.0;
    for layer in Layer::ALL {
        let Some(s) = t.selves.get_mut(&(kind, layer)) else {
            continue;
        };
        let p50 = s.percentile(50.0).expect("non-empty").value / 1e3;
        let mean = s.mean().expect("non-empty") / 1e3;
        // Layers missing from some ops (none in these workloads) still
        // contribute their full mean over all ops.
        let mean_all = mean * s.len() as f64 / total.n as f64;
        sum_p50 += p50;
        sum_mean += mean_all;
        let split = t.selves.contains_key(&(kind, Layer::ServerPipeline));
        let name = match layer {
            Layer::Op => "core.pipeline.self_us".to_string(),
            Layer::Router => "shard.router.self_us".to_string(),
            Layer::Net if split => "net.server.wire_us".to_string(),
            Layer::Net => "net.client.rtt_us (unsplit)".to_string(),
            Layer::ServerPipeline => "server.pipeline.self_us".to_string(),
            Layer::Backend => format!("hdns.{}_us", kind.label()),
        };
        let note = match (layer, codec) {
            (Layer::Net, Some((enc, dec))) => {
                format!(
                    "  incl. codec encode {:.3} + decode {:.3} us (out of band)",
                    enc / 1e3,
                    dec / 1e3
                )
            }
            _ => String::new(),
        };
        println!("  {name:<28} {p50:>10.3} us  [{mean_all:>10.3}]{note}");
    }
    let residual = total.value / 1e3 - sum_p50;
    let residual_mean = t.residual_mean[k] / 1e3;
    println!(
        "  {:<28} {residual:>10.3} us  [{residual_mean:>10.3}]",
        "residual"
    );
    println!(
        "  {:<28} {:>10.3} us  [{:>10.3}]  (layers + residual: {:.3} [{:.3}])",
        "traced total",
        total.value / 1e3,
        total_mean / 1e3,
        sum_p50 + residual,
        sum_mean + residual_mean
    );
    Some(residual)
}

fn traced(
    workload: Workload,
    env: &Environment,
    ns: &Namespace,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    // Half the time without spans, half with: the p50 difference per op
    // kind is the tracing overhead.
    let half = seconds / 2.0;
    let (dep, _) = stand_up(workload, env, ns, None)?;
    let plain = measure(workload, dep, ns, seed, None, half);

    let sink = Arc::new(SpanSink::new());
    let (dep, _) = stand_up(workload, env, ns, Some(&sink))?;
    let map = dep.map.clone();
    let mut r = measure(workload, dep, ns, seed, Some(&sink), half);
    let mut t = analyse(sink.drain(), sink.ns_at(r.measure_from), ns.names.len());

    let mut m = Metrics::default();
    let q = |m: &mut Metrics, name: &str, s: Option<&mut Samples>| {
        if let Some(s) = s {
            m.p50(name, s, 1e3, "us");
        }
    };
    q(
        &mut m,
        "core.pipeline.self_us",
        t.selves.get_mut(&(Kind::Read, Layer::Op)),
    );
    m.put(
        "core.pipeline.errors",
        r.counters.pipeline_errors as f64,
        "count",
    );
    for kind in Kind::ALL {
        q(
            &mut m,
            &format!("net.client.rtt_us.{}", kind.label()),
            Some(&mut t.rtt[kind as usize]),
        );
    }
    m.put("net.client.conns", r.conns as f64, "count");

    let mut codec_p50 = [None; 3];
    for kind in Kind::ALL {
        let mut sample = std::mem::take(&mut r.out.codec_sample[kind as usize]);
        if let Some(map) = &map {
            sample = codec::per_leg(&sample, map);
        }
        if sample.is_empty() {
            continue;
        }
        let mut c = codec::time_calls(&sample)?;
        let l = kind.label();
        for (part, samples, unit) in [
            ("encode_ns", &mut c.encode_ns, "ns"),
            ("decode_ns", &mut c.decode_ns, "ns"),
            ("bytes.req", &mut c.req_bytes, "bytes"),
            ("bytes.resp", &mut c.resp_bytes, "bytes"),
        ] {
            m.p50(format!("net.codec.{part}.{l}"), samples, 1.0, unit);
        }
        codec_p50[kind as usize] = Some((
            c.encode_ns.percentile(50.0).expect("non-empty").value,
            c.decode_ns.percentile(50.0).expect("non-empty").value,
        ));
    }
    let main = workload.main_kind().label();
    for part in ["encode_ns", "decode_ns", "bytes.req", "bytes.resp"] {
        m.alias(
            &format!("net.codec.{part}"),
            &format!("net.codec.{part}.{main}"),
        );
    }

    // Without server-side spans (the cluster composition builds its own
    // server) the client round trip is not split.
    if t.selves.contains_key(&(Kind::Read, Layer::ServerPipeline)) {
        q(
            &mut m,
            "net.server.wire_us",
            t.selves.get_mut(&(Kind::Read, Layer::Net)),
        );
    }
    m.put("net.server.requests", r.counters.requests as f64, "count");
    m.put("net.server.errors", r.counters.errors as f64, "count");
    m.put("net.server.shed", r.counters.shed as f64, "count");
    m.put(
        "net.server.queue_depth_max",
        r.queue_depth_max as f64,
        "count",
    );
    q(
        &mut m,
        "server.pipeline.self_us",
        t.selves.get_mut(&(Kind::Read, Layer::ServerPipeline)),
    );
    for kind in Kind::ALL {
        q(
            &mut m,
            &format!("hdns.{}_us", kind.label()),
            Some(&mut t.backend[kind as usize]),
        );
    }
    if workload == Workload::Discovery {
        m.put(
            "hdns.search_selectivity",
            t.selectivity_ppm
                .percentile(50.0)
                .map_or(0.0, |q| q.value / 1e6),
            "ratio",
        );
        q(
            &mut m,
            "shard.router.self_us",
            t.selves.get_mut(&(Kind::Search, Layer::Router)),
        );
        q(&mut m, "shard.leg_us", Some(&mut t.leg));
        q(&mut m, "shard.slowest_leg_us", Some(&mut t.slowest_leg));
        m.p50("shard.leg_skew", &mut t.leg_skew_ppm, 1e6, "ratio");
        m.p50("shard.fanout_width", &mut t.fanout, 1.0, "count");
        m.put("shard.partial_scatters", r.partial_scatters as f64, "count");
    }
    if workload == Workload::Replicated {
        q(
            &mut m,
            "cluster.write_us.coordinator",
            t.rtt_write_by_shard.get_mut(&0),
        );
        q(
            &mut m,
            "cluster.write_us.follower",
            t.rtt_write_by_shard
                .get_mut(&(crate::deploy::FOLLOWER as u16)),
        );
        m.put(
            "cluster.write_failures.follower",
            r.out.write_failures_by_conn[1] as f64,
            "count",
        );
        m.p50("cluster.replication_lag_ms", &mut r.out.lag, 1e6, "ms");
        // Stale follower reads come from the span-free half: the traced
        // half waits for each coordinator write to reach the follower.
        m.put("cluster.stale_reads", plain.out.stale_reads as f64, "count");
        m.put(
            "cluster.gossip_rounds",
            r.counters.gossip_rounds as f64,
            "count",
        );
        m.put(
            "cluster.view_changes",
            r.counters.view_epochs as f64,
            "count",
        );
    }

    let mut residual_read = None;
    for kind in Kind::ALL {
        let k = kind as usize;
        let residual = print_budget(kind, &mut t, codec_p50[k]);
        if kind == Kind::Read {
            residual_read = residual;
        }
        let traced_p50 = t.total[k].percentile(50.0);
        let plain_p50 = plain.out.pooled(kind).percentile(50.0);
        if let (Some(a), Some(b)) = (traced_p50, plain_p50) {
            m.put(
                format!("trace.overhead_pct.{}", kind.label()),
                100.0 * (a.value - b.value) / b.value,
                "%",
            );
        }
    }
    if let Some(res) = residual_read {
        m.put("trace.residual_us", res, "us");
    }
    m.alias(
        "net.client.rtt_us.main_op",
        &format!("net.client.rtt_us.{main}"),
    );
    m.alias("hdns.main_op_us", &format!("hdns.{main}_us"));
    m.alias(
        "trace.overhead_pct.main_op",
        &format!("trace.overhead_pct.{main}"),
    );

    println!(
        "per-layer metrics (span-free half: {} attempted; traced half: {} attempted, {} failed):",
        plain.out.attempted, r.out.attempted, r.out.failed
    );
    m.print();
    let mut violations = plain.violations;
    violations.append(&mut r.violations);
    let count = plain.out.violation_count + r.out.violation_count;
    print_violations(&violations, count);
    Ok(finish(
        workload,
        &m,
        &PER_LAYER,
        violations.is_empty(),
        plain.out.attempted + r.out.attempted,
        plain.out.failed + r.out.failed,
    ))
}
