//! Closed-loop callers: each sends its next op only after the previous
//! reply, checks every answer, and times each dispatch into the client
//! pipeline.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rndi::core::error::Result;
use rndi::core::op::{NamingOp, OpKind, OpOutcome};
use rndi::core::value::BoundValue;
use rndi::obs::TraceCtx;

use crate::check::{self, KeyModel};
use crate::deploy::{Deployment, FOLLOWER};
use crate::stats::{Hist, Samples};
use crate::trace::{Kind, Layer, Span, SpanSink};
use crate::workload::{self, Namespace, Rng, Workload, TYPES};

/// Violation messages kept for the report (all are counted).
const VIOLATIONS_KEPT: usize = 8;
/// (op, outcome) pairs each caller keeps per op kind for the codec
/// timings: every `CODEC_EVERY`th measured op of the kind, up to the cap.
const CODEC_SAMPLE: usize = 256;
const CODEC_EVERY: u64 = 4;

/// The measured window is cut into this many equal time windows; the
/// end-to-end figures are medians over them (see [`crate::stats::windowed`]).
pub const WINDOWS: usize = 20;

/// What one caller measured in the measured window.
pub struct CallerOut {
    /// Latency per time window, per op kind.
    pub lat: Vec<[Hist; 3]>,
    /// Ops attempted per time window.
    pub ops: [u64; WINDOWS],
    pub attempted: u64,
    pub failed: u64,
    /// `replicated`: rebind latency and failures by connection
    /// (coordinator, follower).
    pub write_by_conn: [Hist; 2],
    pub write_failures_by_conn: [u64; 2],
    pub violations: Vec<String>,
    pub violation_count: u64,
    pub codec_sample: [Vec<(NamingOp, OpOutcome)>; 3],
    /// `replicated`: follower lookups that returned an older value than
    /// the caller's last acknowledged write.
    pub stale_reads: u64,
    /// `replicated`, traced: coordinator ack → value visible on the
    /// follower's replica, in ns.
    pub lag: Samples,
    /// What each key may hold, as far as this caller knows; kept only by
    /// workloads that write.
    pub models: Vec<KeyModel>,
}

impl Default for CallerOut {
    fn default() -> Self {
        CallerOut {
            lat: (0..WINDOWS).map(|_| Default::default()).collect(),
            ops: [0; WINDOWS],
            attempted: 0,
            failed: 0,
            write_by_conn: Default::default(),
            write_failures_by_conn: [0; 2],
            violations: Vec::new(),
            violation_count: 0,
            codec_sample: Default::default(),
            stale_reads: 0,
            lag: Samples::default(),
            models: Vec::new(),
        }
    }
}

impl CallerOut {
    /// One op kind's latency over the whole measured window.
    pub fn pooled(&self, kind: Kind) -> Hist {
        let mut all = Hist::default();
        for w in &self.lat {
            all.merge(&w[kind as usize]);
        }
        all
    }

    /// One op kind's latency per time window.
    pub fn windows(&self, kind: Kind) -> Vec<Hist> {
        self.lat.iter().map(|w| w[kind as usize].clone()).collect()
    }

    fn violation(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(msg);
        }
    }

    pub fn merge(outs: Vec<CallerOut>) -> CallerOut {
        let mut all = CallerOut::default();
        for o in outs {
            for (all_w, o_w) in all.lat.iter_mut().zip(&o.lat) {
                for k in 0..3 {
                    all_w[k].merge(&o_w[k]);
                }
            }
            for w in 0..WINDOWS {
                all.ops[w] += o.ops[w];
            }
            for c in 0..2 {
                all.write_by_conn[c].merge(&o.write_by_conn[c]);
                all.write_failures_by_conn[c] += o.write_failures_by_conn[c];
            }
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.violation_count += o.violation_count;
            all.violations.extend(o.violations);
            all.violations.truncate(VIOLATIONS_KEPT);
            for (all_k, o_k) in all.codec_sample.iter_mut().zip(o.codec_sample) {
                all_k.extend(o_k);
            }
            all.stale_reads += o.stale_reads;
            all.lag.extend(&o.lag);
            all.models.extend(o.models);
        }
        all
    }
}

/// The run's timing of one phase.
pub struct Phase<'a> {
    pub workload: Workload,
    pub dep: &'a Deployment,
    pub ns: &'a Namespace,
    pub seed: u64,
    pub sink: Option<&'a Arc<SpanSink>>,
    /// The measured window: ops before it warm up, and callers stop at
    /// its end.
    pub measure_from: Instant,
    pub end: Instant,
}

struct Caller<'a> {
    phase: &'a Phase<'a>,
    rng: Rng,
    measure_from: Instant,
    /// Length of one time window.
    window: Duration,
    measuring: bool,
    n_ops: [u64; 3],
    /// `replicated`: every value the caller preloaded or wrote, to tell a
    /// stale follower read from a wrong one.
    written: HashSet<String>,
    out: CallerOut,
}

impl Caller<'_> {
    /// Dispatch `op` into client pipeline `target`, timing the call.
    fn exec(&mut self, target: usize, mut op: NamingOp) -> Result<OpOutcome> {
        let kind = crate::layers::kind_of(op.kind);
        let ctx = TraceCtx::root();
        op.set_trace_ctx(&ctx);
        let start = Instant::now();
        self.measuring = start >= self.measure_from;
        let result = self.phase.dep.clients[target].execute(&op);
        let took = start.elapsed();
        if let Some(sink) = self.phase.sink {
            let start_ns = sink.ns_at(start);
            sink.record(Span {
                trace: ctx.trace_id,
                layer: Layer::Op,
                kind,
                shard: 0,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
                items: 0,
            });
        }
        if self.measuring {
            let w =
                ((start - self.measure_from).as_nanos() / self.window.as_nanos().max(1)) as usize;
            let w = w.min(WINDOWS - 1);
            self.out.lat[w][kind as usize].record(took.as_nanos() as u64);
            self.out.ops[w] += 1;
            self.out.attempted += 1;
            if result.is_err() {
                self.out.failed += 1;
            }
            let k = kind as usize;
            self.n_ops[k] += 1;
            if self.phase.sink.is_some()
                && self.n_ops[k].is_multiple_of(CODEC_EVERY)
                && self.out.codec_sample[k].len() < CODEC_SAMPLE
            {
                if let Ok(outcome) = &result {
                    self.out.codec_sample[k].push((op, outcome.clone()));
                }
            }
        }
        result
    }

    fn read(&mut self, target: usize, key: usize) -> Option<String> {
        let name = &self.phase.ns.names[key];
        match self.exec(target, workload::lookup(name)) {
            Ok(outcome) => match outcome.into_value(OpKind::Lookup) {
                Ok(BoundValue::Str(s)) => Some(s),
                Ok(other) => {
                    self.out
                        .violation(format!("lookup {name}: non-string {}", other.class_name()));
                    None
                }
                Err(e) => {
                    self.out.violation(format!("lookup {name}: {e}"));
                    None
                }
            },
            Err(_) => None,
        }
    }

    fn checked_read(&mut self, target: usize, key: usize) {
        if let Some(got) = self.read(target, key) {
            let name = &self.phase.ns.names[key];
            // Read-only workloads keep no models: the preloaded value holds.
            let (acked, maybe) = match self.out.models.get(key) {
                Some(m) => (m.acked(), m.maybe()),
                None => (self.phase.ns.values[key].as_str(), &[][..]),
            };
            if let Err(e) = check::check_read(name, acked, maybe, &BoundValue::Str(got)) {
                self.out.violation(e);
            }
        }
    }

    /// Rebind `key` to a fresh value; returns whether it was acknowledged.
    fn write(&mut self, target: usize, key: usize) -> bool {
        let value = self.rng.value();
        if self.phase.workload == Workload::Replicated {
            self.written.insert(value.clone());
        }
        let op = workload::rebind(&self.phase.ns.names[key], &value);
        let start = Instant::now();
        let result = self.exec(target, op);
        let took = start.elapsed().as_nanos() as u64;
        let acked = match result {
            Ok(outcome) => match outcome.into_done(OpKind::Rebind) {
                Ok(()) => true,
                Err(e) => {
                    self.out.violation(format!("rebind: {e}"));
                    false
                }
            },
            Err(_) => false,
        };
        if self.phase.workload == Workload::Replicated && self.measuring {
            self.out.write_by_conn[target].record(took);
            if !acked {
                self.out.write_failures_by_conn[target] += 1;
            }
        }
        let model = &mut self.out.models[key];
        if acked {
            model.on_ack(value);
        } else {
            model.on_fail(value);
        }
        acked
    }

    fn search(&mut self) {
        let t = self.rng.below(TYPES);
        let (filter, op) = workload::search(t);
        if let Ok(outcome) = self.exec(0, op) {
            let result = outcome
                .into_found(OpKind::Search)
                .map_err(|e| format!("search {filter}: {e}"))
                .and_then(|hits| check::check_search(&filter, &self.phase.ns.by_type[t], &hits));
            if let Err(e) = result {
                self.out.violation(e);
            }
        }
    }

    /// One `replicated` step: a rebind through the coordinator or the
    /// follower (alternating), then a lookup on the follower.
    fn replicated_step(&mut self, step: u64) {
        let key = self.rng.below(self.phase.ns.names.len());
        let target = (step % 2) as usize;
        let acked = self.write(target, key);
        let acked_at = Instant::now();
        if acked && target == 0 && self.phase.sink.is_some() {
            self.wait_visible_on_follower(key, acked_at);
        }
        if let Some(got) = self.read(1, key) {
            let model = &self.out.models[key];
            if !model.accepts(&got) {
                if self.written.contains(&got) {
                    self.out.stale_reads += u64::from(self.measuring);
                } else {
                    self.out.violation(format!(
                        "follower lookup {}: {got:?} was never written",
                        self.phase.ns.names[key]
                    ));
                }
            }
        }
    }

    /// Poll the follower's replica in-process until the acknowledged
    /// value shows; record the lag.
    fn wait_visible_on_follower(&mut self, key: usize, acked_at: Instant) {
        let node = &self.phase.dep.nodes()[FOLLOWER];
        let name = &self.phase.ns.names[key];
        let want = self.out.models[key].acked().to_string();
        let give_up = acked_at + Duration::from_secs(2);
        loop {
            let visible = node.lookup(name).is_some_and(|e| {
                rndi::core::op::codec::unmarshal(&e.value).as_str() == Some(want.as_str())
            });
            if visible {
                if self.measuring {
                    self.out.lag.push(acked_at.elapsed().as_nanos() as u64);
                }
                return;
            }
            if Instant::now() >= give_up {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Run the phase's callers to completion.
pub fn run(phase: &Phase) -> CallerOut {
    let callers = phase.workload.callers();
    let (measure_from, end) = (phase.measure_from, phase.end);
    let n = phase.ns.names.len();
    let outs: Vec<CallerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || {
                    let mut caller = Caller {
                        phase,
                        rng: Rng::new(phase.seed, 1 + c as u64),
                        measure_from,
                        window: (end - measure_from) / WINDOWS as u32,
                        measuring: false,
                        n_ops: [0; 3],
                        written: if phase.workload == Workload::Replicated {
                            phase.ns.values.iter().cloned().collect()
                        } else {
                            HashSet::new()
                        },
                        out: CallerOut {
                            models: if phase.workload.writes() {
                                phase.ns.values.iter().cloned().map(KeyModel::new).collect()
                            } else {
                                Vec::new()
                            },
                            ..CallerOut::default()
                        },
                    };
                    // Keys this caller alone writes: i % callers == c.
                    let owned = (n - c).div_ceil(callers);
                    let mut step = 0u64;
                    while Instant::now() < end {
                        match phase.workload {
                            Workload::PointRead => {
                                let key = caller.rng.below(n);
                                caller.checked_read(0, key);
                            }
                            Workload::WriteHeavy => {
                                let key = c + callers * caller.rng.below(owned);
                                if caller.rng.percent(80) {
                                    caller.write(0, key);
                                } else {
                                    caller.checked_read(0, key);
                                }
                            }
                            Workload::Discovery => {
                                if caller.rng.percent(10) {
                                    caller.search();
                                } else {
                                    let key = caller.rng.below(n);
                                    caller.checked_read(0, key);
                                }
                            }
                            Workload::Replicated => caller.replicated_step(step),
                        }
                        step += 1;
                    }
                    caller.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect()
    });
    CallerOut::merge(outs)
}

/// Bind the namespace through the client pipeline, split over the
/// workload's callers. Fails on the first bind that fails: a run cannot
/// check answers against a namespace it could not load.
///
/// The first bind goes alone, so the client dials its connection before
/// callers share it: two callers racing on an empty pool can each dial
/// one, and runs would then differ in how many connections they use.
pub fn preload(dep: &Deployment, ns: &Namespace, callers: usize) -> Result<()> {
    let n = ns.names.len();
    let bind = |i: usize| -> Result<()> {
        dep.clients[0]
            .execute(&ns.preload_op(i))?
            .into_done(OpKind::Bind)
    };
    bind(0)?;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || -> Result<()> {
                    for i in (1 + c..n).step_by(callers) {
                        bind(i)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("a preload thread panicked"))
    })
}

/// Samples the servers' admission-queue depth while a traced phase runs.
pub struct QueueMonitor {
    pub max_depth: AtomicU64,
    stop: AtomicBool,
}

impl QueueMonitor {
    pub fn new() -> Self {
        QueueMonitor {
            max_depth: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    pub fn watch(&self, dep: &Deployment) {
        while !self.stop.load(Ordering::Relaxed) {
            let depth: u64 = dep.health().iter().map(|h| h.queue_depth).sum();
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}
