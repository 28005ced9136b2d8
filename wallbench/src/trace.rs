//! In-memory spans recorded around calls into each layer, and the per-op
//! decomposition of an op's time into layer self times.
//!
//! Every span carries the op's trace id, which the program already
//! propagates from the caller through the client pipeline, across the
//! wire and into the server-side pipeline; spans of one op therefore
//! group by trace id even when they were recorded on different threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's op kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Read,
    Write,
    Search,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Read, Kind::Write, Kind::Search];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Search => "search",
        }
    }
}

/// Layer boundaries a span can sit on, outermost first. The order is the
/// nesting order: a span's children sit on the next layer present in
/// its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The caller's dispatch into the client pipeline (the op's total).
    Op,
    /// `ShardRouter::execute`, under the client pipeline.
    Router,
    /// A `NetClient` call: the client-side round trip to one server.
    Net,
    /// The server-side pipeline handed to `NetServer`.
    ServerPipeline,
    /// The raw HDNS provider backend under the server-side pipeline.
    Backend,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Op,
        Layer::Router,
        Layer::Net,
        Layer::ServerPipeline,
        Layer::Backend,
    ];

    /// Layers at or below this one belong to one server (shard) only.
    fn per_shard(self) -> bool {
        self >= Layer::Net
    }
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub layer: Layer,
    pub kind: Kind,
    /// Which server (shard) the span belongs to; `0` with one server.
    pub shard: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Result size where it matters (search hits at the backend).
    pub items: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const STRIPES: usize = 16;

/// Spans kept in memory until the run ends. Threads append to one of
/// several stripes so callers and server loops do not queue on a lock.
pub struct SpanSink {
    epoch: Instant,
    stripes: Vec<Mutex<Vec<Span>>>,
}

fn stripe_of_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl SpanSink {
    pub fn new() -> Self {
        SpanSink {
            epoch: Instant::now(),
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Vec::with_capacity(1 << 14)))
                .collect(),
        }
    }

    /// Nanoseconds since the sink was made (the span clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The span clock reading of an instant taken after the sink was made.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.stripes[stripe_of_thread()]
            .lock()
            .expect("span stripe poisoned by a panicking recorder")
            .push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for stripe in &self.stripes {
            all.append(&mut stripe.lock().expect("span stripe poisoned"));
        }
        all
    }
}

/// Spans grouped by the op (trace) they belong to, in trace-id order.
pub fn by_trace(mut spans: Vec<Span>) -> Vec<Vec<Span>> {
    spans.sort_unstable_by_key(|s| s.trace);
    spans
        .chunk_by(|a, b| a.trace == b.trace)
        .map(<[Span]>::to_vec)
        .collect()
}

/// One op's time split along its critical path: each layer's self time is
/// its span minus the slowest span on the next layer down (for a scatter,
/// the slowest leg; the path then follows that leg's shard).
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    pub kind: Kind,
    pub total_ns: u64,
    /// Self time per layer on the path, outermost first; never negative.
    pub selves: Vec<(Layer, u64)>,
    /// `total_ns` minus the sum of `selves`: nonzero only when a child
    /// span outlasted its parent (clock skew between threads), so the
    /// layers plus the residual always equal the total.
    pub residual_ns: i64,
}

/// Decompose one op's spans. `None` when the op's own span is missing.
pub fn decompose(spans: &[Span]) -> Option<Breakdown> {
    let root = spans.iter().find(|s| s.layer == Layer::Op)?;
    let mut selves = Vec::new();
    let mut current = *root;
    loop {
        let below = spans.iter().filter(|s| {
            s.layer > current.layer && (!current.layer.per_shard() || s.shard == current.shard)
        });
        let next_layer = below.clone().map(|s| s.layer).min();
        let child = next_layer.and_then(|layer| {
            below
                .filter(|s| s.layer == layer)
                .max_by_key(|s| s.dur())
                .copied()
        });
        match child {
            Some(child) => {
                selves.push((current.layer, current.dur().saturating_sub(child.dur())));
                current = child;
            }
            None => {
                selves.push((current.layer, current.dur()));
                break;
            }
        }
    }
    let sum: u64 = selves.iter().map(|(_, v)| v).sum();
    Some(Breakdown {
        kind: root.kind,
        total_ns: root.dur(),
        selves,
        residual_ns: root.dur() as i64 - sum as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, shard: u16, start: u64, end: u64) -> Span {
        Span {
            trace: 7,
            layer,
            kind: Kind::Read,
            shard,
            start_ns: start,
            end_ns: end,
            items: 0,
        }
    }

    fn check_sums(b: &Breakdown) {
        let sum: i64 = b.selves.iter().map(|(_, v)| *v as i64).sum();
        assert_eq!(sum + b.residual_ns, b.total_ns as i64, "{b:?}");
    }

    #[test]
    fn chain_self_times_subtract_the_child() {
        let spans = [
            span(Layer::Backend, 0, 40, 50),
            span(Layer::Op, 0, 0, 100),
            span(Layer::Net, 0, 10, 90),
            span(Layer::ServerPipeline, 0, 30, 60),
        ];
        let b = decompose(&spans).unwrap();
        assert_eq!(
            b.selves,
            vec![
                (Layer::Op, 20),
                (Layer::Net, 50),
                (Layer::ServerPipeline, 20),
                (Layer::Backend, 10),
            ]
        );
        assert_eq!(b.residual_ns, 0);
        check_sums(&b);
    }

    #[test]
    fn scatter_follows_the_slowest_leg_and_its_shard() {
        let spans = [
            span(Layer::Op, 0, 0, 1000),
            span(Layer::Router, 0, 50, 950),
            span(Layer::Net, 0, 100, 400),
            span(Layer::Net, 1, 100, 800),
            span(Layer::Net, 2, 100, 500),
            // Shard 0's server work is longer than shard 1's, but shard 1
            // holds the slowest leg, so its spans are on the path.
            span(Layer::ServerPipeline, 0, 150, 390),
            span(Layer::ServerPipeline, 1, 200, 300),
            span(Layer::Backend, 0, 160, 380),
            span(Layer::Backend, 1, 210, 260),
        ];
        let b = decompose(&spans).unwrap();
        assert_eq!(
            b.selves,
            vec![
                (Layer::Op, 100),
                (Layer::Router, 200),
                (Layer::Net, 600),
                (Layer::ServerPipeline, 50),
                (Layer::Backend, 50),
            ]
        );
        check_sums(&b);
    }

    #[test]
    fn missing_layers_fold_into_the_deepest_present_one() {
        // The op failed before reaching the server: no server spans.
        let spans = [span(Layer::Op, 0, 0, 100), span(Layer::Net, 0, 5, 95)];
        let b = decompose(&spans).unwrap();
        assert_eq!(b.selves, vec![(Layer::Op, 10), (Layer::Net, 90)]);
        check_sums(&b);
        assert!(decompose(&[span(Layer::Net, 0, 0, 1)]).is_none());
    }

    #[test]
    fn a_child_outlasting_its_parent_never_yields_negative_self_time() {
        let spans = [span(Layer::Op, 0, 0, 100), span(Layer::Net, 0, 0, 130)];
        let b = decompose(&spans).unwrap();
        assert_eq!(b.selves, vec![(Layer::Op, 0), (Layer::Net, 130)]);
        assert_eq!(b.residual_ns, -30);
        check_sums(&b);
    }

    #[test]
    fn sink_keeps_spans_from_every_thread() {
        let sink = SpanSink::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..100 {
                        sink.record(span(Layer::Op, t, i, i + 1));
                    }
                });
            }
        });
        let all = sink.drain();
        assert_eq!(all.len(), 400);
        assert!(sink.drain().is_empty());
        let groups = by_trace(all);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 400);
    }
}
