//! `ProviderBackend` wrappers that time calls into one layer from outside.
//!
//! A wrapper forwards every trait method the wrapped component
//! answers (`provider_id`, `compound_syntax`, `event_hub`,
//! `wire_format`), so a pipeline composed over it assembles the same
//! interceptor stack as over the bare component.

use std::sync::Arc;

use rndi::core::error::Result;
use rndi::core::event::EventHub;
use rndi::core::name::CompoundSyntax;
use rndi::core::op::{NamingOp, OpKind, OpOutcome};
use rndi::core::spi::{ProviderBackend, WireFormat};

use crate::trace::{Kind, Layer, Span, SpanSink};

/// The benchmark kind of a program op kind (the workloads issue only
/// these three, plus attribute binds during set-up).
pub fn kind_of(op: OpKind) -> Kind {
    match op {
        OpKind::Lookup => Kind::Read,
        OpKind::Search => Kind::Search,
        _ => Kind::Write,
    }
}

pub struct Timed<B: ProviderBackend + ?Sized> {
    inner: Arc<B>,
    layer: Layer,
    shard: u16,
    sink: Arc<SpanSink>,
}

impl<B: ProviderBackend + ?Sized> Timed<B> {
    pub fn new(inner: Arc<B>, layer: Layer, shard: u16, sink: Arc<SpanSink>) -> Arc<Self> {
        Arc::new(Timed {
            inner,
            layer,
            shard,
            sink,
        })
    }
}

impl<B: ProviderBackend + ?Sized> ProviderBackend for Timed<B> {
    fn execute(&self, op: &NamingOp) -> Result<OpOutcome> {
        let start_ns = self.sink.now_ns();
        let result = self.inner.execute(op);
        let end_ns = self.sink.now_ns();
        // Ops issued without a trace context (none are, in a run) would
        // not group with their op; they are recorded under trace 0 and
        // dropped by the decomposition, which needs the op's own span.
        let trace = op.trace_ctx().map_or(0, |c| c.trace_id);
        let items = match &result {
            Ok(OpOutcome::Found(hits)) => hits.len() as u32,
            _ => 0,
        };
        self.sink.record(Span {
            trace,
            layer: self.layer,
            kind: kind_of(op.kind),
            shard: self.shard,
            start_ns,
            end_ns,
            items,
        });
        result
    }

    fn provider_id(&self) -> String {
        self.inner.provider_id()
    }

    fn compound_syntax(&self) -> CompoundSyntax {
        self.inner.compound_syntax()
    }

    fn event_hub(&self) -> Option<Arc<EventHub>> {
        self.inner.event_hub()
    }

    fn wire_format(&self) -> WireFormat {
        self.inner.wire_format()
    }
}
