//! Codec timings on the workload's own ops and outcomes, by calling the
//! wire layers `rndi::net::proto` and `rndi::net::conn` directly: the same
//! encode and decode steps a call goes through, without the socket.

use std::time::Instant;

use rndi::core::op::{NamingOp, OpOutcome, RoutingKey};
use rndi::net::conn::{ClientDecoder, ClientEncoder, InboundMsg, ResponseBody, ServerConn};
use rndi::net::proto::{self, Envelope, EnvelopeBody};
use rndi::obs::TraceCtx;
use rndi::shard::ShardMap;

use crate::stats::Samples;

/// Per-call codec cost: request plus response, each side.
#[derive(Default)]
pub struct CodecTimes {
    /// Client request encode + server response encode, ns per call.
    pub encode_ns: Samples,
    /// Server request decode + client response decode, ns per call.
    pub decode_ns: Samples,
    /// Framed request bytes per call.
    pub req_bytes: Samples,
    /// Framed response bytes per call.
    pub resp_bytes: Samples,
}

/// A scatter's sampled (op, merged reply) pairs as the per-shard calls
/// that crossed the wire: each name lives on exactly one shard, so the
/// merged hits split back into the slices the router merged.
pub fn per_leg(sample: &[(NamingOp, OpOutcome)], map: &ShardMap) -> Vec<(NamingOp, OpOutcome)> {
    let mut out = Vec::new();
    for (op, outcome) in sample {
        let OpOutcome::Found(hits) = outcome else {
            out.push((op.clone(), outcome.clone()));
            continue;
        };
        let mut legs = vec![Vec::new(); map.len()];
        for hit in hits {
            let probe = crate::workload::lookup(&hit.name);
            let shard = match probe.routing_key() {
                RoutingKey::Shard(key) => map.owner_index(key),
                RoutingKey::Scatter => 0,
            };
            legs[shard].push(hit.clone());
        }
        out.extend(legs.into_iter().map(|l| (op.clone(), OpOutcome::Found(l))));
    }
    out
}

/// Time every sampled call through the v2 codec. Fails if the program's
/// codec cannot round-trip an op or outcome the workload produced.
pub fn time_calls(sample: &[(NamingOp, OpOutcome)]) -> Result<CodecTimes, String> {
    let mut out = CodecTimes::default();
    let mut client_enc = ClientEncoder::new();
    let mut client_dec = ClientDecoder::new();
    let mut server = ServerConn::new();
    // Negotiate with one ping so the timed frames carry no preamble.
    let ping = client_enc
        .encode(&Envelope {
            req_id: 0,
            body: EnvelopeBody::Ping,
        })
        .map_err(|e| format!("first frame: {e}"))?;
    server
        .receive(&ping)
        .map_err(|e| format!("first frame: {e}"))?;
    client_dec
        .receive(server.pending_out())
        .map_err(|e| format!("preamble ack: {e}"))?;
    let acked = server.pending_out().len();
    server.consume_out(acked);

    for (op, outcome) in sample {
        let ctx = TraceCtx::root();
        // Request: client encode.
        let t0 = Instant::now();
        let wire_op = proto::encode_op_as(op, Some(ctx)).map_err(|e| format!("encode op: {e}"))?;
        let req_id = client_enc.next_req_id();
        let frame = client_enc
            .encode(&Envelope {
                req_id,
                body: EnvelopeBody::Call {
                    op: Box::new(wire_op),
                    deadline_ms: 5_000,
                    trace: Some(ctx),
                },
            })
            .map_err(|e| format!("encode request: {e}"))?;
        let t1 = Instant::now();
        // Request: server decode.
        let inbound = server
            .receive(&frame)
            .map_err(|e| format!("decode request: {e}"))?;
        let decoded = match inbound.as_slice() {
            [one] => match &one.msg {
                InboundMsg::Call { op, .. } => {
                    proto::decode_op(op).map_err(|e| format!("decode op: {e}"))?
                }
                other => return Err(format!("request decoded as {other:?}")),
            },
            many => return Err(format!("one request decoded as {} messages", many.len())),
        };
        let t2 = Instant::now();
        // Response: server encode.
        let wire_out =
            proto::encode_outcome(outcome).map_err(|e| format!("encode outcome: {e}"))?;
        server
            .push_response(req_id, ResponseBody::Ok(wire_out))
            .map_err(|e| format!("encode response: {e}"))?;
        let resp = server.pending_out().to_vec();
        server.consume_out(resp.len());
        let t3 = Instant::now();
        // Response: client decode.
        let envelopes = client_dec
            .receive(&resp)
            .map_err(|e| format!("decode response: {e}"))?;
        match envelopes.as_slice() {
            [Envelope {
                body: EnvelopeBody::Ok(w),
                ..
            }] => {
                proto::decode_outcome(w).map_err(|e| format!("decode outcome: {e}"))?;
            }
            other => return Err(format!("response decoded as {other:?}")),
        }
        let t4 = Instant::now();
        if decoded.kind != op.kind || decoded.name != op.name {
            return Err(format!("op {:?} decoded as {:?}", op.kind, decoded.kind));
        }
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        out.encode_ns.push(ns(t0, t1) + ns(t2, t3));
        out.decode_ns.push(ns(t1, t2) + ns(t3, t4));
        out.req_bytes.push(frame.len() as u64);
        out.resp_bytes.push(resp.len() as u64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn times_and_sizes_every_call() {
        let sample = vec![
            (
                workload::lookup("a"),
                OpOutcome::Value(rndi::core::value::BoundValue::str("x".repeat(64))),
            ),
            (workload::rebind("b", "y"), OpOutcome::Done),
        ];
        let t = time_calls(&sample).unwrap();
        assert_eq!(t.encode_ns.len(), 2);
        assert_eq!(t.decode_ns.len(), 2);
        let mut resp = t.resp_bytes.clone();
        // The 64-byte value travels in the lookup's response.
        assert!(resp.percentile(100.0).unwrap().value > 64.0);
    }
}
