//! Fuzz-style hardening for the wire decoders: arbitrary, malformed, or
//! truncated bytes must surface as errors — never panics, never huge
//! allocations from attacker-controlled length prefixes — and every
//! well-formed envelope must round-trip exactly.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rndi_core::attrs::{AttrMod, Attribute, Attributes};
use rndi_core::op::ALL_OP_KINDS;
use rndi_core::value::StoredValue;
use rndi_net::conn::{FrameBuf, ServerConn};
use rndi_net::proto::{self, Envelope, EnvelopeBody};
use rndi_obs::TraceCtx;

/// Drain every frame the reassembler can produce; an error ends the
/// stream (the connection would close).
fn drain(fb: &mut FrameBuf) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while let Ok(Some(frame)) = fb.next_frame() {
        frames.push(frame);
    }
    frames
}

proptest! {
    /// Arbitrary bytes through the frame reassembler: error, frame, or
    /// "need more", never a panic.
    #[test]
    fn framebuf_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut fb = FrameBuf::new();
        fb.push(&bytes);
        let _ = drain(&mut fb);
    }

    /// A length prefix promising more than the cap is rejected before any
    /// allocation, regardless of what follows.
    #[test]
    fn oversized_length_prefix_is_rejected(
        extra in 1u64..u32::MAX as u64 - proto::MAX_FRAME_LEN as u64,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let len = (proto::MAX_FRAME_LEN as u64 + extra) as u32;
        let mut fb = FrameBuf::new();
        fb.push(&len.to_be_bytes());
        fb.push(&tail);
        prop_assert!(fb.next_frame().is_err());
    }

    /// A well-formed frame truncated at any byte yields no frame (and no
    /// partial one); the rest of its bytes complete it exactly.
    #[test]
    fn truncated_frames_wait_for_the_rest(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..68,
    ) {
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&payload);
        let cut = cut.min(framed.len());
        let mut fb = FrameBuf::new();
        fb.push(&framed[..cut]);
        if cut < framed.len() {
            prop_assert_eq!(fb.next_frame().expect("not an error"), None);
        }
        fb.push(&framed[cut..]);
        prop_assert_eq!(drain(&mut fb), vec![payload]);
        prop_assert_eq!(fb.pending(), 0);
    }

    /// Materializing a wire op rejects unknown op kinds as a typed error.
    #[test]
    fn unknown_op_kinds_error(kind in "[a-z]{1,12}") {
        let known = ALL_OP_KINDS.iter().any(|k| k.label() == kind);
        let op = proto::WireOp {
            kind,
            name: "a".into(),
            payload: proto::WirePayload::None,
            attrs: None,
            meta: BTreeMap::new(),
        };
        prop_assert_eq!(proto::decode_op(&op).is_ok(), known);
        prop_assert_eq!(
            proto::bin::encode_envelope(&Envelope {
                req_id: 1,
                body: EnvelopeBody::Call { op: Box::new(op), deadline_ms: 0, trace: None },
            })
            .is_ok(),
            known
        );
    }
}

// ------------------------------------------------ v2 binary envelope --

fn arb_stored() -> impl Strategy<Value = StoredValue> {
    prop_oneof![
        Just(StoredValue::Null),
        "[ -~]{0,16}".prop_map(StoredValue::Str),
        any::<i64>().prop_map(StoredValue::I64),
        // Constructed from an integer so the value is never NaN (which
        // would defeat the equality assertion, not the codec).
        any::<i32>().prop_map(|i| StoredValue::F64(f64::from(i) / 8.0)),
        any::<bool>().prop_map(StoredValue::Bool),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(StoredValue::Bytes),
        ("[a-z]{1,6}", any::<bool>()).prop_map(|(k, v)| {
            StoredValue::Json(serde_json::Value::Object(
                [(k, serde_json::Value::Bool(v))].into_iter().collect(),
            ))
        }),
    ]
}

fn arb_attrs() -> impl Strategy<Value = Attributes> {
    proptest::collection::btree_map("[a-z]{1,8}", "[ -~]{0,12}", 0..4).prop_map(|m| {
        let mut attrs = Attributes::new();
        for (k, v) in m {
            attrs = attrs.with(k, v.as_str());
        }
        attrs
    })
}

fn arb_payload() -> impl Strategy<Value = proto::WirePayload> {
    prop_oneof![
        Just(proto::WirePayload::None),
        arb_stored().prop_map(proto::WirePayload::Value),
        (
            proptest::collection::vec(any::<u8>(), 0..32),
            "[a-zA-Z.]{0,16}"
        )
            .prop_map(|(bytes, class_name)| proto::WirePayload::Wire { bytes, class_name }),
        (arb_stored(), "[a-zA-Z.]{0,16}")
            .prop_map(|(value, class_name)| { proto::WirePayload::Stored { value, class_name } }),
        "[ -~]{0,16}".prop_map(proto::WirePayload::NewName),
        proptest::collection::vec(
            prop_oneof![
                ("[a-z]{1,8}", "[ -~]{0,8}")
                    .prop_map(|(id, v)| AttrMod::Add(Attribute::single(id, v.as_str()))),
                ("[a-z]{1,8}", "[ -~]{0,8}")
                    .prop_map(|(id, v)| AttrMod::Replace(Attribute::single(id, v.as_str()))),
                "[a-z]{1,8}".prop_map(AttrMod::Remove),
                "[a-z]{1,8}".prop_map(|id| AttrMod::RemoveValues(Attribute::new(id))),
            ],
            0..3
        )
        .prop_map(proto::WirePayload::Mods),
        (
            "[(a-z=*)]{0,12}",
            prop_oneof![Just("object"), Just("onelevel"), Just("subtree")],
            any::<u64>(),
            proptest::option::of(proptest::collection::vec(
                "[a-z]{1,6}".prop_map(String::from),
                0..3
            )),
            any::<bool>(),
        )
            .prop_map(
                |(filter, scope, count_limit, return_attrs, return_values)| {
                    proto::WirePayload::Query {
                        filter,
                        scope: scope.to_string(),
                        count_limit,
                        return_attrs,
                        return_values,
                    }
                }
            ),
    ]
}

fn arb_wire_op() -> impl Strategy<Value = proto::WireOp> {
    (
        0..ALL_OP_KINDS.len(),
        "[ -~]{0,24}",
        arb_payload(),
        proptest::option::of(arb_attrs()),
        proptest::collection::btree_map("[a-z.]{1,10}", "[ -~]{0,16}", 0..3),
    )
        .prop_map(|(kind, name, payload, attrs, meta)| proto::WireOp {
            kind: ALL_OP_KINDS[kind].label().to_string(),
            name,
            payload,
            attrs,
            meta,
        })
}

fn arb_wire_error() -> impl Strategy<Value = proto::WireError> {
    let s = || "[ -~]{0,20}".prop_map(String::from);
    prop_oneof![
        s().prop_map(|name| proto::WireError::NameNotFound { name }),
        s().prop_map(|name| proto::WireError::AlreadyBound { name }),
        s().prop_map(|name| proto::WireError::NotAContext { name }),
        s().prop_map(|name| proto::WireError::ContextExpected { name }),
        (s(), s()).prop_map(|(name, reason)| proto::WireError::InvalidName { name, reason }),
        (s(), s())
            .prop_map(|(filter, reason)| proto::WireError::InvalidSearchFilter { filter, reason }),
        s().prop_map(|operation| proto::WireError::NotSupported { operation }),
        s().prop_map(|detail| proto::WireError::NoPermission { detail }),
        s().prop_map(|detail| proto::WireError::ServiceFailure { detail }),
        s().prop_map(|detail| proto::WireError::Timeout { detail }),
        s().prop_map(|scheme| proto::WireError::NoProvider { scheme }),
        s().prop_map(|detail| proto::WireError::ConfigurationError { detail }),
        s().prop_map(|name| proto::WireError::ContextNotEmpty { name }),
        s().prop_map(|name| proto::WireError::LeaseExpired { name }),
        (arb_stored(), s()).prop_map(|(resolved, remaining)| proto::WireError::Continue {
            resolved,
            remaining
        }),
        any::<u64>().prop_map(|depth| proto::WireError::FederationDepthExceeded { depth }),
        any::<u64>().prop_map(|retry_after_ms| proto::WireError::Overloaded { retry_after_ms }),
    ]
}

fn arb_outcome() -> impl Strategy<Value = proto::WireOutcome> {
    prop_oneof![
        Just(proto::WireOutcome::Done),
        arb_stored().prop_map(proto::WireOutcome::Value),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(proto::WireOutcome::Wire),
        proptest::collection::vec(
            ("[ -~]{0,12}", "[a-zA-Z.]{0,12}")
                .prop_map(|(name, class_name)| { proto::WireNameClass { name, class_name } }),
            0..3
        )
        .prop_map(proto::WireOutcome::Names),
        proptest::collection::vec(
            ("[ -~]{0,12}", arb_stored())
                .prop_map(|(name, value)| proto::WireBinding { name, value }),
            0..3
        )
        .prop_map(proto::WireOutcome::Bindings),
        arb_attrs().prop_map(proto::WireOutcome::Attrs),
        proptest::collection::vec(
            (
                "[ -~]{0,12}",
                proptest::option::of(arb_stored()),
                arb_attrs()
            )
                .prop_map(|(name, value, attrs)| proto::WireHit { name, value, attrs }),
            0..3
        )
        .prop_map(proto::WireOutcome::Found),
    ]
}

fn arb_trace() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(trace_id, span_id, parent_span, depth)| TraceCtx {
            trace_id,
            span_id,
            parent_span,
            depth,
        },
    )
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        any::<u64>(),
        prop_oneof![
            Just(EnvelopeBody::Ping),
            Just(EnvelopeBody::Pong),
            (
                arb_wire_op(),
                any::<u64>(),
                proptest::option::of(arb_trace())
            )
                .prop_map(|(op, deadline_ms, trace)| EnvelopeBody::Call {
                    op: Box::new(op),
                    deadline_ms,
                    trace,
                }),
            arb_outcome().prop_map(EnvelopeBody::Ok),
            arb_wire_error().prop_map(EnvelopeBody::Err),
        ],
    )
        .prop_map(|(req_id, body)| Envelope { req_id, body })
}

proptest! {
    /// Every envelope — all op kinds, all payload shapes, all outcome and
    /// error variants — round-trips the binary codec exactly.
    #[test]
    fn binary_envelope_roundtrip(env in arb_envelope()) {
        let bytes = proto::bin::encode_envelope(&env).expect("encodes");
        let back = proto::bin::decode_envelope(&bytes).expect("decodes");
        prop_assert_eq!(back, env);
    }

    /// Arbitrary bytes through the binary decoder: typed error or valid
    /// envelope, never a panic.
    #[test]
    fn binary_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        let _ = proto::bin::decode_envelope(&bytes);
    }

    /// A well-formed binary envelope truncated at any byte is an error,
    /// and appending trailing garbage is too (frames are exact).
    #[test]
    fn truncated_binary_envelopes_error(env in arb_envelope(), cut in 0usize..4096) {
        let bytes = proto::bin::encode_envelope(&env).expect("encodes");
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            prop_assert!(proto::bin::decode_envelope(&bytes[..cut]).is_err());
        }
        let mut padded = bytes;
        padded.push(0);
        prop_assert!(proto::bin::decode_envelope(&padded).is_err());
    }

    /// Negotiation is strict: a connection whose first four bytes are
    /// anything but the exact v2 preamble is closed without an ack.
    #[test]
    fn only_the_v2_preamble_opens_a_connection(first4 in any::<[u8; 4]>()) {
        let mut conn = ServerConn::new();
        if first4 == proto::PREAMBLE_V2 {
            prop_assert!(conn.receive(&first4).expect("v2 preamble").is_empty());
            prop_assert_eq!(conn.pending_out(), &proto::PREAMBLE_V2[..]);
        } else {
            prop_assert!(conn.receive(&first4).is_err());
            prop_assert!(conn.pending_out().is_empty());
        }
    }

    /// A bare frame — a length prefix with no preamble in front — is one
    /// such opening, whatever its length and payload.
    #[test]
    fn a_bare_frame_is_rejected(
        len in 0u32..=proto::MAX_FRAME_LEN as u32,
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let mut conn = ServerConn::new();
        prop_assert!(conn.receive(&bytes).is_err());
        prop_assert!(conn.pending_out().is_empty());
    }

    /// A server connection fed an unknown-version preamble closes before
    /// buffering anything further; a hostile frame length after a valid
    /// preamble is rejected before allocation.
    #[test]
    fn server_conn_rejects_bad_preamble_and_oversized_frames(
        version in any::<u8>(),
        oversize in 1u32..1024,
    ) {
        if version != proto::PREAMBLE_V2[3] {
            let mut conn = ServerConn::new();
            let preamble = [b'R', b'N', b'I', version];
            prop_assert!(conn.receive(&preamble).is_err());
        }
        let mut fb = FrameBuf::new();
        fb.push(&(proto::MAX_FRAME_LEN as u32 + oversize).to_be_bytes());
        prop_assert!(fb.next_frame().is_err());
    }
}
