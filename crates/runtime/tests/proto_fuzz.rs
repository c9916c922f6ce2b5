//! Fuzz-shaped hardening tests for the wire-facing decoders: no byte
//! string — random, truncated, segmented, or bit-flipped — may ever
//! panic the data-plane decoder ([`WireMessage`]), the stream framing
//! codec ([`FrameDecoder`]), or the control-plane decoder
//! ([`CtrlMsg`]); every rejection must be a structured error.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use remo_core::{AttrId, NodeId};
use remo_runtime::ctrl::{CtrlError, CtrlMsg, CTRL_MAGIC, CTRL_VERSION};
use remo_runtime::framing::{Envelope, FrameDecoder, FrameError, MAX_FRAME_LEN};
use remo_runtime::proto::{DecodeError, WireMessage, WireReading, HEADER_LEN, MAGIC, VERSION};

fn valid_frame(readings: usize) -> Bytes {
    WireMessage::data(
        3,
        NodeId(7),
        99,
        (0..readings)
            .map(|i| WireReading {
                node: NodeId(i as u32),
                attr: AttrId(i as u32 % 5),
                value: i as f64 * 0.25,
                produced: 40 + i as u64,
                contributors: 1,
            })
            .collect(),
    )
    .encode()
}

/// [`WireMessage::decode`], with the header-only peek held to it on
/// the way: whatever the bytes, `peek_kind` must not panic and must
/// return the kind — or the error — the full decode does.
fn decode(frame: Bytes) -> Result<WireMessage, DecodeError> {
    let peeked = WireMessage::peek_kind(&frame);
    let decoded = WireMessage::decode(frame);
    assert_eq!(
        peeked,
        decoded.as_ref().map(|m| m.kind).map_err(Clone::clone)
    );
    decoded
}

proptest! {
    /// Arbitrary byte strings decode to Ok or a structured error —
    /// never a panic, never an unbounded allocation.
    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(0u16..256, 0..512),
    ) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = decode(Bytes::from(raw));
    }

    /// Every strict prefix of a valid frame is rejected with a
    /// structured error; the full frame round-trips.
    #[test]
    fn truncations_are_structured_errors(
        readings in 0usize..12,
        cut in 0u64..u64::MAX,
    ) {
        let frame = valid_frame(readings);
        let len = (cut % frame.len() as u64) as usize; // strict prefix
        let err = decode(frame.slice(0..len)).unwrap_err();
        if len < HEADER_LEN {
            prop_assert_eq!(err, DecodeError::Truncated);
        } else {
            prop_assert!(matches!(err, DecodeError::BadCount(_)));
        }
        prop_assert!(decode(frame).is_ok());
    }

    /// Single-byte corruption never panics, and corrupting the fixed
    /// header fields yields the matching structured error.
    #[test]
    fn bit_flips_never_panic(
        readings in 0usize..8,
        pos in 0u64..u64::MAX,
        val in 0u16..256,
    ) {
        let frame = valid_frame(readings);
        let mut raw = BytesMut::from(&frame[..]);
        let pos = (pos % raw.len() as u64) as usize;
        let val = val as u8;
        if raw[pos] != val {
            raw[pos] = val;
            match decode(raw.freeze()) {
                // Corruption past the magic/version/kind prefix can
                // still parse (tree, from, seq, count-shrink, payload
                // bytes all remain structurally valid frames).
                Ok(_) => prop_assert!(pos >= 4, "magic/version/kind corruption must not pass"),
                Err(DecodeError::BadMagic(_)) => prop_assert!(pos < 2),
                Err(DecodeError::BadVersion(v)) => {
                    prop_assert_eq!(pos, 2);
                    prop_assert_ne!(v, VERSION);
                }
                Err(DecodeError::BadKind(_)) => prop_assert_eq!(pos, 3),
                Err(DecodeError::BadCount(_)) => {
                    // Only a grown count field (bytes 24..28) trips this.
                    prop_assert!((24..28).contains(&pos));
                }
                Err(DecodeError::Truncated) => prop_assert!(false, "length never changed"),
            }
        }
    }

    /// Headers declaring absurd reading counts are rejected without
    /// allocating for them.
    #[test]
    fn hostile_counts_rejected(count in 0u64..u64::from(u32::MAX)) {
        let count = count as u32;
        let mut buf = BytesMut::new();
        buf.put_u16(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0); // data
        buf.put_u32(0); // tree
        buf.put_u32(0); // from
        buf.put_u32(0); // incarnation
        buf.put_u64(0); // seq
        buf.put_u32(count);
        let res = decode(buf.freeze());
        if count == 0 {
            prop_assert!(res.is_ok());
        } else {
            prop_assert_eq!(res.unwrap_err(), DecodeError::BadCount(count));
        }
    }
}

proptest! {
    /// Arbitrary byte streams fed to the framing decoder in arbitrary
    /// chunks either produce envelopes or a structured [`FrameError`]
    /// — never a panic, never unbounded buffering past the length cap.
    #[test]
    fn framing_random_streams_never_panic(
        bytes in prop::collection::vec(0u16..256, 0..1024),
        chunk in 1usize..64,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut dec = FrameDecoder::new();
        'outer: for piece in bytes.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.try_next() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(FrameError::TooLong(n)) => {
                        prop_assert!(n as usize > MAX_FRAME_LEN);
                        break 'outer;
                    }
                    Err(FrameError::TooShort(_)) => break 'outer,
                }
            }
        }
    }

    /// A sequence of valid envelopes survives any adversarial
    /// segmentation of the byte stream: every envelope comes back
    /// intact and in order regardless of chunk boundaries.
    #[test]
    fn framing_reassembles_across_any_segmentation(
        payload_lens in prop::collection::vec(0usize..96, 1..8),
        chunk in 1usize..48,
    ) {
        let envelopes: Vec<Envelope> = payload_lens
            .iter()
            .enumerate()
            .map(|(i, &n)| Envelope {
                dest: i as u32,
                chan: (i % 2) as u8,
                sent_epoch: i as u64,
                payload: Bytes::from_vec((0..n).map(|b| b as u8).collect()),
            })
            .collect();
        let mut wire = Vec::new();
        for e in &envelopes {
            wire.extend_from_slice(&e.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.push(piece);
            while let Some(e) = dec.try_next().unwrap() {
                out.push(e);
            }
        }
        prop_assert_eq!(out, envelopes);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Hostile length prefixes fail immediately — before the decoder
    /// waits for (or allocates) the declared body.
    #[test]
    fn framing_hostile_lengths_fail_fast(len in (MAX_FRAME_LEN as u32 + 1)..u32::MAX) {
        let mut dec = FrameDecoder::new();
        dec.push(&len.to_be_bytes());
        prop_assert_eq!(dec.try_next(), Err(FrameError::TooLong(len)));
    }

    /// Arbitrary byte strings never panic the control-plane decoder.
    #[test]
    fn ctrl_random_bytes_never_panic(
        bytes in prop::collection::vec(0u16..256, 0..512),
    ) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = CtrlMsg::decode(Bytes::from(raw));
    }

    /// Single-byte corruption of a valid control frame never panics.
    #[test]
    fn ctrl_bit_flips_never_panic(
        epoch in 0u64..u64::MAX,
        pos in 0u64..u64::MAX,
        val in 0u16..256,
    ) {
        let frame = CtrlMsg::Tick { epoch }.encode();
        let mut raw = frame.to_vec();
        let pos = (pos % raw.len() as u64) as usize;
        raw[pos] = val as u8;
        let _ = CtrlMsg::decode(Bytes::from(raw));
    }

    /// Regression (failed before the decode hardening): a valid frame
    /// followed by garbage must not decode — trailing bytes mean a
    /// corrupt frame or a future, wider payload revision, and silently
    /// accepting the prefix would misparse either.
    #[test]
    fn ctrl_trailing_bytes_are_rejected(
        epoch in 0u64..u64::MAX,
        extra in 1usize..32,
    ) {
        for (msg, tag) in [
            (CtrlMsg::Tick { epoch }, 3u8),
            (CtrlMsg::Degrade { factor: epoch }, 5),
            (CtrlMsg::Shutdown, 6),
        ] {
            let mut raw = msg.encode().to_vec();
            raw.extend(std::iter::repeat_n(0xAB, extra));
            prop_assert_eq!(
                CtrlMsg::decode(Bytes::from(raw)),
                Err(CtrlError::TrailingBytes { kind: tag, extra })
            );
        }
    }

    /// Regression: an unknown (future) message kind is a structured
    /// [`CtrlError::UnknownKind`] carrying the tag, whatever bytes
    /// follow it.
    #[test]
    fn ctrl_unknown_kinds_are_structured(
        tag in 7u16..256,
        body in prop::collection::vec(0u16..256, 0..64),
    ) {
        let tag = tag as u8;
        let mut buf = BytesMut::new();
        buf.put_u16(CTRL_MAGIC);
        buf.put_u8(CTRL_VERSION);
        buf.put_u8(tag);
        for b in body {
            buf.put_u8(b as u8);
        }
        prop_assert_eq!(
            CtrlMsg::decode(buf.freeze()),
            Err(CtrlError::UnknownKind(tag))
        );
    }

    /// Regression: payload truncation is attributed to the kind being
    /// decoded — `Truncated` alone is reserved for a frame cut inside
    /// the fixed header.
    #[test]
    fn ctrl_payload_truncations_attribute_the_kind(cut in 0u64..u64::MAX) {
        for (msg, tag) in [
            (
                CtrlMsg::Hello {
                    node: NodeId(1),
                    incarnation: 2,
                },
                0u8,
            ),
            (CtrlMsg::Tick { epoch: 3 }, 3),
            (CtrlMsg::Degrade { factor: 4 }, 5),
        ] {
            let full = msg.encode();
            let cut = (cut % full.len() as u64) as usize; // strict prefix
            let err = CtrlMsg::decode(full.slice(..cut)).unwrap_err();
            if cut < 4 {
                prop_assert_eq!(err, CtrlError::Truncated);
            } else {
                prop_assert_eq!(err, CtrlError::TruncatedPayload { kind: tag });
            }
        }
    }
}

/// The decoder handles the empty buffer and the exact-header boundary.
#[test]
fn boundary_sizes() {
    assert_eq!(
        WireMessage::decode(Bytes::new()).unwrap_err(),
        DecodeError::Truncated
    );
    let frame = valid_frame(0);
    assert_eq!(frame.len(), HEADER_LEN);
    assert!(WireMessage::decode(frame).is_ok());
}
