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
use remo_runtime::framing::{
    Envelope, FrameDecoder, FrameError, CHAN_DATA, DEST_COLLECTOR, ENVELOPE_HEADER_LEN,
    MAX_FRAME_LEN,
};
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
/// return the kind — or the error — the full decode does. And what
/// decodes, encodes back to the bytes it was decoded from (less
/// anything after the declared readings) and decodes to itself again.
fn decode(frame: Bytes) -> Result<WireMessage, DecodeError> {
    let peeked = WireMessage::peek_kind(&frame);
    let decoded = WireMessage::decode(frame.clone());
    assert_eq!(
        peeked,
        decoded.as_ref().map(|m| m.kind).map_err(Clone::clone)
    );
    if let Ok(msg) = &decoded {
        let again = msg.encode();
        assert_eq!(again.len(), msg.encoded_len());
        assert_eq!(&again[..], &frame[..again.len()]);
        // Compared as bytes: a random payload may hold a NaN value,
        // which is not equal to itself as an `f64`.
        assert_eq!(WireMessage::decode(again.clone()).unwrap().encode(), again);
    }
    decoded
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The bytes on the wire, pinned: header + 3 readings, incarnation ≠ 0.
/// A codec change that moves one of them is a protocol change
/// (`remo-proto`'s tables and `VERSION` first).
#[test]
fn golden_data_frame() {
    let reading = |node, attr, value, produced, contributors| WireReading {
        node: NodeId(node),
        attr: AttrId(attr),
        value,
        produced,
        contributors,
    };
    let msg = WireMessage::data(
        0x0102_0304,
        NodeId(7),
        0x1122_3344_5566_7788,
        vec![
            reading(1, 10, 0.5, 42, 1),
            reading(2, 11, -2.25, 43, 1),
            reading(u32::MAX, 0, 1e300, u64::MAX, 9),
        ],
    )
    .with_incarnation(0xA1B2_C3D4);
    let golden = hex(concat!(
        "5235",
        "03",
        "00",
        "01020304",
        "00000007",
        "a1b2c3d4",
        "1122334455667788",
        "00000003",
        "00000001",
        "0000000a",
        "3fe0000000000000",
        "000000000000002a",
        "00000001",
        "00000002",
        "0000000b",
        "c002000000000000",
        "000000000000002b",
        "00000001",
        "ffffffff",
        "00000000",
        "7e37e43c8800759c",
        "ffffffffffffffff",
        "00000009",
    ));
    assert_eq!(&msg.encode()[..], &golden[..]);
    assert_eq!(decode(Bytes::from(golden)).unwrap(), msg);
}

#[test]
fn golden_envelope() {
    let env = Envelope {
        dest: DEST_COLLECTOR,
        chan: CHAN_DATA,
        sent_epoch: 0x0102_0304_0506_0708,
        payload: Bytes::from_vec(vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00]),
    };
    let golden = hex(concat!(
        "00000012",
        "ffffffff",
        "00",
        "0102030405060708",
        "deadbeef00"
    ));
    assert_eq!(&env.encode()[..], &golden[..]);
    let mut appended = vec![0x55];
    env.encode_into(&mut appended);
    assert_eq!(&appended[1..], &golden[..]);
    let mut dec = FrameDecoder::new();
    dec.push(&golden);
    assert_eq!(dec.try_next(), Ok(Some(env)));
    assert_eq!(dec.pending(), 0);
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

/// One envelope per payload length, every header field varying.
fn envelopes(payload_lens: &[usize]) -> Vec<Envelope> {
    payload_lens
        .iter()
        .enumerate()
        .map(|(i, &n)| Envelope {
            dest: i as u32,
            chan: (i % 2) as u8,
            sent_epoch: i as u64,
            payload: Bytes::from_vec((0..n).map(|b| (b + i) as u8).collect()),
        })
        .collect()
}

fn wire_of(envelopes: &[Envelope]) -> Vec<u8> {
    envelopes.iter().flat_map(|e| e.encode().to_vec()).collect()
}

/// The framing, parsed from the whole byte string at once: what the
/// incremental decoder must agree with however the bytes arrive.
fn parse_whole(mut wire: &[u8]) -> (Vec<Envelope>, Option<FrameError>) {
    let mut out = Vec::new();
    while let Some((prefix, rest)) = wire.split_first_chunk::<4>() {
        let declared = u32::from_be_bytes(*prefix);
        let len = declared as usize;
        if len > MAX_FRAME_LEN {
            return (out, Some(FrameError::TooLong(declared)));
        }
        if len < ENVELOPE_HEADER_LEN {
            return (out, Some(FrameError::TooShort(declared)));
        }
        let Some((frame, rest)) = rest.split_at_checked(len) else {
            break;
        };
        out.push(Envelope {
            dest: u32::from_be_bytes(frame[0..4].try_into().unwrap()),
            chan: frame[4],
            sent_epoch: u64::from_be_bytes(frame[5..13].try_into().unwrap()),
            payload: Bytes::copy_from_slice(&frame[13..]),
        });
        wire = rest;
    }
    (out, None)
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
    /// segmentation of the byte stream: whatever the split points,
    /// the decoder hands out what parsing the whole stream at once
    /// does, and `pending()` is the bytes pushed less the bytes of the
    /// envelopes handed out, after every pull.
    #[test]
    fn framing_reassembles_across_any_segmentation(
        payload_lens in prop::collection::vec(0usize..96, 1..200),
        cuts in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let envelopes = envelopes(&payload_lens);
        let wire = wire_of(&envelopes);
        prop_assert_eq!(parse_whole(&wire), (envelopes.clone(), None));

        let mut cuts: Vec<usize> = cuts.iter().map(|c| (c % wire.len() as u64) as usize).collect();
        cuts.push(wire.len());
        cuts.sort_unstable();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let (mut pushed, mut pulled) = (0, 0);
        for cut in cuts {
            dec.push(&wire[pushed..cut]);
            pushed = cut;
            while let Some(e) = dec.try_next().unwrap() {
                pulled += 4 + ENVELOPE_HEADER_LEN + e.payload.len();
                prop_assert_eq!(dec.pending(), pushed - pulled);
                out.push(e);
            }
            prop_assert_eq!(dec.pending(), pushed - pulled);
        }
        prop_assert_eq!(out, envelopes);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A hostile or undersized length in the middle of a batch: the
    /// envelopes before it still come out, then the error — the same
    /// one every time it is asked — whether the batch arrives in one
    /// push or in pieces.
    #[test]
    fn framing_bad_length_mid_batch_keeps_what_came_before(
        payload_lens in prop::collection::vec(0usize..300, 0..30),
        bad in 0u64..u64::MAX,
        chunk in 1usize..700,
    ) {
        let envelopes = envelopes(&payload_lens);
        // Either side of the valid range [ENVELOPE_HEADER_LEN, MAX_FRAME_LEN].
        let too_short = ENVELOPE_HEADER_LEN as u64;
        let bad = match bad % (2 * too_short) {
            n if n < too_short => n as u32,
            n => MAX_FRAME_LEN as u32 + 1 + (n - too_short) as u32,
        };
        let mut wire = wire_of(&envelopes);
        wire.extend_from_slice(&bad.to_be_bytes());
        wire.extend_from_slice(&wire_of(&envelopes)); // never reached
        let expected = if (bad as usize) < ENVELOPE_HEADER_LEN {
            FrameError::TooShort(bad)
        } else {
            FrameError::TooLong(bad)
        };
        prop_assert_eq!(parse_whole(&wire), (envelopes.clone(), Some(expected.clone())));

        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut failed = None;
        'stream: for piece in wire.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.try_next() {
                    Ok(Some(e)) => out.push(e),
                    Ok(None) => break,
                    Err(e) => {
                        failed = Some(e);
                        break 'stream;
                    }
                }
            }
        }
        prop_assert_eq!(out, envelopes);
        prop_assert_eq!(failed, Some(expected.clone()));
        prop_assert_eq!(dec.try_next(), Err(expected));
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
