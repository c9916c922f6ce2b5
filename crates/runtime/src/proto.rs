//! Binary wire protocol for monitoring messages.
//!
//! A realistic serialization layer: each update message carries a
//! fixed header (the per-message overhead `C` of the cost model made
//! tangible) plus densely packed readings. Encoding is explicit and
//! versioned rather than serde-derived so the framing — and its fixed
//! overhead — is visible and testable.
//!
//! Version 2 adds ARQ support for unreliable transports: a frame kind
//! (data vs. ack) and a per-sender sequence number, so receivers can
//! acknowledge and deduplicate (see [`crate::transport`]).
//!
//! Version 3 adds the sender's *incarnation*: a number that increases
//! every time the sending process restarts. Without it, a recovered
//! sender restarting its sequence numbers at zero is silently swallowed
//! by the receiver's contiguous-watermark dedup — every fresh frame
//! looks "already seen". Receivers reset their per-sender watermark
//! when the incarnation advances, and acks echo the data frame's
//! incarnation so a sender never credits an ack earned by its previous
//! life. In-process deployments never restart agents, so they pin
//! incarnation 0 and their byte streams change only by the widened
//! header.

use bytes::Bytes;
use remo_core::{AttrId, NodeId};
use std::error::Error as StdError;
use std::fmt;

/// Protocol magic marker.
pub const MAGIC: u16 = 0x5235; // "R5"
/// Protocol version.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes: magic (2) + version (1) + kind (1) +
/// tree (4) + from (4) + incarnation (4) + seq (8) + count (4).
pub const HEADER_LEN: usize = 28;
/// Encoded size of one reading: node (4) + attr (4) + value (8) +
/// produced (8) + contributors (4).
pub const READING_LEN: usize = 28;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A monitoring update (readings payload).
    Data,
    /// An acknowledgement of a data frame's sequence number (empty
    /// payload).
    Ack,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Ack),
            _ => None,
        }
    }
}

/// One encoded observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireReading {
    /// Source node.
    pub node: NodeId,
    /// Attribute type.
    pub attr: AttrId,
    /// Observed value.
    pub value: f64,
    /// Producing epoch.
    pub produced: u64,
    /// Samples folded in (1 unless aggregated).
    pub contributors: u32,
}

/// A monitoring update message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMessage {
    /// Frame kind.
    pub kind: FrameKind,
    /// Tree index within the deployed forest.
    pub tree: u32,
    /// Sending node.
    pub from: NodeId,
    /// Sender process incarnation: bumped on every process restart so
    /// receivers know to reset their seq watermark. Always 0 for
    /// in-process agents (they never restart); acks echo the data
    /// frame's incarnation.
    pub incarnation: u32,
    /// Sender-assigned sequence number (monotone per sender within one
    /// incarnation; the ARQ layer's ack/dedup key). Zero on transports
    /// that never lose frames.
    pub seq: u64,
    /// Payload (empty for acks).
    pub readings: Vec<WireReading>,
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic marker mismatch — not one of our frames.
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Declared reading count exceeds the remaining bytes (or
    /// overflows entirely).
    BadCount(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame shorter than header"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadCount(c) => write!(f, "reading count {c} exceeds frame size"),
        }
    }
}

impl StdError for DecodeError {}

impl WireMessage {
    /// A data frame (incarnation 0 — the in-process default; use
    /// [`WireMessage::with_incarnation`] for restartable senders).
    pub fn data(tree: u32, from: NodeId, seq: u64, readings: Vec<WireReading>) -> Self {
        WireMessage {
            kind: FrameKind::Data,
            tree,
            from,
            incarnation: 0,
            seq,
            readings,
        }
    }

    /// An ack frame for `seq` (incarnation 0; receivers acking a
    /// restartable sender echo its incarnation via
    /// [`WireMessage::with_incarnation`]).
    pub fn ack(tree: u32, from: NodeId, seq: u64) -> Self {
        WireMessage {
            kind: FrameKind::Ack,
            tree,
            from,
            incarnation: 0,
            seq,
            readings: Vec::new(),
        }
    }

    /// Sets the sender incarnation.
    pub fn with_incarnation(mut self, incarnation: u32) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// Encodes the message into a frame.
    ///
    /// # Examples
    ///
    /// ```
    /// use remo_runtime::proto::{WireMessage, WireReading};
    /// use remo_core::{NodeId, AttrId};
    /// let msg = WireMessage::data(0, NodeId(3), 1, vec![WireReading {
    ///     node: NodeId(3),
    ///     attr: AttrId(1),
    ///     value: 0.5,
    ///     produced: 42,
    ///     contributors: 1,
    /// }]);
    /// let frame = msg.encode();
    /// assert_eq!(WireMessage::decode(frame).unwrap(), msg);
    /// ```
    pub fn encode(&self) -> Bytes {
        encode_frame(
            self.kind,
            self.tree,
            self.from,
            self.incarnation,
            self.seq,
            &self.readings,
        )
    }

    /// Validates a frame's header — magic, version, kind, and that the
    /// declared reading count fits the bytes that follow — and returns
    /// its kind without decoding (or allocating for) the readings.
    /// Succeeds exactly when [`WireMessage::decode`] does, so a caller
    /// that only dispatches on the kind can leave the one full decode
    /// to whoever consumes the frame.
    ///
    /// # Errors
    ///
    /// The [`DecodeError`] `decode` returns for the same bytes. Never
    /// panics, whatever the input bytes.
    pub fn peek_kind(frame: &[u8]) -> Result<FrameKind, DecodeError> {
        let Some((header, body)) = frame.split_at_checked(HEADER_LEN) else {
            return Err(DecodeError::Truncated);
        };
        let magic = u16::from_be_bytes([header[0], header[1]]);
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        if header[2] != VERSION {
            return Err(DecodeError::BadVersion(header[2]));
        }
        let Some(kind) = FrameKind::from_u8(header[3]) else {
            return Err(DecodeError::BadKind(header[3]));
        };
        let count = be_u32(header, 24);
        // checked_mul: a hostile count must not overflow into a bogus
        // "fits" verdict on 32-bit targets (or wrap the Vec capacity).
        match (count as usize).checked_mul(READING_LEN) {
            Some(payload) if payload <= body.len() => Ok(kind),
            _ => Err(DecodeError::BadCount(count)),
        }
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, foreign, or corrupt
    /// frames. Never panics, whatever the input bytes.
    pub fn decode(frame: Bytes) -> Result<Self, DecodeError> {
        let (header, readings) = parse_frame(&frame)?;
        Ok(WireMessage {
            kind: header.kind,
            tree: header.tree,
            from: header.from,
            incarnation: header.incarnation,
            seq: header.seq,
            readings: readings.collect(),
        })
    }

    /// The frame size this message encodes to.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.readings.len() * READING_LEN
    }
}

/// The fixed header of a frame, less what [`WireMessage::peek_kind`]
/// checks and the reading count: what a receiver needs to dedup, ack
/// and route the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    pub(crate) kind: FrameKind,
    pub(crate) tree: u32,
    pub(crate) from: NodeId,
    pub(crate) incarnation: u32,
    pub(crate) seq: u64,
}

/// Validates `frame` ([`WireMessage::peek_kind`] is the only validator)
/// and returns its header and its readings, decoded in place one
/// fixed-size record at a time — a receiver that keeps readings in a
/// buffer of its own never builds a [`WireMessage`]. The iterator
/// knows its length (the header's count), so `collect` and `extend`
/// reserve once.
///
/// # Errors
///
/// The [`DecodeError`] `decode` returns for the same bytes.
pub(crate) fn parse_frame(
    frame: &[u8],
) -> Result<(FrameHeader, impl ExactSizeIterator<Item = WireReading> + '_), DecodeError> {
    let kind = WireMessage::peek_kind(frame)?;
    let header = FrameHeader {
        kind,
        tree: be_u32(frame, 4),
        from: NodeId(be_u32(frame, 8)),
        incarnation: be_u32(frame, 12),
        seq: be_u64(frame, 16),
    };
    let count = be_u32(frame, 24) as usize;
    let records = frame[HEADER_LEN..HEADER_LEN + count * READING_LEN].as_chunks::<READING_LEN>();
    let readings = records.0.iter().map(|rec| WireReading {
        node: NodeId(be_u32(rec, 0)),
        attr: AttrId(be_u32(rec, 4)),
        value: f64::from_bits(be_u64(rec, 8)),
        produced: be_u64(rec, 16),
        contributors: be_u32(rec, 24),
    });
    Ok((header, readings))
}

/// Encodes a frame from its parts into one pre-sized buffer — what
/// [`WireMessage::encode`] does, for a sender that keeps its readings
/// in a buffer it reuses.
pub(crate) fn encode_frame(
    kind: FrameKind,
    tree: u32,
    from: NodeId,
    incarnation: u32,
    seq: u64,
    readings: &[WireReading],
) -> Bytes {
    let mut buf = vec![0u8; HEADER_LEN + readings.len() * READING_LEN];
    let (header, body) = buf.split_at_mut(HEADER_LEN);
    header[0..2].copy_from_slice(&MAGIC.to_be_bytes());
    header[2] = VERSION;
    header[3] = kind.to_u8();
    header[4..8].copy_from_slice(&tree.to_be_bytes());
    header[8..12].copy_from_slice(&from.0.to_be_bytes());
    header[12..16].copy_from_slice(&incarnation.to_be_bytes());
    header[16..24].copy_from_slice(&seq.to_be_bytes());
    header[24..28].copy_from_slice(&(readings.len() as u32).to_be_bytes());
    for (rec, r) in body
        .as_chunks_mut::<READING_LEN>()
        .0
        .iter_mut()
        .zip(readings)
    {
        rec[0..4].copy_from_slice(&r.node.0.to_be_bytes());
        rec[4..8].copy_from_slice(&r.attr.0.to_be_bytes());
        rec[8..16].copy_from_slice(&r.value.to_bits().to_be_bytes());
        rec[16..24].copy_from_slice(&r.produced.to_be_bytes());
        rec[24..28].copy_from_slice(&r.contributors.to_be_bytes());
    }
    Bytes::from(buf)
}

/// The big-endian `u32` at `b[at..]`.
pub(crate) fn be_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// The big-endian `u64` at `b[at..]`.
pub(crate) fn be_u64(b: &[u8], at: usize) -> u64 {
    u64::from_be_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use bytes::{BufMut, BytesMut};

    fn sample_msg(n: usize) -> WireMessage {
        WireMessage::data(
            7,
            NodeId(9),
            1234,
            (0..n)
                .map(|i| WireReading {
                    node: NodeId(i as u32),
                    attr: AttrId(100 + i as u32),
                    value: i as f64 * 1.5,
                    produced: 1000 + i as u64,
                    contributors: 1 + i as u32,
                })
                .collect(),
        )
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [0, 1, 3, 100] {
            let msg = sample_msg(n);
            assert_eq!(WireMessage::decode(msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn ack_roundtrip() {
        let ack = WireMessage::ack(3, NodeId(5), 42);
        let back = WireMessage::decode(ack.encode()).unwrap();
        assert_eq!(back, ack);
        assert_eq!(back.kind, FrameKind::Ack);
        assert!(back.readings.is_empty());
        assert_eq!(ack.encoded_len(), HEADER_LEN);
    }

    #[test]
    fn encoded_len_matches() {
        let msg = sample_msg(5);
        assert_eq!(msg.encode().len(), msg.encoded_len());
        assert_eq!(msg.encoded_len(), HEADER_LEN + 5 * READING_LEN);
    }

    #[test]
    fn rejects_truncated() {
        let frame = sample_msg(2).encode();
        let short = frame.slice(0..HEADER_LEN - 1);
        assert_eq!(WireMessage::decode(short), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = BytesMut::from(&sample_msg(0).encode()[..]);
        buf[0] = 0;
        assert!(matches!(
            WireMessage::decode(buf.freeze()),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = BytesMut::from(&sample_msg(0).encode()[..]);
        buf[2] = 99;
        assert_eq!(
            WireMessage::decode(buf.freeze()),
            Err(DecodeError::BadVersion(99))
        );
    }

    #[test]
    fn rejects_bad_kind() {
        let mut buf = BytesMut::from(&sample_msg(0).encode()[..]);
        buf[3] = 7;
        assert_eq!(
            WireMessage::decode(buf.freeze()),
            Err(DecodeError::BadKind(7))
        );
    }

    #[test]
    fn rejects_lying_count() {
        let frame = sample_msg(3).encode();
        // Keep header, drop one reading's bytes.
        let cut = frame.slice(0..frame.len() - 1);
        assert_eq!(WireMessage::decode(cut), Err(DecodeError::BadCount(3)));
    }

    #[test]
    fn rejects_overflowing_count() {
        // A header declaring u32::MAX readings: the byte check must not
        // wrap around.
        let mut buf = BytesMut::new();
        buf.put_u16(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u64(0);
        buf.put_u32(u32::MAX);
        assert_eq!(
            WireMessage::decode(buf.freeze()),
            Err(DecodeError::BadCount(u32::MAX))
        );
    }

    #[test]
    fn incarnation_roundtrips() {
        let msg = sample_msg(2).with_incarnation(7);
        let back = WireMessage::decode(msg.encode()).unwrap();
        assert_eq!(back.incarnation, 7);
        assert_eq!(back, msg);
        let ack = WireMessage::ack(0, NodeId(1), 9).with_incarnation(3);
        assert_eq!(WireMessage::decode(ack.encode()).unwrap().incarnation, 3);
    }

    #[test]
    fn special_float_values_survive() {
        let mut msg = sample_msg(1);
        msg.readings[0].value = f64::MAX;
        let back = WireMessage::decode(msg.encode()).unwrap();
        assert_eq!(back.readings[0].value, f64::MAX);
    }
}
