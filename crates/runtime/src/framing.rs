//! Length-prefixed stream framing for the distributed runtime.
//!
//! TCP is a byte stream: a reader may see half an envelope, three
//! envelopes glued together, or one byte at a time. This module turns
//! that stream back into discrete frames without ever trusting the
//! peer: a declared length is bounded by [`MAX_FRAME_LEN`] *before*
//! any allocation, short envelopes are rejected, and malformed input
//! yields a structured [`FrameError`] — never a panic (the framing
//! fuzz suite in `proto_fuzz.rs` holds the decoder to that).
//!
//! Envelope layout (all integers big-endian):
//!
//! ```text
//! [len u32][dest u32][chan u8][sent_epoch u64][payload ...]
//! ```
//!
//! `len` counts everything after itself. `dest` is a node id, or
//! [`DEST_COLLECTOR`] for the collector service (the hub-router
//! forwards node→node tree traffic by this tag). `chan` selects the
//! payload codec: [`CHAN_DATA`] carries a [`crate::proto`]
//! `WireMessage`, [`CHAN_CTRL`] a [`crate::ctrl`] control message.
//! `sent_epoch` is the sender's epoch at transmission time, preserved
//! so the collector's staleness accounting matches the in-memory
//! transports.

use crate::proto::{be_u32, be_u64};
use bytes::Bytes;
use std::error::Error as StdError;
use std::fmt;

/// Envelope header bytes counted by `len`: dest (4) + chan (1) +
/// sent_epoch (8).
pub const ENVELOPE_HEADER_LEN: usize = 13;
/// Upper bound on a declared frame length — a hostile or corrupt
/// length prefix must not drive allocation. 1 MiB comfortably holds
/// the largest planned monitoring message (tens of thousands of
/// readings) while capping damage from garbage.
pub const MAX_FRAME_LEN: usize = 1 << 20;
/// `dest` tag addressing the collector service itself.
pub const DEST_COLLECTOR: u32 = u32::MAX;
/// Channel carrying `proto::WireMessage` payloads.
pub const CHAN_DATA: u8 = 0;
/// Channel carrying `ctrl::CtrlMsg` payloads.
pub const CHAN_CTRL: u8 = 1;

/// One framed message pulled off a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Destination: a node id, or [`DEST_COLLECTOR`].
    pub dest: u32,
    /// Payload channel ([`CHAN_DATA`] or [`CHAN_CTRL`]).
    pub chan: u8,
    /// Sender's epoch at transmission time.
    pub sent_epoch: u64,
    /// Channel-specific payload bytes.
    pub payload: Bytes,
}

impl Envelope {
    /// Frames `payload` for the wire.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(4 + ENVELOPE_HEADER_LEN + self.payload.len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the framed envelope to `out` — the form a connection's
    /// out-buffer takes, so a batch of envelopes is one allocation and
    /// one write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = ENVELOPE_HEADER_LEN + self.payload.len();
        out.reserve(4 + len);
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.extend_from_slice(&self.dest.to_be_bytes());
        out.push(self.chan);
        out.extend_from_slice(&self.sent_epoch.to_be_bytes());
        out.extend_from_slice(&self.payload);
    }
}

/// Stream decoding failure. After an error the stream is
/// unrecoverable (framing sync is lost); the connection should be
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length exceeds [`MAX_FRAME_LEN`] — hostile or corrupt.
    TooLong(u32),
    /// Declared length cannot even hold the envelope header.
    TooShort(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong(n) => {
                write!(f, "declared frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::TooShort(n) => {
                write!(
                    f,
                    "declared frame length {n} below envelope header {ENVELOPE_HEADER_LEN}"
                )
            }
        }
    }
}

impl StdError for FrameError {}

/// Incremental decoder: feed it arbitrary byte chunks, pull complete
/// envelopes out. Tolerates any segmentation the network produces.
///
/// The buffer is a plain byte vector with a read cursor: `try_next`
/// parses at the cursor and copies the payload out once, and the
/// consumed prefix is dropped once per [`FrameDecoder::push`] — a read
/// that delivers `k` frames costs O(bytes), not O(`k` · bytes).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as envelopes.
    head: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as envelopes.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Pulls the next complete envelope, `Ok(None)` if more bytes are
    /// needed, or an error if the peer declared a hostile length.
    pub fn try_next(&mut self) -> Result<Option<Envelope>, FrameError> {
        let Some((prefix, rest)) = self.buf[self.head..].split_at_checked(4) else {
            return Ok(None);
        };
        let declared = be_u32(prefix, 0);
        let len = declared as usize;
        // Validate the length *before* waiting for (or allocating) the
        // body: a hostile 4 GiB prefix must fail now, not buffer
        // forever.
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLong(declared));
        }
        if len < ENVELOPE_HEADER_LEN {
            return Err(FrameError::TooShort(declared));
        }
        let Some(frame) = rest.get(..len) else {
            return Ok(None);
        };
        let envelope = Envelope {
            dest: be_u32(frame, 0),
            chan: frame[4],
            sent_epoch: be_u64(frame, 5),
            payload: Bytes::copy_from_slice(&frame[ENVELOPE_HEADER_LEN..]),
        };
        self.head += 4 + len;
        Ok(Some(envelope))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn env(dest: u32, chan: u8, epoch: u64, payload: &[u8]) -> Envelope {
        Envelope {
            dest,
            chan,
            sent_epoch: epoch,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn roundtrips_through_any_segmentation() {
        let envelopes = vec![
            env(DEST_COLLECTOR, CHAN_DATA, 7, b"hello"),
            env(3, CHAN_CTRL, 8, b""),
            env(0, CHAN_DATA, 9, &[0xFF; 300]),
        ];
        let mut wire = Vec::new();
        for e in &envelopes {
            wire.extend_from_slice(&e.encode());
        }
        // Byte-at-a-time is the worst case segmentation.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(e) = dec.try_next().unwrap() {
                out.push(e);
            }
        }
        assert_eq!(out, envelopes);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn hostile_length_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_be_bytes());
        assert_eq!(dec.try_next(), Err(FrameError::TooLong(u32::MAX)));
    }

    #[test]
    fn undersized_length_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(&4u32.to_be_bytes());
        dec.push(&[0, 0, 0, 0]);
        assert_eq!(dec.try_next(), Err(FrameError::TooShort(4)));
    }

    #[test]
    fn partial_header_waits_for_more() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0, 0]);
        assert_eq!(dec.try_next(), Ok(None));
    }
}
