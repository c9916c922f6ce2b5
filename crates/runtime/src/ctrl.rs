//! Control-plane protocol for the distributed runtime.
//!
//! The data plane ([`crate::proto`]) carries monitoring readings; this
//! module carries everything else a `remo-node` process and the
//! `remo-collector` service say to each other: registration
//! ([`CtrlMsg::Hello`]/[`CtrlMsg::Welcome`]), tree assignment
//! ([`CtrlMsg::Assign`]), lockstep epoch control ([`CtrlMsg::Tick`] /
//! [`CtrlMsg::Report`]), graceful degradation ([`CtrlMsg::Degrade`]),
//! and shutdown.
//!
//! Like the data plane, encoding is explicit, versioned, and
//! hand-rolled: decode never panics on hostile bytes, it returns a
//! structured [`CtrlError`]. The codec has its own magic marker so a
//! control frame misrouted into a data decoder (or vice versa) is
//! rejected immediately instead of being misparsed.

use crate::agent::{LocalAttr, Route, TickReport, TreeAssignment};
use crate::spec::CtrlKind;
use crate::transport::NetConfig;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use remo_core::{Aggregation, AttrId, NodeId};
use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;

/// Control-protocol magic marker ("RC").
pub const CTRL_MAGIC: u16 = 0x5243;
/// Control-protocol version.
pub const CTRL_VERSION: u8 = 1;
/// Upper bound on any declared collection length inside a control
/// frame — a hostile count must not drive allocation.
const MAX_ITEMS: u32 = 1 << 20;

/// `parent` tag meaning "route to the collector".
const PARENT_COLLECTOR: u32 = u32::MAX;

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Node → collector, first frame on a connection. A fresh process
    /// sends incarnation 0 and is assigned one; a reconnecting process
    /// re-sends the incarnation it already holds.
    Hello {
        /// The registering node.
        node: NodeId,
        /// 0 = fresh start (assign me one); nonzero = reconnect.
        incarnation: u32,
    },
    /// Collector → node, the registration answer: everything the node
    /// needs to run its agent loop.
    Welcome {
        /// The node's capacity budget (cost units per epoch).
        capacity: f64,
        /// Cost model: fixed per-message overhead `C`.
        per_message: f64,
        /// Cost model: per-value cost `a`.
        per_value: f64,
        /// ARQ + backpressure tuning, shared deployment-wide.
        net: NetConfig,
        /// The incarnation this process must stamp on its data frames.
        incarnation: u32,
        /// Epoch the deployment is currently at (0 before first tick).
        epoch: u64,
    },
    /// Collector → node: replace the node's tree assignments (sent at
    /// registration and again whenever plan repair changes them).
    Assign {
        /// The node's complete new assignment set.
        assignments: Vec<TreeAssignment>,
    },
    /// Collector → node: start lockstep epoch `epoch`.
    Tick {
        /// Epoch to run.
        epoch: u64,
    },
    /// Node → collector: the barrier report for one epoch.
    Report {
        /// The agent's tick report.
        report: TickReport,
    },
    /// Collector → node: set the effective reporting-interval
    /// multiplier (graceful degradation under collector overload).
    Degrade {
        /// New multiplier (1 = no degradation).
        factor: u64,
    },
    /// Collector → node: stop cleanly.
    Shutdown,
}

/// Control-frame decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlError {
    /// Buffer ends before the fixed magic/version/tag header.
    Truncated,
    /// Buffer ends inside the payload of a recognized message kind.
    TruncatedPayload {
        /// The wire tag of the kind whose payload was cut short.
        kind: u8,
    },
    /// A recognized message kind decoded cleanly but left unread bytes
    /// — either a corrupt frame or a future protocol revision that
    /// widened the payload.
    TrailingBytes {
        /// The wire tag of the kind that left bytes behind.
        kind: u8,
        /// How many bytes were left unread.
        extra: usize,
    },
    /// Magic marker mismatch — not a control frame.
    BadMagic(u16),
    /// Unsupported control-protocol version.
    BadVersion(u8),
    /// Unknown (likely future) message kind tag.
    UnknownKind(u8),
    /// A declared collection length is hostile (exceeds `MAX_ITEMS`).
    BadCount(u32),
    /// Unknown aggregation tag inside an assignment.
    BadAggregation(u8),
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::Truncated => write!(f, "control frame truncated before header"),
            CtrlError::TruncatedPayload { kind } => {
                write!(f, "control payload truncated (kind tag {kind})")
            }
            CtrlError::TrailingBytes { kind, extra } => {
                write!(f, "{extra} trailing byte(s) after control kind tag {kind}")
            }
            CtrlError::BadMagic(m) => write!(f, "bad control magic {m:#06x}"),
            CtrlError::BadVersion(v) => write!(f, "unsupported control version {v}"),
            CtrlError::UnknownKind(t) => write!(f, "unknown control kind tag {t}"),
            CtrlError::BadCount(n) => write!(f, "hostile collection length {n}"),
            CtrlError::BadAggregation(a) => write!(f, "unknown aggregation tag {a}"),
        }
    }
}

impl StdError for CtrlError {}

impl CtrlMsg {
    fn tag(&self) -> u8 {
        match self {
            CtrlMsg::Hello { .. } => 0,
            CtrlMsg::Welcome { .. } => 1,
            CtrlMsg::Assign { .. } => 2,
            CtrlMsg::Tick { .. } => 3,
            CtrlMsg::Report { .. } => 4,
            CtrlMsg::Degrade { .. } => 5,
            CtrlMsg::Shutdown => 6,
        }
    }

    /// Encodes the message, magic and version first.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16(CTRL_MAGIC);
        buf.put_u8(CTRL_VERSION);
        buf.put_u8(self.tag());
        match self {
            CtrlMsg::Hello { node, incarnation } => {
                buf.put_u32(node.0);
                buf.put_u32(*incarnation);
            }
            CtrlMsg::Welcome {
                capacity,
                per_message,
                per_value,
                net,
                incarnation,
                epoch,
            } => {
                buf.put_f64(*capacity);
                buf.put_f64(*per_message);
                buf.put_f64(*per_value);
                buf.put_u64(net.base_rto);
                buf.put_u32(net.max_attempts);
                buf.put_u64(net.ingress_capacity as u64);
                buf.put_f64(net.high_watermark);
                buf.put_f64(net.low_watermark);
                buf.put_u32(net.max_degrade_level);
                buf.put_u8(u8::from(net.record_deliveries));
                buf.put_u32(*incarnation);
                buf.put_u64(*epoch);
            }
            CtrlMsg::Assign { assignments } => {
                buf.put_u32(assignments.len() as u32);
                for a in assignments {
                    encode_assignment(&mut buf, a);
                }
            }
            CtrlMsg::Tick { epoch } => buf.put_u64(*epoch),
            CtrlMsg::Report { report } => {
                buf.put_u32(report.node.0);
                buf.put_u64(report.epoch);
                buf.put_u32(report.sent_messages);
                buf.put_u32(report.sent_readings);
                buf.put_u32(report.dropped_messages);
                buf.put_u32(report.dropped_readings);
                buf.put_f64(report.volume);
                buf.put_u32(report.retransmits);
                buf.put_u32(report.dup_ignored);
                buf.put_u32(report.abandoned);
            }
            CtrlMsg::Degrade { factor } => buf.put_u64(*factor),
            CtrlMsg::Shutdown => {}
        }
        buf.freeze()
    }

    /// The abstract protocol kind of this frame — the alphabet the
    /// [`crate::spec`] tables are written over. Stepping the shared
    /// spec machines starts here.
    pub fn kind(&self) -> CtrlKind {
        match self {
            CtrlMsg::Hello { .. } => CtrlKind::Hello,
            CtrlMsg::Welcome { .. } => CtrlKind::Welcome,
            CtrlMsg::Assign { .. } => CtrlKind::Assign,
            CtrlMsg::Tick { .. } => CtrlKind::Tick,
            CtrlMsg::Report { .. } => CtrlKind::Report,
            CtrlMsg::Degrade { .. } => CtrlKind::Degrade,
            CtrlMsg::Shutdown => CtrlKind::Shutdown,
        }
    }

    /// Decodes a control frame. Never panics: any malformed, hostile,
    /// or truncated input yields a structured [`CtrlError`] — unknown
    /// (future) kinds are [`CtrlError::UnknownKind`], a payload cut
    /// short inside a known kind is [`CtrlError::TruncatedPayload`],
    /// and unread bytes after a clean payload decode are
    /// [`CtrlError::TrailingBytes`].
    pub fn decode(mut buf: Bytes) -> Result<Self, CtrlError> {
        if buf.remaining() < 4 {
            return Err(CtrlError::Truncated);
        }
        let magic = buf.get_u16();
        if magic != CTRL_MAGIC {
            return Err(CtrlError::BadMagic(magic));
        }
        let version = buf.get_u8();
        if version != CTRL_VERSION {
            return Err(CtrlError::BadVersion(version));
        }
        let tag = buf.get_u8();
        let msg = decode_payload(tag, &mut buf).map_err(|e| match e {
            // Attribute payload truncation to the kind being decoded;
            // bare `Truncated` is reserved for the fixed header.
            CtrlError::Truncated => CtrlError::TruncatedPayload { kind: tag },
            other => other,
        })?;
        if buf.remaining() > 0 {
            return Err(CtrlError::TrailingBytes {
                kind: tag,
                extra: buf.remaining(),
            });
        }
        Ok(msg)
    }
}

/// Decodes the payload of a control frame whose header named `tag`.
fn decode_payload(tag: u8, buf: &mut Bytes) -> Result<CtrlMsg, CtrlError> {
    match tag {
        0 => Ok(CtrlMsg::Hello {
            node: NodeId(get_u32(buf)?),
            incarnation: get_u32(buf)?,
        }),
        1 => Ok(CtrlMsg::Welcome {
            capacity: get_f64(buf)?,
            per_message: get_f64(buf)?,
            per_value: get_f64(buf)?,
            net: NetConfig {
                base_rto: get_u64(buf)?,
                max_attempts: get_u32(buf)?,
                ingress_capacity: get_u64(buf)? as usize,
                high_watermark: get_f64(buf)?,
                low_watermark: get_f64(buf)?,
                max_degrade_level: get_u32(buf)?,
                record_deliveries: get_u8(buf)? != 0,
            },
            incarnation: get_u32(buf)?,
            epoch: get_u64(buf)?,
        }),
        2 => {
            let count = get_u32(buf)?;
            if count > MAX_ITEMS {
                return Err(CtrlError::BadCount(count));
            }
            let mut assignments = Vec::new();
            for _ in 0..count {
                assignments.push(decode_assignment(buf)?);
            }
            Ok(CtrlMsg::Assign { assignments })
        }
        3 => Ok(CtrlMsg::Tick {
            epoch: get_u64(buf)?,
        }),
        4 => Ok(CtrlMsg::Report {
            report: TickReport {
                node: NodeId(get_u32(buf)?),
                epoch: get_u64(buf)?,
                sent_messages: get_u32(buf)?,
                sent_readings: get_u32(buf)?,
                dropped_messages: get_u32(buf)?,
                dropped_readings: get_u32(buf)?,
                volume: get_f64(buf)?,
                retransmits: get_u32(buf)?,
                dup_ignored: get_u32(buf)?,
                abandoned: get_u32(buf)?,
            },
        }),
        5 => Ok(CtrlMsg::Degrade {
            factor: get_u64(buf)?,
        }),
        6 => Ok(CtrlMsg::Shutdown),
        other => Err(CtrlError::UnknownKind(other)),
    }
}

fn encode_aggregation(buf: &mut BytesMut, agg: Aggregation) {
    match agg {
        Aggregation::Holistic => {
            buf.put_u8(0);
            buf.put_u32(0);
        }
        Aggregation::Sum => {
            buf.put_u8(1);
            buf.put_u32(0);
        }
        Aggregation::Max => {
            buf.put_u8(2);
            buf.put_u32(0);
        }
        Aggregation::Top(k) => {
            buf.put_u8(3);
            buf.put_u32(k);
        }
        Aggregation::Distinct => {
            buf.put_u8(4);
            buf.put_u32(0);
        }
    }
}

fn decode_aggregation(buf: &mut Bytes) -> Result<Aggregation, CtrlError> {
    let tag = get_u8(buf)?;
    let arg = get_u32(buf)?;
    match tag {
        0 => Ok(Aggregation::Holistic),
        1 => Ok(Aggregation::Sum),
        2 => Ok(Aggregation::Max),
        3 => Ok(Aggregation::Top(arg)),
        4 => Ok(Aggregation::Distinct),
        other => Err(CtrlError::BadAggregation(other)),
    }
}

fn encode_assignment(buf: &mut BytesMut, a: &TreeAssignment) {
    buf.put_u32(a.tree);
    buf.put_u32(match a.parent {
        Route::Collector => PARENT_COLLECTOR,
        Route::Node(n) => n.0,
    });
    buf.put_u32(a.local.len() as u32);
    for la in &a.local {
        buf.put_u32(la.attr.0);
        buf.put_u64(la.period);
        encode_aggregation(buf, la.aggregation);
    }
    buf.put_u32(a.relay_aggregation.len() as u32);
    for (&attr, &agg) in &a.relay_aggregation {
        buf.put_u32(attr.0);
        encode_aggregation(buf, agg);
    }
}

fn decode_assignment(buf: &mut Bytes) -> Result<TreeAssignment, CtrlError> {
    let tree = get_u32(buf)?;
    let parent = match get_u32(buf)? {
        PARENT_COLLECTOR => Route::Collector,
        n => Route::Node(NodeId(n)),
    };
    let local_count = get_u32(buf)?;
    if local_count > MAX_ITEMS {
        return Err(CtrlError::BadCount(local_count));
    }
    let mut local = Vec::new();
    for _ in 0..local_count {
        local.push(LocalAttr {
            attr: AttrId(get_u32(buf)?),
            period: get_u64(buf)?,
            aggregation: decode_aggregation(buf)?,
        });
    }
    let relay_count = get_u32(buf)?;
    if relay_count > MAX_ITEMS {
        return Err(CtrlError::BadCount(relay_count));
    }
    let mut relay_aggregation = BTreeMap::new();
    for _ in 0..relay_count {
        let attr = AttrId(get_u32(buf)?);
        relay_aggregation.insert(attr, decode_aggregation(buf)?);
    }
    Ok(TreeAssignment {
        tree,
        parent,
        local,
        relay_aggregation,
    })
}

fn get_u8(buf: &mut Bytes) -> Result<u8, CtrlError> {
    if buf.remaining() < 1 {
        return Err(CtrlError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, CtrlError> {
    if buf.remaining() < 4 {
        return Err(CtrlError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, CtrlError> {
    if buf.remaining() < 8 {
        return Err(CtrlError::Truncated);
    }
    Ok(buf.get_u64())
}

fn get_f64(buf: &mut Bytes) -> Result<f64, CtrlError> {
    if buf.remaining() < 8 {
        return Err(CtrlError::Truncated);
    }
    Ok(buf.get_f64())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample_assignment() -> TreeAssignment {
        TreeAssignment {
            tree: 2,
            parent: Route::Node(NodeId(7)),
            local: vec![
                LocalAttr {
                    attr: AttrId(0),
                    period: 1,
                    aggregation: Aggregation::Holistic,
                },
                LocalAttr {
                    attr: AttrId(3),
                    period: 4,
                    aggregation: Aggregation::Top(5),
                },
            ],
            relay_aggregation: [(AttrId(0), Aggregation::Sum), (AttrId(3), Aggregation::Max)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        let msgs = vec![
            CtrlMsg::Hello {
                node: NodeId(4),
                incarnation: 0,
            },
            CtrlMsg::Welcome {
                capacity: 100.0,
                per_message: 2.0,
                per_value: 1.0,
                net: NetConfig::default(),
                incarnation: 3,
                epoch: 17,
            },
            CtrlMsg::Assign {
                assignments: vec![
                    sample_assignment(),
                    TreeAssignment {
                        tree: 0,
                        parent: Route::Collector,
                        local: vec![],
                        relay_aggregation: BTreeMap::new(),
                    },
                ],
            },
            CtrlMsg::Tick { epoch: 9 },
            CtrlMsg::Report {
                report: TickReport {
                    node: NodeId(1),
                    epoch: 9,
                    sent_messages: 2,
                    sent_readings: 5,
                    dropped_messages: 1,
                    dropped_readings: 3,
                    volume: 12.5,
                    retransmits: 4,
                    dup_ignored: 2,
                    abandoned: 1,
                },
            },
            CtrlMsg::Degrade { factor: 8 },
            CtrlMsg::Shutdown,
        ];
        for msg in msgs {
            let decoded = CtrlMsg::decode(msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let mut bytes = CtrlMsg::Shutdown.encode().to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            CtrlMsg::decode(Bytes::from(bytes.clone())),
            Err(CtrlError::BadMagic(_))
        ));
        let mut bytes = CtrlMsg::Shutdown.encode().to_vec();
        bytes[2] = 99;
        assert_eq!(
            CtrlMsg::decode(Bytes::from(bytes)),
            Err(CtrlError::BadVersion(99))
        );
    }

    #[test]
    fn rejects_hostile_assignment_count_without_allocating() {
        let mut buf = BytesMut::new();
        buf.put_u16(CTRL_MAGIC);
        buf.put_u8(CTRL_VERSION);
        buf.put_u8(2); // Assign
        buf.put_u32(u32::MAX); // hostile count
        assert_eq!(
            CtrlMsg::decode(buf.freeze()),
            Err(CtrlError::BadCount(u32::MAX))
        );
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        for msg in [
            CtrlMsg::Hello {
                node: NodeId(1),
                incarnation: 2,
            },
            CtrlMsg::Assign {
                assignments: vec![sample_assignment()],
            },
            CtrlMsg::Tick { epoch: 3 },
        ] {
            let full = msg.encode();
            for cut in 0..full.len() {
                let r = CtrlMsg::decode(full.slice(..cut));
                assert!(r.is_err(), "truncation at {cut} must error, got {r:?}");
            }
        }
    }
}
