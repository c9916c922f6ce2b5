//! The data path's allocation budget: how often the allocator is
//! called must not depend on how many readings a frame carries. A
//! timing can drift; a count cannot — a stage that goes back to one
//! allocation per reading, per attribute or per buffered byte fails
//! here whatever the machine.
//!
//! Counts are per thread (the counters are thread-locals), so the
//! tests can run side by side.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use crossbeam::channel::unbounded;
use remo_core::{Aggregation, AttrCatalog, AttrId, CostModel, NodeId};
use remo_runtime::agent::{Agent, AgentMsg, LocalAttr, Route, TreeAssignment};
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_DATA, DEST_COLLECTOR};
use remo_runtime::transport::{Endpoint, NetConfig, Transport};
use remo_runtime::{CollectorCore, EpochReport, WireMessage, WireReading};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

impl Counting {
    fn count(size: usize) {
        // `try_with`: the allocator outlives a thread's locals.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocator calls, bytes asked for)` on this thread while `f` ran.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (CALLS.get(), BYTES.get());
    let out = f();
    (CALLS.get() - before.0, BYTES.get() - before.1, out)
}

#[derive(Debug)]
struct Sink;

impl Transport for Sink {
    fn send_data(&self, _: NodeId, _: Endpoint, _: u64, _: u64, _: Bytes) {}
    fn send_ack(&self, _: Endpoint, _: NodeId, _: u32, _: u64, _: u64) {}
    fn reliable(&self) -> bool {
        false
    }
}

fn reading(node: u32, attr: u32, epoch: u64) -> WireReading {
    WireReading {
        node: NodeId(node),
        attr: AttrId(attr),
        value: f64::from(attr) + epoch as f64,
        produced: epoch,
        contributors: 1,
    }
}

const CHILDREN: u32 = 7;

/// Allocator calls in each steady-state tick of a root agent that
/// samples `per_frame` attributes itself and relays one frame of
/// `per_frame` readings from each of [`CHILDREN`] children, on the ARQ
/// path the TCP runtime uses. A child's frames carry seqs `stride`
/// apart, as when it sends to `stride` parents from one counter.
fn relay_allocations(per_frame: u32, stride: u64) -> Vec<u64> {
    const WARM_UP: u64 = 8;
    const COUNTED: u64 = 16;
    let assignment = TreeAssignment {
        tree: 0,
        parent: Route::Collector,
        local: (0..per_frame)
            .map(|a| LocalAttr {
                attr: AttrId(a),
                period: 1,
                aggregation: Aggregation::Holistic,
            })
            .collect(),
        relay_aggregation: BTreeMap::new(),
    };
    let (_inbox, rx) = unbounded();
    let (report_tx, reports) = unbounded();
    let mut agent = Agent::new(
        NodeId(0),
        rx,
        Arc::new(Sink),
        report_tx,
        1e12,
        CostModel::default(),
        NetConfig::default(),
        remo_runtime::samplers::deterministic(),
        vec![assignment],
    );
    // What the children send is built before the count starts.
    let script: Vec<Vec<AgentMsg>> = (1..=WARM_UP + COUNTED)
        .map(|epoch| {
            let mut tick: Vec<AgentMsg> = (1..=CHILDREN)
                .map(|child| AgentMsg::Data {
                    sent_epoch: epoch - 1,
                    frame: WireMessage::data(
                        0,
                        NodeId(child),
                        epoch * stride,
                        (0..per_frame)
                            .map(|a| reading(child, a, epoch - 1))
                            .collect(),
                    )
                    .encode(),
                })
                .collect();
            tick.push(AgentMsg::Tick { epoch });
            tick.push(AgentMsg::Ack {
                incarnation: 0,
                seq: epoch,
            });
            tick
        })
        .collect();
    let mut per_tick = Vec::new();
    for (i, tick) in script.into_iter().enumerate() {
        let (calls, _, ()) = allocations(|| {
            for msg in tick {
                agent.handle(msg);
            }
        });
        let report = reports.try_recv().unwrap();
        assert_eq!(report.sent_readings, (CHILDREN + 1) * per_frame);
        if i as u64 >= WARM_UP {
            per_tick.push(calls);
        }
    }
    per_tick
}

/// [`relay_allocations`]' median, which leaves out the tick in which
/// something that only grows for a while (a debug build's dedup shadow
/// set, up to one window; the report channel's block list) takes its
/// next node.
fn relay_allocations_per_tick(per_frame: u32) -> u64 {
    let mut per_tick = relay_allocations(per_frame, 1);
    per_tick.sort_unstable();
    per_tick[per_tick.len() / 2]
}

#[test]
fn a_relay_tick_allocates_per_frame_not_per_reading() {
    let (thin, fat) = (
        relay_allocations_per_tick(16),
        relay_allocations_per_tick(128),
    );
    // Per frame sent, whatever it carries: its bytes, and the handle
    // `Bytes` shares them through. Nothing per frame received.
    assert!(thin <= 2, "{thin} allocations per tick");
    // Eight times the readings: the one difference allowed is the
    // stable sort's scratch buffer, on the stack up to 128 readings
    // (7 × 16 + 16) and one heap allocation above — once per tree per
    // tick, not per reading.
    assert!(
        fat <= thin + 1,
        "{thin} allocations per tick at 16 readings per frame, {fat} at 128"
    );
}

/// Receive-side dedup of a child whose seqs reach this relay 1 in 4
/// costs what a contiguous child's does, tick for tick: the anti-replay
/// window is a fixed bitmap, where a set of out-of-order seqs took a
/// node every few frames, forever.
#[test]
fn a_gapped_child_stream_allocates_like_a_contiguous_one() {
    let contiguous = relay_allocations(16, 1);
    let gapped = relay_allocations(16, 4);
    assert_eq!(
        gapped, contiguous,
        "allocations per tick relaying 1-in-4 seqs, then contiguous ones"
    );
}

#[test]
fn collector_intake_of_known_pairs_does_not_allocate() {
    const VALUES: u32 = 1024;
    let mut core = CollectorCore::new(
        1e12,
        CostModel::default(),
        NetConfig::default(),
        AttrCatalog::new(),
    );
    let frame = |epoch: u64| {
        WireMessage::data(
            0,
            NodeId(0),
            epoch,
            (0..VALUES)
                .map(|i| reading(i / 128, i % 128, epoch))
                .collect(),
        )
        .encode()
    };
    let mut report = EpochReport::default();
    let mut epoch = |core: &mut CollectorCore, epoch: u64, frame: Bytes| {
        core.refill();
        core.accept_arq(epoch, epoch, frame, &Sink, &mut report);
        core.drain_arq(epoch, &mut report);
    };
    // First sight of the pairs grows the store and the ingress queue.
    epoch(&mut core, 1, frame(1));
    epoch(&mut core, 2, frame(2));
    let third = frame(3);
    let (calls, _, ()) = allocations(|| epoch(&mut core, 3, third));
    assert_eq!(core.observed_pairs(), VALUES as usize);
    assert_eq!(report.delivered_values, 3 * u64::from(VALUES));
    // Decoded from the frame into the queue, from the queue into slots
    // that exist: nothing to allocate.
    assert_eq!(calls, 0, "allocations for {VALUES} known pairs");
}

#[test]
fn frame_decoder_allocates_for_payloads_only() {
    const FRAMES: usize = 100;
    const PAYLOAD: usize = 250;
    let mut wire = Vec::new();
    for i in 0..FRAMES {
        Envelope {
            dest: DEST_COLLECTOR,
            chan: CHAN_DATA,
            sent_epoch: i as u64,
            payload: Bytes::from_vec(vec![i as u8; PAYLOAD]),
        }
        .encode_into(&mut wire);
    }
    let mut dec = FrameDecoder::new();
    let (calls, bytes, ()) = allocations(|| dec.push(&wire));
    assert!(calls <= 1, "{calls} allocations to buffer one read");
    assert!(bytes <= wire.len() as u64);
    let (calls, bytes, pulled) = allocations(|| {
        let mut pulled = 0;
        while let Some(env) = dec.try_next().unwrap() {
            assert_eq!(env.payload.len(), PAYLOAD);
            pulled += 1;
        }
        pulled
    });
    assert_eq!(pulled, FRAMES);
    // A payload is its bytes and the handle `Bytes` shares them
    // through: two calls, and no byte of the buffer copied but the
    // payload's own — a decoder that moves what is still buffered for
    // every frame it hands out asks for FRAMES / 2 times as much.
    assert!(calls <= 2 * FRAMES as u64, "{calls} allocations");
    assert!(
        bytes <= (FRAMES * (PAYLOAD + 64)) as u64,
        "{bytes} bytes allocated for {FRAMES} payloads of {PAYLOAD}"
    );
}
