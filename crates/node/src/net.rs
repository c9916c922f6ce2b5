//! Socket plumbing shared by the node client and the collector
//! service: the TCP-backed [`Transport`] the agent state machine runs
//! on, the per-connection out-buffer (a node writes it once per batch
//! it read, the collector once per tick), the framed read loops, and
//! the safe `poll` wrapper the collector's readiness loop waits in.
//!
//! Topology is hub-and-spoke: every node holds exactly one TCP
//! connection to the collector, and the collector forwards node→node
//! tree traffic by the envelope's `dest` tag, holding it for the
//! destination's next tick. That keeps connection count linear in
//! nodes, a node's traffic at one read and one write per epoch, and
//! reconnection logic in one place.
//!
//! Nothing the product runs here owns a thread: [`spawn_writer`] is
//! called by the benchmark's `node.net.hop_us_p50` layer metric alone.

use bytes::Bytes;
use crossbeam::channel::Receiver;
use remo_core::NodeId;
use remo_runtime::framing::{
    Envelope, FrameDecoder, FrameError, CHAN_CTRL, CHAN_DATA, DEST_COLLECTOR, MAX_FRAME_LEN,
};
use remo_runtime::proto::WireMessage;
use remo_runtime::transport::{Endpoint, Transport};
use remo_runtime::CtrlMsg;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, recovering from poisoning: a panicked holder must
/// not take the monitoring plane down with it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Size of the buffer one `read` fills: a whole epoch's traffic of one
/// connection in the shapes we run, so a batch is one syscall. Also the
/// most the collector holds for a connection between ticks: more would
/// cost the peer a second read anyway.
pub(crate) const READ_BUF_LEN: usize = 64 * 1024;

/// Most bytes a connection may have queued and unwritten. A peer that
/// stops reading fills its socket buffer, then this; past it the
/// connection is closed instead of growing without bound. Four maximal
/// frames: one being written, and room for a burst behind it.
pub(crate) const MAX_PENDING_OUT: usize = 4 * MAX_FRAME_LEN;

/// Encoded envelopes waiting for a connection's next write, in the
/// order they were produced.
///
/// Work appends here and [`OutBuf::flush`] writes it: a node once per
/// batch it read, the collector when a tick (or something else that
/// cannot wait) is among it. On a blocking socket that is a
/// `write_all`; on a non-blocking one a short write keeps the
/// unwritten tail for the next flush.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    written: usize,
}

impl OutBuf {
    /// Appends one framed envelope.
    pub(crate) fn push(&mut self, env: &Envelope) {
        env.encode_into(&mut self.buf);
    }

    /// Bytes appended and not yet written.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Writes as much of the pending bytes as `w` takes, in order.
    /// `Ok(true)`: everything went out. `Ok(false)`: `w` would block;
    /// the tail stays queued.
    ///
    /// # Errors
    ///
    /// Any other write error, a writer that accepts zero bytes, and
    /// more than [`MAX_PENDING_OUT`] bytes left behind a writer that
    /// would block — the peer has stopped reading; the caller closes
    /// the connection.
    pub(crate) fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.written < self.buf.len() {
            match w.write(&self.buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.pending() > MAX_PENDING_OUT {
                        return Err(io::Error::other("peer stopped reading"));
                    }
                    // Drop the written prefix so the buffer holds only
                    // what is owed.
                    self.buf.drain(..self.written);
                    self.written = 0;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.written = 0;
        Ok(true)
    }
}

/// The [`Transport`] a node agent runs on: frames are appended to the
/// current connection's out-buffer and leave in one write when the
/// node has worked through what it read ([`TcpTransport::flush`]), or
/// are dropped when disconnected — loss the agent's ARQ layer already
/// handles, exactly as it handles a lossy in-memory network.
pub struct TcpTransport {
    node: NodeId,
    /// `None` while disconnected. Only the node's own thread takes this
    /// lock; it exists because [`Transport`] is `Sync` with `&self`
    /// methods.
    out: Mutex<Option<OutBuf>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("node", &self.node)
            .finish()
    }
}

impl TcpTransport {
    /// A transport for `node`, initially disconnected.
    pub fn new(node: NodeId) -> Self {
        TcpTransport {
            node,
            out: Mutex::new(None),
        }
    }

    /// Starts buffering for a fresh connection.
    pub fn attach(&self) {
        *lock(&self.out) = Some(OutBuf::default());
    }

    /// Drops the buffer; subsequent sends are lost until the next
    /// [`TcpTransport::attach`] (ARQ retries cover the gap).
    pub fn detach(&self) {
        *lock(&self.out) = None;
    }

    /// Writes everything buffered since the last flush to the
    /// connection, blocking until it is out. Safe to block: the
    /// collector never waits on a socket, so it always drains.
    ///
    /// # Errors
    ///
    /// The connection's write error; the caller drops the connection.
    pub fn flush(&self, w: &mut impl Write) -> io::Result<()> {
        match lock(&self.out).as_mut() {
            Some(out) => out.flush(w).map(drop),
            None => Ok(()),
        }
    }

    fn enqueue(&self, env: &Envelope) {
        if let Some(out) = lock(&self.out).as_mut() {
            out.push(env);
        }
    }

    /// Queues a control-plane message for the collector.
    pub fn send_ctrl(&self, msg: &CtrlMsg, epoch: u64) {
        self.enqueue(&ctrl_envelope(DEST_COLLECTOR, epoch, msg));
    }
}

impl Transport for TcpTransport {
    fn send_data(&self, _from: NodeId, to: Endpoint, _seq: u64, epoch: u64, frame: Bytes) {
        let dest = match to {
            Endpoint::Collector => DEST_COLLECTOR,
            Endpoint::Node(n) => n.0,
        };
        self.enqueue(&Envelope {
            dest,
            chan: CHAN_DATA,
            sent_epoch: epoch,
            payload: frame,
        });
    }

    fn send_ack(&self, _from: Endpoint, to: NodeId, incarnation: u32, seq: u64, epoch: u64) {
        self.enqueue(&ack_envelope(self.node, to, incarnation, seq, epoch));
    }

    /// TCP delivers bytes reliably, but the *deployment* does not:
    /// processes restart, connections drop mid-epoch, and the hub may
    /// shed. Running the ARQ layer gives end-to-end acknowledgement
    /// and incarnation-scoped dedup across reconnects.
    fn reliable(&self) -> bool {
        false
    }
}

/// The envelope carrying control message `msg`.
pub(crate) fn ctrl_envelope(dest: u32, epoch: u64, msg: &CtrlMsg) -> Envelope {
    Envelope {
        dest,
        chan: CHAN_CTRL,
        sent_epoch: epoch,
        payload: msg.encode(),
    }
}

/// The envelope carrying `acker`'s ack of `to`'s data frame `seq`.
pub(crate) fn ack_envelope(
    acker: NodeId,
    to: NodeId,
    incarnation: u32,
    seq: u64,
    epoch: u64,
) -> Envelope {
    Envelope {
        dest: to.0,
        chan: CHAN_DATA,
        sent_epoch: epoch,
        payload: WireMessage::ack(0, acker, seq)
            .with_incarnation(incarnation)
            .encode(),
    }
}

/// Spawns the writer thread for one connection: drains `rx` into the
/// stream until the channel closes or a write fails, then shuts the
/// socket down.
pub fn spawn_writer(mut stream: TcpStream, rx: Receiver<Bytes>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for bytes in rx {
            if stream.write_all(&bytes).is_err() {
                break;
            }
        }
        let _ = stream.shutdown(Shutdown::Both);
    })
}

/// Pulls every complete envelope out of `dec`. `Ok(false)` as soon as
/// `on_env` returns `false`.
///
/// # Errors
///
/// A hostile declared length: framing sync is lost and the connection
/// is unrecoverable.
pub(crate) fn decode_all(
    dec: &mut FrameDecoder,
    mut on_env: impl FnMut(Envelope) -> bool,
) -> Result<bool, FrameError> {
    while let Some(env) = dec.try_next()? {
        if !on_env(env) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Reads framed envelopes off `stream` until EOF, a read error, a
/// framing error (hostile length — the connection is unrecoverable),
/// or `on_env` returns `false`. After the envelopes of each read,
/// `on_batch` gets the stream — the point at which a run-to-completion
/// peer writes everything the batch made it say.
pub(crate) fn read_batches(
    stream: &mut TcpStream,
    mut on_env: impl FnMut(Envelope) -> bool,
    mut on_batch: impl FnMut(&mut TcpStream) -> io::Result<()>,
) -> io::Result<()> {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF_LEN];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        dec.push(&buf[..n]);
        match decode_all(&mut dec, &mut on_env) {
            Ok(true) => on_batch(stream)?,
            Ok(false) => return Ok(()),
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }
}

/// The per-envelope form of the batch reader, for a caller with nothing
/// to do between reads.
pub fn read_envelopes(
    stream: &mut TcpStream,
    on_env: impl FnMut(Envelope) -> bool,
) -> io::Result<()> {
    read_batches(stream, on_env, |_| Ok(()))
}

// ------------------------------------------------------------------ poll

/// One entry of a [`poll`] set: laid out as C's `struct pollfd`.
#[cfg(unix)]
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: std::os::fd::RawFd,
    events: i16,
    revents: i16,
}

/// `POLLIN` / `POLLOUT` and the three conditions the kernel reports
/// unasked. The values are the same on every Unix we build for.
#[cfg(unix)]
const POLLIN: i16 = 0x001;
#[cfg(unix)]
const POLLOUT: i16 = 0x004;
#[cfg(unix)]
const POLLERR: i16 = 0x008;
#[cfg(unix)]
const POLLHUP: i16 = 0x010;
#[cfg(unix)]
const POLLNVAL: i16 = 0x020;

#[cfg(unix)]
impl PollFd {
    /// Waits for `fd` to become readable and, if `want_write`, writable.
    pub(crate) fn new(fd: &impl std::os::fd::AsRawFd, want_write: bool) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        }
    }

    /// A read will not block: data, EOF, or an error to collect.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Blocks until at least one entry of `fds` is ready or `timeout`
/// passes (rounded up to a millisecond, capped at `i32::MAX` ms);
/// returns how many are ready. `EINTR` restarts the wait.
///
/// # Errors
///
/// `poll(2)`'s own: `EINVAL` (more entries than `RLIMIT_NOFILE`) or
/// `ENOMEM`.
#[cfg(unix)]
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        #[link_name = "poll"]
        fn sys_poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }

    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::ffi::c_int;
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `PollFd`,
        // which is `#[repr(C)]` with exactly `struct pollfd`'s fields
        // (int, short, short); the pointer and length describe that
        // slice and nothing else, the kernel reads `fd`/`events` and
        // writes `revents` of those entries only, and keeps no pointer
        // once the call returns. Any `fd` value is allowed: one that is
        // not open comes back as `POLLNVAL`, not as undefined
        // behaviour.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// Takes `quota` bytes per refill, then would block.
    struct Choked {
        taken: Vec<u8>,
        quota: usize,
    }

    impl Write for Choked {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.quota == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.quota);
            self.taken.extend_from_slice(&buf[..n]);
            self.quota -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn env(dest: u32, len: usize) -> Envelope {
        Envelope {
            dest,
            chan: CHAN_DATA,
            sent_epoch: u64::from(dest),
            payload: Bytes::from(vec![dest as u8; len]),
        }
    }

    #[test]
    fn short_writes_deliver_every_byte_once_and_in_order() {
        let envs: Vec<Envelope> = (0..40).map(|i| env(i, (i as usize * 37) % 300)).collect();
        let mut want = Vec::new();
        for e in &envs {
            e.encode_into(&mut want);
        }
        for k in [1, 7, 64, 4096] {
            let mut out = OutBuf::default();
            let mut sink = Choked {
                taken: Vec::new(),
                quota: 0,
            };
            // Appends interleaved with choked flushes, then drain.
            for e in &envs {
                out.push(e);
                sink.quota = k;
                let _ = out.flush(&mut sink).unwrap();
            }
            while out.pending() > 0 {
                sink.quota = k;
                out.flush(&mut sink).unwrap();
            }
            assert_eq!(sink.taken, want, "k = {k}");
            sink.quota = k;
            assert!(out.flush(&mut sink).unwrap(), "empty flush is complete");
        }
    }

    #[test]
    fn a_peer_that_stops_reading_trips_the_cap_and_no_earlier() {
        let mut out = OutBuf::default();
        let mut stalled = Choked {
            taken: Vec::new(),
            quota: 0,
        };
        let big = env(1, MAX_FRAME_LEN - 64);
        let per = 4 + 13 + big.payload.len();
        let mut queued = 0;
        loop {
            out.push(&big);
            queued += per;
            match out.flush(&mut stalled) {
                Ok(done) => {
                    assert!(!done);
                    assert!(queued <= MAX_PENDING_OUT, "cap missed at {queued}");
                    assert_eq!(
                        out.pending(),
                        queued,
                        "nothing may be dropped below the cap"
                    );
                }
                Err(_) => {
                    assert!(queued > MAX_PENDING_OUT, "cap tripped early at {queued}");
                    break;
                }
            }
        }
        assert!(stalled.taken.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn poll_reports_readable_and_times_out() {
        use std::os::unix::net::UnixStream;
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&b, false)];
        assert_eq!(poll(&mut fds, Duration::from_millis(5)).unwrap(), 0);
        assert!(!fds[0].readable());
        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(fds[0].readable());
        // Asked for, an idle socket's writability is reported too.
        let mut c = [PollFd::new(&a, false)];
        assert_eq!(poll(&mut c, Duration::ZERO).unwrap(), 0);
        let mut c = [PollFd::new(&a, true)];
        assert_eq!(poll(&mut c, Duration::ZERO).unwrap(), 1);
        assert!(!c[0].readable());
        // A hung-up peer reads as ready (EOF), not as a hang.
        drop(a);
        let mut fds = [PollFd::new(&b, false)];
        assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(fds[0].readable());
    }

    /// A descriptor number with nothing behind the borrow: what a poll
    /// set holds for a connection closed under it.
    #[cfg(unix)]
    struct RawFdOnly(std::os::fd::RawFd);

    #[cfg(unix)]
    impl std::os::fd::AsRawFd for RawFdOnly {
        fn as_raw_fd(&self) -> std::os::fd::RawFd {
            self.0
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_closed_fd_in_the_set_reads_as_ready_and_is_not_an_error() {
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        let (a, b) = UnixStream::pair().unwrap();
        // Far above anything the test binary's other threads open, so
        // the number stays closed.
        let closed = RawFdOnly(a.as_raw_fd() + 50_000);
        let mut fds = [PollFd::new(&b, false), PollFd::new(&closed, true)];
        // POLLNVAL: the round goes on, the owner's read fails with
        // EBADF and closes that connection alone.
        assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(!fds[0].readable());
        assert!(fds[1].readable());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_set_the_kernel_refuses_is_an_error_not_a_timeout() {
        let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
        let soft: Option<usize> = limits
            .lines()
            .find_map(|l| l.strip_prefix("Max open files"))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok());
        // An unlimited (or absurd) RLIMIT_NOFILE cannot be exceeded
        // with a set worth allocating.
        let Some(soft) = soft.filter(|&n| n <= 1 << 20) else {
            return;
        };
        // Negative descriptors are skipped by the kernel; the count
        // alone is over the limit.
        let mut fds = vec![PollFd::new(&RawFdOnly(-1), false); soft + 1];
        let err = poll(&mut fds, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
