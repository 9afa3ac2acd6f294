//! Multi-process transport: each [`Actor`] runs in its own OS process and
//! exchanges [`WireCodec`]-encoded frames over TCP or Unix domain sockets.
//!
//! This is the second net backend (after the deterministic simulator):
//! real kernel scheduling, real sockets, real bytes. A **coordinator**
//! process spawns one child per replica
//! (same binary, `--node-id`/`--listen`/`--peers` flags), connects a
//! control channel to each, releases them simultaneously, polls progress,
//! and finally collects one opaque report blob per node.
//!
//! # Framing
//!
//! Every frame on a stream is `u32` little-endian length + payload,
//! capped at [`MAX_FRAME_LEN`]. The first frame on any connection is a
//! hello identifying the dialing side (peer node id, or the control
//! plane); subsequent frames are encoded protocol messages (on peer
//! connections) or control commands/replies (on the control connection).
//!
//! # Semantics vs the simulator
//!
//! A child steps its replica through the same [`Harness`] node step as
//! [`crate::SimNet`], so compute energy lands in the same phases, and
//! prices every reception with the same scan-aware rule
//! ([`ChannelCost::reception`], the window given to [`run_node`]). The
//! one difference is the medium: the process mesh is fully connected, so
//! `Multicast` and untargeted `Flood` effects become one unicast frame
//! per peer and targeted floods go straight to the target — no relaying,
//! hence no relay sends and no duplicate receptions. Commit logic is
//! unaffected (the simulator's flood also delivers each message at most
//! once to each node). A node pays one `send_mj(bytes, r)` per burst of
//! `r` recipients. Wall-clock runs are nondeterministic, and so is which
//! receptions share a scan window; the deterministic energy figures stay
//! the simulator's job (see README "Known deviations").
//!
//! Writes that fail mid-run trigger a bounded reconnect-and-resend
//! (see [`RECONNECT_ATTEMPTS`]); frames that still cannot be delivered
//! are counted in [`NetStats::dropped`].

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use eesmr_crypto::KeySet;
use eesmr_energy::EnergyMeter;

use crate::actor::{Actor, NodeId, Output};
use crate::channel::ChannelCost;
use crate::codec::{self, WireCodec};
use crate::harness::Harness;
use crate::message::Message;
use crate::runtime::NetStats;
use crate::sched::Entry;
use crate::time::{SimDuration, SimTime};

/// Largest frame either side will read (64 MiB): big enough for any
/// repair batch, small enough that a hostile length prefix cannot drive
/// an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// How many times a failed peer write retries the connection before the
/// frame is counted as dropped.
pub const RECONNECT_ATTEMPTS: u32 = 5;

/// What every hello frame starts with: `EPH` and the codec version.
const HELLO_PREFIX: [u8; 4] = [b'E', b'P', b'H', codec::VERSION];
/// Hello-frame role: an ordinary replica peer.
const ROLE_PEER: u8 = 0;
/// Hello-frame role: the coordinator's control connection.
const ROLE_CTRL: u8 = 1;

/// Control command: release the child into `on_start` + its main loop.
const CMD_START: u8 = 1;
/// Control command: request a progress [`REPLY_STATUS`].
const CMD_POLL: u8 = 2;
/// Control command: stop and send the final [`REPLY_REPORT`].
const CMD_STOP: u8 = 3;
/// Control reply: one `u64` progress value.
const REPLY_STATUS: u8 = 4;
/// Control reply: the node's opaque report blob.
const REPLY_REPORT: u8 = 5;

/// Which socket family carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcTransport {
    /// TCP over loopback (or any routable address).
    Tcp,
    /// Unix domain sockets (addresses are filesystem paths).
    Uds,
}

impl ProcTransport {
    /// Parses the `--transport` flag value.
    pub fn parse(s: &str) -> Option<ProcTransport> {
        match s {
            "tcp" => Some(ProcTransport::Tcp),
            "uds" => Some(ProcTransport::Uds),
            _ => None,
        }
    }

    /// The flag value [`ProcTransport::parse`] accepts for `self`.
    pub fn flag(self) -> &'static str {
        match self {
            ProcTransport::Tcp => "tcp",
            ProcTransport::Uds => "uds",
        }
    }
}

/// A connected stream of either transport.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn connect(transport: ProcTransport, addr: &str) -> io::Result<Stream> {
        match transport {
            ProcTransport::Tcp => TcpStream::connect(addr).map(Stream::Tcp),
            ProcTransport::Uds => UnixStream::connect(addr).map(Stream::Uds),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    /// Bounds every later blocking read and write on this stream.
    fn set_io_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
            Stream::Uds(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A bound listener of either transport.
enum ListenerSock {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl ListenerSock {
    fn bind(transport: ProcTransport, addr: &str) -> io::Result<ListenerSock> {
        match transport {
            ProcTransport::Tcp => TcpListener::bind(addr).map(ListenerSock::Tcp),
            ProcTransport::Uds => {
                // A stale socket file from a crashed run blocks bind.
                let _ = std::fs::remove_file(addr);
                UnixListener::bind(addr).map(ListenerSock::Uds)
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            ListenerSock::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            ListenerSock::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
        }
    }
}

/// Writes one length-delimited frame and flushes; a payload over
/// [`MAX_FRAME_LEN`] is refused with `InvalidInput`, nothing written.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_LEN"));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-delimited frame.
fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME_LEN"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// The first frame on every connection: [`HELLO_PREFIX`], then the
/// dialing side's `(role, node id)`.
fn hello_frame(role: u8, id: NodeId) -> Vec<u8> {
    let mut f = HELLO_PREFIX.to_vec();
    (role, id).encode_into(&mut f);
    f
}

fn parse_hello(frame: &[u8]) -> io::Result<(u8, NodeId)> {
    frame
        .strip_prefix(&HELLO_PREFIX)
        .and_then(|hello| <(u8, NodeId)>::decode(hello).ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad hello frame"))
}

/// Command-line shape of one child replica: identity, where to listen,
/// and every peer's address.
#[derive(Debug, Clone)]
pub struct ChildOpts {
    /// This replica's node id.
    pub node_id: NodeId,
    /// Socket family shared by the whole mesh.
    pub transport: ProcTransport,
    /// Address this node binds (`host:port` or a socket path).
    pub listen: String,
    /// `(peer id, peer address)` for every *other* node.
    pub peers: Vec<(NodeId, String)>,
}

impl ChildOpts {
    /// Renders `peers` in the `--peers` flag format `id@addr,id@addr,…`.
    pub fn peers_flag(peers: &[(NodeId, String)]) -> String {
        let parts: Vec<String> = peers.iter().map(|(id, a)| format!("{id}@{a}")).collect();
        parts.join(",")
    }

    /// Parses the `--peers` flag format produced by
    /// [`ChildOpts::peers_flag`].
    pub fn parse_peers(s: &str) -> Option<Vec<(NodeId, String)>> {
        if s.is_empty() {
            return Some(Vec::new());
        }
        s.split(',')
            .map(|part| {
                let (id, addr) = part.split_once('@')?;
                Some((id.parse().ok()?, addr.to_string()))
            })
            .collect()
    }
}

/// Events the reader threads feed into a child's main loop.
enum PEvent<M> {
    Deliver { origin: NodeId, msg: M, arrived: Option<Instant>, target: Option<NodeId> },
    Ctrl(u8),
    CtrlConnected(Stream),
}

/// One outbound peer connection with bounded reconnect-on-drop.
struct PeerLink {
    id: NodeId,
    addr: String,
    transport: ProcTransport,
    self_id: NodeId,
    stream: Option<Stream>,
}

impl PeerLink {
    fn connect(&mut self) -> io::Result<()> {
        let mut s = Stream::connect(self.transport, &self.addr)?;
        write_frame(&mut s, &hello_frame(ROLE_PEER, self.self_id))?;
        self.stream = Some(s);
        Ok(())
    }

    /// Sends a frame, reconnecting with backoff if the link dropped.
    /// Returns `false` if the frame had to be abandoned.
    fn send(&mut self, frame: &[u8]) -> bool {
        if let Some(s) = self.stream.as_mut() {
            if write_frame(s, frame).is_ok() {
                return true;
            }
            self.stream = None;
        }
        for attempt in 0..RECONNECT_ATTEMPTS {
            if self.connect().is_ok() {
                if let Some(s) = self.stream.as_mut() {
                    if write_frame(s, frame).is_ok() {
                        return true;
                    }
                    self.stream = None;
                }
            }
            std::thread::sleep(Duration::from_millis(10 << attempt));
        }
        false
    }
}

/// Runs one replica process: binds, meshes with every peer, waits for the
/// coordinator's start command, then drives `actor` off the wall clock
/// until the coordinator stops it.
///
/// `channel` prices its sends and receptions, a scan window lasting
/// `scan_window` (the simulator's `NetConfig::hop_delay_max`). `status`
/// maps the live actor to the `u64` progress value returned to
/// [`Coordinator::statuses`]; `report` renders the final actor, its
/// energy meter, and the transport counters into the opaque blob
/// [`Coordinator::stop_and_collect`] returns. Returns once that blob is
/// sent.
pub fn run_node<A, S, R>(
    opts: ChildOpts,
    actor: A,
    channel: ChannelCost,
    scan_window: SimDuration,
    status: S,
    report: R,
) -> io::Result<()>
where
    A: Actor,
    A::Msg: WireCodec + Send + 'static,
    S: Fn(&A) -> u64,
    R: FnOnce(&A, &EnergyMeter, &NetStats) -> Vec<u8>,
{
    let listener = ListenerSock::bind(opts.transport, &opts.listen)?;
    let (tx, rx) = mpsc::channel::<PEvent<A::Msg>>();

    // Accept loop: every inbound connection identifies itself with a
    // hello, then its reader thread pumps decoded frames into the main
    // loop. Threads exit when their stream closes; the accept thread
    // lives for the process lifetime.
    std::thread::spawn(move || {
        while let Ok(mut stream) = listener.accept() {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let hello = read_frame(&mut stream).and_then(|hello| parse_hello(&hello));
                let Ok((role, origin)) = hello else { return };
                if role == ROLE_CTRL {
                    let Ok(writer) = stream.try_clone() else { return };
                    if tx.send(PEvent::CtrlConnected(writer)).is_err() {
                        return;
                    }
                    while let Some(cmd) =
                        read_frame(&mut stream).ok().and_then(|f| u8::decode(&f).ok())
                    {
                        if tx.send(PEvent::Ctrl(cmd)).is_err() {
                            return;
                        }
                    }
                } else {
                    while let Ok(frame) = read_frame(&mut stream) {
                        let arrived = Some(Instant::now());
                        // A malformed frame from a peer is that peer's
                        // fault; drop it and keep reading.
                        let Ok(msg) = A::Msg::decode(&frame) else { continue };
                        let deliver = PEvent::Deliver { origin, msg, arrived, target: None };
                        if tx.send(deliver).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });

    // Dial every peer. Their listeners may not be up yet, so retry with
    // backoff for a generous window.
    let mut links: Vec<PeerLink> = opts
        .peers
        .iter()
        .map(|(id, addr)| PeerLink {
            id: *id,
            addr: addr.clone(),
            transport: opts.transport,
            self_id: opts.node_id,
            stream: None,
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    for link in &mut links {
        loop {
            match link.connect() {
                Ok(()) => break,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    // Hold for the start command; frames from faster peers queue up.
    let mut ctrl: Option<Stream> = None;
    let mut pending: VecDeque<PEvent<A::Msg>> = VecDeque::new();
    let died = || io::Error::new(io::ErrorKind::BrokenPipe, "accept loop died");
    loop {
        match rx.recv().map_err(|_| died())? {
            PEvent::CtrlConnected(w) => ctrl = Some(w),
            PEvent::Ctrl(CMD_START) => break,
            PEvent::Ctrl(_) => {}
            deliver => pending.push_back(deliver),
        }
    }

    let mut rt = ProcRuntime {
        node: Harness::new(opts.node_id, actor),
        channel,
        scan_window,
        links,
        stats: NetStats::default(),
        start: Instant::now(),
        timers: BinaryHeap::new(),
        cancelled: KeySet::default(),
        local: VecDeque::new(),
    };
    rt.step(Harness::start);
    for ev in pending {
        rt.handle(ev);
    }

    loop {
        let now_us = rt.now_us();
        while let Some(Reverse(Entry { seq: id, payload: token, .. })) =
            rt.timers.peek_mut().filter(|head| head.0.time <= now_us).map(PeekMut::pop)
        {
            if !rt.cancelled.remove(&id) {
                rt.step(|node| node.fire(token));
            }
        }
        while let Some(ev) = rt.local.pop_front() {
            rt.handle(ev);
        }
        let next_us = rt.timers.peek().map_or(u64::MAX, |Reverse(head)| head.time);
        let wait = Duration::from_micros(next_us.saturating_sub(rt.now_us()));
        match rx.recv_timeout(wait.min(Duration::from_millis(20))) {
            Ok(PEvent::Ctrl(CMD_POLL)) => {
                if let Some(w) = ctrl.as_mut() {
                    let mut reply = vec![REPLY_STATUS];
                    status(rt.node.actor()).encode_into(&mut reply);
                    write_frame(w, &reply)?;
                }
            }
            Ok(PEvent::Ctrl(CMD_STOP)) => {
                let blob = report(rt.node.actor(), rt.node.meter(), &rt.stats);
                if let Some(w) = ctrl.as_mut() {
                    let mut reply = vec![REPLY_REPORT];
                    reply.extend_from_slice(&blob);
                    write_frame(w, &reply)?;
                }
                return Ok(());
            }
            Ok(PEvent::Ctrl(_)) => {}
            Ok(PEvent::CtrlConnected(w)) => ctrl = Some(w),
            Ok(ev) => rt.handle(ev),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Err(died()),
        }
    }
}

/// One process's node runtime: the actor's node step ([`Harness`]) on
/// the wall clock, a timer heap, and the effect handling of the
/// simulator's runtime, over sockets.
struct ProcRuntime<A: Actor> {
    node: Harness<A>,
    channel: ChannelCost,
    scan_window: SimDuration,
    links: Vec<PeerLink>,
    stats: NetStats,
    start: Instant,
    /// Pending timers, keyed `(due time, timer id)` like `SimNet`'s (ids count
    /// up in set order, breaking same-tick ties), cancelled ones in `cancelled`.
    timers: BinaryHeap<Reverse<Entry<A::Timer>>>,
    cancelled: KeySet<u64>,
    local: VecDeque<PEvent<A::Msg>>,
}

impl<A: Actor> ProcRuntime<A>
where
    A::Msg: WireCodec + Send + 'static,
{
    /// Wall-clock microseconds since the node was released.
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Runs one node step at the wall clock — the harness clock moves up
    /// to now first — and applies the outputs it returns.
    fn step(&mut self, step: impl FnOnce(&mut Harness<A>) -> Vec<Output<A::Msg, A::Timer>>) {
        let now = SimTime::from_micros(self.now_us());
        self.node.advance(now.since(self.node.now()));
        for effect in step(&mut self.node) {
            self.apply(effect);
        }
    }

    /// Sends one encoded frame to every peer, or only to `only`, as a
    /// single transmission burst, charging the channel model once.
    fn transmit(&mut self, msg: &A::Msg, only: Option<NodeId>) {
        let frame = msg.encode();
        let mut sent = 0u64;
        for link in self.links.iter_mut().filter(|link| only.is_none_or(|t| t == link.id)) {
            if link.send(&frame) {
                sent += 1;
            } else {
                self.stats.dropped += 1;
            }
        }
        if sent > 0 {
            self.node.sent(&self.channel, frame.len(), sent as usize, msg.phase());
            self.stats.kcasts += 1;
            self.stats.bytes_on_air += frame.len() as u64;
        }
    }

    fn apply(&mut self, effect: Output<A::Msg, A::Timer>) {
        let (msg, target) = match effect {
            Output::Multicast(msg) => (msg, None),
            Output::Flood { msg, target } => (msg, target),
            Output::SetTimer { id, delay, token } => {
                let time = self.now_us() + delay.as_micros();
                self.timers.push(Reverse(Entry { time, seq: id.0, payload: token }));
                return;
            }
            Output::CancelTimer(id) => {
                self.cancelled.insert(id.0);
                return;
            }
        };
        // Full mesh: a multicast or an untargeted flood is a broadcast and
        // a targeted flood is a unicast; no relaying happens, so there is
        // nothing to deduplicate.
        let origin = self.node.id();
        if target != Some(origin) {
            self.transmit(&msg, target);
        }
        self.local.push_back(PEvent::Deliver { origin, msg, arrived: None, target });
    }

    fn handle(&mut self, event: PEvent<A::Msg>) {
        let PEvent::Deliver { origin, msg, arrived, target } = event else { return };
        if let Some(arrived) = arrived {
            // Priced when the frame reached the socket, not when the node got
            // to it. Nothing is relayed over the mesh: no frame is a duplicate.
            let at_us = arrived.saturating_duration_since(self.start).as_micros() as u64;
            let (bytes, phase) = (msg.wire_size(), msg.phase());
            self.node.received(&self.channel, self.scan_window, bytes, true, at_us, phase);
        } else {
            self.stats.loopbacks += 1;
        }
        if target.is_none_or(|t| t == self.node.id()) {
            self.stats.deliveries += 1;
            self.step(|node| node.deliver(origin, msg));
        }
    }
}

/// The coordinator's half of the control protocol: one connection per
/// child, lock-step command/reply. Every exchange is bounded by the
/// timeout given to [`Coordinator::connect`], so a stopped or wedged
/// child surfaces as [`io::ErrorKind::TimedOut`] instead of hanging the
/// coordinator.
pub struct Coordinator {
    links: Vec<Stream>,
}

/// Names the child behind a failed control exchange; a read or write
/// that ran into the stream's timeout (`WouldBlock` on Unix) becomes
/// `TimedOut`.
fn ctrl_err(child: usize, err: io::Error) -> io::Error {
    let kind = match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::ErrorKind::TimedOut,
        kind => kind,
    };
    io::Error::new(kind, format!("control channel to child {child}: {err}"))
}

impl Coordinator {
    /// Connects a control channel to every child, retrying each address
    /// until `timeout` (children need a moment to bind). The same bound
    /// then applies to every later read and write on the channel: a
    /// healthy child answers within its poll interval, milliseconds, so
    /// choose it far above that.
    pub fn connect(
        transport: ProcTransport,
        addrs: &[String],
        timeout: Duration,
    ) -> io::Result<Coordinator> {
        let deadline = Instant::now() + timeout;
        let mut links = Vec::with_capacity(addrs.len());
        for (child, addr) in addrs.iter().enumerate() {
            loop {
                match Stream::connect(transport, addr) {
                    Ok(mut s) => {
                        s.set_io_timeout(timeout)?;
                        write_frame(&mut s, &hello_frame(ROLE_CTRL, u32::MAX))
                            .map_err(|e| ctrl_err(child, e))?;
                        links.push(s);
                        break;
                    }
                    Err(e) if Instant::now() >= deadline => return Err(ctrl_err(child, e)),
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        Ok(Coordinator { links })
    }

    /// Sends the one-byte command `cmd` to every child.
    fn command(&mut self, cmd: u8) -> io::Result<()> {
        for (child, link) in self.links.iter_mut().enumerate() {
            write_frame(link, &[cmd]).map_err(|e| ctrl_err(child, e))?;
        }
        Ok(())
    }

    /// Reads one reply tagged `tag` from every child and returns the
    /// bodies, in child order.
    fn replies(&mut self, tag: u8) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.links.len());
        for (child, link) in self.links.iter_mut().enumerate() {
            let mut frame = read_frame(link).map_err(|e| ctrl_err(child, e))?;
            if frame.first() != Some(&tag) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("child {child}: unexpected control reply"),
                ));
            }
            frame.remove(0);
            out.push(frame);
        }
        Ok(out)
    }

    /// Releases every child into its protocol (they bind and mesh before
    /// this; none runs `on_start` until told).
    pub fn start(&mut self) -> io::Result<()> {
        self.command(CMD_START)
    }

    /// One round of progress polling: each child's `status` value.
    pub fn statuses(&mut self) -> io::Result<Vec<u64>> {
        self.command(CMD_POLL)?;
        self.replies(REPLY_STATUS)?
            .iter()
            .map(|body| {
                u64::decode(body).map_err(|err| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad status reply: {err}"))
                })
            })
            .collect()
    }

    /// Polls until `done(statuses)` or `timeout`; returns the last
    /// status vector.
    pub fn run_until(
        &mut self,
        done: impl Fn(&[u64]) -> bool,
        timeout: Duration,
    ) -> io::Result<Vec<u64>> {
        let deadline = Instant::now() + timeout;
        loop {
            let statuses = self.statuses()?;
            if done(&statuses) {
                return Ok(statuses);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("run_until timed out with statuses {statuses:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops every child and collects its report blob.
    pub fn stop_and_collect(mut self) -> io::Result<Vec<Vec<u8>>> {
        self.command(CMD_STOP)?;
        self.replies(REPLY_REPORT)
    }
}

/// A spawned child replica killed on drop, so a failing coordinator
/// never leaves orphan processes behind.
pub struct ChildProc(pub std::process::Child);

impl Drop for ChildProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

static ADDR_EPOCH: AtomicU64 = AtomicU64::new(0);

/// The listen addresses [`alloc_addrs`] hands out, indexable as a
/// `[String]`. For UDS it owns the temp directory holding the socket
/// files and removes it, sockets included, when dropped — on success and
/// on every error path alike.
#[derive(Debug)]
pub struct MeshAddrs {
    addrs: Vec<String>,
    dir: Option<PathBuf>,
}

impl std::ops::Deref for MeshAddrs {
    type Target = [String];

    fn deref(&self) -> &[String] {
        &self.addrs
    }
}

impl Drop for MeshAddrs {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Allocates `n` fresh listen addresses: loopback ports for TCP (bound
/// briefly to reserve them, then released), or socket paths in a fresh
/// temp directory for UDS.
pub fn alloc_addrs(transport: ProcTransport, n: usize) -> io::Result<MeshAddrs> {
    match transport {
        ProcTransport::Tcp => {
            let mut held = Vec::with_capacity(n);
            let mut addrs = Vec::with_capacity(n);
            for _ in 0..n {
                let l = TcpListener::bind("127.0.0.1:0")?;
                addrs.push(format!("127.0.0.1:{}", l.local_addr()?.port()));
                held.push(l); // hold all n so one port is not reused
            }
            Ok(MeshAddrs { addrs, dir: None })
        }
        ProcTransport::Uds => {
            let epoch = ADDR_EPOCH.fetch_add(1, Ordering::Relaxed);
            let dir: PathBuf =
                std::env::temp_dir().join(format!("eesmr-proc-{}-{epoch}", std::process::id()));
            std::fs::create_dir_all(&dir)?;
            let addrs =
                (0..n).map(|i| dir.join(format!("n{i}.sock")).display().to_string()).collect();
            Ok(MeshAddrs { addrs, dir: Some(dir) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping {
        seq: u64,
    }

    crate::wire_struct! { Ping { seq: u64 } }

    impl Message for Ping {
        fn wire_size(&self) -> usize {
            self.encoded_len()
        }
        fn flood_key(&self) -> u64 {
            self.seq
        }
    }

    /// Node 0 floods one ping on start and arms two timers: one it keeps,
    /// and one, due first, that it cancels. Every node counts what it
    /// hears and echoes a targeted reply back to node 0.
    #[derive(Debug, Default)]
    struct Echo {
        got: u64,
        replies: u64,
        kept_fired: u64,
        cancelled_fired: u64,
    }

    crate::wire_struct! { Echo { got: u64, replies: u64, kept_fired: u64, cancelled_fired: u64 } }

    impl Actor for Echo {
        type Msg = Ping;
        /// Whether the timer is the one node 0 keeps.
        type Timer = bool;

        fn on_start(&mut self, ctx: &mut Context<'_, Ping, bool>) {
            if ctx.id() == 0 {
                ctx.flood(Ping { seq: 7 });
                let cancelled = ctx.set_timer(SimDuration::from_millis(1), false);
                ctx.set_timer(SimDuration::from_millis(2), true);
                ctx.cancel_timer(cancelled);
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping, bool>) {
            if msg.seq == 7 {
                self.got += 1;
                if ctx.id() != 0 {
                    ctx.send_to(0, Ping { seq: 100 + ctx.id() as u64 });
                }
            } else {
                self.replies += 1;
            }
        }

        fn on_timer(&mut self, kept: bool, _ctx: &mut Context<'_, Ping, bool>) {
            if kept {
                self.kept_fired += 1;
            } else {
                self.cancelled_fired += 1;
            }
        }
    }

    fn mesh_roundtrip(transport: ProcTransport) {
        const N: usize = 3;
        let addrs = alloc_addrs(transport, N).unwrap();
        let mut handles = Vec::new();
        for id in 0..N {
            let peers: Vec<(NodeId, String)> =
                (0..N).filter(|p| *p != id).map(|p| (p as NodeId, addrs[p].clone())).collect();
            let opts =
                ChildOpts { node_id: id as NodeId, transport, listen: addrs[id].clone(), peers };
            handles.push(std::thread::spawn(move || {
                run_node(
                    opts,
                    Echo::default(),
                    ChannelCost::ble_four_nines(2),
                    SimDuration::from_micros(1_000),
                    |a: &Echo| a.got + a.replies + a.kept_fired,
                    |a, meter, stats| {
                        let mut blob = a.encode();
                        (meter.total_mj(), stats.deliveries).encode_into(&mut blob);
                        blob
                    },
                )
                .unwrap()
            }));
        }

        let mut coord = Coordinator::connect(transport, &addrs, Duration::from_secs(10)).unwrap();
        coord.start().unwrap();
        // Node 0 hears its own flood plus N-1 replies, and its kept timer
        // fires; others hear one.
        coord
            .run_until(
                |s| s[0] > N as u64 && s[1..].iter().all(|v| *v >= 1),
                Duration::from_secs(10),
            )
            .unwrap();
        let blobs = coord.stop_and_collect().unwrap();
        for (i, blob) in blobs.iter().enumerate() {
            let (echo, (mj, deliveries)) = <(Echo, (f64, u64))>::decode(blob).unwrap();
            assert_eq!(echo.got, 1, "node {i} heard the flood once");
            if i == 0 {
                assert_eq!(echo.replies, (N - 1) as u64, "node 0 got every reply");
                assert_eq!(echo.kept_fired, 1, "the kept timer fired once");
                assert_eq!(echo.cancelled_fired, 0, "the cancelled timer never fired");
                assert_eq!(deliveries, N as u64, "its own flood plus every reply");
            }
            assert!(mj > 0.0, "node {i} paid for radio work");
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn uds_mesh_flood_and_targeted_replies() {
        mesh_roundtrip(ProcTransport::Uds);
    }

    #[test]
    fn tcp_mesh_flood_and_targeted_replies() {
        mesh_roundtrip(ProcTransport::Tcp);
    }

    #[test]
    fn stalled_control_peer_times_out_instead_of_hanging() {
        // A child that completes the hello and then never answers a poll
        // (SIGSTOPped, wedged): the poll must fail with `TimedOut`
        // naming the child, within the bound given to `connect`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let stalled = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = read_frame(&mut stream).unwrap();
            assert_eq!(parse_hello(&hello).unwrap(), (ROLE_CTRL, u32::MAX));
            let _ = hold.recv(); // keep the connection open, silently
        });
        let bound = Duration::from_millis(300);
        let mut coord = Coordinator::connect(ProcTransport::Tcp, &[addr], bound).unwrap();
        let asked = Instant::now();
        let err = coord.statuses().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("child 0"), "{err}");
        assert!(asked.elapsed() < 10 * bound, "took {:?}", asked.elapsed());
        drop(release);
        stalled.join().unwrap();
    }

    /// `decodes` must answer every strict prefix of `bytes` with an error
    /// and every copy with one byte XORed by 0x01, 0x80 or 0xff with `Ok`
    /// or `Err`, never a panic.
    fn assert_decoding_is_total(bytes: &[u8], decodes: impl Fn(&[u8]) -> bool) {
        assert!(decodes(bytes), "{bytes:?} does not decode");
        for len in 0..bytes.len() {
            assert!(!decodes(&bytes[..len]), "{len}-byte prefix of {bytes:?} decoded");
        }
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                decodes(&flipped);
            }
        }
    }

    #[test]
    fn hello_and_status_decoding_is_total() {
        for hello in [hello_frame(ROLE_PEER, 7), hello_frame(ROLE_CTRL, u32::MAX)] {
            assert_decoding_is_total(&hello, |frame| parse_hello(frame).is_ok());
        }
        for status in [0, 42, u64::MAX] {
            // A status reply's body, as `Coordinator::statuses` decodes it.
            let mut reply = vec![REPLY_STATUS];
            status.encode_into(&mut reply);
            assert_decoding_is_total(&reply[1..], |body| u64::decode(body).is_ok());
        }
    }

    #[test]
    fn peers_flag_round_trips() {
        let peers = vec![(0u32, "a:1".to_string()), (2u32, "/tmp/x.sock".to_string())];
        let flag = ChildOpts::peers_flag(&peers);
        assert_eq!(ChildOpts::parse_peers(&flag).unwrap(), peers);
        assert_eq!(ChildOpts::parse_peers("").unwrap(), Vec::new());
        assert!(ChildOpts::parse_peers("junk").is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(read_frame(&mut buf).is_err());
    }

    #[test]
    fn oversized_frame_refused_on_write() {
        let err = write_frame(&mut io::sink(), &vec![0; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }
}
