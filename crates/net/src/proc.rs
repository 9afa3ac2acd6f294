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
//! The process mesh is fully connected, so `Multicast` and untargeted
//! `Flood` effects become one unicast frame per peer and targeted floods
//! go straight to the target — no relaying. Commit logic is unaffected
//! (the simulator's flood also delivers each message at most once to each
//! node), but energy differs: here a node pays one `send_mj(bytes, r)`
//! per transmission burst of `r` recipients and `recv_mj` per frame
//! received, with no relay or duplicate-suppression costs. Wall-clock
//! runs are nondeterministic; the deterministic energy figures stay the
//! simulator's job (see README "Known deviations").
//!
//! Writes that fail mid-run trigger a bounded reconnect-and-resend
//! (see [`RECONNECT_ATTEMPTS`]); frames that still cannot be delivered
//! are counted in [`NetStats::dropped`].

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use eesmr_energy::{EnergyCategory, EnergyMeter};

use crate::actor::{Actor, Context, Effect, NodeId, TimerId};
use crate::channel::ChannelCost;
use crate::codec::WireCodec;
use crate::message::Message;
use crate::runtime::NetStats;
use crate::sched::CalendarQueue;
use crate::time::SimTime;

/// Largest frame either side will read (64 MiB): big enough for any
/// repair batch, small enough that a hostile length prefix cannot drive
/// an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// How many times a failed peer write retries the connection before the
/// frame is counted as dropped.
pub const RECONNECT_ATTEMPTS: u32 = 5;

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

/// Writes one length-delimited frame and flushes.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
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

fn hello_frame(role: u8, id: NodeId) -> Vec<u8> {
    let mut f = Vec::with_capacity(9);
    f.extend_from_slice(b"EPH");
    f.push(crate::codec::VERSION);
    f.push(role);
    f.extend_from_slice(&id.to_le_bytes());
    f
}

fn parse_hello(frame: &[u8]) -> io::Result<(u8, NodeId)> {
    if frame.len() != 9 || &frame[..3] != b"EPH" || frame[3] != crate::codec::VERSION {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad hello frame"));
    }
    Ok((frame[4], u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]])))
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
    Deliver { origin: NodeId, msg: M, loopback: bool, target: Option<NodeId> },
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
/// `status` maps the live actor to the `u64` progress value returned to
/// [`Coordinator::statuses`]; `report` renders the final actor, its
/// energy meter, and the transport counters into the opaque blob
/// [`Coordinator::stop_and_collect`] returns. Returns once that blob is
/// sent.
pub fn run_node<A, S, R>(
    opts: ChildOpts,
    actor: A,
    channel: ChannelCost,
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
    let (tx, rx) = unbounded::<PEvent<A::Msg>>();

    // Accept loop: every inbound connection identifies itself with a
    // hello, then its reader thread pumps decoded frames into the main
    // loop. Threads exit when their stream closes; the accept thread
    // lives for the process lifetime.
    std::thread::spawn(move || {
        while let Ok(mut stream) = listener.accept() {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let hello = match read_frame(&mut stream) {
                    Ok(f) => f,
                    Err(_) => return,
                };
                let (role, origin) = match parse_hello(&hello) {
                    Ok(h) => h,
                    Err(_) => return,
                };
                if role == ROLE_CTRL {
                    let writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(_) => return,
                    };
                    if tx.send(PEvent::CtrlConnected(writer)).is_err() {
                        return;
                    }
                    while let Ok(frame) = read_frame(&mut stream) {
                        if frame.len() != 1 || tx.send(PEvent::Ctrl(frame[0])).is_err() {
                            return;
                        }
                    }
                } else {
                    while let Ok(frame) = read_frame(&mut stream) {
                        match A::Msg::decode(&frame) {
                            Ok(msg) => {
                                if tx
                                    .send(PEvent::Deliver {
                                        origin,
                                        msg,
                                        loopback: false,
                                        target: None,
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            // A malformed frame from a peer is that
                            // peer's fault; drop it and keep reading.
                            Err(_) => continue,
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
    loop {
        match rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "accept loop died"))?
        {
            PEvent::CtrlConnected(w) => ctrl = Some(w),
            PEvent::Ctrl(CMD_START) => break,
            PEvent::Ctrl(_) => {}
            deliver => pending.push_back(deliver),
        }
    }

    let mut rt = ProcRuntime {
        id: opts.node_id,
        actor,
        meter: EnergyMeter::new(),
        channel,
        links,
        stats: NetStats::default(),
        start: Instant::now(),
        next_timer_id: 0,
        timer_seq: 0,
        timers: CalendarQueue::new(),
        cancelled: HashSet::new(),
        local: VecDeque::new(),
        tracer: eesmr_trace::Tracer::disabled(opts.node_id),
    };
    rt.invoke(|a, ctx| a.on_start(ctx));
    for ev in pending {
        rt.handle(ev);
    }

    loop {
        let now_us = rt.start.elapsed().as_micros() as u64;
        while rt.timers.peek_time().is_some_and(|due| due <= now_us) {
            let (_, _, (id, token)) = rt.timers.pop().expect("peeked");
            if rt.cancelled.remove(&id.0) {
                continue;
            }
            rt.invoke(|a, ctx| a.on_timer(token.clone(), ctx));
        }
        while let Some(ev) = rt.local.pop_front() {
            rt.handle(ev);
        }
        let now_us = rt.start.elapsed().as_micros() as u64;
        let wait = rt
            .timers
            .peek_time()
            .map(|due| Duration::from_micros(due.saturating_sub(now_us)))
            .unwrap_or(Duration::from_millis(20))
            .min(Duration::from_millis(20));
        match rx.recv_timeout(wait) {
            Ok(PEvent::Ctrl(CMD_POLL)) => {
                if let Some(w) = ctrl.as_mut() {
                    let mut reply = vec![REPLY_STATUS];
                    reply.extend_from_slice(&status(&rt.actor).to_le_bytes());
                    write_frame(w, &reply)?;
                }
            }
            Ok(PEvent::Ctrl(CMD_STOP)) => {
                let blob = report(&rt.actor, &rt.meter, &rt.stats);
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
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "accept loop died"));
            }
        }
    }
}

/// One process's node runtime: a wall-clock timer calendar and the
/// effect handling of the simulator's runtime, over sockets.
struct ProcRuntime<A: Actor> {
    id: NodeId,
    actor: A,
    meter: EnergyMeter,
    channel: ChannelCost,
    links: Vec<PeerLink>,
    stats: NetStats,
    start: Instant,
    next_timer_id: u64,
    timer_seq: u64,
    timers: CalendarQueue<(TimerId, A::Timer)>,
    cancelled: HashSet<u64>,
    local: VecDeque<PEvent<A::Msg>>,
    tracer: eesmr_trace::Tracer,
}

impl<A: Actor> ProcRuntime<A>
where
    A::Msg: WireCodec + Send + 'static,
{
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn invoke(&mut self, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg, A::Timer>)) {
        let mut ctx = Context {
            node: self.id,
            now: self.now(),
            meter: &mut self.meter,
            next_timer_id: &mut self.next_timer_id,
            tracer: &mut self.tracer,
            effects: Vec::new(),
        };
        f(&mut self.actor, &mut ctx);
        let effects = ctx.effects;
        for effect in effects {
            self.apply(effect);
        }
    }

    /// Sends one encoded frame to `recipients` peers as a single
    /// transmission burst, charging the channel model once.
    fn transmit(&mut self, msg: &A::Msg, only: Option<NodeId>) {
        let frame = msg.encode();
        let mut sent = 0u64;
        for link in &mut self.links {
            if only.is_some_and(|t| t != link.id) {
                continue;
            }
            if link.send(&frame) {
                sent += 1;
            } else {
                self.stats.dropped += 1;
            }
        }
        if sent > 0 {
            let mj = self.channel.send_mj(frame.len(), sent as usize);
            self.meter.charge(EnergyCategory::Send, mj);
            self.stats.kcasts += 1;
            self.stats.bytes_on_air += frame.len() as u64;
        }
    }

    fn apply(&mut self, effect: Effect<A::Msg, A::Timer>) {
        match effect {
            Effect::Multicast(msg) => {
                self.transmit(&msg, None);
                self.local.push_back(PEvent::Deliver {
                    origin: self.id,
                    msg,
                    loopback: true,
                    target: None,
                });
            }
            Effect::Flood { msg, target } => {
                // Full mesh: an untargeted flood is a broadcast and a
                // targeted flood is a unicast; no relaying happens, so
                // there is nothing to deduplicate.
                match target {
                    Some(t) if t != self.id => self.transmit(&msg, Some(t)),
                    Some(_) => {}
                    None => self.transmit(&msg, None),
                }
                self.local.push_back(PEvent::Deliver {
                    origin: self.id,
                    msg,
                    loopback: true,
                    target,
                });
            }
            Effect::SetTimer { id, delay, token } => {
                let due = self.start.elapsed().as_micros() as u64 + delay.as_micros();
                let seq = self.timer_seq;
                self.timer_seq += 1;
                self.timers.push(due, seq, (id, token));
            }
            Effect::CancelTimer(id) => {
                self.cancelled.insert(id.0);
            }
        }
    }

    fn handle(&mut self, event: PEvent<A::Msg>) {
        if let PEvent::Deliver { origin, msg, loopback, target } = event {
            if !loopback {
                let mj = self.channel.recv_mj(msg.wire_size());
                self.meter.charge(EnergyCategory::Recv, mj);
            } else {
                self.stats.loopbacks += 1;
            }
            if target.is_some_and(|t| t != self.id) {
                return;
            }
            self.stats.deliveries += 1;
            self.invoke(|a, ctx| a.on_message(origin, msg, ctx));
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
                let bytes: [u8; 8] = body
                    .as_slice()
                    .try_into()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad status reply"))?;
                Ok(u64::from_le_bytes(bytes))
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

    /// Node 0 floods one ping on start; every node counts what it hears
    /// and echoes a targeted reply back to node 0.
    #[derive(Debug, Default)]
    struct Echo {
        got: u64,
        replies: u64,
    }

    impl Actor for Echo {
        type Msg = Ping;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Ping, ()>) {
            if ctx.id() == 0 {
                ctx.flood(Ping { seq: 7 });
                ctx.set_timer(SimDuration::from_millis(1), ());
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping, ()>) {
            if msg.seq == 7 {
                self.got += 1;
                if ctx.id() != 0 {
                    ctx.send_to(0, Ping { seq: 100 + ctx.id() as u64 });
                }
            } else {
                self.replies += 1;
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Ping, ()>) {}
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
                    |a: &Echo| a.got + a.replies,
                    |a, meter, stats| {
                        let mut blob = a.got.to_le_bytes().to_vec();
                        blob.extend_from_slice(&a.replies.to_le_bytes());
                        blob.extend_from_slice(&meter.total_mj().to_le_bytes());
                        blob.extend_from_slice(&stats.deliveries.to_le_bytes());
                        blob
                    },
                )
                .unwrap()
            }));
        }

        let mut coord = Coordinator::connect(transport, &addrs, Duration::from_secs(10)).unwrap();
        coord.start().unwrap();
        // Node 0 hears its own flood plus N-1 replies; others hear one.
        coord
            .run_until(
                |s| s[0] >= N as u64 && s[1..].iter().all(|v| *v >= 1),
                Duration::from_secs(10),
            )
            .unwrap();
        let blobs = coord.stop_and_collect().unwrap();
        for (i, blob) in blobs.iter().enumerate() {
            let got = u64::from_le_bytes(blob[0..8].try_into().unwrap());
            let replies = u64::from_le_bytes(blob[8..16].try_into().unwrap());
            let mj = f64::from_le_bytes(blob[16..24].try_into().unwrap());
            assert_eq!(got, 1, "node {i} heard the flood once");
            if i == 0 {
                assert_eq!(replies, (N - 1) as u64, "node 0 got every reply");
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
}
