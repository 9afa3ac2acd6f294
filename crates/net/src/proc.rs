//! Multi-process transport: each [`Actor`] runs in its own OS process and
//! exchanges [`WireCodec`]-encoded frames over TCP or Unix domain sockets.
//!
//! This is the second net backend (after the deterministic simulator):
//! real kernel scheduling, real sockets, real bytes. A **coordinator**
//! process spawns one child per replica (same binary,
//! `--node-id`/`--listen`/`--peers`/`--control` flags), releases them
//! simultaneously once all have checked in, and waits on the progress
//! each child reports on its control stream whenever it changes, until
//! the run is done; then it collects one opaque report blob per node.
//!
//! # Bring-up
//!
//! No process dials a listener that may not be up yet, so nothing sleeps
//! and retries:
//!
//! 1. the coordinator binds a [`ControlListener`] before it spawns a
//!    child, and passes its address as `--control`;
//! 2. each child binds its mesh listener, dials the coordinator once and
//!    checks in with a hello (control role, its node id);
//! 3. once all `n` have checked in ([`Coordinator::check_in`]), the
//!    coordinator sends the start command;
//! 4. on it, each child dials its peers — each bound its listener before
//!    it checked in, so every dial finds one — and starts its replica.
//!    Frames from faster peers queue until the child's own start.
//!
//! Bring-up has one deadline, the timeout the control listener is bound
//! with: a child that has not checked in by then ends it with `TimedOut`
//! naming that child, and any other connection to the control listener
//! that does not check in as one of the `n` children ends it with
//! `InvalidData`.
//!
//! # Framing
//!
//! Every frame on a stream is `u32` little-endian length + payload,
//! capped at [`MAX_FRAME_LEN`]. The first frame on any connection is a
//! hello identifying the dialing side (its node id, and whether it dials
//! as a peer or checks in on the control plane); subsequent frames are
//! encoded protocol messages (on peer connections) or control
//! commands/replies (on the control connection).
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
//! A peer write that fails mid-run takes that link down for the rest of the
//! run: the frame and every later one to that peer count in
//! [`NetStats::dropped`], with no reconnect.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// What every hello frame starts with: `EPH` and the codec version.
const HELLO_PREFIX: [u8; 4] = [b'E', b'P', b'H', codec::VERSION];
/// Hello-frame role: an ordinary replica peer.
const ROLE_PEER: u8 = 0;
/// Hello-frame role: a child checking in on the coordinator's control
/// listener.
const ROLE_CTRL: u8 = 1;

/// Control command: release the child into `on_start` + its main loop.
const CMD_START: u8 = 1;
/// Control command: stop and send the final [`REPLY_REPORT`].
const CMD_STOP: u8 = 3;
/// Control report: one `u64` progress value, pushed by the child once
/// after [`CMD_START`] and again whenever the value changes.
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

    /// Bounds every later blocking write on this stream.
    fn set_write_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(Some(timeout)),
            Stream::Uds(s) => s.set_write_timeout(Some(timeout)),
        }
    }

    /// Bounds every later blocking read on this stream (`None`: unbounded).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Uds(s) => s.set_read_timeout(timeout),
        }
    }

    /// Shuts both directions, waking a read blocked on any clone.
    fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
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

    /// The address a dial reaches this listener at: the bound port for
    /// TCP (so `127.0.0.1:0` resolves), the socket path `bound` for UDS.
    fn addr(&self, bound: &str) -> io::Result<String> {
        match self {
            ListenerSock::Tcp(l) => Ok(l.local_addr()?.to_string()),
            ListenerSock::Uds(_) => Ok(bound.to_string()),
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

/// The child a control-listener hello checks in: a well-formed hello in
/// the control role from one of children `0..n`, else `InvalidData`.
fn parse_check_in(frame: &[u8], n: usize) -> io::Result<usize> {
    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    match parse_hello(frame)? {
        (ROLE_CTRL, id) if (id as usize) < n => Ok(id as usize),
        (ROLE_CTRL, id) => Err(bad(format!("check-in from node {id}, but only {n} children run"))),
        (role, id) => Err(bad(format!("hello from node {id} in role {role}, not a check-in"))),
    }
}

/// Connects to `addr` and sends `hello` as the first frame; an error
/// names `whom` and the address.
fn dial(transport: ProcTransport, addr: &str, hello: &[u8], whom: &str) -> io::Result<Stream> {
    Stream::connect(transport, addr)
        .and_then(|mut s| write_frame(&mut s, hello).map(|()| s))
        .map_err(|e| io::Error::new(e.kind(), format!("dial to {whom} at {addr}: {e}")))
}

/// Command-line shape of one child replica: identity, where to listen,
/// every peer's address, and where to check in.
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
    /// The coordinator's [`ControlListener`] address, dialled once to
    /// check in.
    pub control: String,
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
/// `CtrlClosed`: the control stream ended, so the coordinator is done or gone.
enum PEvent<M> {
    Deliver { origin: NodeId, msg: M, arrived: Option<Instant>, target: Option<NodeId> },
    Ctrl(u8),
    CtrlClosed,
}

/// One outbound peer connection, down from its first failed write on.
struct PeerLink {
    id: NodeId,
    stream: Option<Stream>,
}

impl PeerLink {
    /// Sends a frame; returns `false`, with no syscall, once the link is
    /// down. A failed write takes it down: the main loop never waits on a
    /// dead peer.
    fn send(&mut self, frame: &[u8]) -> bool {
        let sent = self.stream.as_mut().is_some_and(|s| write_frame(s, frame).is_ok());
        if !sent {
            self.stream = None;
        }
        sent
    }
}

/// Runs one replica process: binds its listener, checks in with the
/// coordinator, and on the start command dials every peer and drives
/// `actor` off the wall clock until the coordinator stops it.
///
/// `channel` prices its sends and receptions, a scan window lasting
/// `scan_window` (the simulator's `NetConfig::hop_delay_max`). `status`
/// maps the live actor to the `u64` progress value the child reports to
/// [`Coordinator::run_until`] whenever it changes; `report` renders the
/// final actor, its energy meter, and the transport counters into the
/// opaque blob [`Coordinator::stop_and_collect`] returns. Returns once
/// that blob is sent and the coordinator has closed the control stream;
/// a control stream that closes before the stop command is an error, as
/// is a failed dial (to the coordinator or, after the start, to a peer).
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

    // Accept loop: only peers dial this listener. Each identifies itself
    // with a hello, then its reader thread pumps decoded frames into the
    // main loop; a connection with any other hello is dropped. Threads
    // exit when their stream closes; the accept thread lives for the
    // process lifetime.
    let peer_tx = tx.clone();
    std::thread::spawn(move || {
        while let Ok(mut stream) = listener.accept() {
            let tx = peer_tx.clone();
            std::thread::spawn(move || {
                let hello = read_frame(&mut stream).and_then(|hello| parse_hello(&hello));
                let Ok((ROLE_PEER, origin)) = hello else { return };
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
            });
        }
    });

    // Check in, once: the coordinator bound its listener before spawning
    // this process. A thread feeds its commands into the main loop.
    let hello = hello_frame(ROLE_CTRL, opts.node_id);
    let mut ctrl = dial(opts.transport, &opts.control, &hello, "the coordinator")?;
    let mut commands = ctrl.try_clone()?;
    std::thread::spawn(move || {
        while let Some(cmd) = read_frame(&mut commands).ok().and_then(|f| u8::decode(&f).ok()) {
            if tx.send(PEvent::Ctrl(cmd)).is_err() {
                return;
            }
        }
        let _ = tx.send(PEvent::CtrlClosed);
    });

    // Hold for the start command; frames from faster peers queue up.
    let mut pending: VecDeque<PEvent<A::Msg>> = VecDeque::new();
    let died = || io::Error::new(io::ErrorKind::BrokenPipe, "accept loop died");
    let orphaned = || io::Error::new(io::ErrorKind::BrokenPipe, "control stream closed");
    loop {
        match rx.recv().map_err(|_| died())? {
            PEvent::Ctrl(CMD_START) => break,
            PEvent::Ctrl(_) => {}
            PEvent::CtrlClosed => return Err(orphaned()),
            deliver => pending.push_back(deliver),
        }
    }

    // Dial every peer, once: each bound its listener before it checked
    // in, and the start command follows the last check-in.
    let hello = hello_frame(ROLE_PEER, opts.node_id);
    let mut links = Vec::with_capacity(opts.peers.len());
    for (id, addr) in &opts.peers {
        let stream = dial(opts.transport, addr, &hello, &format!("peer {id}"))?;
        links.push(PeerLink { id: *id, stream: Some(stream) });
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

    let mut reported = None;
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
        // Progress only moves in a step, so one check per wakeup sees
        // every change; the coordinator waits on these reports.
        let progress = status(rt.node.actor());
        if reported != Some(progress) {
            let mut frame = vec![REPLY_STATUS];
            progress.encode_into(&mut frame);
            write_frame(&mut ctrl, &frame)?;
            reported = Some(progress);
        }
        // Sleep until the next timer or frame; with no timer pending, only
        // a frame ends the wait.
        let next_us = rt.timers.peek().map_or(u64::MAX, |Reverse(head)| head.time);
        match rx.recv_timeout(Duration::from_micros(next_us.saturating_sub(rt.now_us()))) {
            Ok(PEvent::Ctrl(CMD_STOP)) => {
                let mut reply = vec![REPLY_REPORT];
                reply.extend_from_slice(&report(rt.node.actor(), rt.node.meter(), &rt.stats));
                write_frame(&mut ctrl, &reply)?;
                // Stay meshed until the coordinator has every report and
                // closes the stream: a peer still in its last step would
                // otherwise lose its link to this node and count drops.
                while !matches!(rx.recv(), Ok(PEvent::CtrlClosed) | Err(_)) {}
                return Ok(());
            }
            Ok(PEvent::Ctrl(_)) => {}
            Ok(PEvent::CtrlClosed) => return Err(orphaned()),
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

/// The coordinator's control listener, bound before any child is spawned
/// so that each child's one dial finds it. A thread accepts connections
/// and hands each to a greeter thread of its own, which reads the hello
/// and passes both to [`Coordinator::check_in`]; a silent connection
/// thus delays no other check-in, and its greeter ends at the bring-up
/// timeout. Dropping the listener wakes its accepting thread with a dial
/// of its own and joins it, so no thread is left parked in `accept`; the
/// socket closes with it.
pub struct ControlListener {
    transport: ProcTransport,
    addr: String,
    timeout: Duration,
    closing: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// `(connection number, hello frame, stream)`, connections numbered
    /// from 0 in accept order.
    hellos: Receiver<(usize, io::Result<Vec<u8>>, Stream)>,
}

impl ControlListener {
    /// Binds `addr` (`127.0.0.1:0` picks a free port; a UDS path is
    /// replaced if stale) and starts accepting. `timeout` is the one
    /// bring-up deadline: it bounds each connection's hello and
    /// [`Coordinator::check_in`]'s wait for all children, and the
    /// coordinator then applies it to every control write and to
    /// [`Coordinator::stop_and_collect`]. A healthy child checks in and
    /// reports within milliseconds, so choose it far above that.
    pub fn bind(
        transport: ProcTransport,
        addr: &str,
        timeout: Duration,
    ) -> io::Result<ControlListener> {
        let listener = ListenerSock::bind(transport, addr)?;
        let addr = listener.addr(addr)?;
        let closing = Arc::new(AtomicBool::new(false));
        let (tx, hellos) = mpsc::channel();
        let stop = Arc::clone(&closing);
        let acceptor = std::thread::spawn(move || {
            for conn in 0.. {
                let Ok(mut stream) = listener.accept() else { return };
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let hello = stream
                        .set_read_timeout(Some(timeout))
                        .and_then(|()| read_frame(&mut stream))
                        .and_then(|hello| stream.set_read_timeout(None).map(|()| hello));
                    let _ = tx.send((conn, hello, stream));
                });
            }
        });
        Ok(ControlListener { transport, addr, timeout, closing, acceptor: Some(acceptor), hellos })
    }

    /// The address children dial to check in (the `--control` flag).
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for ControlListener {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::Release);
        let Some(acceptor) = self.acceptor.take() else { return };
        // The wake-up dial lands in the backlog of a listener still
        // accepting. If it fails, the listener is gone (and the thread
        // with it) or its socket path is: then the thread cannot be
        // woken, and it is left rather than waited on forever.
        if Stream::connect(self.transport, &self.addr).is_ok() || acceptor.is_finished() {
            let _ = acceptor.join();
        }
    }
}

/// The coordinator's half of the control protocol: one connection per
/// child, each read by its own thread into one channel, so the
/// coordinator sleeps until some child reports. Every wait is bounded: by
/// the deadline given to [`Coordinator::run_until`], and by the timeout
/// the [`ControlListener`] was bound with for check-in, writes and the
/// final reports, so a stopped or wedged child surfaces as
/// [`io::ErrorKind::TimedOut`] naming it instead of hanging the
/// coordinator. Dropping the coordinator shuts every control stream and
/// joins its reader.
pub struct Coordinator {
    links: Vec<Stream>,
    readers: Vec<JoinHandle<()>>,
    /// `(child, frame)` from the readers; a read error or a report ends
    /// that reader.
    frames: Receiver<(usize, io::Result<Vec<u8>>)>,
    /// Each child's last reported progress, `None` until its first report.
    statuses: Vec<Option<u64>>,
    timeout: Duration,
}

/// Names the child behind a failed control exchange; a write that ran
/// into the stream's timeout (`WouldBlock` on Unix) becomes `TimedOut`.
fn ctrl_err(child: usize, err: io::Error) -> io::Error {
    let kind = match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::ErrorKind::TimedOut,
        kind => kind,
    };
    io::Error::new(kind, format!("control channel to child {child}: {err}"))
}

/// The children whose slot is still empty, as `child 1, child 4`.
fn missing<T>(slots: &[Option<T>]) -> String {
    let names: Vec<String> = slots
        .iter()
        .enumerate()
        .filter(|(_, slot)| slot.is_none())
        .map(|(child, _)| format!("child {child}"))
        .collect();
    names.join(", ")
}

impl Coordinator {
    /// Waits on `control` until children `0..n` have each checked in
    /// once, then stops accepting and starts one reader per control
    /// stream. Bounded by the listener's timeout: a child still missing
    /// then is named in a `TimedOut` error. A connection whose hello is
    /// not a check-in from one of the `n` children, or a second check-in
    /// for a child already in, is `InvalidData` naming that connection.
    /// Reads on the control streams carry no timeout: an idle child is
    /// not an error, only a missed deadline is.
    pub fn check_in(control: ControlListener, n: usize) -> io::Result<Coordinator> {
        let timeout = control.timeout;
        let deadline = Instant::now() + timeout;
        let mut checked: Vec<Option<Stream>> = (0..n).map(|_| None).collect();
        while checked.iter().any(Option::is_none) {
            let wait = deadline.saturating_duration_since(Instant::now());
            let (conn, hello, stream) = control.hellos.recv_timeout(wait).map_err(|err| {
                let kind = match err {
                    RecvTimeoutError::Timeout => io::ErrorKind::TimedOut,
                    RecvTimeoutError::Disconnected => io::ErrorKind::BrokenPipe,
                };
                io::Error::new(kind, format!("check-in: {} never checked in", missing(&checked)))
            })?;
            let hostile = |why: String| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("control connection {conn}: {why}"),
                )
            };
            let child = hello
                .and_then(|frame| parse_check_in(&frame, n))
                .map_err(|err| hostile(err.to_string()))?;
            if checked[child].is_some() {
                return Err(hostile(format!("second check-in for child {child}")));
            }
            stream.set_write_timeout(timeout).map_err(|e| ctrl_err(child, e))?;
            checked[child] = Some(stream);
        }
        // Every child is in: stop accepting.
        drop(control);

        let (tx, frames) = mpsc::channel();
        // Built up link by link, so an error below drops (and so shuts
        // and joins) the readers already started.
        let mut coord = Coordinator {
            links: Vec::with_capacity(n),
            readers: Vec::with_capacity(n),
            frames,
            statuses: vec![None; n],
            timeout,
        };
        for (child, s) in checked.into_iter().flatten().enumerate() {
            let mut reader = s.try_clone().map_err(|e| ctrl_err(child, e))?;
            coord.links.push(s);
            let tx = tx.clone();
            // A report is a child's last frame: its reader ends there,
            // before the child exits and closes the stream.
            coord.readers.push(std::thread::spawn(move || loop {
                let frame = read_frame(&mut reader);
                let last = matches!(frame.as_deref(), Ok([REPLY_REPORT, ..]) | Err(_));
                if tx.send((child, frame)).is_err() || last {
                    return;
                }
            }));
        }
        Ok(coord)
    }

    /// Sends the one-byte command `cmd` to every child.
    fn command(&mut self, cmd: u8) -> io::Result<()> {
        for (child, link) in self.links.iter_mut().enumerate() {
            write_frame(link, &[cmd]).map_err(|e| ctrl_err(child, e))?;
        }
        Ok(())
    }

    /// Waits until `deadline` for the next control frame; returns its
    /// sender and `(tag, body)`. A closed or failed stream is an error
    /// naming its child; a missed deadline is `TimedOut`, its message
    /// built by `late`.
    fn next_frame(
        &self,
        deadline: Instant,
        late: impl FnOnce() -> String,
    ) -> io::Result<(usize, u8, Vec<u8>)> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.frames.recv_timeout(wait) {
            Ok((child, Ok(mut frame))) if !frame.is_empty() => {
                let tag = frame.remove(0);
                Ok((child, tag, frame))
            }
            Ok((child, Ok(_))) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("child {child}: empty control frame"),
            )),
            Ok((child, Err(e))) => Err(ctrl_err(child, e)),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(io::ErrorKind::TimedOut, late())),
            Err(RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "every control reader ended"))
            }
        }
    }

    /// Releases every child into its protocol: each dials its peers,
    /// then runs `on_start` (none does before it is told).
    pub fn start(&mut self) -> io::Result<()> {
        self.command(CMD_START)
    }

    /// Waits for the children's progress reports until
    /// `done(statuses)` holds, once every child has reported, or
    /// `timeout` passes; returns the status vector that satisfied `done`.
    pub fn run_until(
        &mut self,
        done: impl Fn(&[u64]) -> bool,
        timeout: Duration,
    ) -> io::Result<Vec<u64>> {
        let deadline = Instant::now() + timeout;
        loop {
            let statuses: Option<Vec<u64>> = self.statuses.iter().copied().collect();
            if let Some(statuses) = statuses.filter(|s| done(s)) {
                return Ok(statuses);
            }
            let late = || {
                let (silent, last) = (missing(&self.statuses), &self.statuses);
                if silent.is_empty() {
                    format!("run_until timed out with statuses {last:?}")
                } else {
                    format!("run_until timed out: {silent} never reported (statuses {last:?})")
                }
            };
            let (child, tag, body) = self.next_frame(deadline, late)?;
            if tag != REPLY_STATUS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("child {child}: unexpected control frame {tag}"),
                ));
            }
            let status = u64::decode(&body).map_err(|err| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("child {child}: bad status: {err}"),
                )
            })?;
            self.statuses[child] = Some(status);
        }
    }

    /// Stops every child and collects its report blob, skipping status
    /// reports still in flight; bounded by the bring-up timeout.
    pub fn stop_and_collect(mut self) -> io::Result<Vec<Vec<u8>>> {
        self.command(CMD_STOP)?;
        let deadline = Instant::now() + self.timeout;
        let mut blobs: Vec<Option<Vec<u8>>> = vec![None; self.links.len()];
        while blobs.iter().any(Option::is_none) {
            let late = || format!("stop_and_collect timed out: {} sent no report", missing(&blobs));
            match self.next_frame(deadline, late)? {
                (_, REPLY_STATUS, _) => {}
                (child, REPLY_REPORT, blob) => blobs[child] = Some(blob),
                (child, tag, _) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("child {child}: unexpected control frame {tag}"),
                    ))
                }
            }
        }
        Ok(blobs.into_iter().flatten().collect())
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        for link in &self.links {
            let _ = link.shutdown();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
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
/// files (the control socket included) and removes it, sockets and all,
/// when dropped — on success and on every error path alike.
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

impl MeshAddrs {
    /// Where the coordinator's [`ControlListener`] binds: `ctrl.sock`
    /// beside the node sockets for UDS, so it goes with the directory; a
    /// free loopback port for TCP.
    pub fn control_addr(&self) -> String {
        match &self.dir {
            Some(dir) => dir.join("ctrl.sock").display().to_string(),
            None => "127.0.0.1:0".to_string(),
        }
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
        let control =
            ControlListener::bind(transport, &addrs.control_addr(), Duration::from_secs(10))
                .unwrap();
        let mut handles = Vec::new();
        for id in 0..N {
            let peers: Vec<(NodeId, String)> =
                (0..N).filter(|p| *p != id).map(|p| (p as NodeId, addrs[p].clone())).collect();
            let opts = ChildOpts {
                node_id: id as NodeId,
                transport,
                listen: addrs[id].clone(),
                peers,
                control: control.addr().to_string(),
            };
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

        let mut coord = Coordinator::check_in(control, N).unwrap();
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

    /// Dials the control listener at `addr` and sends `hello` as the first
    /// frame, as a child checking in does; returns the dialled stream.
    fn dial_in(addr: &str, hello: &[u8]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, hello).unwrap();
        stream
    }

    /// A coordinator of one fake child on loopback TCP, bound with
    /// `timeout`: the child checks in and hands its control stream to
    /// `script`.
    fn control_peer<T: Send + 'static>(
        timeout: Duration,
        script: impl FnOnce(TcpStream) -> T + Send + 'static,
    ) -> (Coordinator, std::thread::JoinHandle<T>) {
        let control = ControlListener::bind(ProcTransport::Tcp, "127.0.0.1:0", timeout).unwrap();
        let addr = control.addr().to_string();
        let peer = std::thread::spawn(move || script(dial_in(&addr, &hello_frame(ROLE_CTRL, 0))));
        (Coordinator::check_in(control, 1).unwrap(), peer)
    }

    fn send_status(stream: &mut TcpStream, status: u64) {
        let mut frame = vec![REPLY_STATUS];
        status.encode_into(&mut frame);
        write_frame(stream, &frame).unwrap();
    }

    #[test]
    fn run_until_waits_for_reports_without_polling() {
        // The peer reports 0, then 5 after 200 ms, then logs every command
        // it gets until the coordinator's drop closes the stream.
        let (mut coord, peer) = control_peer(Duration::from_secs(10), |mut stream| {
            let mut commands = vec![read_frame(&mut stream).unwrap()];
            send_status(&mut stream, 0);
            std::thread::sleep(Duration::from_millis(200));
            send_status(&mut stream, 5);
            while let Ok(cmd) = read_frame(&mut stream) {
                commands.push(cmd);
            }
            commands
        });
        coord.start().unwrap();
        let statuses = coord.run_until(|s| s[0] >= 5, Duration::from_secs(10)).unwrap();
        assert_eq!(statuses, vec![5]);
        drop(coord);
        assert_eq!(peer.join().unwrap(), vec![vec![CMD_START]], "one command, no polls");
    }

    #[test]
    fn closed_control_stream_ends_the_wait_at_once() {
        let (mut coord, peer) = control_peer(Duration::from_secs(10), |mut stream| {
            read_frame(&mut stream).unwrap();
            send_status(&mut stream, 0);
            // Dropping the stream closes it mid-run, as a dying child does.
        });
        coord.start().unwrap();
        let asked = Instant::now();
        let err = coord.run_until(|s| s[0] >= 5, Duration::from_secs(10)).unwrap_err();
        assert!(err.to_string().contains("child 0"), "{err}");
        assert!(asked.elapsed() < Duration::from_secs(1), "took {:?}", asked.elapsed());
        peer.join().unwrap();
    }

    #[test]
    fn stalled_control_peer_times_out_instead_of_hanging() {
        // A child that checks in and then never reports (SIGSTOPped,
        // wedged): the wait must fail with `TimedOut` naming the child, at
        // its deadline.
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let bound = Duration::from_millis(300);
        let (mut coord, stalled) = control_peer(bound, move |_stream| {
            let _ = hold.recv(); // keep the connection open, silently
        });
        coord.start().unwrap();
        let asked = Instant::now();
        let err = coord.run_until(|_| true, bound).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("child 0"), "{err}");
        assert!(asked.elapsed() < 10 * bound, "took {:?}", asked.elapsed());
        drop(release);
        stalled.join().unwrap();
    }

    #[test]
    fn a_child_that_never_checks_in_times_out_by_name() {
        // Three children are expected; 0 and 2 check in, 1 never does.
        let bound = Duration::from_millis(300);
        let control = ControlListener::bind(ProcTransport::Tcp, "127.0.0.1:0", bound).unwrap();
        let addr = control.addr().to_string();
        let present = [0, 2].map(|id| dial_in(&addr, &hello_frame(ROLE_CTRL, id)));
        let asked = Instant::now();
        let err = Coordinator::check_in(control, 3).err().expect("child 1 is missing");
        let took = asked.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let named = err.to_string();
        assert!(named.contains("child 1"), "{named}");
        assert!(!named.contains("child 0") && !named.contains("child 2"), "{named}");
        assert!(took >= bound && took < 10 * bound, "took {took:?}");
        // The failed check-in dropped the listener: its accepting thread
        // has ended, so the address refuses, and the streams that did
        // check in are closed.
        let refused = TcpStream::connect(&addr).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused, "{refused}");
        for mut stream in present {
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "control stream closed");
        }
        // Dropping a listener nobody dialled returns at once, too.
        let idle = ControlListener::bind(ProcTransport::Tcp, "127.0.0.1:0", bound).unwrap();
        let addr = idle.addr().to_string();
        let dropped = Instant::now();
        drop(idle);
        assert!(dropped.elapsed() < bound, "drop took {:?}", dropped.elapsed());
        let refused = TcpStream::connect(&addr).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused, "{refused}");
    }

    #[test]
    fn hostile_check_ins_are_refused_naming_the_sender() {
        // Any local process can dial the control listener. Each case's
        // hellos arrive on connections of their own, for a run of two
        // children; each ends the bring-up at once with `InvalidData`.
        let mut bad_prefix = hello_frame(ROLE_CTRL, 0);
        bad_prefix[0] ^= 0xff;
        let second = [hello_frame(ROLE_CTRL, 1), hello_frame(ROLE_CTRL, 1)];
        let cases: [(&[Vec<u8>], &str); 5] = [
            (&[bad_prefix], "control connection 0: bad hello frame"),
            (&[vec![0xff; 3]], "control connection 0: bad hello frame"),
            (&[hello_frame(ROLE_PEER, 0)], "node 0 in role 0"),
            (&[hello_frame(ROLE_CTRL, 2)], "check-in from node 2"),
            (&second, "second check-in for child 1"),
        ];
        for (hellos, names) in cases {
            let timeout = Duration::from_secs(10);
            let control =
                ControlListener::bind(ProcTransport::Tcp, "127.0.0.1:0", timeout).unwrap();
            let senders: Vec<TcpStream> =
                hellos.iter().map(|hello| dial_in(control.addr(), hello)).collect();
            let asked = Instant::now();
            let err = Coordinator::check_in(control, 2).err().expect("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let named = err.to_string();
            assert!(named.starts_with("control connection "), "{named}");
            assert!(named.contains(names), "{named} does not name {names:?}");
            assert!(asked.elapsed() < timeout / 2, "took {:?}", asked.elapsed());
            drop(senders);
        }
    }

    #[test]
    fn child_ends_when_control_closes_before_stop() {
        // A coordinator that dies mid-run must not leave its child running.
        let addrs = alloc_addrs(ProcTransport::Uds, 1).unwrap();
        let timeout = Duration::from_secs(10);
        let control =
            ControlListener::bind(ProcTransport::Uds, &addrs.control_addr(), timeout).unwrap();
        let opts = ChildOpts {
            node_id: 0,
            transport: ProcTransport::Uds,
            listen: addrs[0].clone(),
            peers: Vec::new(),
            control: control.addr().to_string(),
        };
        let (done, ended) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let scan = SimDuration::from_micros(1_000);
            let ran = run_node(
                opts,
                Echo::default(),
                ChannelCost::ble_four_nines(2),
                scan,
                |_| 0,
                |_, _, _| Vec::new(),
            );
            let _ = done.send(ran);
        });
        let mut coord = Coordinator::check_in(control, 1).unwrap();
        coord.start().unwrap();
        coord.run_until(|s| s[0] == 0, Duration::from_secs(10)).unwrap();
        drop(coord);
        let err = ended.recv_timeout(Duration::from_secs(10)).unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");
    }

    /// Multicasts a ping from a 1 ms timer, [`Ticker::TICKS`] times.
    #[derive(Debug, Default)]
    struct Ticker {
        ticks: u64,
    }

    impl Ticker {
        const TICKS: u64 = 50;
    }

    impl Actor for Ticker {
        type Msg = Ping;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Ping, ()>) {
            ctx.set_timer(SimDuration::from_millis(1), ());
        }

        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping, ()>) {}

        fn on_timer(&mut self, _token: (), ctx: &mut Context<'_, Ping, ()>) {
            self.ticks += 1;
            ctx.multicast(Ping { seq: self.ticks });
            if self.ticks < Ticker::TICKS {
                ctx.set_timer(SimDuration::from_millis(1), ());
            }
        }
    }

    #[test]
    fn frames_to_a_dead_peer_are_dropped_without_stalling_the_node() {
        // Node 1 is a fake peer: it takes the hello node 0 dials with on
        // its start, then closes both the connection and its listener.
        let addrs = alloc_addrs(ProcTransport::Uds, 2).unwrap();
        let listener = UnixListener::bind(&addrs[1]).unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(parse_hello(&read_frame(&mut stream).unwrap()).unwrap(), (ROLE_PEER, 0));
        });
        let timeout = Duration::from_secs(10);
        let control =
            ControlListener::bind(ProcTransport::Uds, &addrs.control_addr(), timeout).unwrap();
        let opts = ChildOpts {
            node_id: 0,
            transport: ProcTransport::Uds,
            listen: addrs[0].clone(),
            peers: vec![(1, addrs[1].clone())],
            control: control.addr().to_string(),
        };
        let node = std::thread::spawn(move || {
            let scan = SimDuration::from_micros(1_000);
            let stats = |_: &Ticker, _: &EnergyMeter, stats: &NetStats| stats.dropped.encode();
            run_node(
                opts,
                Ticker::default(),
                ChannelCost::ble_four_nines(2),
                scan,
                |a| a.ticks,
                stats,
            )
        });
        let mut coord = Coordinator::check_in(control, 1).unwrap();
        coord.start().unwrap();
        let started = Instant::now();
        peer.join().unwrap();
        coord.run_until(|s| s[0] >= Ticker::TICKS, Duration::from_secs(5)).unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "{} ticks took {took:?}", Ticker::TICKS);
        let blobs = coord.stop_and_collect().unwrap();
        let dropped = u64::decode(&blobs[0]).unwrap();
        assert!(dropped > 0, "frames to the dead peer are counted");
        node.join().unwrap().unwrap();
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
        // A check-in, as `Coordinator::check_in` decodes it for four
        // children: only the control role and ids 0..4 pass.
        assert_decoding_is_total(&hello_frame(ROLE_CTRL, 3), |f| parse_check_in(f, 4).is_ok());
        assert_eq!(parse_check_in(&hello_frame(ROLE_CTRL, 0), 4).unwrap(), 0);
        for hostile in [hello_frame(ROLE_PEER, 3), hello_frame(ROLE_CTRL, 4), hello_frame(9, 0)] {
            let err = parse_check_in(&hostile, 4).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        for status in [0, 42, u64::MAX] {
            // A status report's body, as `Coordinator::run_until` decodes it.
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
