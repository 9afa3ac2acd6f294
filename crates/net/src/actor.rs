//! The actor abstraction protocol replicas implement, and the [`Context`]
//! through which they interact with the simulated network.

use eesmr_energy::EnergyMeter;
use eesmr_metrics::ActorGauges;
use eesmr_trace::{EventKind as TraceEventKind, TraceClass, Tracer};

use crate::message::Message;
use crate::time::{SimDuration, SimTime};

/// Node identifier (re-exported from the hypergraph crate).
pub type NodeId = eesmr_hypergraph::NodeId;

/// Handle to a pending timer, used for cancellation.
///
/// Ids encode `(owning node, per-node counter)`, so they are unique
/// across the whole simulation yet derived purely from node-local state,
/// never from how other nodes' events interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

/// Bits reserved for the per-node timer counter below the node id.
pub(crate) const TIMER_NODE_SHIFT: u32 = 40;

/// A protocol replica driven by the simulator.
///
/// Replicas are event-driven: the runtime calls [`Actor::on_start`] once at
/// t = 0, then [`Actor::on_message`] for every delivered message and
/// [`Actor::on_timer`] for every expired timer. All side effects (sending,
/// timer management, energy charges) go through the [`Context`].
pub trait Actor {
    /// The protocol's wire message type.
    type Msg: Message;
    /// The protocol's timer token type (carried back on expiry).
    type Timer: Clone + core::fmt::Debug;

    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// Called for every message delivered to this node.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    );

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: Self::Timer, ctx: &mut Context<'_, Self::Msg, Self::Timer>);

    /// Gauge values the metrics sampler reads on each cadence boundary
    /// (see `eesmr-metrics`). **Node-local rule:** values must come from
    /// this replica's own state only — never from the scheduler, the
    /// topology-wide view, or another node — so a sampled series is a
    /// function of the node's own event stream. The default reports
    /// all-zero gauges for actors with nothing to expose.
    fn gauges(&self) -> ActorGauges {
        ActorGauges::default()
    }
}

/// A side effect an actor requests through its [`Context`]. The runtime
/// applies it after the handler returns (keeps handlers simple and
/// borrows clean); the [`Harness`](crate::harness::Harness) hands it back
/// to the test instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Output<M, T> {
    /// One k-cast on each of the node's out-edges (single hop), plus a free
    /// loopback delivery to the node itself.
    Multicast(M),
    /// Network-layer flooding: relayed once per node until everyone has
    /// seen it (logical broadcast over the partially connected graph).
    Flood {
        /// The message.
        msg: M,
        /// `Some(node)` for routed sends.
        target: Option<NodeId>,
    },
    /// Arm a timer.
    SetTimer {
        /// Cancellation handle.
        id: TimerId,
        /// Delay from now.
        delay: SimDuration,
        /// The token to fire with.
        token: T,
    },
    /// Cancel a pending timer.
    CancelTimer(TimerId),
}

impl<M, T> Output<M, T> {
    /// The transmitted message, if this output carries one.
    pub fn message(&self) -> Option<&M> {
        match self {
            Output::Multicast(m) | Output::Flood { msg: m, .. } => Some(m),
            _ => None,
        }
    }
}

/// The interface between an [`Actor`] and the simulated world.
pub struct Context<'a, M, T> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) meter: &'a mut EnergyMeter,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) effects: &'a mut Vec<Output<M, T>>,
}

impl<'a, M: Message, T: Clone + core::fmt::Debug> Context<'a, M, T> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's energy meter (for charging sign/verify/hash work —
    /// transmission energy is charged automatically).
    pub fn meter(&mut self) -> &mut EnergyMeter {
        self.meter
    }

    /// Transmits `msg` once on each of this node's out-going hyper-edges
    /// (one hop; receivers decide whether to relay). The sender also
    /// receives a free loopback copy, so a leader processes its own
    /// proposal through the same code path as everyone else.
    pub fn multicast(&mut self, msg: M) {
        self.effects.push(Output::Multicast(msg));
    }

    /// Floods `msg` to every node: the network layer relays it once per
    /// node (energy charged per hop) and delivers it to each actor exactly
    /// once. This emulates the "logical full connectivity" of Appendix A.3
    /// for control messages whose relay logic is trivial.
    pub fn flood(&mut self, msg: M) {
        self.effects.push(Output::Flood { msg, target: None });
    }

    /// Routes `msg` to a single node over the flooding substrate (relays
    /// still spend energy; only `to` sees the message). Used for
    /// "send ... to the sender/leader" steps of the view change. Every
    /// call is a new communication: sending the same message again (a
    /// retry) puts it on the air again, where a repeated
    /// [`Context::flood`] is absorbed as a duplicate.
    pub fn send_to(&mut self, to: NodeId, msg: M) {
        self.effects.push(Output::Flood { msg, target: Some(to) });
    }

    /// Arms a timer that fires after `delay`, passing `token` back to
    /// [`Actor::on_timer`]. Returns an id usable with
    /// [`Context::cancel_timer`]. Ids are drawn from this node's private
    /// counter (tagged with the node id), so they depend only on the
    /// node's own event history — never on global processing order.
    pub fn set_timer(&mut self, delay: SimDuration, token: T) -> TimerId {
        let counter = *self.next_timer_id;
        *self.next_timer_id += 1;
        debug_assert!(counter < 1 << TIMER_NODE_SHIFT, "per-node timer counter overflow");
        let id = TimerId(((self.node as u64) << TIMER_NODE_SHIFT) | counter);
        self.effects.push(Output::SetTimer { id, delay, token });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Output::CancelTimer(id));
    }

    /// Whether trace events of `class` are being recorded. Check this
    /// before computing expensive event fields (digest fingerprints);
    /// events whose fields are free can call [`Context::trace`]
    /// directly — it performs the same gate internally.
    pub fn traces(&self, class: TraceClass) -> bool {
        self.tracer.enabled(class)
    }

    /// Records a trace event at the node's current virtual time, into
    /// its private ring buffer. A no-op (one enum comparison) when the
    /// active [`eesmr_trace::TraceLevel`] doesn't admit the event's
    /// class.
    pub fn trace(&mut self, kind: TraceEventKind) {
        self.tracer.record(self.now.as_micros(), kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Ping;
    impl Message for Ping {
        fn wire_size(&self) -> usize {
            8
        }
        fn flood_key(&self) -> u64 {
            1
        }
    }

    type Effects = Vec<Output<Ping, &'static str>>;

    fn ctx<'a>(
        meter: &'a mut EnergyMeter,
        next: &'a mut u64,
        tracer: &'a mut Tracer,
        effects: &'a mut Effects,
    ) -> Context<'a, Ping, &'static str> {
        Context {
            node: 3,
            now: SimTime::from_micros(42),
            meter,
            next_timer_id: next,
            tracer,
            effects,
        }
    }

    #[test]
    fn context_reports_identity_and_time() {
        let mut meter = EnergyMeter::new();
        let mut next = 0;
        let mut tracer = Tracer::disabled(3);
        let mut effects = Vec::new();
        let c = ctx(&mut meter, &mut next, &mut tracer, &mut effects);
        assert_eq!(c.id(), 3);
        assert_eq!(c.now(), SimTime::from_micros(42));
    }

    #[test]
    fn timer_ids_are_unique_and_monotonic() {
        let mut meter = EnergyMeter::new();
        let mut next = 0;
        let mut tracer = Tracer::disabled(3);
        let mut effects = Vec::new();
        let mut c = ctx(&mut meter, &mut next, &mut tracer, &mut effects);
        let a = c.set_timer(SimDuration::from_micros(1), "a");
        let b = c.set_timer(SimDuration::from_micros(2), "b");
        assert!(a < b);
        assert_eq!(c.effects.len(), 2);
    }

    #[test]
    fn context_trace_stamps_the_nodes_clock() {
        use eesmr_trace::TraceLevel;
        let mut meter = EnergyMeter::new();
        let mut next = 0;
        let mut tracer = Tracer::new(TraceLevel::All, 3);
        let mut effects = Vec::new();
        let mut c = ctx(&mut meter, &mut next, &mut tracer, &mut effects);
        assert!(c.traces(TraceClass::Wire));
        c.trace(TraceEventKind::TimerFire { id: 5 });
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].time_us, 42);
        assert_eq!(trace.events[0].node, 3);
    }

    #[test]
    fn effects_are_recorded_in_order() {
        let mut meter = EnergyMeter::new();
        let mut next = 0;
        let mut tracer = Tracer::disabled(3);
        let mut effects = Vec::new();
        let mut c = ctx(&mut meter, &mut next, &mut tracer, &mut effects);
        c.multicast(Ping);
        c.flood(Ping);
        c.send_to(1, Ping);
        let kinds: Vec<&'static str> = c
            .effects
            .iter()
            .map(|e| match e {
                Output::Multicast(_) => "m",
                Output::Flood { target: None, .. } => "f",
                Output::Flood { target: Some(_), .. } => "d",
                Output::SetTimer { .. } => "t",
                Output::CancelTimer(_) => "c",
            })
            .collect();
        assert_eq!(kinds, vec!["m", "f", "d"]);
    }
}
