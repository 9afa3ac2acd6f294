//! Single-actor node step: drive one [`Actor`] by hand and observe its
//! outputs, without a network.
//!
//! Integration tests over [`crate::SimNet`] check emergent behaviour;
//! this harness checks *local* protocol rules — "given exactly this
//! message, the replica must reject it / relay it / arm that timer". It is
//! public API: downstream users writing their own protocols get the same
//! white-box testing surface.
//!
//! It is also both transports' node step and energy ledger, and the only
//! place a [`Context`] is built: [`crate::SimNet`] steps one per node at
//! each event's time, and each [`crate::proc`] child steps its replica
//! through one on the wall clock. So a child's recorded inputs (`start`,
//! every `deliver`, every `fire`, each at the time it saw) replay through
//! this same step, phases and send and receive prices included.

use eesmr_energy::{EnergyCategory, EnergyClass, EnergyMeter, EnergyPhase};
use eesmr_trace::{TraceLevel, Tracer};

pub use crate::actor::Output;
use crate::actor::{Actor, Context, NodeId};
use crate::channel::ChannelCost;
use crate::message::Message;
use crate::time::{SimDuration, SimTime};

/// Drives a single actor with hand-crafted inputs.
///
/// # Examples
///
/// ```
/// use eesmr_net::harness::Harness;
/// use eesmr_net::{Actor, Context, Message, NodeId};
///
/// #[derive(Debug, Clone)]
/// struct Ping;
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 8 }
///     fn flood_key(&self) -> u64 { 1 }
/// }
/// struct EchoOnce { sent: bool }
/// impl Actor for EchoOnce {
///     type Msg = Ping;
///     type Timer = ();
///     fn on_message(&mut self, _f: NodeId, msg: Ping, ctx: &mut Context<'_, Ping, ()>) {
///         if !self.sent { self.sent = true; ctx.multicast(msg); }
///     }
///     fn on_timer(&mut self, _t: (), _c: &mut Context<'_, Ping, ()>) {}
/// }
///
/// let mut h = Harness::new(0, EchoOnce { sent: false });
/// let out = h.deliver(1, Ping);
/// assert_eq!(out.len(), 1, "echoed once");
/// assert!(h.deliver(1, Ping).is_empty(), "but only once");
/// ```
pub struct Harness<A: Actor> {
    actor: A,
    meter: EnergyMeter,
    next_timer_id: u64,
    now: SimTime,
    /// End of the node's current receive scan window, µs.
    scan_until: u64,
    /// The node's trace ring, which also carries its id.
    tracer: Tracer,
}

impl<A: Actor> Harness<A> {
    /// Wraps `actor` as node `id` at time zero.
    pub fn new(id: NodeId, actor: A) -> Self {
        Self::traced(id, actor, TraceLevel::Off)
    }

    /// [`Harness::new`], with the node's trace ring recording at `level`.
    pub(crate) fn traced(id: NodeId, actor: A, level: TraceLevel) -> Self {
        let (meter, now, tracer) = (EnergyMeter::new(), SimTime::ZERO, Tracer::new(level, id));
        Harness { actor, meter, next_timer_id: 0, now, scan_until: 0, tracer }
    }

    /// The node id the actor runs as.
    pub fn id(&self) -> NodeId {
        self.tracer.node()
    }

    /// The wrapped actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Mutable access (for test setup).
    pub fn actor_mut(&mut self) -> &mut A {
        &mut self.actor
    }

    /// The actor's energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Charges one transmission of a `phase` message of `bytes` to `k`
    /// receivers, priced by `cost`.
    pub(crate) fn sent(&mut self, cost: &ChannelCost, bytes: usize, k: usize, phase: EnergyPhase) {
        let mj = cost.send_mj(bytes, k);
        self.meter.charge_as(EnergyCategory::Send, EnergyClass::Send, phase, mj);
    }

    /// Charges one reception of a `phase` message of `bytes` at `now_us`,
    /// priced by `cost` against the node's scan window ([`ChannelCost::reception`]).
    pub(crate) fn received(
        &mut self,
        cost: &ChannelCost,
        window: SimDuration,
        bytes: usize,
        fresh: bool,
        now_us: u64,
        phase: EnergyPhase,
    ) {
        let (mj, class) = cost.reception(bytes, fresh, now_us, &mut self.scan_until, window);
        self.meter.charge_as(EnergyCategory::Recv, class, phase, mj);
    }

    /// The node's trace ring, for the wire-layer events a transport
    /// records around the node step.
    pub(crate) fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Current virtual time presented to the actor.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock without delivering anything.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// The node step: moves the clock to `now`, stamps the meter with
    /// `phase` so every compute charge the actor makes (sign, verify,
    /// hash) lands in the phase of the event that caused it, runs `f`
    /// with a [`Context`] that appends the actor's outputs to `effects`,
    /// and puts the meter back on [`EnergyPhase::Other`].
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        phase: EnergyPhase,
        effects: &mut Vec<Output<A::Msg, A::Timer>>,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg, A::Timer>),
    ) {
        self.now = now;
        self.meter.set_phase(phase);
        let mut ctx = Context {
            node: self.tracer.node(),
            now,
            meter: &mut self.meter,
            next_timer_id: &mut self.next_timer_id,
            tracer: &mut self.tracer,
            effects,
        };
        f(&mut self.actor, &mut ctx);
        self.meter.set_phase(EnergyPhase::Other);
    }

    /// One [`step`](Self::step) at the current time, returning its outputs.
    fn outputs(
        &mut self,
        phase: EnergyPhase,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg, A::Timer>),
    ) -> Vec<Output<A::Msg, A::Timer>> {
        let mut effects = Vec::new();
        self.step(self.now, phase, &mut effects, f);
        effects
    }

    /// Calls `on_start`.
    pub fn start(&mut self) -> Vec<Output<A::Msg, A::Timer>> {
        self.outputs(EnergyPhase::Other, |a, ctx| a.on_start(ctx))
    }

    /// Delivers one message as if it came from `from`.
    pub fn deliver(&mut self, from: NodeId, msg: A::Msg) -> Vec<Output<A::Msg, A::Timer>> {
        self.outputs(msg.phase(), |a, ctx| a.on_message(from, msg, ctx))
    }

    /// Fires a timer token directly (bypassing the schedule).
    pub fn fire(&mut self, token: A::Timer) -> Vec<Output<A::Msg, A::Timer>> {
        self.outputs(EnergyPhase::Timer, |a, ctx| a.on_timer(token, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[derive(Debug, Clone, PartialEq)]
    struct N(u64);
    impl Message for N {
        fn wire_size(&self) -> usize {
            8
        }
        fn flood_key(&self) -> u64 {
            self.0
        }
    }

    struct Doubler;
    impl Actor for Doubler {
        type Msg = N;
        type Timer = &'static str;

        fn on_start(&mut self, ctx: &mut Context<'_, N, &'static str>) {
            ctx.set_timer(SimDuration::from_millis(1), "tick");
        }

        fn on_message(&mut self, _f: NodeId, msg: N, ctx: &mut Context<'_, N, &'static str>) {
            ctx.flood(N(msg.0 * 2));
            ctx.send_to(3, N(msg.0));
        }

        fn on_timer(&mut self, t: &'static str, ctx: &mut Context<'_, N, &'static str>) {
            assert_eq!(t, "tick");
            ctx.multicast(N(0));
        }
    }

    #[test]
    fn outputs_are_observable_and_typed() {
        let mut h = Harness::new(7, Doubler);
        let started = h.start();
        assert!(matches!(started[0], Output::SetTimer { token: "tick", .. }));

        let out = h.deliver(1, N(21));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Output::Flood { msg: N(42), target: None });
        assert_eq!(out[1], Output::Flood { msg: N(21), target: Some(3) });
        assert_eq!(out[0].message(), Some(&N(42)));

        let ticked = h.fire("tick");
        assert_eq!(ticked, vec![Output::Multicast(N(0))]);
    }

    #[test]
    fn clock_advances_only_on_request() {
        let mut h = Harness::new(0, Doubler);
        assert_eq!(h.now(), SimTime::ZERO);
        h.advance(SimDuration::from_millis(5));
        assert_eq!(h.now().as_micros(), 5_000);
    }

    /// A vote whose handler, like its timer's, does one hash's work.
    #[derive(Debug, Clone)]
    struct Vote;
    impl Message for Vote {
        fn wire_size(&self) -> usize {
            8
        }
        fn flood_key(&self) -> u64 {
            1
        }
        fn phase(&self) -> EnergyPhase {
            EnergyPhase::Vote
        }
    }

    struct Hasher;
    impl Actor for Hasher {
        type Msg = Vote;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Vote, ()>) {
            ctx.meter().charge_hash(64);
        }

        fn on_message(&mut self, _f: NodeId, _m: Vote, ctx: &mut Context<'_, Vote, ()>) {
            ctx.meter().charge_hash(64);
        }

        fn on_timer(&mut self, _t: (), ctx: &mut Context<'_, Vote, ()>) {
            ctx.meter().charge_hash(64);
        }
    }

    #[test]
    fn compute_charges_land_in_the_phase_of_the_event() {
        let mut h = Harness::new(2, Hasher);
        h.start();
        let one = h.meter().total_mj();
        assert!(one > 0.0);
        h.deliver(1, Vote);
        h.fire(());
        let attr = h.meter().attribution();
        assert_eq!(attr.phase_mj(EnergyPhase::Other), one, "start");
        assert_eq!(attr.phase_mj(EnergyPhase::Vote), one, "a delivery takes the message's phase");
        assert_eq!(attr.phase_mj(EnergyPhase::Timer), one, "a fired timer's is Timer");
        assert_eq!(h.meter().phase(), EnergyPhase::Other, "and the meter is reset after");
    }
}
