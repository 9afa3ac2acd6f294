//! Single-actor node step: drive one [`Actor`] by hand and observe its
//! outputs, without a network.
//!
//! Integration tests over [`crate::SimNet`] check emergent behaviour;
//! this harness checks *local* protocol rules — "given exactly this
//! message, the replica must reject it / relay it / arm that timer". It is
//! public API: downstream users writing their own protocols get the same
//! white-box testing surface.
//!
//! It is also the process transport's node step: each [`crate::proc`]
//! child steps its replica through a `Harness`, moving the clock up to
//! the wall clock before each call and applying the returned outputs over
//! sockets. So a child's recorded inputs — `start`, every `deliver`, every
//! `fire`, each at the time it saw — replay through this same step.

use eesmr_energy::EnergyMeter;

pub use crate::actor::Output;
use crate::actor::{Actor, Context, NodeId};
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
    id: NodeId,
    actor: A,
    meter: EnergyMeter,
    next_timer_id: u64,
    now: SimTime,
    tracer: eesmr_trace::Tracer,
}

impl<A: Actor> Harness<A> {
    /// Wraps `actor` as node `id` at time zero.
    pub fn new(id: NodeId, actor: A) -> Self {
        Harness {
            id,
            actor,
            meter: EnergyMeter::new(),
            next_timer_id: 0,
            now: SimTime::ZERO,
            tracer: eesmr_trace::Tracer::disabled(id),
        }
    }

    /// The node id the actor runs as.
    pub fn id(&self) -> NodeId {
        self.id
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

    /// Mutable access to the meter, for the energy a transport charges
    /// around the node step (sending and receiving).
    pub fn meter_mut(&mut self) -> &mut EnergyMeter {
        &mut self.meter
    }

    /// Current virtual time presented to the actor.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock without delivering anything.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    fn invoke(
        &mut self,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg, A::Timer>),
    ) -> Vec<Output<A::Msg, A::Timer>> {
        let mut ctx = Context {
            node: self.id,
            now: self.now,
            meter: &mut self.meter,
            next_timer_id: &mut self.next_timer_id,
            tracer: &mut self.tracer,
            effects: Vec::new(),
        };
        f(&mut self.actor, &mut ctx);
        ctx.effects
    }

    /// Calls `on_start`.
    pub fn start(&mut self) -> Vec<Output<A::Msg, A::Timer>> {
        self.invoke(|a, ctx| a.on_start(ctx))
    }

    /// Delivers one message as if it came from `from`.
    pub fn deliver(&mut self, from: NodeId, msg: A::Msg) -> Vec<Output<A::Msg, A::Timer>> {
        self.invoke(|a, ctx| a.on_message(from, msg, ctx))
    }

    /// Fires a timer token directly (bypassing the schedule).
    pub fn fire(&mut self, token: A::Timer) -> Vec<Output<A::Msg, A::Timer>> {
        self.invoke(|a, ctx| a.on_timer(token, ctx))
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
}
