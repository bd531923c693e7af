//! The simulation engine: an actor loop over the event calendar.
//!
//! The engine owns a set of actors and an [`EventQueue`] of addressed
//! messages. `run` repeatedly pops the earliest message, advances virtual
//! time, and dispatches to the destination actor, which may send further
//! messages (to itself or others, now or later) through the [`Ctx`] handle.
//!
//! The paper's emulator stores per-node execution context in OS threads and
//! lets the event queue drive context switches. We keep the same semantics
//! — nodes make progress only when the calendar says so, in causal order —
//! but express each node as an explicit state machine, which needs no
//! threads and is deterministic by construction.
//!
//! # Partitioned mode
//!
//! A `Simulation` can alternatively be created as one *partition* of a
//! parallel run of two or more partitions (see the [`crate::par`]
//! coordinator; a one-partition run uses the sequential calendar, so the
//! `Par` calendar only ever serves `P ≥ 2`). The actor-id space is
//! global — every partition calls [`Simulation::reserve_to`] so ids agree —
//! but each partition installs only the actors it owns and runs its own
//! keyed calendar ([`crate::event::KeyedQueue`]). Sends to non-owned actors
//! are buffered in an outbox and flushed between lookahead windows; the
//! composite [`crate::event::EventKey`] reproduces the sequential
//! dispatch order exactly, so virtual time is byte-identical to a
//! single-threaded run. Cancellation and `request_stop` are not available
//! in this mode (the conservative window protocol cannot retract or halt
//! remote progress); both panic.

use crate::event::{EventKey, EventQueue, EventToken, KeyedQueue};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Identifies an actor registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// A simulation participant. Actors are state machines: all behaviour
/// happens in response to a delivered message.
pub trait Actor<M> {
    /// Handle a message delivered at the current virtual time.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M);
}

/// Blanket impl so closures can serve as simple actors in tests.
impl<M, F: FnMut(&mut Ctx<'_, M>, M)> Actor<M> for F {
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        self(ctx, msg)
    }
}

struct Envelope<M> {
    to: ActorId,
    msg: M,
}

/// A cross-partition message in flight: the destination partition pushes
/// it into its keyed calendar at the next window boundary.
pub(crate) struct RemoteEvent<M> {
    pub(crate) key: EventKey,
    pub(crate) to: ActorId,
    pub(crate) msg: M,
}

/// Partitioned-mode calendar state: a keyed queue for owned events plus
/// the bookkeeping that makes locally-computed keys globally consistent.
struct ParCal<M> {
    queue: KeyedQueue<Envelope<M>>,
    /// This partition's index.
    part: u32,
    /// Owning partition of every actor id (global, shared).
    owners: Arc<Vec<u32>>,
    /// Minimum virtual latency of any cross-partition send.
    lookahead: SimDuration,
    /// Partition-chronological send counter (bits 15..63 of the event
    /// key). Increments on *every* send this partition makes, in dispatch
    /// order — the local restriction of the sequential engine's global
    /// sequence number.
    ctr: u64,
    /// Key `(sched, packed)` of the event currently being dispatched.
    cur: (u64, u64),
    /// Partition-chronological *seed* counter (bits 15..63 of a seed's
    /// event key, kind bit clear). Same-instant seeds to one actor would
    /// collide under any id-derived tiebreak; issuance order is the
    /// sequential insertion order, so the counter reproduces it exactly.
    seed_ctr: u64,
    /// Cross-partition sends buffered until the window boundary, bucketed
    /// by destination partition so the coordinator can hand each bucket
    /// over with a single lock acquisition.
    outbox: Vec<Vec<RemoteEvent<M>>>,
    remote_sent: u64,
}

impl<M> ParCal<M> {
    fn send(&mut self, now: SimTime, _from: ActorId, to: ActorId, at: SimTime, msg: M) {
        let c = self.ctr;
        self.ctr += 1;
        assert!(c < 1 << 48, "partition send counter overflows the event key");
        let packed = (1u64 << 63) | (c << 15) | self.part as u64;
        let key = EventKey { at, sched: now.as_nanos(), packed };
        let dest = self.owners[to.0];
        if dest == self.part {
            self.queue.push(key, Envelope { to, msg });
        } else {
            // Conservative synchronization is only sound if every remote
            // arrival lands beyond the current lookahead window.
            assert!(
                at >= now + self.lookahead,
                "cross-partition send violates the lookahead bound"
            );
            self.remote_sent += 1;
            self.outbox[dest as usize].push(RemoteEvent { key, to, msg });
        }
    }
}

/// The event calendar: a sequential queue with tokens and cancellation,
/// or one partition's keyed calendar in parallel mode (`P ≥ 2` only).
enum Calendar<M> {
    Seq(EventQueue<Envelope<M>>),
    Par(Box<ParCal<M>>),
}

/// Handle through which an actor interacts with the engine during dispatch.
pub struct Ctx<'a, M> {
    now: SimTime,
    me: ActorId,
    cal: &'a mut Calendar<M>,
    rng: &'a mut DetRng,
    stop: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor being dispatched.
    #[inline]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Send `msg` to `to` after `delay`.
    pub fn send(&mut self, to: ActorId, delay: SimDuration, msg: M) -> EventToken {
        self.send_at(to, self.now + delay, msg)
    }

    /// Send `msg` to `to` at the current instant (fires after all messages
    /// already scheduled for this instant — scheduling order is preserved).
    pub fn send_now(&mut self, to: ActorId, msg: M) -> EventToken {
        self.send(to, SimDuration::ZERO, msg)
    }

    /// Send `msg` to `to` at absolute time `at` (must be >= now).
    pub fn send_at(&mut self, to: ActorId, at: SimTime, msg: M) -> EventToken {
        assert!(at >= self.now, "cannot schedule into the past");
        match self.cal {
            Calendar::Seq(ref mut q) => q.schedule(at, Envelope { to, msg }),
            Calendar::Par(ref mut p) => {
                p.send(self.now, self.me, to, at, msg);
                EventToken::NULL
            }
        }
    }

    /// Schedule a message to self.
    pub fn timer(&mut self, delay: SimDuration, msg: M) -> EventToken {
        self.send(self.me, delay, msg)
    }

    /// Cancel a previously scheduled message.
    pub fn cancel(&mut self, token: EventToken) {
        match self.cal {
            Calendar::Seq(ref mut q) => q.cancel(token),
            Calendar::Par(_) => panic!("event cancellation is unsupported in partitioned mode"),
        }
    }

    /// Engine-level RNG stream (distinct from per-component streams an
    /// actor may own). Deterministic across runs. In partitioned mode each
    /// partition owns an independent stream (partition 0 matches the
    /// sequential stream).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Ask the engine to stop after this dispatch completes; pending
    /// events stay in the calendar.
    pub fn request_stop(&mut self) {
        match self.cal {
            Calendar::Seq(_) => *self.stop = true,
            Calendar::Par(_) => panic!("request_stop is unsupported in partitioned mode"),
        }
    }

    /// In partitioned mode, the composite ordering key `(sched, packed)` of
    /// the event being dispatched; `None` sequentially. Higher layers tag
    /// order-sensitive side effects (trace lines, gauge journal entries)
    /// with it so per-partition logs merge back into the exact sequential
    /// order.
    pub fn par_key(&self) -> Option<(u64, u64)> {
        match self.cal {
            Calendar::Seq(_) => None,
            Calendar::Par(ref p) => Some(p.cur),
        }
    }
}

/// Outcome of [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained: no live events remain.
    Drained,
    /// An actor called [`Ctx::request_stop`].
    Stopped,
    /// The time horizon passed before the calendar drained.
    HorizonReached,
}

/// A deterministic discrete-event simulation over actors exchanging
/// messages of type `M`.
pub struct Simulation<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    cal: Calendar<M>,
    now: SimTime,
    rng: DetRng,
    dispatched: u64,
}

impl<M> Simulation<M> {
    /// New simulation at `t=0` with the given master seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            actors: Vec::new(),
            cal: Calendar::Seq(EventQueue::new()),
            now: SimTime::ZERO,
            rng: DetRng::stream(seed, u64::MAX),
            dispatched: 0,
        }
    }

    /// New simulation acting as partition `part` of a parallel run (see
    /// [`crate::par::run_partitioned`]): keyed calendar, outbox for
    /// cross-partition sends, per-partition RNG stream.
    pub(crate) fn new_partition(
        seed: u64,
        part: u32,
        owners: Arc<Vec<u32>>,
        lookahead: SimDuration,
        nparts: usize,
    ) -> Self {
        assert!(
            lookahead.as_nanos() > 0,
            "partitioned mode needs a positive lookahead"
        );
        assert!(part < 1 << 15, "partition index overflows the event key");
        Simulation {
            actors: Vec::new(),
            cal: Calendar::Par(Box::new(ParCal {
                queue: KeyedQueue::new(),
                part,
                owners,
                lookahead,
                ctr: 0,
                cur: (0, 0),
                seed_ctr: 0,
                outbox: (0..nparts).map(|_| Vec::new()).collect(),
                remote_sent: 0,
            })),
            now: SimTime::ZERO,
            // Partition 0's stream coincides with the sequential engine
            // stream; others are disjoint SplitMix64 streams.
            rng: DetRng::stream(seed, u64::MAX ^ part as u64),
            dispatched: 0,
        }
    }

    /// Register an actor; returns its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        id
    }

    /// Pre-allocate an actor slot to obtain its id before construction
    /// (for mutually referencing actors). The slot must be filled with
    /// [`Simulation::install`] before any message reaches it.
    pub fn reserve_actor(&mut self) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(None);
        id
    }

    /// Grow the actor-id space to at least `n` reserved slots (installing
    /// none). Partitioned builds call this so every partition agrees on
    /// the global id assignment while instantiating only the actors it
    /// owns; non-owned slots simply stay empty.
    pub fn reserve_to(&mut self, n: usize) {
        while self.actors.len() < n {
            self.actors.push(None);
        }
    }

    /// Fill a slot created by [`Simulation::reserve_actor`].
    pub fn install(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        assert!(
            self.actors[id.0].is_none(),
            "actor slot {id:?} already installed"
        );
        self.actors[id.0] = Some(actor);
    }

    /// Schedule an initial message before the run starts.
    ///
    /// Partitioned runs may only seed actors the partition owns, and every
    /// partition must issue its seeds in the same relative order the
    /// sequential build does (the natural build order), so the per-partition
    /// seed counter reproduces the sequential insertion sequence at one
    /// partition and a stable total order at several.
    pub fn seed_message(&mut self, to: ActorId, at: SimTime, msg: M) -> EventToken {
        match &mut self.cal {
            Calendar::Seq(q) => q.schedule(at, Envelope { to, msg }),
            Calendar::Par(p) => {
                assert_eq!(p.owners[to.0], p.part, "seeded a non-owned actor");
                let c = p.seed_ctr;
                p.seed_ctr += 1;
                assert!(c < 1 << 48, "partition seed counter overflows the event key");
                // Kind bit 0: seeds order before any runtime send at the
                // same instant, exactly like pre-run sequence numbers.
                // Same-instant seeds tiebreak on (issuance order, partition)
                // — unique even when one actor is seeded twice at the same
                // instant (e.g. several fault-plan events firing together).
                let packed = (c << 15) | p.part as u64;
                p.queue
                    .push(EventKey { at, sched: 0, packed }, Envelope { to, msg });
                EventToken::NULL
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total messages dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Run until the calendar drains, an actor requests a stop, or virtual
    /// time would exceed `horizon`.
    ///
    /// The loop allocates nothing per dispatch: envelopes are recycled
    /// through the calendar's slot free list, and the horizon check is
    /// folded into the pop ([`EventQueue::pop_not_after`]) instead of a
    /// separate peek.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let mut stop = false;
        loop {
            let popped = match &mut self.cal {
                Calendar::Seq(queue) => queue.pop_not_after(horizon),
                Calendar::Par(_) => {
                    panic!("run_until is sequential-only; partitions advance via the coordinator")
                }
            };
            let Some((t, env)) = popped else {
                let empty = match &mut self.cal {
                    Calendar::Seq(queue) => queue.is_empty(),
                    Calendar::Par(_) => unreachable!(),
                };
                return if empty {
                    RunOutcome::Drained
                } else {
                    RunOutcome::HorizonReached
                };
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatched += 1;
            let mut actor = self.actors[env.to.0]
                .take()
                .unwrap_or_else(|| panic!("message to uninstalled actor {:?}", env.to));
            {
                let mut ctx = Ctx {
                    now: self.now,
                    me: env.to,
                    cal: &mut self.cal,
                    rng: &mut self.rng,
                    stop: &mut stop,
                };
                actor.on_message(&mut ctx, env.msg);
            }
            self.actors[env.to.0] = Some(actor);
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }

    /// Run until the calendar drains or an actor requests a stop.
    pub fn run(&mut self) -> RunOutcome {
        // NEVER-1 keeps the horizon comparison strict but unreachable.
        self.run_until(SimTime(u64::MAX - 1))
    }

    /// Partitioned mode: dispatch every owned event arriving at or before
    /// `horizon` (inclusive), in composite-key order. Cross-partition sends
    /// accumulate in the outbox. Returns the number of dispatches.
    pub(crate) fn run_window(&mut self, horizon: SimTime) -> u64 {
        let mut count = 0u64;
        loop {
            let popped = match &mut self.cal {
                Calendar::Par(p) => match p.queue.pop_not_after(horizon) {
                    Some((key, env)) => {
                        p.cur = (key.sched, key.packed);
                        Some((key.at, env))
                    }
                    None => None,
                },
                Calendar::Seq(_) => unreachable!("run_window on a sequential calendar"),
            };
            let Some((t, env)) = popped else {
                return count;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatched += 1;
            count += 1;
            let mut actor = self.actors[env.to.0]
                .take()
                .unwrap_or_else(|| panic!("message to uninstalled actor {:?}", env.to));
            {
                let mut stop = false;
                let mut ctx = Ctx {
                    now: self.now,
                    me: env.to,
                    cal: &mut self.cal,
                    rng: &mut self.rng,
                    stop: &mut stop,
                };
                actor.on_message(&mut ctx, env.msg);
            }
            self.actors[env.to.0] = Some(actor);
        }
    }

    /// Partitioned mode: arrival time of this partition's earliest pending
    /// event in nanoseconds, or `u64::MAX` when idle.
    pub(crate) fn par_next_time(&self) -> u64 {
        match &self.cal {
            Calendar::Par(p) => p.queue.peek_at().map_or(u64::MAX, |t| t.as_nanos()),
            Calendar::Seq(_) => unreachable!("par_next_time on a sequential calendar"),
        }
    }

    /// Partitioned mode: accept a cross-partition message routed here by
    /// the coordinator.
    pub(crate) fn par_push_remote(&mut self, ev: RemoteEvent<M>) {
        match &mut self.cal {
            Calendar::Par(p) => {
                debug_assert_eq!(p.owners[ev.to.0], p.part, "remote event misrouted");
                p.queue.push(ev.key, Envelope { to: ev.to, msg: ev.msg });
            }
            Calendar::Seq(_) => unreachable!("par_push_remote on a sequential calendar"),
        }
    }

    /// Partitioned mode: the buffered cross-partition sends, bucketed by
    /// destination partition. The coordinator swaps each non-empty bucket
    /// into the matching `(src, dst)` mailbox slot at the window boundary
    /// (recycling the slot's empty allocation back into the bucket).
    pub(crate) fn par_outbox_mut(&mut self) -> &mut Vec<Vec<RemoteEvent<M>>> {
        match &mut self.cal {
            Calendar::Par(p) => &mut p.outbox,
            Calendar::Seq(_) => unreachable!("par_outbox_mut on a sequential calendar"),
        }
    }

    /// Partitioned mode: lifetime count of cross-partition sends.
    pub(crate) fn par_remote_sent(&self) -> u64 {
        match &self.cal {
            Calendar::Par(p) => p.remote_sent,
            Calendar::Seq(_) => unreachable!("par_remote_sent on a sequential calendar"),
        }
    }

    /// Mutable access to a registered actor between runs (e.g. to harvest
    /// results). Panics if the actor is mid-dispatch (impossible between
    /// runs) or uninstalled.
    pub fn actor_mut(&mut self, id: ActorId) -> &mut dyn Actor<M> {
        self.actors[id.0]
            .as_deref_mut()
            .expect("actor uninstalled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn ping_pong_alternates_in_time() {
        #[derive(Debug, PartialEq)]
        enum Msg {
            Ping(u32),
            Pong(u32),
        }
        let log: Rc<RefCell<Vec<(u64, String)>>> = Rc::default();
        let mut sim: Simulation<Msg> = Simulation::new(0);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();

        let log_a = log.clone();
        sim.install(
            a,
            Box::new(move |ctx: &mut Ctx<'_, Msg>, msg: Msg| {
                if let Msg::Pong(n) = msg {
                    log_a.borrow_mut().push((ctx.now().as_nanos(), format!("pong{n}")));
                    if n < 3 {
                        ctx.send(b, SimDuration::from_nanos(10), Msg::Ping(n + 1));
                    }
                }
            }),
        );
        let log_b = log.clone();
        sim.install(
            b,
            Box::new(move |ctx: &mut Ctx<'_, Msg>, msg: Msg| {
                if let Msg::Ping(n) = msg {
                    log_b.borrow_mut().push((ctx.now().as_nanos(), format!("ping{n}")));
                    ctx.send(a, SimDuration::from_nanos(5), Msg::Pong(n));
                }
            }),
        );
        sim.seed_message(b, SimTime(0), Msg::Ping(1));
        assert_eq!(sim.run(), RunOutcome::Drained);
        let got = log.borrow().clone();
        assert_eq!(
            got,
            vec![
                (0, "ping1".into()),
                (5, "pong1".into()),
                (15, "ping2".into()),
                (20, "pong2".into()),
                (30, "ping3".into()),
                (35, "pong3".into()),
            ]
        );
    }

    #[test]
    fn horizon_stops_before_late_events() {
        let fired: Rc<RefCell<u32>> = Rc::default();
        let mut sim: Simulation<()> = Simulation::new(0);
        let f = fired.clone();
        let a = sim.add_actor(Box::new(move |_: &mut Ctx<'_, ()>, ()| {
            *f.borrow_mut() += 1;
        }));
        sim.seed_message(a, SimTime(10), ());
        sim.seed_message(a, SimTime(1000), ());
        assert_eq!(sim.run_until(SimTime(100)), RunOutcome::HorizonReached);
        assert_eq!(*fired.borrow(), 1);
        // The late event is still pending; a later run picks it up.
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*fired.borrow(), 2);
    }

    #[test]
    fn request_stop_halts_immediately() {
        let mut sim: Simulation<u32> = Simulation::new(0);
        let count: Rc<RefCell<u32>> = Rc::default();
        let c = count.clone();
        let a = sim.add_actor(Box::new(move |ctx: &mut Ctx<'_, u32>, n: u32| {
            *c.borrow_mut() += 1;
            if n == 2 {
                ctx.request_stop();
            }
        }));
        for i in 1..=5 {
            sim.seed_message(a, SimTime(i), i as u32);
        }
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(*count.borrow(), 2);
        assert_eq!(sim.now(), SimTime(2));
    }

    #[test]
    fn determinism_same_seed_same_dispatch_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let trace: Rc<RefCell<Vec<u64>>> = Rc::default();
            let mut sim: Simulation<u32> = Simulation::new(seed);
            let t = trace.clone();
            let a = sim.add_actor(Box::new(move |ctx: &mut Ctx<'_, u32>, hops: u32| {
                t.borrow_mut().push(ctx.now().as_nanos());
                if hops > 0 {
                    let d = SimDuration::from_nanos(ctx.rng().gen_range(100) + 1);
                    let me = ctx.me();
                    ctx.send(me, d, hops - 1);
                }
            }));
            sim.seed_message(a, SimTime(0), 50);
            sim.run();
            let out = trace.borrow().clone();
            out
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn send_at_past_panics() {
        let mut sim: Simulation<()> = Simulation::new(0);
        let a = sim.add_actor(Box::new(|ctx: &mut Ctx<'_, ()>, ()| {
            let me = ctx.me();
            ctx.send_at(me, SimTime(0), ());
        }));
        sim.seed_message(a, SimTime(10), ());
        sim.run();
    }

    #[test]
    fn timer_cancellation_suppresses_delivery() {
        let fired: Rc<RefCell<u32>> = Rc::default();
        let mut sim: Simulation<&'static str> = Simulation::new(0);
        let f = fired.clone();
        let a = sim.add_actor(Box::new(move |ctx: &mut Ctx<'_, &'static str>, m| {
            match m {
                "start" => {
                    let tok = ctx.timer(SimDuration::from_nanos(100), "late");
                    ctx.cancel(tok);
                    ctx.timer(SimDuration::from_nanos(50), "kept");
                }
                "kept" => *f.borrow_mut() += 1,
                "late" => panic!("cancelled timer fired"),
                _ => unreachable!(),
            }
        }));
        sim.seed_message(a, SimTime(0), "start");
        sim.run();
        assert_eq!(*fired.borrow(), 1);
    }

    #[test]
    fn reserve_to_grows_without_installing() {
        let mut sim: Simulation<()> = Simulation::new(0);
        let a = sim.reserve_actor();
        sim.reserve_to(5);
        sim.reserve_to(3); // never shrinks
        let b = sim.add_actor(Box::new(|_: &mut Ctx<'_, ()>, ()| {}));
        assert_eq!(a, ActorId(0));
        assert_eq!(b, ActorId(5));
        sim.install(a, Box::new(|_: &mut Ctx<'_, ()>, ()| {}));
    }
}
