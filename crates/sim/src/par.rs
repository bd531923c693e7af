//! Conservative parallel coordinator: bounded-lag windows over
//! partitioned [`Simulation`]s.
//!
//! A run with **one** partition never reaches that machinery:
//! [`run_partitioned`] builds the worker's actors into a sequential
//! [`Simulation::new`] calendar and runs it to completion on the calling
//! thread — no threads, no barrier, no windows — so every engine feature
//! (cancellation, `request_stop`) stays available and the hot loop is the
//! sequential one. Everything below describes the `P ≥ 2` protocol.
//!
//! The actor graph is split across worker threads; each partition runs a
//! private keyed calendar over the *global* actor-id space (non-owned
//! slots stay empty). Synchronization is conservative, in the
//! null-message tradition but window-based so no protocol events pollute
//! dispatch counts: each round, every partition publishes the arrival
//! time of its earliest pending event and — because every cross-partition
//! send carries at least `L` (the lookahead) of virtual latency — derives
//! a safe per-partition dispatch horizon from the published vector (see
//! *Adaptive lookahead* below). Cross-partition sends buffered during the
//! window are exchanged at the boundary through per-`(src, dst)` mailbox
//! slots, each touched by exactly one writer and one reader per round.
//!
//! # Adaptive lookahead
//!
//! With `NT_q` the published next-event time of partition `q`, any event
//! partition `p` has not yet heard about must travel a chain of one or
//! more cross-partition hops starting from some partition's current
//! calendar, so its arrival time is bounded below by
//!
//! * `min_{q≠p} NT_q + L` — a direct send out of a peer's pending work
//!   (one hop), and
//! * `NT_p + 2L` — any longer chain, including responses bounced back to
//!   `p`'s own outgoing mail: two or more hops from a calendar whose
//!   earliest entry is at least the global minimum.
//!
//! `p` may therefore dispatch through
//! `min(min_{q≠p} NT_q + L, NT_p + 2L) − 1` — never narrower than the
//! classic fleet-wide `[T, T+L)` window, and much wider whenever peers
//! are ahead of the global minimum, which is what lets faulted and
//! rebalanced runs amortize barriers past four threads.
//!
//! Determinism does not depend on thread interleaving: events carry
//! composite keys ([`crate::event::EventKey`]) that totally order them
//! exactly as the sequential engine's `(time, seq)` order would, and keys
//! are unique, so each partition's dispatch order is a pure function of
//! the event set. The two barriers per round make the slot reads/writes
//! race-free (slots are written only before barrier A and read only
//! between A and B).

use crate::engine::{RemoteEvent, Simulation};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A reusable barrier that can be *poisoned* by a panicking partition.
/// `std::sync::Barrier` would leave the surviving partitions deadlocked
/// mid-round; this one wakes them so the whole run fails loudly instead
/// of hanging the test suite.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState { count: 0, generation: 0, poisoned: false }),
            cvar: Condvar::new(),
        }
    }

    fn wait(&self) {
        // A panicking waiter std-poisons the inner mutex; our own flag is
        // the signal that matters, so recover the guard in that case.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.poisoned {
            panic!("a peer partition panicked");
        }
        let generation = st.generation;
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            self.cvar.notify_all();
        } else {
            while st.generation == generation && !st.poisoned {
                st = self.cvar.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.poisoned {
                panic!("a peer partition panicked");
            }
        }
    }

    /// Never panics: called from `Drop` during unwinding.
    fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.poisoned = true;
        self.cvar.notify_all();
    }
}

/// Poisons the shared barrier if its thread unwinds, releasing peers
/// parked mid-round.
struct PoisonOnPanic<'a>(&'a PoisonBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One partition's build/finish hooks for [`run_partitioned`].
///
/// `build` runs on the worker thread before the clock starts (on the
/// calling thread when there is a single worker): reserve the global id
/// space, install owned actors, seed initial messages (in ascending
/// actor-id order). `finish` runs after the fleet drains, on the same
/// thread, and may use [`ParOps`] for collective reductions (every
/// partition must issue the same sequence of collectives).
///
/// `Built` carries thread-local state (e.g. `Rc` handles shared with the
/// actors) from `build` to `finish`; it never crosses threads, so it need
/// not be `Send`.
pub trait PartitionWorker<M, T>: Send {
    /// Thread-local state handed from `build` to `finish`.
    type Built;

    /// Install this partition's actors and seeds.
    fn build(&mut self, sim: &mut Simulation<M>) -> Self::Built;

    /// Harvest results once the fleet has drained.
    fn finish(self, built: Self::Built, sim: Simulation<M>, ops: &ParOps<'_>) -> T;
}

/// Collective operations available to [`PartitionWorker::finish`].
pub struct ParOps<'a> {
    me: usize,
    slots: &'a [AtomicU64],
    /// `None` for a single-partition run: collectives are the identity.
    barrier: Option<&'a PoisonBarrier>,
}

impl ParOps<'_> {
    /// This partition's index.
    pub fn partition(&self) -> usize {
        self.me
    }

    /// Barrier-synchronized max-reduction over all partitions. Every
    /// partition must call this the same number of times, in the same
    /// order.
    pub fn allreduce_max(&self, v: u64) -> u64 {
        let Some(barrier) = self.barrier else {
            return v;
        };
        self.slots[self.me].store(v, Ordering::SeqCst);
        barrier.wait();
        let m = self
            .slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0);
        barrier.wait();
        m
    }
}

/// A log₂-bucketed histogram: bucket `i` counts values `v` with
/// `floor(log2(v)) == i` (zero lands in bucket 0). Cheap enough to
/// record per window, merges by bucket-wise sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHist {
    /// Bucket counts, index = floor(log2(value)).
    pub buckets: [u64; 64],
}

impl LogHist {
    /// All-zero histogram.
    pub fn new() -> Self {
        LogHist { buckets: [0; 64] }
    }

    /// Count one value.
    pub fn record(&mut self, v: u64) {
        let i = if v == 0 { 0 } else { 63 - v.leading_zeros() as usize };
        self.buckets[i] += 1;
    }

    /// Bucket-wise accumulate another histogram.
    pub fn absorb(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total count across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

/// What a partitioned run produced, plus fleet-level counters.
#[derive(Debug)]
pub struct ParOutcome<T> {
    /// Per-partition results, in partition order.
    pub results: Vec<T>,
    /// Total dispatches across all partitions (equals the sequential
    /// dispatch count for an equivalent run).
    pub dispatched: u64,
    /// Number of lookahead windows executed (zero for a single
    /// partition, which runs on the sequential calendar).
    pub windows: u64,
    /// Critical-path dispatches: `Σ_w max_p dispatches(p, w)`. The
    /// virtual-parallelism analogue of wall-clock — what a `P`-core
    /// machine cannot go below. `dispatched / critical_dispatched` is the
    /// model speedup.
    pub critical_dispatched: u64,
    /// Cross-partition messages exchanged.
    pub remote_messages: u64,
    /// Adaptive window widths (virtual nanoseconds past the round's
    /// global minimum), one sample per partition per window.
    /// Deterministic: a pure function of the event set.
    pub window_width_hist: LogHist,
    /// Wall-clock nanoseconds spent parked at barriers, one sample per
    /// partition per barrier. *Not* deterministic — never diff it; it
    /// exists to make synchronization cost measurable in benches.
    pub barrier_wait_hist: LogHist,
}

/// Run one partitioned simulation to completion.
///
/// `owners[actor_id]` names the partition owning each global actor id;
/// `workers[p]` builds and harvests partition `p`. With two or more
/// workers, `lookahead` must be a positive lower bound on the virtual
/// latency of every cross-partition send (enforced per send; violations
/// panic). A single worker runs inline on the sequential calendar (see
/// the module docs), where `lookahead` plays no part.
pub fn run_partitioned<M, T, W>(
    seed: u64,
    owners: Arc<Vec<u32>>,
    lookahead: SimDuration,
    mut workers: Vec<W>,
) -> ParOutcome<T>
where
    M: Send,
    T: Send,
    W: PartitionWorker<M, T>,
{
    let nparts = workers.len();
    assert!(nparts > 0, "need at least one partition");
    assert!(
        owners.iter().all(|&o| (o as usize) < nparts),
        "actor owner out of partition range"
    );
    if nparts == 1 {
        let mut worker = workers.pop().expect("one worker");
        let mut sim = Simulation::new(seed);
        let built = worker.build(&mut sim);
        sim.run();
        let dispatched = sim.dispatched();
        let ops = ParOps {
            me: 0,
            slots: &[],
            barrier: None,
        };
        return ParOutcome {
            results: vec![worker.finish(built, sim, &ops)],
            dispatched,
            windows: 0,
            critical_dispatched: dispatched,
            remote_messages: 0,
            window_width_hist: LogHist::new(),
            barrier_wait_hist: LogHist::new(),
        };
    }
    let la = lookahead.as_nanos();
    assert!(la > 0, "lookahead must be positive");

    let slots: Vec<AtomicU64> = (0..nparts).map(|_| AtomicU64::new(0)).collect();
    let barrier = PoisonBarrier::new(nparts);
    // One slot per (src, dst) pair: src writes between the barriers, dst
    // drains at the top of the next round, so each lock is uncontended
    // and a whole window's mail moves with one swap per pair.
    let mailboxes: Vec<Mutex<Vec<RemoteEvent<M>>>> =
        (0..nparts * nparts).map(|_| Mutex::new(Vec::new())).collect();

    struct PartOut<T> {
        result: T,
        dispatched: u64,
        remote: u64,
        per_window: Vec<u64>,
        width_hist: LogHist,
        wait_hist: LogHist,
    }

    let per_part: Vec<PartOut<T>> = std::thread::scope(|scope| {
        let joins: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(p, mut worker)| {
                let owners = owners.clone();
                let slots = &slots;
                let barrier = &barrier;
                let mailboxes = &mailboxes;
                scope.spawn(move || {
                    let _guard = PoisonOnPanic(barrier);
                    let mut sim =
                        Simulation::new_partition(seed, p as u32, owners, lookahead, nparts);
                    let built = worker.build(&mut sim);
                    let mut per_window: Vec<u64> = Vec::new();
                    let mut width_hist = LogHist::new();
                    let mut wait_hist = LogHist::new();
                    let timed_wait = |h: &mut LogHist| {
                        let t0 = std::time::Instant::now();
                        barrier.wait();
                        h.record(t0.elapsed().as_nanos() as u64);
                    };
                    loop {
                        // Accept mail posted at the previous boundary, then
                        // publish our next-event time.
                        for q in 0..nparts {
                            let slot = &mailboxes[q * nparts + p];
                            for ev in std::mem::take(&mut *slot.lock().unwrap()) {
                                sim.par_push_remote(ev);
                            }
                        }
                        let nt = sim.par_next_time();
                        slots[p].store(nt, Ordering::SeqCst);
                        timed_wait(&mut wait_hist); // A: all slots published
                        let mut t = nt;
                        let mut peer_min = u64::MAX;
                        for (q, s) in slots.iter().enumerate() {
                            let v = s.load(Ordering::SeqCst);
                            t = t.min(v);
                            if q != p {
                                peer_min = peer_min.min(v);
                            }
                        }
                        if t == u64::MAX {
                            // Every calendar is empty and (by protocol
                            // phasing) no mail is in flight: drained. The
                            // extra barrier keeps peers from reusing the
                            // slots (finish-time collectives) while
                            // laggards are still reading them.
                            barrier.wait();
                            break;
                        }
                        // Adaptive horizon (module docs): unheard-of events
                        // reach us at >= min(min_{q!=p} NT_q + L, NT_p + 2L).
                        // Never narrower than the classic [t, t+L) window.
                        // bound >= t + L >= 1, so the -1 cannot wrap.
                        let horizon = peer_min
                            .saturating_add(la)
                            .min(nt.saturating_add(la).saturating_add(la))
                            - 1;
                        debug_assert!(horizon >= t, "horizon below the global minimum");
                        width_hist.record(horizon.saturating_sub(t).saturating_add(1));
                        per_window.push(sim.run_window(SimTime(horizon)));
                        for (dst, bucket) in sim.par_outbox_mut().iter_mut().enumerate() {
                            if !bucket.is_empty() {
                                let mut slot =
                                    mailboxes[p * nparts + dst].lock().unwrap();
                                debug_assert!(slot.is_empty(), "mailbox not drained");
                                // The drained slot's allocation swaps back
                                // into the bucket for reuse next window.
                                std::mem::swap(&mut *slot, bucket);
                            }
                        }
                        timed_wait(&mut wait_hist); // B: all mail delivered
                    }
                    let dispatched = sim.dispatched();
                    let remote = sim.par_remote_sent();
                    let ops = ParOps { me: p, slots, barrier: Some(barrier) };
                    let result = worker.finish(built, sim, &ops);
                    PartOut { result, dispatched, remote, per_window, width_hist, wait_hist }
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("partition worker panicked"))
            .collect()
    });

    let windows = per_part[0].per_window.len();
    debug_assert!(per_part.iter().all(|o| o.per_window.len() == windows));
    let critical_dispatched: u64 = (0..windows)
        .map(|w| per_part.iter().map(|o| o.per_window[w]).max().unwrap_or(0))
        .sum();
    let mut window_width_hist = LogHist::new();
    let mut barrier_wait_hist = LogHist::new();
    for o in &per_part {
        window_width_hist.absorb(&o.width_hist);
        barrier_wait_hist.absorb(&o.wait_hist);
    }
    ParOutcome {
        dispatched: per_part.iter().map(|o| o.dispatched).sum(),
        remote_messages: per_part.iter().map(|o| o.remote).sum(),
        windows: windows as u64,
        critical_dispatched,
        window_width_hist,
        barrier_wait_hist,
        results: per_part.into_iter().map(|o| o.result).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ActorId, Ctx, RunOutcome};
    use std::cell::RefCell;
    use std::rc::Rc;

    const RING: usize = 4;
    const HOPS: u32 = 40;
    const DELAY: u64 = 100;
    const LOOKAHEAD: u64 = 50;

    type Log = Vec<(u64, usize, u32)>;

    /// Install ring actor `i` (forwards a countdown token to `(i+1)%RING`
    /// after DELAY ns) into `sim`, logging every visit.
    type RingActor = Box<dyn FnMut(&mut Ctx<'_, u32>, u32)>;

    fn ring_actor(i: usize, log: Rc<RefCell<Log>>) -> RingActor {
        Box::new(move |ctx: &mut Ctx<'_, u32>, hops: u32| {
            log.borrow_mut().push((ctx.now().as_nanos(), i, hops));
            if hops > 0 {
                ctx.send(
                    ActorId((i + 1) % RING),
                    SimDuration::from_nanos(DELAY),
                    hops - 1,
                );
            }
        })
    }

    fn sequential_log() -> Log {
        let log: Rc<RefCell<Log>> = Rc::default();
        let mut sim: Simulation<u32> = Simulation::new(9);
        for i in 0..RING {
            let l = log.clone();
            sim.add_actor(Box::new(ring_actor(i, l)));
        }
        sim.seed_message(ActorId(0), SimTime(0), HOPS);
        assert_eq!(sim.run(), RunOutcome::Drained);
        let out = log.borrow().clone();
        out
    }

    struct RingWorker {
        part: u32,
        owners: Arc<Vec<u32>>,
    }

    impl PartitionWorker<u32, Log> for RingWorker {
        type Built = Rc<RefCell<Log>>;

        fn build(&mut self, sim: &mut Simulation<u32>) -> Self::Built {
            let log: Rc<RefCell<Log>> = Rc::default();
            sim.reserve_to(RING);
            for i in 0..RING {
                if self.owners[i] == self.part {
                    sim.install(ActorId(i), Box::new(ring_actor(i, log.clone())));
                }
            }
            if self.owners[0] == self.part {
                sim.seed_message(ActorId(0), SimTime(0), HOPS);
            }
            log
        }

        fn finish(self, built: Self::Built, sim: Simulation<u32>, ops: &ParOps<'_>) -> Log {
            let end = ops.allreduce_max(sim.now().as_nanos());
            assert_eq!(end, (HOPS as u64) * DELAY);
            drop(sim); // actors (and their Rc clones) die with the engine
            Rc::try_unwrap(built).expect("sole owner").into_inner()
        }
    }

    fn parallel_log(owners: Vec<u32>, nparts: usize) -> (Log, ParOutcome<Log>) {
        let owners = Arc::new(owners);
        let workers: Vec<RingWorker> = (0..nparts)
            .map(|p| RingWorker { part: p as u32, owners: owners.clone() })
            .collect();
        let mut outcome =
            run_partitioned(9, owners, SimDuration::from_nanos(LOOKAHEAD), workers);
        let mut merged: Log = outcome.results.iter().flatten().copied().collect();
        merged.sort_unstable();
        outcome.results = vec![];
        (merged, outcome)
    }

    #[test]
    fn partitioned_ring_matches_sequential() {
        let seq = sequential_log();
        for (owners, nparts) in [
            (vec![0, 0, 0, 0], 1),
            (vec![0, 1, 0, 1], 2),
            (vec![0, 1, 2, 3], 4),
        ] {
            let (par, stats) = parallel_log(owners, nparts);
            assert_eq!(par, seq, "{nparts}-way partition diverged");
            assert_eq!(stats.dispatched, (HOPS as u64) + 1);
            if nparts > 1 {
                assert!(stats.remote_messages > 0, "ring must cross partitions");
            } else {
                // One worker runs on the sequential calendar: no windows.
                assert_eq!(stats.remote_messages, 0);
                assert_eq!(stats.windows, 0);
                assert_eq!(stats.critical_dispatched, stats.dispatched);
                assert_eq!(stats.window_width_hist.total(), 0);
            }
        }
    }

    #[test]
    fn one_worker_builds_and_finishes_on_the_calling_thread() {
        use std::thread::ThreadId;
        struct Inline;
        impl PartitionWorker<u32, (ThreadId, ThreadId)> for Inline {
            type Built = ThreadId;
            fn build(&mut self, sim: &mut Simulation<u32>) -> ThreadId {
                sim.reserve_to(1);
                sim.install(ActorId(0), Box::new(|_: &mut Ctx<'_, u32>, _| {}));
                sim.seed_message(ActorId(0), SimTime(0), 0);
                std::thread::current().id()
            }
            fn finish(self, built: ThreadId, _: Simulation<u32>, _: &ParOps<'_>) -> (ThreadId, ThreadId) {
                (built, std::thread::current().id())
            }
        }
        // A zero lookahead is fine: one partition never synchronizes.
        let outcome = run_partitioned(1, Arc::new(vec![0]), SimDuration::ZERO, vec![Inline]);
        let me = std::thread::current().id();
        assert_eq!(outcome.results, vec![(me, me)]);
        assert_eq!(outcome.dispatched, 1);
    }

    #[test]
    fn one_worker_honours_request_stop() {
        struct Stopper;
        impl PartitionWorker<u32, u64> for Stopper {
            type Built = ();
            fn build(&mut self, sim: &mut Simulation<u32>) {
                sim.reserve_to(1);
                sim.install(
                    ActorId(0),
                    Box::new(|ctx: &mut Ctx<'_, u32>, hops: u32| {
                        if hops == HOPS / 2 {
                            ctx.request_stop();
                        } else {
                            let me = ctx.me();
                            ctx.send(me, SimDuration::from_nanos(DELAY), hops - 1);
                        }
                    }),
                );
                sim.seed_message(ActorId(0), SimTime(0), HOPS);
            }
            fn finish(self, (): (), sim: Simulation<u32>, ops: &ParOps<'_>) -> u64 {
                ops.allreduce_max(sim.now().as_nanos())
            }
        }
        let outcome = run_partitioned(
            1,
            Arc::new(vec![0]),
            SimDuration::from_nanos(LOOKAHEAD),
            vec![Stopper],
        );
        // The countdown would run to zero (HOPS + 1 dispatches); the stop
        // cuts it off at the halfway hop.
        assert_eq!(outcome.dispatched, (HOPS - HOPS / 2) as u64 + 1);
        assert_eq!(outcome.results, vec![(HOPS / 2) as u64 * DELAY]);
    }

    #[test]
    fn partitioned_run_is_repeatable() {
        let (a, sa) = parallel_log(vec![0, 1, 0, 1], 2);
        let (b, sb) = parallel_log(vec![0, 1, 0, 1], 2);
        assert_eq!(a, b);
        assert_eq!(sa.windows, sb.windows);
        assert_eq!(sa.critical_dispatched, sb.critical_dispatched);
        assert_eq!(sa.remote_messages, sb.remote_messages);
        // Window widths are virtual quantities: deterministic across runs
        // (barrier waits are wall-clock and deliberately not compared).
        assert_eq!(sa.window_width_hist.buckets, sb.window_width_hist.buckets);
        assert_eq!(sa.window_width_hist.total(), sa.windows * 2);
    }

    #[test]
    fn adaptive_horizon_widens_past_the_static_window() {
        // Partition 0 runs a dense local chain (hops every 10 ns) while
        // partition 1 stays idle: its published next-event time is MAX, so
        // partition 0's horizon stretches to NT_p + 2L = NT_p + 100 each
        // round instead of the static NT_p + 50 — half the rounds.
        const CHAIN: u32 = 50;
        const STEP: u64 = 10;
        struct ChainWorker {
            part: u32,
        }
        impl PartitionWorker<u32, u64> for ChainWorker {
            type Built = ();
            fn build(&mut self, sim: &mut Simulation<u32>) {
                sim.reserve_to(2);
                if self.part == 0 {
                    sim.install(
                        ActorId(0),
                        Box::new(|ctx: &mut Ctx<'_, u32>, hops: u32| {
                            if hops > 0 {
                                let me = ctx.me();
                                ctx.send(me, SimDuration::from_nanos(STEP), hops - 1);
                            }
                        }),
                    );
                    sim.seed_message(ActorId(0), SimTime(0), CHAIN);
                } else {
                    sim.install(ActorId(1), Box::new(|_: &mut Ctx<'_, u32>, _| {}));
                }
            }
            fn finish(self, (): (), sim: Simulation<u32>, _: &ParOps<'_>) -> u64 {
                sim.dispatched()
            }
        }
        let owners = Arc::new(vec![0u32, 1]);
        let workers = vec![ChainWorker { part: 0 }, ChainWorker { part: 1 }];
        let outcome = run_partitioned(
            3,
            owners,
            SimDuration::from_nanos(LOOKAHEAD),
            workers,
        );
        assert_eq!(outcome.dispatched, CHAIN as u64 + 1);
        let static_rounds = (CHAIN as u64 * STEP).div_ceil(LOOKAHEAD);
        assert!(
            outcome.windows <= static_rounds / 2 + 1,
            "adaptive lookahead used {} rounds; static would need {}",
            outcome.windows,
            static_rounds
        );
    }

    #[test]
    #[should_panic(expected = "partition worker panicked")]
    fn lookahead_violation_is_fatal() {
        struct Eager {
            part: u32,
        }
        impl PartitionWorker<(), ()> for Eager {
            type Built = ();
            fn build(&mut self, sim: &mut Simulation<()>) {
                sim.reserve_to(2);
                if self.part == 0 {
                    // Sends to the remote actor with zero delay: inside
                    // the lookahead window, which the engine must reject.
                    sim.install(
                        ActorId(0),
                        Box::new(|ctx: &mut Ctx<'_, ()>, ()| {
                            ctx.send_now(ActorId(1), ());
                        }),
                    );
                    sim.seed_message(ActorId(0), SimTime(0), ());
                } else {
                    sim.install(ActorId(1), Box::new(|_: &mut Ctx<'_, ()>, ()| {}));
                }
            }
            fn finish(self, _: (), _: Simulation<()>, _: &ParOps<'_>) {}
        }
        let owners = Arc::new(vec![0u32, 1]);
        let workers = vec![Eager { part: 0 }, Eager { part: 1 }];
        run_partitioned::<(), (), _>(0, owners, SimDuration::from_nanos(50), workers);
    }
}
