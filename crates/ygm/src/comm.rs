//! The asynchronous communicator.
//!
//! [`Comm`] is the Rust analogue of YGM's `ygm::comm` (§4.1 of the paper):
//! a fire-and-forget active-message endpoint held by each rank of an SPMD
//! program. Its three pillars mirror the paper's description:
//!
//! * **RPC semantics** (§4.1.3): a message is a registered handler plus
//!   serialized arguments. YGM ships a lambda offset; our ranks share one
//!   binary and register the same handlers in the same order, so a small
//!   integer handler id plays the same role.
//! * **Message buffering** (§4.1.1): [`Comm::send`] appends to a
//!   per-destination [`SendBuffer`]; a buffer moves to its destination's
//!   channel, inline on the sending rank, when it crosses the one flush
//!   threshold every destination shares (see [`CommConfig`]) or at a
//!   flush point.
//! * **Serialization** (§4.1.2): payloads are [`Wire`]-encoded bytes, so
//!   heterogeneous records (adjacency lists, strings, counter updates)
//!   interleave freely in one buffer.
//!
//! Completion is detected by a quiescence **barrier**: fire-and-forget
//! messages have no replies, so a phase ends when every rank has reached
//! the barrier *and* no record anywhere remains unprocessed. Handlers may
//! send further messages (the `visit`-chains of vertex-centric
//! algorithms); the pending-record counter makes such chains count toward
//! quiescence.
//!
//! The per-record bookkeeping is rank-local plain arithmetic, as YGM's
//! buffering intends (§4.1.1: pay the transport per envelope, not per
//! record). A rank keeps its traffic counters in cells and its pending
//! balance — records sent minus records finished — in one more, and
//! publishes that balance to the world's shared count once per shipped
//! envelope and once per dispatched envelope (see
//! [`Quiescence::publish`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, SendBuffer};
use crate::quiesce::Quiescence;
use crate::stats::{CommStats, RankCounters};
use crate::wire::{put_varint, Wire, WireEncode, WireError, WireReader};

/// Index of a simulated MPI rank.
pub type Rank = usize;

/// Panic message used when a rank aborts because a peer panicked first.
/// The world driver filters these so the root-cause panic is the one that
/// propagates to the caller.
pub(crate) const POISON_MSG: &str = "peer rank panicked; aborting barrier";

/// Tuning knobs for the communicator.
#[derive(Debug, Clone, Default)]
pub struct CommConfig {
    /// Buffer size (bytes) at which a destination buffer is shipped.
    ///
    /// `None` (the default) resolves **adaptively** at world
    /// construction to [`crate::cost::CostModel::adaptive_flush_threshold`]
    /// for the world's rank count: from the tiny-world 8 KiB floor up to
    /// YGM's real-cluster ~MB buffers, since a fixed threshold would
    /// degenerate into the §5.4 small-message blowup as the world grows.
    /// Every destination, this rank included, flushes at that one
    /// threshold. `Some(bytes)` is the explicit override, used by tests.
    pub flush_threshold: Option<usize>,
}

impl CommConfig {
    /// The flush threshold a world of `nranks` ranks will run with: the
    /// explicit override if set, otherwise the cost model's adaptive
    /// default.
    fn effective_flush_threshold(&self, nranks: usize) -> usize {
        self.flush_threshold
            .unwrap_or_else(|| crate::cost::CostModel::default().adaptive_flush_threshold(nranks))
    }
}

/// State shared by all ranks of a world.
pub(crate) struct Shared {
    pub(crate) nranks: usize,
    /// One channel per rank; each message is one drained send buffer —
    /// the unit that would be a single MPI message.
    pub(crate) senders: Vec<Sender<Vec<u8>>>,
    /// The pending-record counter and generation barrier (extracted so
    /// the shipping protocol runs under the model checker — see
    /// [`crate::quiesce`]).
    pub(crate) q: Quiescence,
    /// Scratch slots for collectives (one per rank).
    pub(crate) slots: Vec<Mutex<Vec<u8>>>,
}

impl Shared {
    pub(crate) fn new(nranks: usize, senders: Vec<Sender<Vec<u8>>>) -> Self {
        Shared {
            nranks,
            senders,
            q: Quiescence::new(),
            slots: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

type DynHandler = Rc<dyn Fn(&Comm, &mut WireReader<'_>)>;

/// Typed identifier for a registered message handler.
///
/// Obtained from [`Comm::register`]; all ranks must register the same
/// handlers in the same order so that ids agree (the SPMD analogue of
/// YGM's sender/receiver lambda-offset agreement).
pub struct Handler<M> {
    id: u32,
    _marker: std::marker::PhantomData<fn(M)>,
}

impl<M> Clone for Handler<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Handler<M> {}

impl<M> Handler<M> {
    /// The raw handler id (diagnostics only).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Per-rank communicator endpoint. Not `Send`: it lives and dies on its
/// rank's thread, like an MPI communicator handle.
pub struct Comm {
    rank: Rank,
    shared: Arc<Shared>,
    /// The flush threshold, resolved against the world size at
    /// construction (adaptive unless overridden).
    flush_threshold: usize,
    rx: Receiver<Vec<u8>>,
    outbufs: RefCell<Vec<SendBuffer>>,
    handlers: RefCell<Vec<DynHandler>>,
    /// Buffer tails whose next record's handler is not yet registered.
    deferred: RefCell<Vec<Vec<u8>>>,
    in_dispatch: Cell<bool>,
    /// Recycled envelope allocations: drained send buffers restart from
    /// vectors this rank has finished dispatching.
    pool: RefCell<BufferPool>,
    /// Scratch for `send_to_many`: one record is encoded here once, then
    /// memcpy'd into destination buffers.
    scratch: RefCell<Vec<u8>>,
    /// Records this rank sent minus records it finished since its last
    /// [`Quiescence::publish`]; published once per shipped and once per
    /// dispatched envelope.
    unpublished: Cell<i64>,
    /// This rank's communication counters.
    counters: RankCounters,
}

/// Drained send-buffer vectors retained per rank. Bounds pooled memory
/// near `POOL_BUFFERS × flush_threshold` while covering the steady-state
/// envelope flow of a phase.
const POOL_BUFFERS: usize = 32;

impl Comm {
    pub(crate) fn new(
        rank: Rank,
        shared: Arc<Shared>,
        config: CommConfig,
        rx: Receiver<Vec<u8>>,
    ) -> Self {
        let nranks = shared.nranks;
        let flush_threshold = config.effective_flush_threshold(nranks);
        // A buffer flushes shortly past the threshold, so anything much
        // larger is a one-off oversized record — not worth keeping
        // resident. 4x leaves slack for big trailing records.
        let pool_buffer_cap = flush_threshold.saturating_mul(4).max(64 * 1024);
        Comm {
            rank,
            shared,
            flush_threshold,
            rx,
            outbufs: RefCell::new((0..nranks).map(|_| SendBuffer::new()).collect()),
            handlers: RefCell::new(Vec::new()),
            deferred: RefCell::new(Vec::new()),
            in_dispatch: Cell::new(false),
            pool: RefCell::new(BufferPool::new(POOL_BUFFERS, pool_buffer_cap)),
            scratch: RefCell::new(Vec::new()),
            unpublished: Cell::new(0),
            counters: RankCounters::default(),
        }
    }

    /// This rank's index.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// The flush threshold this world runs with (adaptive default
    /// resolved, or the explicit override).
    #[inline]
    pub fn flush_threshold(&self) -> usize {
        self.flush_threshold
    }

    /// Snapshot of this rank's communication statistics.
    pub fn stats(&self) -> CommStats {
        self.counters.snapshot()
    }

    /// Ends this rank's run: publishes whatever it counted but never
    /// shipped or finished, so records sent after the last barrier show
    /// up in the world's shutdown check, and returns the final stats.
    pub(crate) fn finish(&self) -> CommStats {
        self.publish();
        self.stats()
    }

    /// Publishes this rank's unpublished record balance.
    #[inline]
    fn publish(&self) {
        self.shared.q.publish(self.unpublished.replace(0));
    }

    /// Records `units` of application compute (e.g. wedge-check
    /// comparisons). The cost model prices these as the compute term of
    /// modeled runtimes; wall-clock is unaffected.
    #[inline]
    pub fn add_work(&self, units: u64) {
        RankCounters::add(&self.counters.work, units);
    }

    /// Registers a message handler and returns its typed id.
    ///
    /// Must be called collectively: every rank registers the same handlers
    /// in the same order (debug builds verify ids stay in lockstep via the
    /// returned id; a mismatch shows up as decode failures immediately).
    pub fn register<M, F>(&self, f: F) -> Handler<M>
    where
        M: Wire + 'static,
        F: Fn(&Comm, M) + 'static,
    {
        let mut handlers = self.handlers.borrow_mut();
        let id = u32::try_from(handlers.len()).expect("handler id overflow");
        handlers.push(Rc::new(move |comm: &Comm, r: &mut WireReader<'_>| {
            let msg = M::decode(r).unwrap_or_else(|e| {
                panic!(
                    "rank {}: failed to decode message for handler {id}: {e}",
                    comm.rank()
                )
            });
            f(comm, msg);
        }));
        Handler {
            id,
            _marker: std::marker::PhantomData,
        }
    }

    /// Registers a handler that decodes its message **in place** from
    /// the receive buffer — the zero-copy receive path, mirror of the
    /// encode-once sends.
    ///
    /// The closure receives the envelope's [`WireReader`] positioned at
    /// the start of one `M`-encoded record and must consume **exactly**
    /// that record's bytes ([`crate::wire::ColCursor`] captures a whole
    /// columnar frame up front, so a walk may stop anywhere;
    /// [`Wire::skip`] steps past a
    /// value that is not needed). Returning an error aborts the rank
    /// like a failed owned decode would.
    ///
    /// Sends target it exactly like an owned handler: `M` is the wire
    /// type the senders encode (or match via [`WireEncode`]). Must be
    /// registered collectively, in the same order on every rank.
    pub fn register_borrowed<M, F>(&self, f: F) -> Handler<M>
    where
        M: Wire + 'static,
        F: Fn(&Comm, &mut WireReader<'_>) -> Result<(), WireError> + 'static,
    {
        let mut handlers = self.handlers.borrow_mut();
        let id = u32::try_from(handlers.len()).expect("handler id overflow");
        handlers.push(Rc::new(move |comm: &Comm, r: &mut WireReader<'_>| {
            let start = r.position();
            if let Err(e) = f(comm, r) {
                panic!(
                    "rank {}: failed to decode message in place for handler {id}: {e}",
                    comm.rank()
                );
            }
            let counters = &comm.counters;
            RankCounters::add(&counters.records_borrowed, 1);
            RankCounters::add(
                &counters.bytes_decoded_in_place,
                (r.position() - start) as u64,
            );
        }));
        Handler {
            id,
            _marker: std::marker::PhantomData,
        }
    }

    /// Aborts the world with a structured reason: peers are poisoned
    /// out of their barriers promptly (instead of waiting for this
    /// rank's unwind to reach the world driver), and the driver
    /// re-raises this message — not the peers' secondary aborts — as
    /// the root cause.
    pub fn abort(&self, reason: impl std::fmt::Display) -> ! {
        let msg = format!("rank {} aborted: {reason}", self.rank);
        self.shared.q.poison();
        panic!("{msg}");
    }

    /// Sends `msg` to be executed by handler `h` on rank `dest`
    /// (fire-and-forget, buffered).
    #[inline]
    pub fn send<M: Wire>(&self, dest: Rank, h: &Handler<M>, msg: &M) {
        self.send_encoded(dest, h, msg);
    }

    /// Sends a record whose payload is appended by a [`WireEncode`]
    /// value — the encode-once path. `enc`'s byte image must match the
    /// handler's message type `M` (see the `wire` module docs); borrowed
    /// tuples and [`crate::wire::ColSuffixes`] projections serialize
    /// straight from application storage with no intermediate `M`.
    pub fn send_encoded<M: Wire, E: WireEncode>(&self, dest: Rank, h: &Handler<M>, enc: E) {
        let bytes = self.buffer_record(dest, |buf| {
            buf.push_record_with(h.id, |out| enc.encode_wire(out))
        });
        RankCounters::add(&self.counters.records_encoded, 1);
        RankCounters::add(&self.counters.bytes_encoded, bytes as u64);
    }

    /// Sends one record to several destinations: the payload is encoded
    /// **once** into scratch, then memcpy'd into each destination's
    /// buffer. This is the §4.4 pull-delivery pattern — one `Adjm+(q)`
    /// projection fanned out to every granted rank — without
    /// re-serializing (or re-materializing) the projection per rank.
    ///
    /// A destination listed twice receives the record twice.
    ///
    /// Counter contract: each destination is accounted a full record in
    /// `records_*` / `bytes_*`; `records_encoded` rises by one and
    /// `bytes_encoded` by one record's bytes.
    pub fn send_to_many<M, E, I>(&self, dests: I, h: &Handler<M>, enc: E)
    where
        M: Wire,
        E: WireEncode,
        I: IntoIterator<Item = Rank>,
    {
        let mut dests = dests.into_iter().peekable();
        if dests.peek().is_none() {
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        put_varint(&mut scratch, u64::from(h.id));
        enc.encode_wire(&mut scratch);

        RankCounters::add(&self.counters.records_encoded, 1);
        RankCounters::add(&self.counters.bytes_encoded, scratch.len() as u64);
        for dest in dests {
            self.buffer_record(dest, |buf| buf.push_raw(&scratch));
        }
    }

    /// Appends one record to `dest`'s buffer through `push` (which
    /// returns the bytes it appended), accounts it as a local or remote
    /// delivery, and ships the buffer once it crosses the flush
    /// threshold. Returns the record's bytes.
    fn buffer_record(&self, dest: Rank, push: impl FnOnce(&mut SendBuffer) -> usize) -> usize {
        debug_assert!(
            dest < self.nranks(),
            "send to rank {dest} of {}",
            self.nranks()
        );
        // Count the record as pending locally; `ship` publishes the
        // count before the record becomes visible anywhere.
        self.unpublished.set(self.unpublished.get() + 1);
        let counters = &self.counters;
        let (bytes, ship) = {
            let mut bufs = self.outbufs.borrow_mut();
            let buf = &mut bufs[dest];
            let bytes = push(buf);
            let (records, wire_bytes) = if dest == self.rank {
                (&counters.records_local, &counters.bytes_local)
            } else {
                (&counters.records_remote, &counters.bytes_remote)
            };
            RankCounters::add(records, 1);
            RankCounters::add(wire_bytes, bytes as u64);
            let ship = buf
                .should_flush(self.flush_threshold)
                .then(|| self.drain_pooled(buf));
            (bytes, ship)
        };
        if let Some(data) = ship {
            self.ship(dest, data);
        }
        bytes
    }

    /// Drains `buf`, restarting it from the recycled-allocation pool.
    #[inline]
    fn drain_pooled(&self, buf: &mut SendBuffer) -> Vec<u8> {
        let mut pool = self.pool.borrow_mut();
        let before = pool.reuses();
        let out = buf.drain_pooled(&mut pool);
        if pool.reuses() > before {
            RankCounters::add(&self.counters.pool_reuses, 1);
        }
        out
    }

    /// Hands one drained buffer to `dest`'s channel, publishing this
    /// rank's record balance first so the envelope's records are
    /// counted before any receiver can see them. From inside a handler
    /// that balance may be partial, even negative: it then also retires
    /// the envelope records whose handlers already ran.
    fn ship(&self, dest: Rank, data: Vec<u8>) {
        let envelopes = if dest == self.rank {
            &self.counters.envelopes_local
        } else {
            &self.counters.envelopes_remote
        };
        RankCounters::add(envelopes, 1);
        self.publish();
        self.shared.senders[dest]
            .send(data)
            .expect("receiver alive while world is running");
    }

    /// Flushes every non-empty destination buffer to the transport.
    fn flush_all(&self) {
        for dest in 0..self.nranks() {
            let drained = {
                let mut bufs = self.outbufs.borrow_mut();
                (!bufs[dest].is_empty()).then(|| self.drain_pooled(&mut bufs[dest]))
            };
            if let Some(data) = drained {
                self.ship(dest, data);
            }
        }
    }

    /// Processes every envelope currently queued for this rank.
    ///
    /// Returns `true` if at least one record was executed. Handlers run
    /// here; they may send further messages (which stay buffered until the
    /// next flush point).
    ///
    /// Records whose handler id this rank has not registered *yet* are
    /// deferred, not failed: in an SPMD program a fast peer may exit a
    /// barrier, register the next phase's handlers and start sending
    /// while this rank is still spinning in that barrier. The deferred
    /// bytes stay counted in the pending-record total (so no barrier can
    /// release past them) and are retried on the next poll, by which time
    /// this rank's own registrations have caught up.
    fn poll(&self) -> bool {
        let mut worked = false;
        // Retry deferred tails first: registrations may have caught up.
        let deferred: Vec<Vec<u8>> = self.deferred.borrow_mut().drain(..).collect();
        for data in deferred {
            worked |= self.dispatch_bytes(data);
        }
        while let Ok(data) = self.rx.try_recv() {
            worked |= self.dispatch_bytes(data);
        }
        worked
    }

    /// Dispatches the records of one buffer; returns whether at least one
    /// record was executed. A *not-yet-registered* handler id defers the
    /// rest of the buffer (records within a buffer stay in order); a
    /// handler id that cannot decode or can never be valid — handler ids
    /// are `u32` by construction, see [`Comm::register`] — is a corrupt
    /// envelope and aborts the world structurally instead of panicking
    /// (or worse, deferring forever).
    fn dispatch_bytes(&self, data: Vec<u8>) -> bool {
        let was = self.in_dispatch.replace(true);
        let mut executed = false;
        let mut reader = WireReader::new(&data);
        while !reader.is_empty() {
            let record_start = reader.position();
            let hid = match reader.take_varint() {
                Ok(id) => id,
                Err(e) => self.abort(format_args!("corrupt envelope: handler id: {e:?}")),
            };
            if hid > u32::MAX as u64 {
                self.abort(format_args!(
                    "corrupt envelope: handler id {hid} exceeds the u32 handler-id space"
                ));
            }
            let hid = hid as usize;
            let handler = {
                let handlers = self.handlers.borrow();
                handlers.get(hid).cloned()
            };
            let Some(handler) = handler else {
                // Not registered yet on this rank: defer the remainder.
                self.deferred
                    .borrow_mut()
                    .push(data[record_start..].to_vec());
                break;
            };
            handler(self, &mut reader);
            executed = true;
            RankCounters::add(&self.counters.handlers_run, 1);
            self.unpublished.set(self.unpublished.get() - 1);
        }
        // One publish retires the envelope: its Release half is what
        // lets a barrier that reads 0 synchronize with these handlers —
        // see `Quiescence::publish`.
        self.publish();
        self.in_dispatch.set(was);
        // Recycle the envelope allocation into this rank's send pool:
        // steady-state flushes then restart from received capacity
        // instead of the allocator.
        self.pool.borrow_mut().put(data);
        executed
    }

    /// Quiescence barrier (YGM `comm.barrier()`).
    ///
    /// Completes only when **all** ranks have entered the barrier **and**
    /// every sent record — including records sent by handlers while ranks
    /// were already waiting — has been executed. Must not be called from
    /// inside a message handler.
    pub fn barrier(&self) {
        assert!(
            !self.in_dispatch.get(),
            "barrier() may not be called from inside a message handler"
        );
        self.flush_all();
        // The rendezvous itself lives in `Quiescence::barrier`; this
        // closure is one poll progress step, flushing any sends the
        // executed handlers produced.
        self.shared.q.barrier(self.nranks(), || {
            self.check_poison();
            if self.poll() {
                self.flush_all();
                true
            } else {
                false
            }
        });
        RankCounters::add(&self.counters.barriers, 1);
    }

    #[inline]
    fn check_poison(&self) {
        if self.shared.q.is_poisoned() {
            panic!("{POISON_MSG} (observed on rank {})", self.rank);
        }
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};

    #[test]
    fn ping_all_to_all() {
        // Every rank sends its rank id to every rank; each rank must
        // receive exactly nranks records summing to 0+1+..+n-1.
        for nranks in [1, 2, 3, 4, 7] {
            let sums: Vec<u64> = World::new(nranks).run(|comm| {
                let sum = Rc::new(Cell::new(0u64));
                let sum2 = sum.clone();
                let h = comm.register::<u64, _>(move |_c, v| {
                    sum2.set(sum2.get() + v);
                });
                for dest in 0..comm.nranks() {
                    comm.send(dest, &h, &(comm.rank() as u64));
                }
                comm.barrier();
                sum.get()
            });
            let expect: u64 = (0..nranks as u64).sum();
            assert_eq!(sums, vec![expect; nranks], "nranks={nranks}");
        }
    }

    #[test]
    fn handler_chains_complete_before_barrier() {
        // A message that triggers a relay: rank r forwards to (r+1)%n,
        // decrementing a hop count. The barrier must not release until the
        // whole chain has drained.
        let nranks = 4;
        let arrived = Arc::new(StdAtomicU64::new(0));
        let arrived_outer = arrived.clone();
        let results: Vec<u64> = World::new(nranks).run(move |comm| {
            let arrived = arrived_outer.clone();
            let relay: Rc<RefCell<Option<Handler<u64>>>> = Rc::new(RefCell::new(None));
            let relay2 = relay.clone();
            let h = comm.register::<u64, _>(move |c, hops| {
                if hops == 0 {
                    arrived.fetch_add(1, Ordering::SeqCst);
                } else {
                    let next = (c.rank() + 1) % c.nranks();
                    let h = relay2.borrow().expect("registered");
                    c.send(next, &h, &(hops - 1));
                }
            });
            *relay.borrow_mut() = Some(h);
            if comm.rank() == 0 {
                // 25 hops wraps the ring several times.
                comm.send(1 % comm.nranks(), &h, &25u64);
            }
            comm.barrier();
            comm.stats().handlers_run
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 1);
        let total_handlers: u64 = results.iter().sum();
        assert_eq!(total_handlers, 26); // 25 relays + terminal
    }

    #[test]
    fn multiple_barriers_in_sequence() {
        let nranks = 3;
        let counts: Vec<u64> = World::new(nranks).run(|comm| {
            let seen = Rc::new(Cell::new(0u64));
            let seen2 = seen.clone();
            let h = comm.register::<u64, _>(move |_c, _v| {
                seen2.set(seen2.get() + 1);
            });
            for phase in 0..5u64 {
                for dest in 0..comm.nranks() {
                    comm.send(dest, &h, &phase);
                }
                comm.barrier();
                // After each barrier exactly (phase+1)*nranks records seen.
                assert_eq!(seen.get(), (phase + 1) * comm.nranks() as u64);
            }
            seen.get()
        });
        assert_eq!(counts, vec![15; nranks]);
    }

    #[test]
    fn heterogeneous_messages_interleave() {
        // Two handlers with different payload types share buffers, as in
        // YGM's serialization story (§4.1.2).
        let nranks = 2;
        let out: Vec<(u64, String)> = World::new(nranks).run(|comm| {
            let nums = Rc::new(Cell::new(0u64));
            let text = Rc::new(RefCell::new(String::new()));
            let nums2 = nums.clone();
            let text2 = text.clone();
            let h_num = comm.register::<u64, _>(move |_c, v| {
                nums2.set(nums2.get() + v);
            });
            let h_str = comm.register::<String, _>(move |_c, s| {
                text2.borrow_mut().push_str(&s);
            });
            let dest = (comm.rank() + 1) % comm.nranks();
            for i in 0..10u64 {
                comm.send(dest, &h_num, &i);
                comm.send(dest, &h_str, &"x".to_string());
            }
            comm.barrier();
            let collected = text.borrow().clone();
            (nums.get(), collected)
        });
        for (n, s) in out {
            assert_eq!(n, 45);
            assert_eq!(s, "xxxxxxxxxx");
        }
    }

    #[test]
    fn small_threshold_forces_many_envelopes() {
        let config = CommConfig {
            flush_threshold: Some(4),
        };
        let stats = World::new(2).with_config(config).run_with_stats(|comm| {
            let h = comm.register::<u64, _>(|_c, _v| {});
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.send(1, &h, &i);
                }
            }
            comm.barrier();
        });
        let s0 = stats.stats[0];
        assert_eq!(s0.records_remote, 100);
        // With a 4-byte threshold nearly every record ships alone.
        assert!(
            s0.envelopes_remote >= 50,
            "envelopes {}",
            s0.envelopes_remote
        );
    }

    #[test]
    fn large_threshold_aggregates() {
        let config = CommConfig {
            flush_threshold: Some(1 << 20),
        };
        let stats = World::new(2).with_config(config).run_with_stats(|comm| {
            let h = comm.register::<u64, _>(|_c, _v| {});
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.send(1, &h, &i);
                }
            }
            comm.barrier();
        });
        let s0 = stats.stats[0];
        assert_eq!(s0.records_remote, 100);
        assert_eq!(s0.envelopes_remote, 1, "all records in one envelope");
    }

    #[test]
    fn flush_threshold_resolves_adaptively_and_respects_override() {
        // Default config: the resolved threshold follows the cost
        // model's nranks scaling (tiny worlds sit on the 8 KiB floor).
        for nranks in [1usize, 2, 4] {
            let expect = CommConfig::default().effective_flush_threshold(nranks);
            let got = World::new(nranks).run(|comm| comm.flush_threshold());
            assert_eq!(got, vec![expect; nranks], "nranks={nranks}");
            assert_eq!(
                expect,
                crate::cost::CostModel::default().adaptive_flush_threshold(nranks)
            );
        }
        // Explicit override wins regardless of world size.
        let got = World::new(3)
            .with_config(CommConfig {
                flush_threshold: Some(999),
            })
            .run(|comm| comm.flush_threshold());
        assert_eq!(got, vec![999; 3]);
    }

    #[test]
    fn local_sends_counted_separately() {
        let stats = World::new(2).run_with_stats(|comm| {
            let h = comm.register::<u64, _>(|_c, _v| {});
            comm.send(comm.rank(), &h, &1u64); // self
            comm.barrier();
        });
        for s in &stats.stats {
            assert_eq!(s.records_local, 1);
            assert_eq!(s.records_remote, 0);
            assert!(s.bytes_local > 0);
            assert_eq!(s.bytes_remote, 0);
        }
    }

    #[test]
    fn pending_returns_to_zero() {
        World::new(3).run(|comm| {
            let h = comm.register::<Vec<u64>, _>(|_c, _v| {});
            for dest in 0..comm.nranks() {
                comm.send(dest, &h, &vec![1, 2, 3]);
            }
            comm.barrier();
            assert_eq!(comm.shared().q.pending(), 0);
        });
    }

    #[test]
    fn late_registration_defers_messages() {
        // Regression test for the phase race: a fast rank exits a
        // barrier, registers the next phase's handler and sends to a
        // slow rank that is still spinning inside the old barrier. The
        // slow rank must defer the record until its own registration
        // catches up — never crash, never lose the record.
        for trial in 0..50 {
            let out = World::new(3).run(|comm| {
                let h1 = comm.register::<u64, _>(|_c, _v| {});
                // Stagger arrival so barrier roles vary across trials.
                if comm.rank() != 0 {
                    std::thread::yield_now();
                }
                comm.send((comm.rank() + 1) % comm.nranks(), &h1, &1u64);
                comm.barrier();

                // Phase 2: register late on some ranks.
                if comm.rank() == 2 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                let got = Rc::new(Cell::new(0u64));
                let got2 = got.clone();
                let h2 = comm.register::<u64, _>(move |_c, v| {
                    got2.set(got2.get() + v);
                });
                for dest in 0..comm.nranks() {
                    comm.send(dest, &h2, &10u64);
                }
                comm.barrier();
                got.get()
            });
            assert_eq!(out, vec![30, 30, 30], "trial {trial}");
        }
    }

    #[test]
    fn send_to_many_encodes_once_delivers_everywhere() {
        // Rank 0 fans one record out to every rank: each rank must
        // receive it exactly once, every delivery is a full record on
        // the wire, but only ONE encode is performed.
        let nranks = 4;
        let stats = World::new(nranks).run_with_stats(|comm| {
            let got = Rc::new(RefCell::new(Vec::new()));
            let got2 = got.clone();
            let h = comm.register::<(u64, Vec<u64>), _>(move |_c, msg| {
                got2.borrow_mut().push(msg);
            });
            if comm.rank() == 0 {
                let payload = (99u64, vec![1u64, 2, 3]);
                comm.send_to_many(0..comm.nranks(), &h, &payload);
            }
            comm.barrier();
            assert_eq!(got.borrow().len(), 1, "rank {}", comm.rank());
            assert_eq!(got.borrow()[0], (99, vec![1, 2, 3]));
        });
        let s0 = stats.stats[0];
        assert_eq!(s0.records_encoded, 1, "one encode serves all destinations");
        assert_eq!(s0.records_total(), nranks as u64);
        // 3 remote + 1 self delivery, each a full record's bytes.
        assert_eq!(s0.records_remote, 3);
        assert_eq!(s0.records_local, 1);
        assert!(s0.bytes_encoded > 0);
        assert_eq!(s0.bytes_total(), s0.bytes_encoded * nranks as u64);
        for s in &stats.stats[1..] {
            assert_eq!(s.records_total(), 0, "only rank 0 sent");
        }
    }

    #[test]
    fn send_to_many_matches_loop_of_sends_on_the_wire() {
        // Receivers can't tell fan-out deliveries from individual sends:
        // same records, same bytes, same decoded values.
        let run = |fanout: bool| {
            World::new(3).run_with_stats(move |comm| {
                let sum = Rc::new(Cell::new(0u64));
                let sum2 = sum.clone();
                let h = comm.register::<(u64, u64), _>(move |_c, (a, b)| {
                    sum2.set(sum2.get() + a + b);
                });
                if comm.rank() == 0 {
                    if fanout {
                        comm.send_to_many(0..comm.nranks(), &h, (5u64, 7u64));
                    } else {
                        for dest in 0..comm.nranks() {
                            comm.send(dest, &h, &(5u64, 7u64));
                        }
                    }
                }
                comm.barrier();
                sum.get()
            })
        };
        let with_fanout = run(true);
        let with_loop = run(false);
        assert_eq!(with_fanout.results, with_loop.results);
        assert_eq!(
            with_fanout.stats[0].bytes_total(),
            with_loop.stats[0].bytes_total()
        );
        assert_eq!(
            with_fanout.stats[0].records_total(),
            with_loop.stats[0].records_total()
        );
        // ...but the encoder ran once instead of nranks times.
        assert_eq!(with_fanout.stats[0].records_encoded, 1);
        assert_eq!(with_loop.stats[0].records_encoded, 3);
    }

    #[test]
    fn steady_state_flushes_reuse_pooled_buffers() {
        // Two ranks exchanging many over-threshold bursts: after the
        // first round trips, drained buffers must restart from recycled
        // envelope allocations.
        let config = CommConfig {
            flush_threshold: Some(256),
        };
        let stats = World::new(2).with_config(config).run_with_stats(|comm| {
            let h = comm.register::<Vec<u64>, _>(|_c, _v| {});
            let peer = (comm.rank() + 1) % comm.nranks();
            for _round in 0..20 {
                for _ in 0..8 {
                    comm.send(peer, &h, &vec![1u64; 32]);
                }
                comm.barrier();
            }
        });
        let total: u64 = stats.stats.iter().map(|s| s.pool_reuses).sum();
        assert!(total > 0, "expected pooled buffer reuse, got {total}");
    }

    #[test]
    fn borrowed_handler_decodes_in_place_and_counts() {
        // Rank 0 sends (tag, candidate list) records; the receiver
        // walks them off the envelope reader with no owned message, and
        // the in-place counters reflect the decode.
        let nranks = 2;
        let stats = World::new(nranks).run_with_stats(|comm| {
            let sum = Rc::new(Cell::new(0u64));
            let sum2 = sum.clone();
            let h = comm.register_borrowed::<(u64, Vec<u64>), _>(move |_c, r| {
                let mut acc = u64::decode(r)?;
                for _ in 0..r.take_varint()? {
                    acc += u64::decode(r)?;
                }
                sum2.set(sum2.get() + acc);
                Ok(())
            });
            if comm.rank() == 0 {
                comm.send(1, &h, &(100u64, vec![1u64, 2, 3]));
                comm.send(1, &h, &(200u64, vec![10u64, 20]));
            }
            comm.barrier();
            if comm.rank() == 1 {
                assert_eq!(sum.get(), 100 + 6 + 200 + 30);
            }
        });
        assert_eq!(stats.stats[1].records_borrowed, 2);
        assert!(stats.stats[1].bytes_decoded_in_place > 0);
        // Every payload byte was decoded in place: sent bytes minus the
        // one-byte handler id each of the two records carries.
        assert_eq!(
            stats.stats[1].bytes_decoded_in_place,
            stats.stats[0].bytes_total() - 2
        );
        assert_eq!(stats.stats[0].records_borrowed, 0);
    }

    #[test]
    fn borrowed_and_owned_handlers_share_envelopes() {
        // Records for both handler kinds interleave in one buffer; the
        // borrowed handler must leave the reader exactly at the next
        // record (exercised by skipping the rest after a partial walk).
        let out: Vec<(u64, u64)> = World::new(2).run(|comm| {
            let owned_sum = Rc::new(Cell::new(0u64));
            let borrowed_sum = Rc::new(Cell::new(0u64));
            let os = owned_sum.clone();
            let bs = borrowed_sum.clone();
            let h_owned = comm.register::<u64, _>(move |_c, v| {
                os.set(os.get() + v);
            });
            let h_borrowed = comm.register_borrowed::<Vec<u64>, _>(move |_c, r| {
                // Consume only the first element, then skip the rest.
                let len = r.take_varint()?;
                bs.set(bs.get() + u64::decode(r)?);
                for _ in 1..len {
                    u64::skip(r)?;
                }
                Ok(())
            });
            let dest = (comm.rank() + 1) % comm.nranks();
            for i in 0..10u64 {
                comm.send(dest, &h_owned, &i);
                comm.send(dest, &h_borrowed, &vec![i, 1000, 2000]);
            }
            comm.barrier();
            (owned_sum.get(), borrowed_sum.get())
        });
        for (owned, borrowed) in out {
            assert_eq!(owned, 45);
            assert_eq!(borrowed, 45, "only first elements summed");
        }
    }

    #[test]
    fn empty_send_to_many_is_a_no_op() {
        let stats = World::new(2).run_with_stats(|comm| {
            let h = comm.register::<u64, _>(|_c, _v| {});
            comm.send_to_many(std::iter::empty(), &h, 5u64);
            comm.barrier();
        });
        for s in &stats.stats {
            assert_eq!(s.records_encoded, 0);
            assert_eq!(s.records_total(), 0);
        }
    }

    #[test]
    fn every_destination_flushes_at_one_threshold() {
        // ~3 KB to this rank and the same to a peer both stay below the
        // adaptive threshold: each buffer ships once, at the barrier.
        let stats = World::new(2).run_with_stats(|comm| {
            let h = comm.register::<Vec<u64>, _>(|_c, _v| {});
            if comm.rank() == 0 {
                for _ in 0..12 {
                    // ~253 bytes per record (25 max-width varints).
                    comm.send(0, &h, &vec![u64::MAX; 25]);
                    comm.send(1, &h, &vec![u64::MAX; 25]);
                }
            }
            comm.barrier();
        });
        let s0 = stats.stats[0];
        assert_eq!(s0.bytes_local, s0.bytes_remote);
        assert!(s0.bytes_local > 2048, "volume {}", s0.bytes_local);
        assert_eq!(s0.envelopes_local, 1, "self buffer ships at the barrier");
        assert_eq!(s0.envelopes_remote, 1, "peer buffer ships at the barrier");
    }

    #[test]
    fn send_to_many_repeated_destination_delivers_twice() {
        // A destination listed twice gets two deliveries of the one
        // encoded record, exactly like two sends.
        let stats = World::new(3).run_with_stats(|comm| {
            let seen = Rc::new(Cell::new(0u64));
            let seen2 = seen.clone();
            let h = comm.register::<u64, _>(move |_c, v| {
                seen2.set(seen2.get() + v);
            });
            if comm.rank() == 0 {
                comm.send_to_many([2, 1, 2], &h, 5u64);
            }
            comm.barrier();
            assert_eq!(seen.get(), [0, 5, 10][comm.rank()], "rank {}", comm.rank());
        });
        let s0 = stats.stats[0];
        assert_eq!(s0.records_encoded, 1);
        assert_eq!(s0.records_remote, 3);
        assert_eq!(s0.bytes_remote, 3 * s0.bytes_encoded);
    }

    /// Extracts a panic payload's message.
    fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic>")
    }

    /// Injects `bytes` as a raw direct envelope at rank 0 and asserts
    /// the world aborts with a structural corrupt-envelope error —
    /// never a panic from the `take_varint` unwrap path, never a
    /// forever-deferred buffer (a hang), and never a handler run.
    fn expect_envelope_abort(bytes: Vec<u8>, expected: &str) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::new(2).run(|comm| {
                let _h = comm.register::<u64, _>(|_c, _v| panic!("handler ran on corrupt bytes"));
                if comm.rank() == 1 {
                    comm.shared().q.publish(1);
                    comm.shared().senders[0]
                        .send(bytes.clone())
                        .expect("world alive");
                }
                comm.barrier();
            });
        }));
        let err = result.expect_err("corrupt envelope must abort the world");
        let msg = panic_message(&err);
        assert!(msg.contains("rank 0 aborted"), "wrong rank: {msg}");
        assert!(msg.contains("corrupt envelope"), "wrong abort: {msg}");
        assert!(msg.contains(expected), "expected {expected:?} in: {msg}");
    }

    #[test]
    fn truncated_handler_id_aborts_structurally() {
        // A lone continuation byte: the handler-id varint never
        // terminates. Previously this was an `expect` panic.
        expect_envelope_abort(vec![0x80], "handler id");
    }

    #[test]
    fn oversized_handler_id_aborts_structurally() {
        // Varint decoding to 2^32 — beyond the u32 handler-id space, so
        // it can never become registered. Without the bounds check this
        // would be deferred and retried forever (a hang, not a panic).
        expect_envelope_abort(
            vec![0x80, 0x80, 0x80, 0x80, 0x10],
            "exceeds the u32 handler-id space",
        );
    }

    #[test]
    #[should_panic(expected = "rank 1 aborted: bad wedge batch")]
    fn abort_names_rank_and_reason_and_releases_peers() {
        World::new(3).run(|comm| {
            if comm.rank() == 1 {
                comm.abort(format_args!("bad wedge batch from rank {}", 0));
            }
            comm.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "rank 0 exploding")]
    fn peer_panic_poisons_barrier_and_root_cause_propagates() {
        // Rank 1 would hang in the barrier forever without poisoning; the
        // world must terminate and re-raise rank 0's original panic.
        World::new(2).run(|comm| {
            if comm.rank() == 0 {
                panic!("rank 0 exploding");
            }
            comm.barrier();
        });
    }
}
