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
//!   per-destination [`SendBuffer`]; buffers move to the transport only
//!   when they cross the configured threshold or at a flush point.
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

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, SendBuffer};
use crate::overlap::DrainStage;
use crate::quiesce::Quiescence;
use crate::stats::RankCounters;
use crate::wire::{put_varint, varint_len, Wire, WireEncode, WireError, WireReader};

/// Index of a simulated MPI rank.
pub type Rank = usize;

/// Panic message used when a rank aborts because a peer panicked first.
/// The world driver filters these so the root-cause panic is the one that
/// propagates to the caller.
pub(crate) const POISON_MSG: &str = "peer rank panicked; aborting barrier";

/// Tuning knobs for the communicator.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// Buffer size (bytes) at which a destination buffer is shipped.
    ///
    /// `None` (the default) resolves **adaptively** at world
    /// construction into a *per-destination-class* policy derived from
    /// the cost model's α·β product: remote destinations get
    /// [`crate::cost::CostModel::adaptive_flush_threshold`] (scaled by
    /// the *node* count, from the tiny-world 8 KiB floor up to YGM's
    /// real-cluster ~MB buffers — a fixed threshold would degenerate
    /// into the §5.4 small-message blowup as the world grows), while
    /// same-node destinations flush at the shallow
    /// [`crate::cost::CostModel::local_flush_threshold`] (no `α` to
    /// amortize, so records reach local handlers sooner). `Some(bytes)`
    /// is the explicit override for **both** classes, used by tests and
    /// the ablation study.
    pub flush_threshold: Option<usize>,
    /// Simulated ranks per compute node for **node-level aggregation**
    /// (the §5.4 remedy for small-message blowup at scale: "extra
    /// aggregation of messages at the level of compute nodes").
    ///
    /// With a value > 1, buffers bound for the ranks of one remote node
    /// ship as a *single* bundled envelope to that node's gateway rank,
    /// which re-distributes the sections locally (free of network
    /// cost), and `send_to_many` fan-outs to co-node destinations
    /// encode their payload **once** on the wire as a multicast section
    /// the gateway expands. The default reads the `TRIPOLL_RPN`
    /// environment variable (CI reruns the suite with it set), falling
    /// back to `1` — every rank its own node, as in the paper's
    /// measured configuration.
    pub ranks_per_node: usize,
    /// Whether the transport handoff of a buffer flush runs on a
    /// dedicated per-rank transport worker (**overlapped flush**, see
    /// [`crate::overlap`]) instead of inline on the encode path.
    ///
    /// `None` (the default) reads the `TRIPOLL_OVERLAP` environment
    /// variable (`0`/`false`/`off` disable), falling back to **on**:
    /// encode and transport pipeline, and no observable counter or
    /// delivery semantics change either way. Single-rank worlds never
    /// spawn the worker.
    pub overlap_flush: Option<bool>,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            flush_threshold: None,
            ranks_per_node: env_ranks_per_node(),
            overlap_flush: None,
        }
    }
}

/// Resolves the default node width from `TRIPOLL_RPN` (min 1).
///
/// Read once per process and cached: a long-lived service must not see
/// its per-query defaults drift if something mutates the environment
/// mid-run. Queries that want a different width set
/// [`CommConfig::ranks_per_node`] explicitly (see [`CommConfig::pinned`]).
fn env_ranks_per_node() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("TRIPOLL_RPN")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(1, |v| v.max(1))
    })
}

/// Resolves the default overlapped-flush setting from `TRIPOLL_OVERLAP`.
fn env_overlap_flush() -> bool {
    match std::env::var("TRIPOLL_OVERLAP") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off"),
        Err(_) => true,
    }
}

impl CommConfig {
    /// The *remote-destination* threshold a world of `nranks` ranks will
    /// run with: the explicit override if set, otherwise the cost
    /// model's adaptive default (which scales with the node count under
    /// this config's `ranks_per_node`).
    pub fn effective_flush_threshold(&self, nranks: usize) -> usize {
        self.flush_threshold.unwrap_or_else(|| {
            crate::cost::CostModel::default().adaptive_flush_threshold(nranks, self.ranks_per_node)
        })
    }

    /// The *same-node-destination* threshold: the explicit override if
    /// set, otherwise the cost model's shallow local default.
    pub fn effective_local_flush_threshold(&self) -> usize {
        self.flush_threshold
            .unwrap_or_else(|| crate::cost::CostModel::default().local_flush_threshold())
    }

    /// Whether this config runs with the overlapped transport stage
    /// (explicit setting, or the `TRIPOLL_OVERLAP` default).
    pub fn effective_overlap_flush(&self) -> bool {
        self.overlap_flush.unwrap_or_else(env_overlap_flush)
    }

    /// Resolves every environment-dependent default into an explicit
    /// value, so the config's behavior no longer depends on when the
    /// environment is read. Resident services pin the config once at
    /// startup; each query then carries fully explicit settings.
    pub fn pinned(mut self) -> Self {
        self.overlap_flush = Some(self.effective_overlap_flush());
        // `ranks_per_node` was already resolved (via the cached env
        // read) when the config was constructed; `flush_threshold`
        // stays `None` deliberately — its adaptive default depends on
        // the per-query world size, not on the environment.
        self
    }
}

/// One tagged section of a node-level bundle.
pub(crate) enum Section {
    /// Records for one specific rank of the gateway's node.
    Direct(u32, Vec<u8>),
    /// Multicast records for *several* ranks of the gateway's node:
    /// a concatenation of `[ndests][offset]*ndests [len][record bytes]`
    /// frames (see [`SendBuffer::push_multicast`]), each payload
    /// appearing once on the wire. The gateway validates the framing
    /// structurally and expands it to per-rank record streams.
    Multicast(Vec<u8>),
}

/// One shipped message: the unit that would be a single MPI message.
pub(crate) enum Envelope {
    /// Records for the receiving rank itself.
    Direct(Vec<u8>),
    /// Node-level aggregate: tagged sections for the ranks of the
    /// gateway's node; the gateway re-distributes them.
    Bundle(Vec<Section>),
}

/// State shared by all ranks of a world.
pub(crate) struct Shared {
    pub(crate) nranks: usize,
    pub(crate) senders: Vec<Sender<Envelope>>,
    /// The pending-record counter and generation barrier (extracted so
    /// the shipping protocol runs under the model checker — see
    /// [`crate::quiesce`]).
    pub(crate) q: Quiescence,
    /// Per-rank communication counters.
    pub(crate) counters: Vec<RankCounters>,
    /// Scratch slots for collectives (one per rank).
    pub(crate) slots: Vec<Mutex<Vec<u8>>>,
}

impl Shared {
    pub(crate) fn new(nranks: usize, senders: Vec<Sender<Envelope>>) -> Self {
        Shared {
            nranks,
            senders,
            q: Quiescence::new(),
            counters: (0..nranks).map(|_| RankCounters::default()).collect(),
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
    config: CommConfig,
    /// The remote-destination flush threshold, resolved against the
    /// world size at construction (adaptive unless overridden).
    flush_threshold: usize,
    /// The same-node-destination flush threshold (shallow adaptive
    /// default, or the same explicit override).
    local_flush_threshold: usize,
    rx: Receiver<Envelope>,
    outbufs: RefCell<Vec<SendBuffer>>,
    /// One multicast buffer per remote node (empty vec when
    /// `ranks_per_node == 1`): `send_to_many` appends a fan-out payload
    /// here **once** per destination node instead of once per rank.
    node_bufs: RefCell<Vec<SendBuffer>>,
    handlers: RefCell<Vec<DynHandler>>,
    /// Buffer tails whose next record's handler is not yet registered.
    deferred: RefCell<Vec<Vec<u8>>>,
    in_dispatch: Cell<bool>,
    /// Recycled envelope allocations: drained send buffers restart from
    /// vectors this rank has finished dispatching.
    pool: RefCell<BufferPool>,
    /// Scratch for `send_to_many`: one record is encoded here once, then
    /// memcpy'd (or multicast) into destination buffers.
    scratch: RefCell<Vec<u8>>,
    /// Scratch for `send_to_many`'s destination list (sorted for node
    /// run detection without allocating per call).
    dest_scratch: RefCell<Vec<Rank>>,
    /// Scratch for one multicast record's node-local offsets.
    offset_scratch: RefCell<Vec<u32>>,
    /// The overlapped transport stage and its worker thread; `None`
    /// when overlapped flush is off (or the world has one rank), in
    /// which case envelope handoff runs inline on the encode path.
    transport: Option<TransportWorker>,
    /// Invoked while this rank spins in `barrier()`: lets an engine
    /// drain work it deferred past handler return (see `defer_work`).
    /// Returns true if it made progress.
    drain_hook: RefCell<Option<DrainHook>>,
}

/// The overlapped-flush transport worker: a [`DrainStage`] the encode
/// path pushes `(dest, envelope)` pairs into, drained by a dedicated
/// thread that performs the channel sends. Joined on `Comm` drop after
/// a stage shutdown, so no envelope is ever lost. See
/// [`crate::overlap`] for the protocol and its quiescence argument.
struct TransportWorker {
    stage: Arc<DrainStage<(Rank, Envelope)>>,
    handle: Option<tripoll_sync::thread::JoinHandle<()>>,
}

/// A barrier-spin progress callback (see [`Comm::set_drain_hook`]).
type DrainHook = Rc<dyn Fn(&Comm) -> bool>;

/// Drained send-buffer vectors retained per rank. Bounds pooled memory
/// near `POOL_BUFFERS × flush_threshold` while covering the steady-state
/// envelope flow of a phase.
const POOL_BUFFERS: usize = 32;

impl Comm {
    pub(crate) fn new(
        rank: Rank,
        shared: Arc<Shared>,
        config: CommConfig,
        rx: Receiver<Envelope>,
    ) -> Self {
        let nranks = shared.nranks;
        let flush_threshold = config.effective_flush_threshold(nranks);
        let local_flush_threshold = config.effective_local_flush_threshold();
        // A buffer flushes shortly past the threshold, so anything much
        // larger is a one-off oversized record — not worth keeping
        // resident. 4x leaves slack for big trailing records.
        let pool_buffer_cap = flush_threshold.saturating_mul(4).max(64 * 1024);
        let rpn = config.ranks_per_node.max(1);
        let nnodes = if rpn > 1 { nranks.div_ceil(rpn) } else { 0 };
        let transport = if config.effective_overlap_flush() && nranks > 1 {
            let stage = Arc::new(DrainStage::new());
            let worker_stage = Arc::clone(&stage);
            let senders = shared.senders.clone();
            let handle = tripoll_sync::thread::Builder::new()
                .name(format!("tripoll-transport-{rank}"))
                .spawn(move || {
                    worker_stage.worker_loop(|(dest, env): (Rank, Envelope)| {
                        // A failed send means the receiver already tore
                        // down — only possible on the poisoned-abort
                        // path, where dropping the envelope is correct
                        // (the root-cause panic is already propagating).
                        let _ = senders[dest].send(env);
                    });
                })
                .expect("spawn transport worker");
            Some(TransportWorker {
                stage,
                handle: Some(handle),
            })
        } else {
            None
        };
        Comm {
            rank,
            shared,
            config,
            flush_threshold,
            local_flush_threshold,
            rx,
            outbufs: RefCell::new((0..nranks).map(|_| SendBuffer::new()).collect()),
            node_bufs: RefCell::new((0..nnodes).map(|_| SendBuffer::new()).collect()),
            handlers: RefCell::new(Vec::new()),
            deferred: RefCell::new(Vec::new()),
            in_dispatch: Cell::new(false),
            pool: RefCell::new(BufferPool::new(POOL_BUFFERS, pool_buffer_cap)),
            scratch: RefCell::new(Vec::new()),
            dest_scratch: RefCell::new(Vec::new()),
            offset_scratch: RefCell::new(Vec::new()),
            transport,
            drain_hook: RefCell::new(None),
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

    /// The communicator configuration in effect.
    pub fn config(&self) -> &CommConfig {
        &self.config
    }

    /// The *remote-destination* flush threshold this world runs with
    /// (adaptive default resolved, or the explicit override).
    #[inline]
    pub fn flush_threshold(&self) -> usize {
        self.flush_threshold
    }

    /// The *same-node-destination* flush threshold (shallow adaptive
    /// default resolved, or the same explicit override). Same-node
    /// buffers pay no per-message latency, so they flush earlier.
    #[inline]
    pub fn local_flush_threshold(&self) -> usize {
        self.local_flush_threshold
    }

    /// The flush threshold applying to one destination rank under the
    /// per-destination policy.
    #[inline]
    fn threshold_for(&self, dest: Rank) -> usize {
        if self.node_of(dest) == self.node_of(self.rank) {
            self.local_flush_threshold
        } else {
            self.flush_threshold
        }
    }

    /// Live counters for this rank.
    #[inline]
    pub fn counters(&self) -> &RankCounters {
        &self.shared.counters[self.rank]
    }

    /// Snapshot of this rank's communication statistics.
    pub fn stats(&self) -> crate::stats::CommStats {
        self.counters().snapshot()
    }

    /// Records `units` of application compute (e.g. wedge-check
    /// comparisons). The cost model prices these as the compute term of
    /// modeled runtimes; wall-clock is unaffected.
    #[inline]
    pub fn add_work(&self, units: u64) {
        self.counters().work.fetch_add(units, Ordering::Relaxed);
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
    /// that record's bytes ([`crate::wire::ColCursor`] /
    /// [`crate::wire::ColView`] capture a whole columnar frame up
    /// front, so a walk may stop anywhere; [`Wire::skip`] steps past a
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
            let counters = comm.counters();
            counters.records_borrowed.fetch_add(1, Ordering::Relaxed);
            counters
                .bytes_decoded_in_place
                .fetch_add((r.position() - start) as u64, Ordering::Relaxed);
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
    /// tuples and [`crate::wire::encode_columns`] projections serialize
    /// straight from application storage with no intermediate `M`.
    pub fn send_encoded<M: Wire, E: WireEncode>(&self, dest: Rank, h: &Handler<M>, enc: E) {
        debug_assert!(
            dest < self.nranks(),
            "send to rank {dest} of {}",
            self.nranks()
        );
        // Count the record as pending *before* it becomes visible anywhere,
        // so the quiescence barrier can never observe a transient zero.
        // (Ordering rationale lives on `Quiescence::record_sent`.)
        self.shared.q.record_sent();

        let counters = self.counters();
        let ship = {
            let mut bufs = self.outbufs.borrow_mut();
            let buf = &mut bufs[dest];
            let bytes = buf.push_record_with(h.id, |out| enc.encode_wire(out));
            counters.records_encoded.fetch_add(1, Ordering::Relaxed);
            counters
                .bytes_encoded
                .fetch_add(bytes as u64, Ordering::Relaxed);
            // "Local" means it never touches the network: self-sends
            // always, and intra-node peers when node aggregation models
            // multiple ranks per node.
            if self.node_of(dest) == self.node_of(self.rank) {
                counters.records_local.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_local
                    .fetch_add(bytes as u64, Ordering::Relaxed);
            } else {
                counters.records_remote.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_remote
                    .fetch_add(bytes as u64, Ordering::Relaxed);
            }
            if buf.should_flush(self.threshold_for(dest)) {
                Some(self.drain_pooled(buf))
            } else {
                None
            }
        };
        if let Some((data, _records)) = ship {
            self.ship(dest, data);
        }
    }

    /// Sends one record to several destinations: the payload is encoded
    /// **once** into scratch, then fanned out. This is the §4.4
    /// pull-delivery pattern — one `Adjm+(q)` projection fanned out to
    /// every granted rank — without re-serializing (or
    /// re-materializing) the projection per rank.
    ///
    /// Fan-out is node-aware: with `ranks_per_node > 1`, destinations
    /// sharing a *remote* node receive the payload through a single
    /// multicast frame in that node's bundle section — the bytes go on
    /// the wire once, with a compact destination-set header, and the
    /// node's gateway expands them locally. Other destinations (local
    /// peers, lone remote ranks) get a per-rank memcpy as before.
    ///
    /// Counter contract: each destination is accounted a full record;
    /// `bytes_remote`/`bytes_local` reflect the *actual wire bytes*
    /// (so a multicast shrinks `bytes_remote`), with the forgone copy
    /// volume in `multicast_bytes_saved` and the deliveries served by
    /// multicast in `records_multicast`. `records_encoded` rises by one
    /// and `bytes_encoded` by one record's bytes.
    pub fn send_to_many<M, E, I>(&self, dests: I, h: &Handler<M>, enc: E)
    where
        M: Wire,
        E: WireEncode,
        I: IntoIterator<Item = Rank>,
    {
        let mut dest_scratch = self.dest_scratch.borrow_mut();
        dest_scratch.clear();
        dest_scratch.extend(dests);
        if dest_scratch.is_empty() {
            return;
        }
        if cfg!(debug_assertions) {
            for &dest in dest_scratch.iter() {
                debug_assert!(
                    dest < self.nranks(),
                    "send to rank {dest} of {}",
                    self.nranks()
                );
            }
        }

        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        put_varint(&mut scratch, u64::from(h.id));
        enc.encode_wire(&mut scratch);

        let counters = self.counters();
        // One encode serves every destination; the rest are copies (or
        // one multicast frame per destination node).
        counters.records_encoded.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_encoded
            .fetch_add(scratch.len() as u64, Ordering::Relaxed);

        let rpn = self.config.ranks_per_node.max(1);
        if rpn > 1 {
            // Group destinations into node runs. Callers' lists carry
            // no semantic order (fire-and-forget deliveries), so the
            // sort is free to reorder them.
            dest_scratch.sort_unstable();
        }
        let my_node = self.node_of(self.rank);
        let mut i = 0;
        while i < dest_scratch.len() {
            let node = self.node_of(dest_scratch[i]);
            let mut j = i + 1;
            while j < dest_scratch.len() && self.node_of(dest_scratch[j]) == node {
                j += 1;
            }
            let run = &dest_scratch[i..j];
            // Sorted + strictly increasing ⇒ no duplicate destinations
            // (a duplicated rank must get two deliveries, which one
            // destination-set header cannot express).
            let unique = run.windows(2).all(|w| w[0] < w[1]);
            if rpn > 1 && node != my_node && run.len() >= 2 && unique {
                self.multicast_to_node(node, run, &scratch);
            } else {
                for &dest in run {
                    self.fanout_unicast(dest, &scratch);
                }
            }
            i = j;
        }
    }

    /// One `send_to_many` delivery via the per-rank memcpy path.
    fn fanout_unicast(&self, dest: Rank, record: &[u8]) {
        let counters = self.counters();
        // Same pre-visibility argument as `send_encoded`.
        self.shared.q.record_sent();
        let ship = {
            let mut bufs = self.outbufs.borrow_mut();
            let buf = &mut bufs[dest];
            let bytes = buf.push_raw(record);
            if self.node_of(dest) == self.node_of(self.rank) {
                counters.records_local.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_local
                    .fetch_add(bytes as u64, Ordering::Relaxed);
            } else {
                counters.records_remote.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_remote
                    .fetch_add(bytes as u64, Ordering::Relaxed);
            }
            if buf.should_flush(self.threshold_for(dest)) {
                Some(self.drain_pooled(buf))
            } else {
                None
            }
        };
        if let Some((data, _records)) = ship {
            self.ship(dest, data);
        }
    }

    /// One `send_to_many` run of co-node remote destinations, delivered
    /// through the node's multicast buffer: the record goes on the wire
    /// once with a destination-set header. Falls back to per-rank
    /// copies when the header would not pay for itself (tiny records to
    /// few destinations).
    fn multicast_to_node(&self, node: usize, run: &[Rank], record: &[u8]) {
        let k = run.len();
        let lo = self.gateway_of(node);
        let mut offsets = self.offset_scratch.borrow_mut();
        offsets.clear();
        offsets.extend(run.iter().map(|&d| (d - lo) as u32));
        // Exact frame overhead: [ndests][offset]*k [len] varints.
        let header: usize = varint_len(k as u64)
            + offsets
                .iter()
                .map(|&o| varint_len(u64::from(o)))
                .sum::<usize>()
            + varint_len(record.len() as u64);
        if header + record.len() >= k * record.len() {
            // Copies are cheaper (or equal): k tiny records cost less
            // than one header + payload.
            drop(offsets);
            for &dest in run {
                self.fanout_unicast(dest, record);
            }
            return;
        }
        let counters = self.counters();
        // One pending record per *delivery*, raised before the frame
        // becomes visible — same pre-visibility argument as
        // `send_encoded`, applied k times.
        for _ in 0..k {
            self.shared.q.record_sent();
        }
        let ship = {
            let mut node_bufs = self.node_bufs.borrow_mut();
            let buf = &mut node_bufs[node];
            let bytes = buf.push_multicast(&offsets, record);
            debug_assert_eq!(bytes, header + record.len());
            counters
                .records_remote
                .fetch_add(k as u64, Ordering::Relaxed);
            counters
                .bytes_remote
                .fetch_add(bytes as u64, Ordering::Relaxed);
            counters
                .records_multicast
                .fetch_add(k as u64, Ordering::Relaxed);
            counters
                .multicast_bytes_saved
                .fetch_add((k * record.len() - bytes) as u64, Ordering::Relaxed);
            if buf.should_flush(self.flush_threshold) {
                Some(self.drain_pooled(buf))
            } else {
                None
            }
        };
        if let Some((data, _records)) = ship {
            self.counters()
                .envelopes_remote
                .fetch_add(1, Ordering::Relaxed);
            self.send_envelope(
                self.gateway_of(node),
                Envelope::Bundle(vec![Section::Multicast(data)]),
            );
        }
    }

    /// Drains `buf`, restarting it from the recycled-allocation pool.
    #[inline]
    fn drain_pooled(&self, buf: &mut SendBuffer) -> (Vec<u8>, u64) {
        let mut pool = self.pool.borrow_mut();
        let before = pool.reuses();
        let out = buf.drain_pooled(&mut pool);
        if pool.reuses() > before {
            self.counters().pool_reuses.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Compute node of a rank under the configured node width.
    #[inline]
    fn node_of(&self, rank: Rank) -> usize {
        rank / self.config.ranks_per_node.max(1)
    }

    /// The rank that receives bundled envelopes for a node.
    #[inline]
    fn gateway_of(&self, node: usize) -> Rank {
        node * self.config.ranks_per_node.max(1)
    }

    /// Hands one envelope to the transport: through the overlapped
    /// drain stage when it is active (so the channel send runs on the
    /// transport worker, off the encode path), inline otherwise.
    /// Self-sends always go inline — they land in this rank's own
    /// receive queue, so there is nothing to overlap.
    fn send_envelope(&self, dest: Rank, env: Envelope) {
        if dest != self.rank {
            if let Some(t) = &self.transport {
                t.stage.push((dest, env));
                return;
            }
        }
        self.shared.senders[dest]
            .send(env)
            .expect("receiver alive while world is running");
    }

    /// Ships one drained buffer to `dest`, via the destination node's
    /// gateway when node-level aggregation is active.
    fn ship(&self, dest: Rank, data: Vec<u8>) {
        let counters = self.counters();
        if dest == self.rank {
            counters.envelopes_local.fetch_add(1, Ordering::Relaxed);
            self.send_envelope(dest, Envelope::Direct(data));
            return;
        }
        if self.config.ranks_per_node > 1 && self.node_of(dest) != self.node_of(self.rank) {
            // A lone over-threshold buffer still travels as a (single
            // section) bundle so the gateway accounting stays uniform.
            let gateway = self.gateway_of(self.node_of(dest));
            counters.envelopes_remote.fetch_add(1, Ordering::Relaxed);
            self.send_envelope(
                gateway,
                Envelope::Bundle(vec![Section::Direct(dest as u32, data)]),
            );
            return;
        }
        if self.node_of(dest) == self.node_of(self.rank) {
            counters.envelopes_local.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.envelopes_remote.fetch_add(1, Ordering::Relaxed);
        }
        self.send_envelope(dest, Envelope::Direct(data));
    }

    /// Flushes every non-empty destination buffer to the transport.
    ///
    /// One loop over node sections covers every configuration. Buffers
    /// for this rank's own node (which, with `ranks_per_node == 1`, is
    /// just this rank) and for any single-rank node ship as direct
    /// envelopes; with node-level aggregation, all buffers bound for one
    /// remote multi-rank node leave as a *single* bundled envelope to
    /// that node's gateway — the envelope-count reduction the paper
    /// prescribes for the 6144-rank regime (§5.4).
    pub fn flush_all(&self) {
        let rpn = self.config.ranks_per_node.max(1);
        let nnodes = self.nranks().div_ceil(rpn);
        let my_node = self.node_of(self.rank);
        for node in 0..nnodes {
            let lo = node * rpn;
            let hi = ((node + 1) * rpn).min(self.nranks());
            if rpn == 1 || node == my_node {
                // Direct delivery: every rank of this section gets its
                // own envelope. `ship` classifies local vs remote and
                // handles the (rpn > 1, foreign node) single-buffer
                // bundle case — unreachable here since that is the
                // aggregated branch below.
                for dest in lo..hi {
                    let drained = {
                        let mut bufs = self.outbufs.borrow_mut();
                        if bufs[dest].is_empty() {
                            None
                        } else {
                            Some(self.drain_pooled(&mut bufs[dest]))
                        }
                    };
                    if let Some((data, _records)) = drained {
                        self.ship(dest, data);
                    }
                }
                continue;
            }
            // Remote multi-rank node: bundle every non-empty per-rank
            // section plus the node's multicast section into one
            // envelope for the node's gateway.
            let sections: Vec<Section> = {
                let mut bufs = self.outbufs.borrow_mut();
                let mut sections = Vec::new();
                for d in lo..hi {
                    if !bufs[d].is_empty() {
                        sections.push(Section::Direct(d as u32, self.drain_pooled(&mut bufs[d]).0));
                    }
                }
                drop(bufs);
                let mut node_bufs = self.node_bufs.borrow_mut();
                if !node_bufs[node].is_empty() {
                    sections.push(Section::Multicast(
                        self.drain_pooled(&mut node_bufs[node]).0,
                    ));
                }
                sections
            };
            if !sections.is_empty() {
                self.counters()
                    .envelopes_remote
                    .fetch_add(1, Ordering::Relaxed);
                self.send_envelope(self.gateway_of(node), Envelope::Bundle(sections));
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
    pub fn poll(&self) -> bool {
        let mut worked = false;
        // Retry deferred tails first: registrations may have caught up.
        let deferred: Vec<Vec<u8>> = self.deferred.borrow_mut().drain(..).collect();
        for data in deferred {
            worked |= self.dispatch_bytes(data);
        }
        while let Ok(env) = self.rx.try_recv() {
            match env {
                Envelope::Direct(data) => worked |= self.dispatch_bytes(data),
                Envelope::Bundle(sections) => {
                    // Gateway duty: keep our own sections, forward the
                    // rest over the (free) intra-node transport, and
                    // expand multicast sections to per-rank streams.
                    for section in sections {
                        match section {
                            Section::Direct(dest, data) => {
                                let dest = dest as usize;
                                if dest == self.rank {
                                    worked |= self.dispatch_bytes(data);
                                } else {
                                    debug_assert_eq!(
                                        self.node_of(dest),
                                        self.node_of(self.rank),
                                        "bundle section for a foreign node"
                                    );
                                    self.counters()
                                        .envelopes_local
                                        .fetch_add(1, Ordering::Relaxed);
                                    self.shared.senders[dest]
                                        .send(Envelope::Direct(data))
                                        .expect("receiver alive while world is running");
                                    worked = true;
                                }
                            }
                            Section::Multicast(data) => {
                                worked |= self.expand_multicast(data);
                            }
                        }
                    }
                }
            }
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
            self.counters().handlers_run.fetch_add(1, Ordering::Relaxed);
            // The decrement's Release half is what lets a barrier that
            // reads 0 synchronize with this record's execution — see
            // `Quiescence::record_done`.
            self.shared.q.record_done();
        }
        self.in_dispatch.set(was);
        // Recycle the envelope allocation into this rank's send pool:
        // steady-state flushes then restart from received capacity
        // instead of the allocator.
        self.pool.borrow_mut().put(data);
        executed
    }

    /// Gateway expansion of one multicast section: validates the whole
    /// section **structurally before any handler runs** (every frame's
    /// destination set and length prefix), copies each record into a
    /// per-rank stream, then dispatches this rank's stream and forwards
    /// the rest over the free intra-node transport. Any framing defect
    /// — truncation, empty or non-increasing destination set, an offset
    /// outside this node's rank range, a length prefix past the buffer
    /// — aborts the world with the structural [`WireError`] as the root
    /// cause; handler code never sees bytes from a corrupt section.
    fn expand_multicast(&self, data: Vec<u8>) -> bool {
        let rpn = self.config.ranks_per_node.max(1);
        let lo = self.gateway_of(self.node_of(self.rank));
        let width = rpn.min(self.nranks() - lo);
        debug_assert_eq!(lo, self.rank, "multicast section not at the gateway");
        // Per-offset expansion streams, built from recycled envelope
        // allocations. An offset's stream is created lazily on its
        // first record.
        let mut streams: Vec<Option<Vec<u8>>> = Vec::with_capacity(width);
        streams.resize_with(width, || None);
        let mut offsets = self.offset_scratch.borrow_mut();
        let mut r = WireReader::new(&data);
        let walk = (|| -> Result<(), WireError> {
            while !r.is_empty() {
                let ndests = r.take_varint()?;
                if ndests == 0 || ndests > width as u64 {
                    return Err(WireError::BadDestSet {
                        value: ndests,
                        node_width: width,
                    });
                }
                offsets.clear();
                let mut prev: Option<u64> = None;
                for _ in 0..ndests {
                    let off = r.take_varint()?;
                    if off >= width as u64 || prev.is_some_and(|p| off <= p) {
                        return Err(WireError::BadDestSet {
                            value: off,
                            node_width: width,
                        });
                    }
                    prev = Some(off);
                    offsets.push(off as u32);
                }
                let len = r.take_varint()?;
                if len > r.remaining() as u64 {
                    return Err(WireError::SeqOverrun {
                        claimed: len,
                        remaining: r.remaining(),
                    });
                }
                let record = r.take(len as usize)?;
                for &off in offsets.iter() {
                    let stream =
                        streams[off as usize].get_or_insert_with(|| self.pool.borrow_mut().take());
                    stream.extend_from_slice(record);
                }
            }
            Ok(())
        })();
        drop(offsets);
        if let Err(e) = walk {
            self.abort(format_args!("corrupt multicast section: {e}"));
        }
        self.pool.borrow_mut().put(data);
        let mut worked = false;
        let mut own: Option<Vec<u8>> = None;
        for (off, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            if lo + off == self.rank {
                // Defer our own stream so forwards leave first: peers
                // start their (possibly long) dispatch sooner.
                own = Some(stream);
            } else {
                self.counters()
                    .envelopes_local
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.senders[lo + off]
                    .send(Envelope::Direct(stream))
                    .expect("receiver alive while world is running");
                worked = true;
            }
        }
        if let Some(own) = own {
            worked |= self.dispatch_bytes(own);
        }
        worked
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
        // closure is one poll-and-drain progress step, flushing any
        // sends the drained work produced.
        self.shared.q.barrier(self.nranks(), || {
            self.check_poison();
            if self.poll() | self.run_drain_hook() {
                self.flush_all();
                true
            } else {
                false
            }
        });
        self.counters().barriers.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers the barrier drain hook. The hook runs on this rank's
    /// thread whenever the rank spins inside `barrier()`; it should
    /// drain any engine-side deferred work (typically paired with
    /// [`Comm::defer_work`]) and return true if it made progress, in
    /// which case the barrier flushes any sends the drained work
    /// produced and keeps polling. Replaces any previous hook.
    pub fn set_drain_hook(&self, hook: impl Fn(&Comm) -> bool + 'static) {
        *self.drain_hook.borrow_mut() = Some(Rc::new(hook));
    }

    /// Removes the barrier drain hook, if any.
    pub fn clear_drain_hook(&self) {
        *self.drain_hook.borrow_mut() = None;
    }

    fn run_drain_hook(&self) -> bool {
        // Cloned out of the RefCell so the hook itself may install or
        // clear hooks without re-entrant borrow panics.
        let hook = self.drain_hook.borrow().clone();
        match hook {
            Some(hook) => hook(self),
            None => false,
        }
    }

    /// Counts one unit of engine-deferred work against the quiescence
    /// barrier, exactly as an in-flight record would be counted: no
    /// barrier releases until [`Comm::deferred_done`] balances it.
    /// Engines that queue decoded work past handler return (e.g. the
    /// parallel merge path) pair this with a drain hook so the barrier
    /// both waits for and actively drains the queue.
    pub fn defer_work(&self) {
        self.shared.q.record_sent();
    }

    /// Balances one [`Comm::defer_work`] after the deferred unit has
    /// fully executed (including any records it sent being counted).
    pub fn deferred_done(&self) {
        self.shared.q.record_done();
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

impl Drop for Comm {
    fn drop(&mut self) {
        if let Some(t) = self.transport.take() {
            // The worker drains every staged envelope before exiting
            // (`worker_loop` only returns on empty + shutdown), so no
            // envelope is lost; the join makes the rank's teardown
            // happen-after all of its transport effects.
            t.stage.shutdown();
            if let Some(handle) = t.handle {
                let _ = handle.join();
            }
            debug_assert!(t.stage.is_idle(), "transport worker exited with work");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

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
            comm.counters().snapshot().handlers_run
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
            ranks_per_node: 1, // pin: the remote/local split below assumes it
            ..Default::default()
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
            ranks_per_node: 1, // pin: the remote/local split below assumes it
            ..Default::default()
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
            let config = CommConfig::default();
            let expect = config.effective_flush_threshold(nranks);
            let got = World::new(nranks).run(|comm| comm.flush_threshold());
            assert_eq!(got, vec![expect; nranks], "nranks={nranks}");
            assert_eq!(
                expect,
                crate::cost::CostModel::default()
                    .adaptive_flush_threshold(nranks, config.ranks_per_node)
            );
        }
        // The same-node threshold resolves to the shallow local default
        // and sits at or below the remote one.
        let locals = World::new(2).run(|comm| comm.local_flush_threshold());
        let expect_local = CommConfig::default().effective_local_flush_threshold();
        assert_eq!(locals, vec![expect_local; 2]);
        assert!(expect_local <= CommConfig::default().effective_flush_threshold(2));
        // Explicit override wins regardless of world size.
        let got = World::new(3)
            .with_config(CommConfig {
                flush_threshold: Some(999),
                ..Default::default()
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
        let config = CommConfig {
            ranks_per_node: 1, // pin: the remote/local split below assumes it
            ..Default::default()
        };
        let stats = World::new(nranks)
            .with_config(config)
            .run_with_stats(|comm| {
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
            ..Default::default()
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
    fn multicast_fanout_encodes_payload_once_on_the_wire() {
        // Rank 0 fans one (sizable) record out to every rank of a
        // remote node: the payload must cross the wire once, inside a
        // multicast section the gateway expands, and the counters must
        // make the saving observable.
        let nranks = 8;
        let config = CommConfig {
            ranks_per_node: 4,
            ..Default::default()
        };
        let stats = World::new(nranks)
            .with_config(config)
            .run_with_stats(|comm| {
                let got = Rc::new(RefCell::new(Vec::new()));
                let got2 = got.clone();
                let h = comm.register::<(u64, Vec<u64>), _>(move |_c, msg| {
                    got2.borrow_mut().push(msg);
                });
                if comm.rank() == 0 {
                    let payload = (7u64, (0..32u64).collect::<Vec<_>>());
                    comm.send_to_many(4..8, &h, &payload);
                }
                comm.barrier();
                if comm.rank() >= 4 {
                    assert_eq!(got.borrow().len(), 1, "rank {}", comm.rank());
                    assert_eq!(got.borrow()[0].0, 7);
                    assert_eq!(got.borrow()[0].1.len(), 32);
                } else {
                    assert!(got.borrow().is_empty(), "rank {}", comm.rank());
                }
            });
        let s0 = stats.stats[0];
        assert_eq!(s0.records_encoded, 1);
        assert_eq!(s0.records_remote, 4);
        assert_eq!(s0.records_multicast, 4, "all four deliveries multicast");
        assert!(s0.multicast_bytes_saved > 0);
        // Wire bytes + forgone copies account exactly for the four
        // per-rank copies the old path would have made.
        assert_eq!(
            s0.bytes_remote + s0.multicast_bytes_saved,
            4 * s0.bytes_encoded
        );
        // The payload crossed the network once: well under two copies.
        assert!(s0.bytes_remote < 2 * s0.bytes_encoded);
    }

    #[test]
    fn multicast_fanout_matches_unicast_loop_deliveries() {
        // Receivers cannot tell a multicast fan-out from a loop of
        // sends: same records delivered, same decoded values — only the
        // wire volume differs.
        let config = CommConfig {
            ranks_per_node: 3,
            ..Default::default()
        };
        let run = |fanout: bool| {
            let config = config.clone();
            World::new(7)
                .with_config(config)
                .run_with_stats(move |comm| {
                    let sum = Rc::new(Cell::new(0u64));
                    let sum2 = sum.clone();
                    let h = comm.register::<Vec<u64>, _>(move |_c, v| {
                        sum2.set(sum2.get() + v.iter().sum::<u64>());
                    });
                    if comm.rank() == 0 {
                        let payload: Vec<u64> = (0..64).collect();
                        if fanout {
                            comm.send_to_many(0..comm.nranks(), &h, &payload);
                        } else {
                            for dest in 0..comm.nranks() {
                                comm.send(dest, &h, &payload);
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
        let (f0, l0) = (with_fanout.stats[0], with_loop.stats[0]);
        assert_eq!(f0.records_total(), l0.records_total());
        // Nodes 1 ({3,4,5}) and 2 ({6}) are remote to rank 0: the
        // 3-rank run multicasts, the lone rank 6 stays unicast.
        assert_eq!(f0.records_multicast, 3);
        assert!(
            f0.bytes_remote < l0.bytes_remote,
            "multicast must shrink wire bytes: {} vs {}",
            f0.bytes_remote,
            l0.bytes_remote
        );
        assert_eq!(f0.bytes_remote + f0.multicast_bytes_saved, l0.bytes_remote);
    }

    #[test]
    fn tiny_multicast_falls_back_to_per_rank_copies() {
        // A record so small the destination-set header would not pay
        // for itself ships as per-rank copies even on a co-node run.
        let config = CommConfig {
            ranks_per_node: 4,
            ..Default::default()
        };
        let stats = World::new(8).with_config(config).run_with_stats(|comm| {
            let seen = Rc::new(Cell::new(0u64));
            let seen2 = seen.clone();
            let h = comm.register::<u64, _>(move |_c, v| {
                seen2.set(seen2.get() + v);
            });
            if comm.rank() == 0 {
                comm.send_to_many(4..6, &h, 1u64);
            }
            comm.barrier();
            if comm.rank() == 4 || comm.rank() == 5 {
                assert_eq!(seen.get(), 1);
            }
        });
        let s0 = stats.stats[0];
        assert_eq!(s0.records_remote, 2);
        assert_eq!(
            s0.records_multicast, 0,
            "header would cost more than it saves"
        );
        assert_eq!(s0.multicast_bytes_saved, 0);
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
    fn same_node_destinations_flush_earlier_than_remote() {
        // The per-destination policy: ~3 KB to a same-node peer crosses
        // the shallow local threshold (one mid-stream flush plus the
        // barrier flush), while the same volume to a remote node stays
        // below the node-scaled threshold (barrier flush only).
        let config = CommConfig {
            flush_threshold: None, // adaptive: the policy under test
            ranks_per_node: 2,
            ..Default::default()
        };
        let stats = World::new(4).with_config(config).run_with_stats(|comm| {
            assert!(comm.local_flush_threshold() < comm.flush_threshold());
            let h = comm.register::<Vec<u64>, _>(|_c, _v| {});
            if comm.rank() == 0 {
                for _ in 0..12 {
                    // ~253 bytes per record (25 max-width varints).
                    comm.send(1, &h, &vec![u64::MAX; 25]);
                    comm.send(2, &h, &vec![u64::MAX; 25]);
                }
            }
            comm.barrier();
        });
        let s0 = stats.stats[0];
        assert_eq!(
            s0.envelopes_local, 2,
            "local buffer must flush mid-stream then at the barrier"
        );
        assert_eq!(
            s0.envelopes_remote, 1,
            "remote buffer aggregates until the barrier"
        );
        assert_eq!(s0.bytes_local, s0.bytes_remote);
    }

    #[test]
    fn overlapped_flush_is_invisible_to_counters() {
        // Same program with the transport stage on and off: identical
        // results and identical deterministic counters (the overlap
        // changes *when* the channel send runs, never what is sent).
        let run = |overlap: bool| {
            let config = CommConfig {
                ranks_per_node: 2,
                overlap_flush: Some(overlap),
                ..Default::default()
            };
            World::new(4)
                .with_config(config)
                .run_with_stats(move |comm| {
                    let sum = Rc::new(Cell::new(0u64));
                    let sum2 = sum.clone();
                    let h = comm.register::<u64, _>(move |_c, v| {
                        sum2.set(sum2.get() + v);
                    });
                    for round in 0..3u64 {
                        for dest in 0..comm.nranks() {
                            comm.send(dest, &h, &(round + comm.rank() as u64));
                        }
                        comm.send_to_many(0..comm.nranks(), &h, 100 + round);
                        comm.barrier();
                    }
                    sum.get()
                })
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.results, off.results);
        for (rank, (a, b)) in on.stats.iter().zip(off.stats.iter()).enumerate() {
            assert_eq!(a.records_remote, b.records_remote, "rank {rank}");
            assert_eq!(a.records_local, b.records_local, "rank {rank}");
            assert_eq!(a.bytes_remote, b.bytes_remote, "rank {rank}");
            assert_eq!(a.bytes_local, b.bytes_local, "rank {rank}");
            assert_eq!(a.envelopes_remote, b.envelopes_remote, "rank {rank}");
            assert_eq!(a.records_encoded, b.records_encoded, "rank {rank}");
            assert_eq!(a.bytes_encoded, b.bytes_encoded, "rank {rank}");
            assert_eq!(a.records_multicast, b.records_multicast, "rank {rank}");
            assert_eq!(
                a.multicast_bytes_saved, b.multicast_bytes_saved,
                "rank {rank}"
            );
            assert_eq!(a.handlers_run, b.handlers_run, "rank {rank}");
            assert_eq!(a.barriers, b.barriers, "rank {rank}");
        }
    }

    /// Extracts a panic payload's message.
    fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic>")
    }

    /// Injects `section` as a raw multicast section at rank 0 (the
    /// gateway of node 0 under `ranks_per_node: 2`) and asserts the
    /// world aborts with a structural wire error — before any handler
    /// runs (the registered handler panics with its own marker if it is
    /// ever invoked, which would change the propagated message).
    fn expect_structural_abort(section: Vec<u8>, expected: &str) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let config = CommConfig {
                ranks_per_node: 2,
                ..Default::default()
            };
            World::new(2).with_config(config).run(|comm| {
                let _h =
                    comm.register::<u64, _>(|_c, _v| panic!("handler ran on a corrupt section"));
                if comm.rank() == 1 {
                    // Keep the barrier from releasing until the gateway
                    // has actually examined the hostile section.
                    comm.shared().q.record_sent();
                    comm.shared().senders[0]
                        .send(Envelope::Bundle(vec![Section::Multicast(section.clone())]))
                        .expect("world alive");
                }
                comm.barrier();
            });
        }));
        let err = result.expect_err("corrupt section must abort the world");
        let msg = panic_message(&err);
        assert!(
            msg.contains("corrupt multicast section"),
            "wrong abort: {msg}"
        );
        assert!(msg.contains(expected), "expected {expected:?} in: {msg}");
    }

    #[test]
    fn multicast_zero_destination_section_fails_structurally() {
        expect_structural_abort(vec![0x00], "destination set is invalid");
    }

    #[test]
    fn multicast_oversized_destination_count_fails_structurally() {
        // ndests = 7 on a 2-rank node.
        expect_structural_abort(vec![0x07], "destination set is invalid");
    }

    #[test]
    fn multicast_truncated_destination_list_fails_structurally() {
        // Claims 2 destinations, provides 1.
        expect_structural_abort(vec![0x02, 0x00], "unexpected end of wire buffer");
    }

    #[test]
    fn multicast_duplicate_offsets_fail_structurally() {
        expect_structural_abort(vec![0x02, 0x01, 0x01], "destination set is invalid");
    }

    #[test]
    fn multicast_decreasing_offsets_fail_structurally() {
        expect_structural_abort(vec![0x02, 0x01, 0x00], "destination set is invalid");
    }

    #[test]
    fn multicast_out_of_range_offset_fails_structurally() {
        // Offset 5 on a 2-rank node.
        expect_structural_abort(vec![0x01, 0x05], "destination set is invalid");
    }

    #[test]
    fn multicast_length_overrun_fails_structurally() {
        // One destination, record length claims 200 bytes, none follow.
        expect_structural_abort(
            vec![0x01, 0x00, 0xc8, 0x01],
            "sequence length prefix claims 200",
        );
    }

    #[test]
    fn every_truncation_of_a_valid_section_fails_structurally() {
        // Hostile-framing sweep: build one valid multicast frame, then
        // replay every strict non-empty prefix. Cutting anywhere —
        // inside a varint, the offset list, the length, or the record
        // bytes — must surface as a structural abort, never a handler
        // invocation and never a hang.
        let mut origin = SendBuffer::new();
        origin.push_record(0, &(11u64, 222u64));
        let (record, _) = origin.drain();
        let mut buf = SendBuffer::new();
        buf.push_multicast(&[0, 1], &record);
        let (frame, _) = buf.drain();
        assert!(frame.len() >= 6);
        for cut in 1..frame.len() {
            expect_structural_abort(frame[..cut].to_vec(), "corrupt multicast section");
        }
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
                    comm.shared().q.record_sent();
                    comm.shared().senders[0]
                        .send(Envelope::Direct(bytes.clone()))
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
