//! The parallel intra-rank merge queue.
//!
//! When a production-path survey runs with
//! [`crate::engine::Parallelism`] resolving to more than one thread, the
//! receive handlers stop intersecting inline. Instead each arriving wedge-batch
//! envelope is split into per-batch work items — the candidate frame
//! bytes are copied once into a queue-owned arena, paired with a raw
//! view of the local adjacency slice they intersect against — and the
//! items are dispatched across the persistent work-stealing pool
//! ([`rayon::pool::global`]). Workers run exactly the serial kernel
//! ([`intersect_col`]) over their item and record
//! the resulting `(left index, right index)` match pairs; the rank
//! thread then *replays* every item *in batch-index order*: it folds the
//! item's [`KernelStats`] into the rank counter, re-decodes the matched
//! metadata from the frame copy, and runs the survey callback. That
//! fixed reduction order — by enqueue index, never completion order —
//! is what makes counts, metadata checksums, and merged kernel tallies
//! bit-identical to the serial path.
//!
//! # Quiescence
//!
//! A queued item is work the barrier must not miss: enqueue counts it
//! via [`Comm::defer_work`] and the replay balances it with
//! [`Comm::deferred_done`]. The survey also installs
//! [`ParQueue::flush`] as the rank's barrier drain hook
//! ([`Comm::set_drain_hook`]), so a rank spinning in `barrier()` keeps
//! draining its own queue (and any items that callbacks' sends fan out
//! into) until the whole world is quiet.
//!
//! # Send/Sync boundary
//!
//! Only [`Task`]s cross threads, and they are raw views: the frame
//! bytes live in the queue's arena (stable for the whole flush — the
//! arena's inner buffers never move when the outer vector grows), and
//! the adjacency slice lives in the rank's immutable
//! [`LocalShard`]. Workers read candidate keys and `AdjEntry::key`
//! fields only; metadata (`VM`/`EM`, possibly non-`Send` types) is
//! never cloned, dropped, or even touched off the rank thread.
//! Callbacks, the `Rc`-based handler registry, and all `RefCell` state
//! stay on the rank thread.
//!
//! # Steady-state allocation
//!
//! Frame buffers and match vectors are recycled through spare pools
//! after each flush, so a steady-state survey performs zero allocations
//! per batch on this path, matching the serial handlers.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use rayon::pool;
use tripoll_graph::{AdjEntry, DistGraph, LocalShard};
use tripoll_ygm::wire::{ColView, Wire, WireError, WireReader};
use tripoll_ygm::Comm;

use crate::engine::{
    intersect_col, kernel_stats_add, kernel_stats_take, IntersectKernel, KernelStats, SurveyConfig,
};
use crate::meta::TriangleMeta;
use crate::push_common::DynCallback;

/// Queued items at which an enqueue triggers an inline flush, bounding
/// arena growth on ranks that receive faster than they barrier.
const FLUSH_TASKS: usize = 128;

/// The parallel queue for one survey, or `None` when the configuration
/// intersects inline: the reference path always does, the production
/// path unless `threads` resolves past one.
pub(crate) fn par_queue_for<VM, EM>(
    graph: &DistGraph<VM, EM>,
    cb: &DynCallback<VM, EM>,
    config: SurveyConfig,
) -> Option<Rc<ParQueue<VM, EM>>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    if !config.is_reference() && config.threads.is_parallel() {
        Some(ParQueue::new(
            graph.shard().clone(),
            cb.clone(),
            config.kernel,
        ))
    } else {
        None
    }
}

/// A borrowed byte range that may cross threads. Validity is a queue
/// invariant: the bytes live in the flush's arena (see module docs).
#[derive(Clone, Copy)]
pub(crate) struct RawBytes {
    ptr: *const u8,
    len: usize,
}

impl RawBytes {
    fn of(bytes: &[u8]) -> Self {
        RawBytes {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
        }
    }

    /// # Safety
    ///
    /// The caller guarantees the arena buffer is alive and unmoved for
    /// the chosen `'a`.
    unsafe fn slice<'a>(&self) -> &'a [u8] {
        // SAFETY: `ptr`/`len` came from a live `&[u8]` in `of`, and the
        // caller upholds the fn contract above.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

/// A borrowed typed slice that may cross threads; points into the
/// rank's immutable shard storage.
struct RawSlice<T> {
    ptr: *const T,
    len: usize,
}

impl<T> RawSlice<T> {
    fn of(s: &[T]) -> Self {
        RawSlice {
            ptr: s.as_ptr(),
            len: s.len(),
        }
    }

    /// # Safety
    ///
    /// The caller guarantees the shard outlives the flush and is not
    /// mutated while workers read it.
    unsafe fn slice<'a>(&self) -> &'a [T] {
        // SAFETY: `ptr`/`len` came from a live `&[T]` in `of`, and the
        // caller upholds the fn contract above.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

/// One parallel work item: intersect the copied candidate frame against
/// an adjacency slice. Workers fill `matches`, `stats`, and `error`;
/// everything needed for the callback replay stays rank-side in the
/// paired [`Ctx`].
pub(crate) struct Task<VM, EM> {
    kernel: IntersectKernel,
    frame: RawBytes,
    right: RawSlice<AdjEntry<VM, EM>>,
    /// `(left batch index, right slice index)` per match, in left-index
    /// order (the kernels emit matches in order).
    matches: Vec<(u32, u32)>,
    /// This item's kernel tallies, taken on whichever thread ran it.
    stats: KernelStats,
    /// First frame decode error, surfaced at replay on the rank thread.
    error: Option<WireError>,
}

// SAFETY: workers access only the raw views above — frame bytes owned
// by the queue's arena and `AdjEntry::key` fields of the immutable
// shard — and the item-local `matches`/`stats`/`error`. The `VM`/`EM`
// payloads behind `right` are never cloned, dropped, or mutated off the
// rank thread (see module docs).
unsafe impl<VM, EM> Send for Task<VM, EM> {}

impl<VM: Wire, EM: Wire> Task<VM, EM> {
    /// Runs the intersection kernel over this item (on whatever thread
    /// the pool dispatched it to) and harvests the thread-local kernel
    /// tallies it produced. Requires the executing thread's tallies to
    /// be zero on entry — the flush discipline in [`ParQueue::flush`]
    /// guarantees it.
    fn process(&mut self) {
        if let Err(e) = self.walk() {
            self.error = Some(e);
        }
        self.stats = kernel_stats_take();
    }

    fn walk(&mut self) -> Result<(), WireError> {
        // SAFETY: the frame arena and the adjacency shard are kept
        // alive and unmutated by the rank thread until `ParQueue::flush`
        // has joined every outstanding task (see module docs).
        let frame = unsafe { self.frame.slice() };
        // SAFETY: same flush discipline as `frame` above.
        let right = unsafe { self.right.slice() };
        let base = right.as_ptr();
        let matches = &mut self.matches;
        let mut r = WireReader::new(frame);
        let view: ColView<'_, EM> = ColView::capture(&mut r)?;
        let mut cur = view.walk();
        intersect_col(
            self.kernel,
            &mut cur.keys,
            right,
            |e| e.key,
            |k, e| {
                // SAFETY: `e` is borrowed from the same `right` slice
                // `base` points at, so both pointers are within one
                // allocation.
                let ri = unsafe { (e as *const AdjEntry<VM, EM>).offset_from(base) };
                matches.push((k.idx as u32, ri as u32));
                Ok(())
            },
        )
    }
}

/// Rank-local replay context for one [`Task`] — everything the callback
/// needs that must not cross threads.
pub(crate) enum Ctx<VM, EM> {
    /// A pushed wedge batch: decoded header fields plus the slot of the
    /// target vertex `q` in the shard.
    Push {
        p: u64,
        q: u64,
        meta_p: VM,
        meta_pq: EM,
        slot: u32,
    },
    /// A pulled delivery resumed at one recorded pointer: `slot` is the
    /// source vertex `p`'s position in the shard, `idx` the index of
    /// `q` in `Adjm+(p)` (the task's right side is the suffix past it).
    Pull { slot: u32, idx: u32 },
}

/// The per-survey parallel merge queue; see the module docs.
pub(crate) struct ParQueue<VM, EM> {
    shard: std::sync::Arc<LocalShard<VM, EM>>,
    cb: DynCallback<VM, EM>,
    kernel: IntersectKernel,
    tasks: RefCell<Vec<Task<VM, EM>>>,
    ctxs: RefCell<Vec<Ctx<VM, EM>>>,
    /// Frame arena: one buffer per envelope, holding the copied wire
    /// bytes every task of that envelope points into. Growing the outer
    /// vector never moves the inner heap buffers, so the raw frame
    /// views stay valid.
    frames: RefCell<Vec<Vec<u8>>>,
    spare_frames: RefCell<Vec<Vec<u8>>>,
    spare_matches: RefCell<Vec<Vec<(u32, u32)>>>,
    _marker: PhantomData<fn() -> (VM, EM)>,
}

impl<VM, EM> ParQueue<VM, EM>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    pub(crate) fn new(
        shard: std::sync::Arc<LocalShard<VM, EM>>,
        cb: DynCallback<VM, EM>,
        kernel: IntersectKernel,
    ) -> Rc<Self> {
        Rc::new(ParQueue {
            shard,
            cb,
            kernel,
            tasks: RefCell::new(Vec::new()),
            ctxs: RefCell::new(Vec::new()),
            frames: RefCell::new(Vec::new()),
            spare_frames: RefCell::new(Vec::new()),
            spare_matches: RefCell::new(Vec::new()),
            _marker: PhantomData,
        })
    }

    /// Copies one envelope's candidate frame into the arena and returns
    /// a raw view of the copy (valid until the next flush recycles it).
    pub(crate) fn alloc_frame(&self, bytes: &[u8]) -> RawBytes {
        let mut buf = self.spare_frames.borrow_mut().pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        let raw = RawBytes::of(&buf);
        self.frames.borrow_mut().push(buf);
        raw
    }

    /// Queues one work item and counts it against the quiescence
    /// barrier. `right` must be a slice of this queue's shard.
    pub(crate) fn push_task(
        &self,
        c: &Comm,
        frame: RawBytes,
        right: &[AdjEntry<VM, EM>],
        ctx: Ctx<VM, EM>,
    ) {
        let matches = self.spare_matches.borrow_mut().pop().unwrap_or_default();
        self.tasks.borrow_mut().push(Task {
            kernel: self.kernel,
            frame,
            right: RawSlice::of(right),
            matches,
            stats: KernelStats::default(),
            error: None,
        });
        self.ctxs.borrow_mut().push(ctx);
        c.defer_work();
    }

    /// Flushes inline when the queue has grown past the batching
    /// threshold — called by handlers after enqueueing an envelope.
    pub(crate) fn maybe_flush(&self, c: &Comm) {
        if self.tasks.borrow().len() >= FLUSH_TASKS {
            self.flush(c);
        }
    }

    /// Dispatches every queued item across the pool, then replays the
    /// results in batch-index order on this (rank) thread: merge the
    /// item's kernel tallies, decode matched metadata from the frame
    /// copy, run the survey callback per triangle, and balance the
    /// item's `defer_work`. Returns whether any work was done (the
    /// barrier drain-hook contract).
    pub(crate) fn flush(&self, c: &Comm) -> bool {
        if self.tasks.borrow().is_empty() {
            return false;
        }
        // Take everything out of the cells first: callbacks may send,
        // and a send can dispatch handlers that enqueue fresh items.
        let mut tasks = self.tasks.take();
        let ctxs = self.ctxs.take();
        let frames = self.frames.take();
        // Stats discipline: park the rank's accumulated tallies so
        // every executing thread (workers start empty; this thread
        // participates) harvests exactly one item's delta per
        // `process`, then fold the deltas back in batch-index order.
        let saved = kernel_stats_take();
        pool::global().run_mut(&mut tasks, |t| t.process());
        kernel_stats_add(saved);
        for (task, ctx) in tasks.iter().zip(ctxs.iter()) {
            kernel_stats_add(task.stats);
            self.replay(c, task, ctx);
            c.deferred_done();
        }
        self.spare_frames.borrow_mut().extend(frames);
        let mut spare = self.spare_matches.borrow_mut();
        for mut task in tasks {
            task.matches.clear();
            spare.push(std::mem::take(&mut task.matches));
        }
        true
    }

    /// Runs the survey callback for every match of one item, decoding
    /// the matched metadata from the frame copy. Mirrors the serial
    /// handlers' `TriangleMeta` construction field for field.
    fn replay(&self, c: &Comm, task: &Task<VM, EM>, ctx: &Ctx<VM, EM>) {
        if let Some(e) = &task.error {
            c.abort(format_args!(
                "parallel merge: queued frame failed to decode: {e}"
            ));
        }
        if task.matches.is_empty() {
            return;
        }
        // SAFETY: replay runs on the rank thread before the arena is
        // recycled, so the frame bytes are still alive and unmoved.
        let frame = unsafe { task.frame.slice() };
        let mut r = WireReader::new(frame);
        let decode_err =
            |c: &Comm, e: WireError| -> ! { c.abort(format_args!("parallel merge replay: {e}")) };
        let view: ColView<'_, EM> = ColView::capture(&mut r).unwrap_or_else(|e| decode_err(c, e));
        let mut metas = view.walk().metas;
        match ctx {
            Ctx::Push {
                p,
                q,
                meta_p,
                meta_pq,
                slot,
            } => {
                let lv = self.shard.vertex(*slot as usize);
                for &(li, ri) in &task.matches {
                    let e = &lv.adj[ri as usize];
                    let meta_pr = metas.get(li as usize).unwrap_or_else(|e| decode_err(c, e));
                    let tm = TriangleMeta {
                        p: *p,
                        q: *q,
                        r: e.v,
                        meta_p,
                        meta_q: &lv.meta,
                        meta_r: &e.vm,
                        meta_pq,
                        meta_pr: &meta_pr,
                        meta_qr: &e.em,
                    };
                    (self.cb)(c, &tm);
                }
            }
            Ctx::Pull { slot, idx } => {
                let lv = self.shard.vertex(*slot as usize);
                let eq = &lv.adj[*idx as usize];
                let suffix = &lv.adj[*idx as usize + 1..];
                for &(li, ri) in &task.matches {
                    let s_entry = &suffix[ri as usize];
                    let meta_qr = metas.get(li as usize).unwrap_or_else(|e| decode_err(c, e));
                    let tm = TriangleMeta {
                        p: lv.id,
                        q: eq.v,
                        r: s_entry.v,
                        meta_p: &lv.meta,
                        meta_q: &eq.vm,
                        meta_r: &s_entry.vm,
                        meta_pq: &eq.em,
                        meta_pr: &s_entry.em,
                        meta_qr: &meta_qr,
                    };
                    (self.cb)(c, &tm);
                }
            }
        }
    }
}
