//! Wedge-batch push machinery shared by both engines.
//!
//! A *push* (paper §4.3, Fig. 2 right) takes the suffix of `Adjm+(p)`
//! past an out-neighbor `q` and ships it to `Rank(q)` together with
//! `meta(p)` and `meta(p,q)`. The receiving rank intersects the candidate
//! list against `Adjm+(q)`; every match is a triangle `Δpqr`, and — as
//! the paper argues — all six metadata values are colocated at that
//! moment: `meta(p)`, `meta(pq)`, `meta(pr)` arrived with the message,
//! `meta(q)` and `meta(q,r)` are stored at `Rank(q)`, and `meta(r)` is
//! already in `Adjm+(q)`'s entry for `r` (it is deliberately *not*
//! transmitted).
//!
//! # Layout-generic, zero-copy on both ends of the wire
//!
//! The candidate batch crosses the wire in one of two [`BatchLayout`]s,
//! and the machinery here is generic over that axis:
//!
//! * **Columnar** (production default): the suffix serializes as three
//!   packed columns straight from `Adjm+(p)` storage
//!   ([`encode_candidate_columns`]); the receiving handler intersects
//!   by walking only the two key columns ([`ColCursor`]), and the
//!   metadata column is decoded per element exclusively on triangle
//!   matches — the [`tripoll_ygm::wire::Lazy`] decode-on-match idea
//!   promoted from per-record to per-column. The frame is fully
//!   consumed at capture, so early exits leave no record-framing debt.
//! * **Interleaved**: candidates as `(r, d(r), meta)` tuples via
//!   [`encode_seq`], received through a [`SeqCursor`] with per-record
//!   [`Lazy`] metadata — the original layout, retained for
//!   differential testing.
//!
//! On the orthogonal [`DecodePath`] axis, each layout also has a
//! materializing `Owned` reference handler; all four combinations emit
//! identical surveys. The intersection itself dispatches through the
//! configured [`IntersectKernel`] (scalar merge, galloping search,
//! blocked branch-light merge, or the SIMD block merge with
//! runtime-detected packed compares — see [`crate::engine`] and
//! [`crate::simd`]), a third axis that every handler threads through
//! to the kernel layer.
//!
//! A push that arrives for a vertex its receiving rank does not own can
//! only mean ownership disagreement between ranks (a partition bug, not
//! a data race); the handler raises a structured [`Comm::abort`] naming
//! the sending rank instead of unwinding mid-dispatch with a bare panic.

use std::rc::Rc;

use tripoll_graph::{AdjEntry, DistGraph, OrderKey};
use tripoll_ygm::wire::{
    encode_columns, encode_seq, ColBatch, ColCursor, ColView, Lazy, SeqCursor, SeqView, Wire,
    WireEncode, WireError, WireReader,
};
use tripoll_ygm::{Comm, Handler};

use crate::engine::{
    intersect_col, intersect_slices, intersect_stream, BatchLayout, DecodePath, IntersectKernel,
    SurveyConfig,
};
use crate::meta::TriangleMeta;
use crate::par::{Ctx, ParQueue, TaskKind};

/// Type-erased survey callback held by engine handlers.
pub(crate) type DynCallback<VM, EM> = Rc<dyn Fn(&Comm, &TriangleMeta<'_, VM, EM>)>;

/// One candidate `r` vertex inside a push: `(r, d(r), meta(p, r))`.
///
/// `d(r)` rides along so the receiver can reconstruct `r`'s [`OrderKey`]
/// without a lookup; `meta(r)` is intentionally absent (see module docs).
pub(crate) type Candidate<EM> = (u64, u64, EM);

/// An interleaved wedge batch: `(p, q, meta(p), meta(p,q), candidates)`.
pub(crate) type PushMsg<VM, EM> = (u64, u64, VM, EM, Vec<Candidate<EM>>);

/// A columnar wedge batch: same fields, candidates as a [`ColBatch`]
/// (vertex column, delta-coded degree column, metadata column).
pub(crate) type PushMsgCol<VM, EM> = (u64, u64, VM, EM, ColBatch<EM>);

/// The registered push handler, keyed by the batch layout its wire type
/// encodes. Senders must route through the matching arm — the enum
/// makes mixing layouts a compile-time impossibility rather than a
/// decode error on a remote rank.
pub(crate) enum PushHandler<VM, EM> {
    /// Handler for [`PushMsg`] (interleaved candidates).
    Interleaved(Handler<PushMsg<VM, EM>>),
    /// Handler for [`PushMsgCol`] (columnar candidates).
    Columnar(Handler<PushMsgCol<VM, EM>>),
}

/// A [`Candidate`] decoded in place: eager identity and sort key, lazy
/// metadata (materialized only for triangle matches).
pub(crate) struct CandView<'a, EM> {
    /// Candidate vertex `r`.
    pub v: u64,
    /// `r`'s position in the `<+` order.
    pub key: OrderKey,
    /// Captured-but-undecoded `meta(p, r)`.
    pub em: Lazy<'a, EM>,
}

// Manual impls (a derive would bound `EM`): the view is two scalars
// plus a borrowed byte range, freely copyable — which is what lets the
// blocked intersection kernel buffer views in a stack array.
impl<EM> Clone for CandView<'_, EM> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<EM> Copy for CandView<'_, EM> {}

/// Decodes one [`Candidate`]'s wire bytes as a [`CandView`] — the
/// borrowed mirror of [`encode_candidate`]; must stay in lockstep with
/// the [`Candidate`] type.
#[inline]
pub(crate) fn decode_candidate_view<'a, EM: Wire>(
    r: &mut WireReader<'a>,
) -> Result<CandView<'a, EM>, WireError> {
    let v = u64::decode(r)?;
    let degree = u64::decode(r)?;
    let em = Lazy::capture(r)?;
    Ok(CandView {
        v,
        key: OrderKey::new(v, degree),
        em,
    })
}

/// Raises the structured partition-disagreement abort for a push whose
/// target vertex is not owned by the receiving rank. The sender of a
/// wedge batch is the owner of its source vertex `p` — but ownership
/// is computed from *this* rank's partition map, which is exactly what
/// is in question when the abort fires, so it is reported as presumed.
fn abort_unowned_push<VM, EM>(c: &Comm, g: &DistGraph<VM, EM>, p: u64, q: u64) -> ! {
    c.abort(format_args!(
        "push for vertex {q} (wedge source p={p}, presumed sender rank {sender} = owner of p \
         under this rank's partition map) arrived on a rank that does not own {q} — vertex \
         ownership disagrees across ranks; aborting survey",
        sender = g.owner(p)
    ))
}

/// Registers the push handler for the configured layout and decode
/// path: intersect candidates with `Adjm+(q)` and run the callback on
/// every triangle. Collective (handler registration, so every rank must
/// pass the same layout/decode `config`; the `threads` axis behind
/// `queue` is a local choice — it changes the handler body, not the
/// wire contract, so ranks may mix serial and parallel merge paths).
///
/// With a `queue` (the parallel merge path, cursor decode only) the
/// handlers validate and copy the candidate frame, then enqueue a work
/// item instead of intersecting inline — see [`crate::par`].
pub(crate) fn register_push_handler<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: DynCallback<VM, EM>,
    config: SurveyConfig,
    queue: Option<Rc<ParQueue<VM, EM>>>,
) -> PushHandler<VM, EM>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    match (config.layout, config.decode, queue) {
        (BatchLayout::Columnar, DecodePath::Cursor, Some(pq)) => {
            PushHandler::Columnar(register_push_handler_columnar_cursor_par(comm, graph, pq))
        }
        (BatchLayout::Interleaved, DecodePath::Cursor, Some(pq)) => {
            PushHandler::Interleaved(register_push_handler_cursor_par(comm, graph, pq))
        }
        (BatchLayout::Columnar, DecodePath::Cursor, None) => PushHandler::Columnar(
            register_push_handler_columnar_cursor(comm, graph, cb, config.kernel),
        ),
        (BatchLayout::Columnar, DecodePath::Owned, _) => PushHandler::Columnar(
            register_push_handler_columnar_owned(comm, graph, cb, config.kernel),
        ),
        (BatchLayout::Interleaved, DecodePath::Cursor, None) => {
            PushHandler::Interleaved(register_push_handler_cursor(comm, graph, cb, config.kernel))
        }
        (BatchLayout::Interleaved, DecodePath::Owned, _) => {
            PushHandler::Interleaved(register_push_handler_owned(comm, graph, cb, config.kernel))
        }
    }
}

/// Parallel twin of [`register_push_handler_columnar_cursor`]: decode
/// the header, capture and copy the candidate columns, enqueue one work
/// item for the pool instead of intersecting inline.
fn register_push_handler_columnar_cursor_par<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    queue: Rc<ParQueue<VM, EM>>,
) -> Handler<PushMsgCol<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let g = graph.clone();
    comm.register_borrowed::<PushMsgCol<VM, EM>, _>(move |c, r| {
        let p = u64::decode(r)?;
        let q = u64::decode(r)?;
        let meta_p = VM::decode(r)?;
        let meta_pq = EM::decode(r)?;
        // Structure-validate and fully consume the frame (bounded
        // column takes), exactly like the serial capture, then copy the
        // consumed bytes into the queue's arena.
        let start = r.position();
        let view: ColView<'_, EM> = ColView::capture(r)?;
        let frame = r.since(start);
        let Some(slot) = g.shard().slot_of(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        let lv = g.shard().vertex(slot);
        c.add_work((view.len() + lv.adj.len()) as u64);
        let raw = queue.alloc_frame(frame);
        queue.push_task(
            c,
            TaskKind::PushCol,
            raw,
            &lv.adj,
            Ctx::Push {
                p,
                q,
                meta_p,
                meta_pq,
                slot: slot as u32,
            },
        );
        queue.maybe_flush(c);
        Ok(())
    })
}

/// Parallel twin of [`register_push_handler_cursor`] (interleaved
/// layout): capture the candidate sequence's extent, copy it, enqueue.
fn register_push_handler_cursor_par<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    queue: Rc<ParQueue<VM, EM>>,
) -> Handler<PushMsg<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let g = graph.clone();
    comm.register_borrowed::<PushMsg<VM, EM>, _>(move |c, r| {
        let p = u64::decode(r)?;
        let q = u64::decode(r)?;
        let meta_p = VM::decode(r)?;
        let meta_pq = EM::decode(r)?;
        // The skip-walk capture consumes the whole sequence, so record
        // framing is intact and `since` covers prefix plus elements.
        let start = r.position();
        let view: SeqView<'_, Candidate<EM>> = SeqView::capture(r)?;
        let frame = r.since(start);
        let Some(slot) = g.shard().slot_of(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        let lv = g.shard().vertex(slot);
        c.add_work((view.len() + lv.adj.len()) as u64);
        let raw = queue.alloc_frame(frame);
        queue.push_task(
            c,
            TaskKind::PushSeq,
            raw,
            &lv.adj,
            Ctx::Push {
                p,
                q,
                meta_p,
                meta_pq,
                slot: slot as u32,
            },
        );
        queue.maybe_flush(c);
        Ok(())
    })
}

/// The production receive handler: capture the columnar frame, run the
/// configured intersection kernel over the key columns, decode
/// metadata on match only.
fn register_push_handler_columnar_cursor<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: DynCallback<VM, EM>,
    kernel: IntersectKernel,
) -> Handler<PushMsgCol<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let g = graph.clone();
    comm.register_borrowed::<PushMsgCol<VM, EM>, _>(move |c, r| {
        let p = u64::decode(r)?;
        let q = u64::decode(r)?;
        let meta_p = VM::decode(r)?;
        let meta_pq = EM::decode(r)?;
        // The frame is fully consumed here (bounded column takes), so
        // record framing is intact no matter where the merge stops.
        let cur: ColCursor<'_, EM> = ColCursor::begin(r)?;
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        // The intersection visits both lists once: that is the
        // wedge-check work (kernel-independent by design).
        c.add_work((cur.len() + lv.adj.len()) as u64);
        let ColCursor {
            mut keys,
            mut metas,
        } = cur;
        intersect_col(
            kernel,
            &mut keys,
            &lv.adj,
            |e| e.key,
            |k, e| {
                debug_assert_eq!(k.v, e.v, "OrderKey equality implies vertex equality");
                let meta_pr = metas.get(k.idx)?;
                let tm = TriangleMeta {
                    p,
                    q,
                    r: e.v,
                    meta_p: &meta_p,
                    meta_q: &lv.meta,
                    meta_r: &e.vm,
                    meta_pq: &meta_pq,
                    meta_pr: &meta_pr,
                    meta_qr: &e.em,
                };
                cb(c, &tm);
                Ok(())
            },
        )
    })
}

/// Materializing reference handler for the columnar layout: decode the
/// owned [`ColBatch`], then intersect — differential-testing mirror of
/// the column cursors.
fn register_push_handler_columnar_owned<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: DynCallback<VM, EM>,
    kernel: IntersectKernel,
) -> Handler<PushMsgCol<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let g = graph.clone();
    comm.register::<PushMsgCol<VM, EM>, _>(move |c, (p, q, meta_p, meta_pq, batch)| {
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        c.add_work((batch.0.len() + lv.adj.len()) as u64);
        intersect_slices(
            kernel,
            &batch.0,
            &lv.adj,
            |cand| OrderKey::new(cand.0, cand.1),
            |e| e.key,
            |cand, e| {
                let tm = TriangleMeta {
                    p,
                    q,
                    r: e.v,
                    meta_p: &meta_p,
                    meta_q: &lv.meta,
                    meta_r: &e.vm,
                    meta_pq: &meta_pq,
                    meta_pr: &cand.2,
                    meta_qr: &e.em,
                };
                cb(c, &tm);
            },
        );
    })
}

/// The interleaved zero-copy receive handler: the configured kernel
/// runs directly over the wire bytes through a [`SeqCursor`] (see
/// module docs).
fn register_push_handler_cursor<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: DynCallback<VM, EM>,
    kernel: IntersectKernel,
) -> Handler<PushMsg<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let g = graph.clone();
    comm.register_borrowed::<PushMsg<VM, EM>, _>(move |c, r| {
        let p = u64::decode(r)?;
        let q = u64::decode(r)?;
        let meta_p = VM::decode(r)?;
        let meta_pq = EM::decode(r)?;
        let mut cands = SeqCursor::begin_typed::<Candidate<EM>>(r)?;
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        // The intersection visits both lists once: that is the
        // wedge-check work (kernel-independent by design).
        c.add_work((cands.len() + lv.adj.len()) as u64);
        intersect_stream(
            kernel,
            cands.len(),
            || cands.next_with(decode_candidate_view::<EM>),
            &lv.adj,
            |cand| cand.key,
            |e| e.key,
            |cand, e| {
                debug_assert_eq!(cand.v, e.v, "OrderKey equality implies vertex equality");
                let meta_pr = cand.em.get()?;
                let tm = TriangleMeta {
                    p,
                    q,
                    r: e.v,
                    meta_p: &meta_p,
                    meta_q: &lv.meta,
                    meta_r: &e.vm,
                    meta_pq: &meta_pq,
                    meta_pr: &meta_pr,
                    meta_qr: &e.em,
                };
                cb(c, &tm);
                Ok(())
            },
        )?;
        // Adjm+(q) exhausted before the batch: restore record framing.
        cands.skip_rest::<Candidate<EM>>()
    })
}

/// The materializing reference handler for the interleaved layout,
/// kept for differential testing against the cursor path.
fn register_push_handler_owned<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: DynCallback<VM, EM>,
    kernel: IntersectKernel,
) -> Handler<PushMsg<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let g = graph.clone();
    comm.register::<PushMsg<VM, EM>, _>(move |c, (p, q, meta_p, meta_pq, candidates)| {
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        c.add_work((candidates.len() + lv.adj.len()) as u64);
        intersect_slices(
            kernel,
            &candidates,
            &lv.adj,
            |cand| OrderKey::new(cand.0, cand.1),
            |e| e.key,
            |cand, e| {
                let tm = TriangleMeta {
                    p,
                    q,
                    r: e.v,
                    meta_p: &meta_p,
                    meta_q: &lv.meta,
                    meta_r: &e.vm,
                    meta_pq: &meta_pq,
                    meta_pr: &cand.2,
                    meta_qr: &e.em,
                };
                cb(c, &tm);
            },
        );
    })
}

/// Appends one candidate's interleaved wire image — byte-identical to
/// the [`Candidate`] tuple `(s.v, s.key.degree, s.em)` that the
/// receiving handler decodes. Must stay in lockstep with the
/// [`Candidate`] type.
#[inline]
pub(crate) fn encode_candidate<VM, EM: Wire>(s: &AdjEntry<VM, EM>, buf: &mut Vec<u8>) {
    s.v.encode(buf);
    s.key.degree.encode(buf);
    s.em.encode(buf);
}

/// The columnar projection of an adjacency slice: serializes the
/// candidate batch as three packed columns straight from `Adjm+`
/// storage, byte-identical to the [`ColBatch`] the receiving handler
/// is keyed on. The degree column delta-codes for free here because
/// the slice is `<+`-sorted, so degrees are monotone non-decreasing.
#[inline]
pub(crate) fn encode_candidate_columns<VM, EM: Wire>(
    adj: &[AdjEntry<VM, EM>],
) -> impl WireEncode + '_ {
    encode_columns(adj, |s| s.v, |s| s.key.degree, |s, buf| s.em.encode(buf))
}

/// Iterates this rank's vertices and pushes every wedge batch whose
/// target is not excluded by `skip` (Push-Only passes `|_| false`;
/// Push-Pull skips targets that will be pulled instead).
///
/// Encode-once hot path for either layout: the candidate suffix
/// serializes **directly** from the `Adjm+(p)` storage slice, and
/// `meta(p)` / `meta(p,q)` are encoded by reference — no candidate
/// materialization and no metadata clones per batch.
pub(crate) fn push_wedge_batches<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    handler: &PushHandler<VM, EM>,
    mut skip: impl FnMut(u64) -> bool,
) where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    for lv in graph.shard().vertices() {
        for (i, e) in lv.adj.iter().enumerate() {
            // The last out-neighbor has an empty suffix: no wedges.
            if i + 1 >= lv.adj.len() {
                break;
            }
            if skip(e.v) {
                continue;
            }
            let dest = graph.owner(e.v);
            let suffix = &lv.adj[i + 1..];
            match handler {
                PushHandler::Interleaved(h) => comm.send_encoded(
                    dest,
                    h,
                    (
                        lv.id,
                        e.v,
                        &lv.meta,
                        &e.em,
                        encode_seq(suffix, |s, buf| encode_candidate(s, buf)),
                    ),
                ),
                PushHandler::Columnar(h) => comm.send_encoded(
                    dest,
                    h,
                    (
                        lv.id,
                        e.v,
                        &lv.meta,
                        &e.em,
                        encode_candidate_columns(suffix),
                    ),
                ),
            }
        }
    }
}
