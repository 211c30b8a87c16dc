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
//! # One generator, encode once per apex, decode once per apex
//!
//! Every wedge batch — Push-Only's, Push-Pull's push phase and a delta
//! survey's — comes from one generator, [`push_apex_wedges`], which
//! asks of each out-entry of an apex whether it is new. A full survey
//! is the case where every entry is new: each ships its whole suffix
//! of `Adjm+(p)`. Those suffixes are nested, so the sender encodes the
//! list's three columns once per apex ([`ColSuffixes`], filled from the
//! apex's first pushed suffix into scratch reused across apexes) and
//! emits each batch's frame by copying byte suffixes; the frame is
//! byte-identical to the [`ColBatch`] of the same suffix.
//!
//! The production handler captures the frame in place ([`ColCursor`])
//! and takes its two key columns as one flat [`OrderKey`] column from a
//! rank-owned [`FrameDecoder`]. The
//! nested frames of an apex that reach one rank arrive one after
//! another, so the decoder decodes the first and serves each later one
//! as a sub-slice of its column when the frame's key bytes are the
//! matching suffix of the first's; any other frame is decoded whole. It
//! then runs [`intersect_indices`] against `Adjm+(q)`; each match
//! arrives as an index pair, and the frame index picks the one
//! metadata element to decode. The survey callback is the handler's
//! type parameter, so every triangle is a direct call. A decoded frame
//! is walked to its last key and a served one is byte-identical to a
//! suffix of one that was, so the key columns' byte budget holds
//! whatever `Adjm+(q)` holds; the frame is fully consumed at capture,
//! so the record framing is intact wherever the merge stops.
//!
//! The reference handler ([`SurveyConfig::is_reference`]) reads the
//! same bytes as an owned [`ColBatch`] and runs the two-pointer merge
//! over it; it must emit the identical survey and exists for the
//! differential suites to compare the production path against.
//!
//! A push that arrives for a vertex its receiving rank does not own can
//! only mean ownership disagreement between ranks (a partition bug, not
//! a data race); the handler raises a structured [`Comm::abort`] naming
//! the sending rank instead of unwinding mid-dispatch with a bare panic.

use std::cell::Cell;
use std::rc::Rc;

use tripoll_graph::{AdjEntry, ApexDelta, DistGraph, LocalVertex, OrderKey};
use tripoll_ygm::wire::{ColBatch, ColCursor, ColSuffixes, Wire};
use tripoll_ygm::{Comm, Handler};

use crate::engine::{
    intersect_indices, intersect_slices, FrameDecoder, IntersectKernel, SurveyConfig,
};
use crate::meta::{SurveyCallback, TriangleMeta};

/// A wedge batch: `(p, q, meta(p), meta(p,q), candidates)`, the
/// candidates `(r, d(r), meta(p, r))` as a [`ColBatch`] (vertex column,
/// delta-coded degree column, metadata column). `d(r)` rides along so
/// the receiver can reconstruct `r`'s [`OrderKey`] without a lookup;
/// `meta(r)` is intentionally absent (see module docs).
pub(crate) type PushMsg<VM, EM> = (u64, u64, VM, EM, ColBatch<EM>);

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

/// Registers the push handler: intersect candidates with `Adjm+(q)` and
/// run the callback on every triangle. Collective (handler
/// registration); `config` only chooses the handler *body* — both
/// bodies read the same wire type, so ranks may mix them.
pub(crate) fn register_push_handler<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: Rc<F>,
    config: SurveyConfig,
) -> Handler<PushMsg<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    if config.is_reference() {
        register_push_handler_reference(comm, graph, cb)
    } else {
        register_push_handler_production(comm, graph, cb, config.kernel)
    }
}

/// The production receive handler: capture the columnar frame, take
/// its key column from the rank's [`FrameDecoder`], intersect it with
/// `Adjm+(q)` under the configured kernel, decode metadata on match
/// only.
fn register_push_handler_production<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: Rc<F>,
    kernel: IntersectKernel,
) -> Handler<PushMsg<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let g = graph.clone();
    // The frame decoder, reused across frames: a frame nested in the
    // one before is served from its key column. Taken out while in
    // use, so a re-entrant dispatch would decode into a fresh decoder
    // instead of the one being read. Boxed, so taking it out and
    // putting it back moves one pointer per record, not the decoder.
    let decoder: Cell<Option<Box<FrameDecoder>>> = Cell::default();
    comm.register_borrowed::<PushMsg<VM, EM>, _>(move |c, r| {
        let p = u64::decode(r)?;
        let q = u64::decode(r)?;
        let meta_p = VM::decode(r)?;
        let meta_pq = EM::decode(r)?;
        // The frame is fully consumed here (bounded column takes), so
        // record framing is intact no matter where the merge stops.
        let ColCursor { keys, mut metas } = ColCursor::<'_, EM>::begin(r)?;
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        // The intersection visits both lists once: that is the
        // wedge-check work (kernel-independent by design).
        c.add_work((keys.remaining() + lv.adj.len()) as u64);
        let mut dec = decoder.take().unwrap_or_default();
        let mut out = Ok(());
        match dec.decode(keys) {
            Ok(cands) => intersect_indices(
                kernel,
                cands,
                &lv.adj,
                |&k| k,
                |e| e.key,
                |i, j| {
                    if out.is_err() {
                        return;
                    }
                    let e = &lv.adj[j];
                    match metas.get(i) {
                        Ok(meta_pr) => cb(
                            c,
                            &TriangleMeta {
                                p,
                                q,
                                r: e.v,
                                meta_p: &meta_p,
                                meta_q: &lv.meta,
                                meta_r: &e.vm,
                                meta_pq: &meta_pq,
                                meta_pr: &meta_pr,
                                meta_qr: &e.em,
                            },
                        ),
                        Err(err) => out = Err(err),
                    }
                },
            ),
            Err(err) => out = Err(err),
        }
        decoder.set(Some(dec));
        out
    })
}

/// The reference handler: decode the owned [`ColBatch`], then run the
/// two-pointer merge over it — what the differential suites compare the
/// column cursors and the size-selected kernels against.
fn register_push_handler_reference<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    cb: Rc<F>,
) -> Handler<PushMsg<VM, EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let g = graph.clone();
    comm.register::<PushMsg<VM, EM>, _>(move |c, (p, q, meta_p, meta_pq, batch)| {
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        c.add_work((batch.0.len() + lv.adj.len()) as u64);
        intersect_slices(
            IntersectKernel::MergeScalar,
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

/// Encodes `adj`'s candidate columns `(r, d(r), meta(p,r))` once into
/// `cols`: every suffix of it is then the [`ColBatch`] frame of that
/// suffix of `adj`. The degree column delta-codes for free because an
/// `Adjm+` slice is `<+`-sorted, so its degrees never decrease.
pub(crate) fn fill_candidates<VM, EM: Wire>(cols: &mut ColSuffixes, adj: &[AdjEntry<VM, EM>]) {
    cols.fill(adj, |s| s.v, |s| s.key.degree, |s, buf| s.em.encode(buf));
}

/// Scratch of [`push_apex_wedges`], reused across apexes so the
/// generator allocates only while its buffers grow.
#[derive(Default)]
pub(crate) struct WedgeScratch {
    /// `Adjm+(p)`'s columns, filled from the apex's first shipped
    /// suffix on.
    suffixes: ColSuffixes,
    /// One gathered batch's columns.
    gathered: ColSuffixes,
    /// One gathered batch's indices into `Adjm+(p)`, ascending.
    picks: Vec<u32>,
}

/// The one wedge generator: pushes the wedge batches of apex `lv`
/// whose target `skip` does not exclude, asking of each out-entry
/// `q` (all but the last, whose suffix is empty) whether it is new.
/// A full survey passes `delta: None`, and every entry is new; a delta
/// survey passes its [`ApexDelta`], and only `new_idx` entries are.
///
/// * A **new** entry ships its whole suffix: every wedge through a new
///   edge is new. `Adjm+(p)`'s columns are encoded once per apex, from
///   the first shipped suffix on, into `scratch`'s [`ColSuffixes`],
///   and each batch's frame is a copy of byte suffixes of it.
/// * An **old** entry ships the new entries past it (cross terms) and
///   its `closing` partners (wedges a batch edge closed at `p`). The
///   two index runs are disjoint; sorted together they keep the
///   gathered list `<+`-sorted, and it is encoded through index
///   projections into `Adjm+(p)`, with no entry cloned. Under `None`
///   no entry is old.
///
/// `meta(p)` and `meta(p,q)` are encoded by reference.
pub(crate) fn push_apex_wedges<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    handler: &Handler<PushMsg<VM, EM>>,
    lv: &LocalVertex<VM, EM>,
    delta: Option<&ApexDelta>,
    skip: &mut impl FnMut(u64) -> bool,
    scratch: &mut WedgeScratch,
) where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let WedgeScratch {
        suffixes,
        gathered,
        picks,
    } = scratch;
    let (new_idx, closing) =
        delta.map_or((&[][..], &[][..]), |ap| (&ap.new_idx[..], &ap.closing[..]));
    // Monotone cursors: `new_idx[n..]` and `closing[c..]` start at the
    // first index not below the current entry's.
    let (mut n, mut c) = (0usize, 0usize);
    // Index in `Adjm+(p)` of `suffixes`' first element, once filled.
    let mut filled_from = None;
    let last = lv.adj.len().saturating_sub(1);
    for (i, e) in lv.adj[..last].iter().enumerate() {
        let iu = i as u32;
        while new_idx.get(n).is_some_and(|&k| k < iu) {
            n += 1;
        }
        while closing.get(c).is_some_and(|&(s, _)| s < iu) {
            c += 1;
        }
        if skip(e.v) {
            continue;
        }
        let dest = graph.owner(e.v);
        if delta.is_none() || new_idx.get(n) == Some(&iu) {
            let from = *filled_from.get_or_insert_with(|| {
                fill_candidates(suffixes, &lv.adj[i + 1..]);
                i + 1
            });
            let frame = suffixes.suffix(i + 1 - from);
            comm.send_encoded(dest, handler, (lv.id, e.v, &lv.meta, &e.em, frame));
            continue;
        }
        let news = &new_idx[n..];
        let closers = &closing[c..];
        let closers = &closers[..closers.partition_point(|&(s, _)| s == iu)];
        if news.is_empty() && closers.is_empty() {
            continue;
        }
        picks.clear();
        picks.extend_from_slice(news);
        picks.extend(closers.iter().map(|&(_, j)| j));
        picks.sort_unstable();
        let at = |k: &u32| &lv.adj[*k as usize];
        gathered.fill(
            picks,
            |k| at(k).v,
            |k| at(k).key.degree,
            |k, buf| at(k).em.encode(buf),
        );
        let frame = gathered.suffix(0);
        comm.send_encoded(dest, handler, (lv.id, e.v, &lv.meta, &e.em, frame));
    }
}

/// Pushes every wedge batch of this rank's shard whose target `skip`
/// does not exclude (Push-Only passes `|_| false`; Push-Pull skips
/// targets that will be pulled instead): [`push_apex_wedges`] over
/// every apex, each entry new.
pub(crate) fn push_wedge_batches<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    handler: &Handler<PushMsg<VM, EM>>,
    mut skip: impl FnMut(u64) -> bool,
) where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let mut scratch = WedgeScratch::default();
    for lv in graph.shard().vertices() {
        push_apex_wedges(comm, graph, handler, lv, None, &mut skip, &mut scratch);
    }
}
