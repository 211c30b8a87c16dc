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
//! # Encode once per apex, decode once per frame
//!
//! Every batch an apex `p` pushes is a suffix of the same `Adjm+(p)`,
//! so the sender encodes that list's three columns once per apex
//! ([`ColSuffixes`], filled from the apex's first pushed suffix into
//! scratch reused across apexes) and emits each batch's frame by
//! copying byte suffixes. The frame is byte-identical to
//! [`encode_candidate_columns`] over the same suffix.
//!
//! The production handler captures the frame in place ([`ColCursor`]),
//! decodes its two key columns whole into a reused flat [`OrderKey`]
//! column ([`decode_frame_keys`], the same decoder the pull handler
//! uses), and runs [`intersect_indices`] against `Adjm+(q)`; each match
//! arrives as an index pair, and the frame index picks the one
//! metadata element to decode. The survey callback is the handler's
//! type parameter, so every triangle is a direct call. Decoding every
//! key enforces the key columns' byte budget whatever `Adjm+(q)` holds,
//! and the frame is fully consumed at capture, so the record framing is
//! intact wherever the merge stops.
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

use tripoll_graph::{AdjEntry, DistGraph, OrderKey};
use tripoll_ygm::wire::{
    encode_columns, ColBatch, ColCursor, ColKeys, ColSuffixes, Wire, WireEncode, WireError,
};
use tripoll_ygm::{Comm, Handler};

use crate::engine::{intersect_indices, intersect_slices, IntersectKernel, SurveyConfig};
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

/// The production receive handler: capture the columnar frame, decode
/// its key columns whole, intersect them with `Adjm+(q)` under the
/// configured kernel, decode metadata on match only.
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
    // The decoded key columns of the frame being served, reused across
    // frames. Taken out while in use, so a re-entrant dispatch would
    // decode into a fresh buffer instead of the one being read.
    let frame_keys: Cell<Vec<OrderKey>> = Cell::default();
    comm.register_borrowed::<PushMsg<VM, EM>, _>(move |c, r| {
        let p = u64::decode(r)?;
        let q = u64::decode(r)?;
        let meta_p = VM::decode(r)?;
        let meta_pq = EM::decode(r)?;
        // The frame is fully consumed here (bounded column takes), so
        // record framing is intact no matter where the merge stops.
        let ColCursor {
            mut keys,
            mut metas,
        } = ColCursor::<'_, EM>::begin(r)?;
        let Some(lv) = g.shard().get(q) else {
            abort_unowned_push(c, &g, p, q);
        };
        // The intersection visits both lists once: that is the
        // wedge-check work (kernel-independent by design).
        c.add_work((keys.remaining() + lv.adj.len()) as u64);
        let mut cands = frame_keys.take();
        let mut out = decode_frame_keys(&mut keys, &mut cands);
        if out.is_ok() {
            intersect_indices(
                kernel,
                &cands,
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
            );
        }
        frame_keys.set(cands);
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

/// The columnar projection of an adjacency slice: serializes the
/// candidate batch as three packed columns straight from `Adjm+`
/// storage, byte-identical to the [`ColBatch`] the receiving handlers
/// are keyed on. The degree column delta-codes for free here because
/// the slice is `<+`-sorted, so degrees are monotone non-decreasing.
#[inline]
pub(crate) fn encode_candidate_columns<VM, EM: Wire>(
    adj: &[AdjEntry<VM, EM>],
) -> impl WireEncode + '_ {
    encode_columns(adj, |s| s.v, |s| s.key.degree, |s, buf| s.em.encode(buf))
}

/// Decodes a frame's two key columns, whole, into `out` as one flat
/// [`OrderKey`] per element — the one frame decoder of both receive
/// handlers. An element's frame index is its position in `out`, so a
/// match's index into `out` is the index of the metadata element to
/// decode. `out` is cleared, not reallocated, so a rank's frames share
/// one buffer. Walking to the last element enforces the key columns'
/// byte budget: a truncated or over-long key column fails here, before
/// any key is intersected.
///
/// The keys must strictly increase, as every `<+`-sorted list and its
/// suffixes do; a frame whose keys repeat or fall back fails here as
/// well. Every frame the production path accepts is thus one on which
/// the merge and the hash probe report the same pairs.
pub(crate) fn decode_frame_keys(
    keys: &mut ColKeys<'_>,
    out: &mut Vec<OrderKey>,
) -> Result<(), WireError> {
    out.clear();
    out.reserve(keys.remaining());
    for k in keys {
        let k = k?;
        debug_assert_eq!(k.idx, out.len(), "frame index is the position");
        let key = OrderKey::new(k.v, k.degree);
        if out.last().is_some_and(|prev| prev.word() >= key.word()) {
            return Err(WireError::InvalidValue("frame keys must strictly increase"));
        }
        out.push(key);
    }
    Ok(())
}

/// Iterates this rank's vertices and pushes every wedge batch whose
/// target is not excluded by `skip` (Push-Only passes `|_| false`;
/// Push-Pull skips targets that will be pulled instead).
///
/// Encode-once hot path: `Adjm+(p)`'s columns are encoded once per
/// apex, from its first pushed suffix on, straight from storage into
/// one [`ColSuffixes`] reused across apexes; each batch's frame is a
/// copy of byte suffixes of that encoding. `meta(p)` / `meta(p,q)` are
/// encoded by reference — no candidate materialization and no metadata
/// clones per batch.
pub(crate) fn push_wedge_batches<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    handler: &Handler<PushMsg<VM, EM>>,
    mut skip: impl FnMut(u64) -> bool,
) where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let mut cols = ColSuffixes::new();
    for lv in graph.shard().vertices() {
        // Index in `Adjm+(p)` of `cols`' first element, once filled.
        let mut filled_from = None;
        for (i, e) in lv.adj.iter().enumerate() {
            // The last out-neighbor has an empty suffix: no wedges.
            if i + 1 >= lv.adj.len() {
                break;
            }
            if skip(e.v) {
                continue;
            }
            let from = *filled_from.get_or_insert_with(|| {
                let suffix = &lv.adj[i + 1..];
                cols.fill(suffix, |s| s.v, |s| s.key.degree, |s, buf| s.em.encode(buf));
                i + 1
            });
            comm.send_encoded(
                graph.owner(e.v),
                handler,
                (lv.id, e.v, &lv.meta, &e.em, cols.suffix(i + 1 - from)),
            );
        }
    }
}
