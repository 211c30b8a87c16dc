//! Incremental edge-batch ingestion into DODGr storage.
//!
//! [`apply_edge_batch`] appends a batch of undirected edges to an
//! existing global vertex list (the resident tier's storage shape: all
//! ranks' [`LocalVertex`] records in one id-sorted vector) and leaves
//! the storage **bit-identical** to a from-scratch
//! [`crate::build_dist_graph`] over the concatenated input. The update
//! skips the build's communication rounds and re-derives the degree
//! order only for vertices the batch touches, but it is **not** local
//! in cost: every [`AdjEntry`] carries its target's `key.degree`, a
//! batch touches the hubs, and almost every apex stores an entry for a
//! hub. Measured on the benchmark's four workloads at 1 % batches
//! (seed 42), the stored entries whose key one batch really changes:
//!
//! | workload | entries re-keyed | of stored entries |
//! |---|---|---|
//! | `web_push` | 93 k | 205 k |
//! | `rmat_pull` | 76 k | 90 k |
//! | `wdc_fqdn` | 74 k | 177 k |
//! | `reddit_stream` | 21 k | 190 k |
//!
//! Under this entry layout one linear pass over the storage is
//! therefore the floor, and the update is built as exactly that: a
//! read-only **stage** that decides everything, then a **commit** that
//! sweeps the vertex list once, patching entries where they lie
//! ([`StagedBatch`]). Cost proportional to the batch needs the
//! annotations out of the entries (ROADMAP item 3). The steps, 1–5
//! staged and 6–9 committed:
//!
//! 1. The batch is canonicalized exactly like the builder's scatter
//!    round: self-loops dropped, endpoints normalized, within-batch
//!    duplicates collapse keeping the first occurrence, and edges
//!    already present in storage are dropped (so the *earlier* edge's
//!    metadata survives, matching the first-arrival-wins dedup of the
//!    builder). Strict mode rejects an unknown endpoint here.
//! 2. Every endpoint of a new edge is *touched*: its degree grows, so
//!    its `<+` key strictly grows. Previously-unknown endpoints get
//!    their records staged (the only calls to `vm_fn`).
//! 3. Because keys only grow, orientation flips can only move edges
//!    *out* of a touched vertex's out-list, never into one from an
//!    untouched vertex: a stored edge `t → w` becomes `w → t` iff `t`'s
//!    new key overtakes `w`'s.
//! 4. New edges are oriented by the new keys.
//! 5. Steps 2–4 fold into one **patch map** from every touched vertex
//!    — exactly the vertices whose annotation as a *target* changes —
//!    to its key after the batch. Flip-ins and new edges become
//!    fully-formed entries, metadata cloned, grouped with the
//!    flip-outs by the record whose entry *set* they change (≈ 4 k of
//!    27–40 k records at the benchmark's batches).
//! 6. Commit admits the staged new records into the id-sorted list,
//! 7. keeps the [`ReverseIndex`] consistent,
//! 8. and walks the list once. Each entry costs one probe of the patch
//!    map; a record is re-sorted only if its entry set changed, or a
//!    key moved *and* the order actually broke — the same canonical
//!    order by key the builder produces, so entry order, keys and
//!    degrees all land exactly where a from-scratch build would put
//!    them. The list, the touched vertices and the changed records all
//!    ascend by id, so the sweep looks no record up.
//! 9. Last, the [`BatchDelta`] is derived: for every apex vertex, which
//!    out-entries are *new* and which entry-index pairs form a wedge
//!    *closed* by a new edge between two old entries (found through the
//!    reverse index). A delta survey generates exactly the wedges with
//!    at least one new edge from this plan (see `tripoll-core`'s delta
//!    engine), which is what makes
//!    `full(G ∪ B) == full(G) + delta(G, B)` hold exactly.
//!
//! The split is what makes ingest **all-or-nothing**: staging takes the
//! storage by shared reference and runs all caller code, so a rejected
//! batch or a panicking `vm_fn` has written nothing; commit runs no
//! caller code and cannot fail.
//!
//! Vertex metadata is immutable under ingest: existing vertices keep
//! their stored `meta`, and the admitting variant
//! ([`apply_edge_batch_with`]) consults `vm_fn` only for
//! previously-unknown vertices. For the bit-identity contract the
//! caller's `vm_fn` must be the same deterministic function of the
//! vertex id that built the original storage (a *fixed* function — a
//! "current degree" table would change under ingest and break both
//! identities by design).

use tripoll_ygm::hash::{FastMap, FastSet};

use crate::dodgr::{AdjEntry, LocalVertex};
use crate::error::GraphError;
use crate::order::OrderKey;

/// Reverse adjacency over DODGr storage: for each vertex `v`, the
/// sorted apex ids `u` whose `Adjm+(u)` contains an entry for `v`.
///
/// Incremental ingestion needs this to find, without a full scan, every
/// apex that closes a wedge over a new edge. Build it once
/// ([`ReverseIndex::build`]); [`apply_edge_batch`] keeps it consistent
/// across batches.
#[derive(Debug, Default, Clone)]
pub struct ReverseIndex {
    rev: FastMap<u64, Vec<u64>>,
}

impl ReverseIndex {
    /// Builds the reverse index of a global vertex list (one full scan).
    pub fn build<VM, EM>(vertices: &[LocalVertex<VM, EM>]) -> Self {
        let mut rev: FastMap<u64, Vec<u64>> = FastMap::default();
        for lv in vertices {
            for e in &lv.adj {
                rev.entry(e.v).or_default().push(lv.id);
            }
        }
        for list in rev.values_mut() {
            list.sort_unstable();
        }
        ReverseIndex { rev }
    }

    /// Apexes whose out-adjacency stores an entry for `v`, sorted.
    #[inline]
    pub fn apexes(&self, v: u64) -> &[u64] {
        self.rev.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    fn insert(&mut self, target: u64, apex: u64) {
        let list = self.rev.entry(target).or_default();
        if let Err(pos) = list.binary_search(&apex) {
            list.insert(pos, apex);
        }
    }

    fn remove(&mut self, target: u64, apex: u64) {
        if let Some(list) = self.rev.get_mut(&target) {
            if let Ok(pos) = list.binary_search(&apex) {
                list.remove(pos);
            }
        }
    }
}

/// The delta-wedge plan for one apex vertex `p`, in terms of indices
/// into `p`'s **post-ingest** `Adjm+(p)`.
#[derive(Debug, Clone, Default)]
pub struct ApexDelta {
    /// Sorted indices of entries created by this batch (new edges
    /// stored at `p`). A wedge with either endpoint at one of these
    /// indices involves a new edge.
    pub new_idx: Vec<u32>,
    /// Sorted `(i, j)` pairs (`i < j`, both entries **old**) whose
    /// targets are joined by a new edge of this batch — wedges the
    /// batch *closed* without touching either of `p`'s own entries.
    pub closing: Vec<(u32, u32)>,
}

/// Everything a delta survey needs to generate exactly the wedges that
/// involve at least one edge of one ingested batch, keyed by apex.
///
/// Index-based and therefore only valid against the storage state this
/// batch produced; the resident tier guards that with an epoch check.
#[derive(Debug, Clone, Default)]
pub struct BatchDelta {
    /// Canonicalized `(min, max)` endpoint pairs of the genuinely-new
    /// edges (self-loops, within-batch duplicates, and edges already
    /// present in storage are dropped).
    pub new_edges: Vec<(u64, u64)>,
    /// Vertex ids the batch introduced (no prior record).
    pub new_vertices: Vec<u64>,
    /// Per-apex delta-wedge plan; apexes with no new entries and no
    /// closing pairs are absent.
    pub apexes: FastMap<u64, ApexDelta>,
}

impl BatchDelta {
    /// True when the batch contributed nothing (all edges were
    /// duplicates or self-loops): no storage change, no delta wedges.
    pub fn is_empty(&self) -> bool {
        self.new_edges.is_empty()
    }
}

/// Appends an edge batch to resident DODGr storage, **strict** on
/// vertices: every endpoint must already have a record, otherwise the
/// batch is rejected with [`GraphError::UnknownVertex`] and neither
/// `vertices` nor `rev` is modified. See the module docs for the exact
/// canonicalization and bit-identity contract.
///
/// `rev` must be consistent with `vertices` (built by
/// [`ReverseIndex::build`] or maintained by previous calls); it is
/// updated in place alongside the storage.
pub fn apply_edge_batch<VM, EM>(
    vertices: &mut Vec<LocalVertex<VM, EM>>,
    rev: &mut ReverseIndex,
    batch: &[(u64, u64, EM)],
) -> Result<BatchDelta, GraphError>
where
    VM: Clone,
    EM: Clone,
{
    Ok(StagedBatch::stage(vertices, batch, None)?.commit(vertices, rev))
}

/// [`apply_edge_batch`] that admits previously-unknown vertices,
/// creating their records with metadata from `vm_fn`. `vm_fn` must be
/// the same deterministic function used to build the original storage;
/// it is consulted **only** for new vertices (existing metadata is
/// immutable under ingest).
pub fn apply_edge_batch_with<VM, EM, F>(
    vertices: &mut Vec<LocalVertex<VM, EM>>,
    rev: &mut ReverseIndex,
    batch: &[(u64, u64, EM)],
    vm_fn: F,
) -> Result<BatchDelta, GraphError>
where
    VM: Clone,
    EM: Clone,
    F: Fn(u64) -> VM,
{
    Ok(StagedBatch::stage(vertices, batch, Some(&vm_fn))?.commit(vertices, rev))
}

/// Index of `id` in the id-sorted global vertex list.
#[inline]
fn idx_of<VM, EM>(vertices: &[LocalVertex<VM, EM>], id: u64) -> Option<usize> {
    vertices.binary_search_by_key(&id, |v| v.id).ok()
}

/// Whether the undirected edge between two stored vertices is already
/// stored (at whichever endpoint currently has the smaller `<+` key).
fn edge_present<VM, EM>(x: &LocalVertex<VM, EM>, y: &LocalVertex<VM, EM>) -> bool {
    let (src, target_key) = if x.key < y.key {
        (x, y.key)
    } else {
        (y, x.key)
    };
    src.adj.binary_search_by(|e| e.key.cmp(&target_key)).is_ok()
}

/// What a batch does to the entry *set* of one record.
struct EntryChanges<VM, EM> {
    id: u64,
    /// Targets of the entries that flip out, in the record's entry order.
    removed: Vec<u64>,
    /// Flip-ins and new edges, fully annotated.
    added: Vec<AdjEntry<VM, EM>>,
}

/// A batch resolved against the storage it is about to change: every
/// decision taken and all caller code — `vm_fn`, `VM::clone`,
/// `EM::clone` — already run, nothing written yet.
///
/// [`StagedBatch::stage`] only reads and may fail or panic freely;
/// [`StagedBatch::commit`] only moves what was staged into place and
/// cannot fail. Between the two the caller may look at
/// [`StagedBatch::is_empty`] and skip whatever a no-op batch does not
/// need (the resident tier keeps its cached worlds and does not
/// un-share its storage).
pub struct StagedBatch<VM, EM> {
    /// Canonical `(min, max)` pairs of the genuinely-new edges.
    new_edges: Vec<(u64, u64)>,
    /// Records of previously-unknown vertices, by id. Their entries
    /// arrive through `changes` like everyone else's.
    brand_new: Vec<LocalVertex<VM, EM>>,
    /// `(id, key)` after the batch of every new-edge endpoint, by id
    /// (the key carries the new degree).
    touched: Vec<(u64, OrderKey)>,
    /// `touched` as a map — exactly the vertices whose annotation as a
    /// *target* changes, each to its key after the batch.
    patch: FastMap<u64, OrderKey>,
    /// The records whose entry set changes, by id.
    changes: Vec<EntryChanges<VM, EM>>,
    /// Apex → targets of its new-edge entries (for the delta plan).
    new_targets: FastMap<u64, FastSet<u64>>,
}

impl<VM, EM> StagedBatch<VM, EM>
where
    VM: Clone,
    EM: Clone,
{
    /// Resolves `batch` against `vertices` (steps 1–5 of the module
    /// docs) without writing anything. `admit` supplies the metadata of
    /// previously-unknown vertices; with `None` a batch that names one
    /// is rejected with [`GraphError::UnknownVertex`].
    pub fn stage(
        vertices: &[LocalVertex<VM, EM>],
        batch: &[(u64, u64, EM)],
        admit: Option<&dyn Fn(u64) -> VM>,
    ) -> Result<Self, GraphError> {
        let mut staged = StagedBatch {
            new_edges: Vec::new(),
            brand_new: Vec::new(),
            touched: Vec::new(),
            patch: FastMap::default(),
            changes: Vec::new(),
            new_targets: FastMap::default(),
        };

        // ---- 1. Canonicalize + validate. ---------------------------
        // Self-loops never participate in triangles and are dropped
        // before the unknown-vertex check (the builder never sees them
        // either).
        let mut new_edges: Vec<(u64, u64, &EM)> = Vec::new();
        let mut seen: FastSet<(u64, u64)> = FastSet::default();
        for (a, b, em) in batch {
            let (a, b) = (*a.min(b), *a.max(b));
            if a == b {
                continue;
            }
            let (ia, ib) = (idx_of(vertices, a), idx_of(vertices, b));
            if admit.is_none() {
                for (vertex, i) in [(a, ia), (b, ib)] {
                    if i.is_none() {
                        return Err(GraphError::UnknownVertex { vertex });
                    }
                }
            }
            if !seen.insert((a, b)) {
                continue; // within-batch duplicate: first occurrence wins
            }
            if let (Some(ia), Some(ib)) = (ia, ib) {
                if edge_present(&vertices[ia], &vertices[ib]) {
                    continue; // already stored: the earlier edge's metadata wins
                }
            }
            new_edges.push((a, b, em));
        }
        if new_edges.is_empty() {
            return Ok(staged);
        }

        // ---- 2. New degrees and keys of touched vertices. ----------
        // Degrees only grow, so every touched key strictly grows.
        let mut inc: FastMap<u64, u64> = FastMap::default();
        for &(a, b, _) in &new_edges {
            *inc.entry(a).or_insert(0) += 1;
            *inc.entry(b).or_insert(0) += 1;
        }
        let mut inc: Vec<(u64, u64)> = inc.into_iter().collect();
        inc.sort_unstable();
        // Indices of the touched vertices that already have a record.
        let mut stored: Vec<usize> = Vec::new();
        for (t, grown) in inc {
            let at = idx_of(vertices, t);
            let degree = at.map_or(0, |i| vertices[i].degree());
            let key = OrderKey::new(t, degree + grown);
            match at {
                Some(i) => stored.push(i),
                None => {
                    let vm_fn = admit.expect("strict mode validated every endpoint");
                    staged.brand_new.push(LocalVertex {
                        id: t,
                        key,
                        meta: vm_fn(t),
                        adj: Vec::new(),
                    });
                }
            }
            staged.touched.push((t, key));
            staged.patch.insert(t, key);
        }
        let patch = &staged.patch;
        let mut changes: FastMap<u64, EntryChanges<VM, EM>> = FastMap::default();
        fn change_of<VM, EM>(
            changes: &mut FastMap<u64, EntryChanges<VM, EM>>,
            id: u64,
        ) -> &mut EntryChanges<VM, EM> {
            changes.entry(id).or_insert_with(|| EntryChanges {
                id,
                removed: Vec::new(),
                added: Vec::new(),
            })
        }

        // ---- 3. Orientation flips out of touched vertices. ---------
        // A stored edge t→w flips to w→t iff t's grown key overtakes
        // w's (possibly also grown) key. The reverse never happens: an
        // edge stored at an untouched u points at keys that only grow
        // further away.
        for &it in &stored {
            let t = &vertices[it];
            let kt = patch[&t.id];
            for e in &t.adj {
                let kw = patch.get(&e.v).copied().unwrap_or(e.key);
                if kt > kw {
                    change_of(&mut changes, t.id).removed.push(e.v);
                    change_of(&mut changes, e.v).added.push(AdjEntry {
                        v: t.id,
                        key: kt,
                        em: e.em.clone(),
                        vm: t.meta.clone(),
                    });
                }
            }
        }

        // ---- 4. Orient and stage the new edges. --------------------
        for (a, b, em) in new_edges {
            let (src, dst) = if patch[&a] < patch[&b] {
                (a, b)
            } else {
                (b, a)
            };
            let vm = match idx_of(vertices, dst) {
                Some(i) => vertices[i].meta.clone(),
                None => {
                    let new = &staged.brand_new;
                    let i = new.binary_search_by_key(&dst, |v| v.id);
                    new[i.expect("unknown endpoints were staged")].meta.clone()
                }
            };
            change_of(&mut changes, src).added.push(AdjEntry {
                v: dst,
                key: patch[&dst],
                em: em.clone(),
                vm,
            });
            staged.new_targets.entry(src).or_default().insert(dst);
            staged.new_edges.push((a, b));
        }

        // ---- 5. The changed records, by id. ------------------------
        staged.changes = changes.into_values().collect();
        staged.changes.sort_unstable_by_key(|c| c.id);
        Ok(staged)
    }

    /// True when the batch contributes nothing (all edges were
    /// duplicates or self-loops): committing it changes no storage.
    pub fn is_empty(&self) -> bool {
        self.new_edges.is_empty()
    }

    /// Writes the staged batch into `vertices` — which must hold exactly
    /// what the batch was staged against — and `rev` (steps 6–9 of the
    /// module docs), and derives the delta-wedge plan.
    pub fn commit(
        self,
        vertices: &mut Vec<LocalVertex<VM, EM>>,
        rev: &mut ReverseIndex,
    ) -> BatchDelta {
        let StagedBatch {
            new_edges,
            brand_new,
            touched,
            patch,
            changes,
            new_targets,
        } = self;
        if new_edges.is_empty() {
            return BatchDelta::default();
        }

        // ---- 6. Admit the brand-new vertex records. ----------------
        let new_vertices: Vec<u64> = brand_new.iter().map(|v| v.id).collect();
        if !brand_new.is_empty() {
            vertices.extend(brand_new);
            vertices.sort_by_key(|v| v.id);
        }

        // ---- 7. Maintain the reverse index. ------------------------
        for c in &changes {
            for &target in &c.removed {
                rev.remove(target, c.id);
            }
            for e in &c.added {
                rev.insert(e.v, c.id);
            }
        }

        // ---- 8. One sweep over every record. -----------------------
        // The list, `touched` and `changes` all ascend by id, so the
        // two cursors find their records without a lookup.
        let mut touched = touched.into_iter().peekable();
        let mut changes = changes.into_iter().peekable();
        // Re-keys one entry; true when its target was touched, so that
        // its key moved.
        let repatch = |e: &mut AdjEntry<VM, EM>| match patch.get(&e.v) {
            Some(&key) => {
                e.key = key;
                true
            }
            None => false,
        };
        for lv in vertices.iter_mut() {
            if let Some((_, key)) = touched.next_if(|t| t.0 == lv.id) {
                lv.key = key;
            }
            let resort = match changes.next_if(|c| c.id == lv.id) {
                None => {
                    let mut moved = false;
                    for e in &mut lv.adj {
                        moved |= repatch(e);
                    }
                    // Keys only grow: most moves keep the order.
                    moved && !lv.adj.is_sorted_by_key(|e| e.key)
                }
                Some(c) => {
                    let mut out = c.removed.iter().peekable();
                    lv.adj.retain_mut(|e| {
                        let stays = out.next_if_eq(&&e.v).is_none();
                        if stays {
                            repatch(e);
                        }
                        stays
                    });
                    debug_assert!(out.peek().is_none(), "flip-outs of {}", lv.id);
                    lv.adj.reserve_exact(c.added.len());
                    lv.adj.extend(c.added);
                    true
                }
            };
            if resort {
                // The builder's canonical entry order; keys are
                // distinct within a record, so unstable is exact.
                lv.adj.sort_unstable_by_key(|e| e.key);
            }
        }
        debug_assert!(touched.peek().is_none() && changes.peek().is_none());

        // ---- 9. Derive the delta-wedge plan. -----------------------
        let mut apexes: FastMap<u64, ApexDelta> = FastMap::default();
        for (&p, targets) in &new_targets {
            let adj = &vertices[idx_of(vertices, p).expect("apex exists")].adj;
            let new_idx: Vec<u32> = adj
                .iter()
                .enumerate()
                .filter(|(_, e)| targets.contains(&e.v))
                .map(|(i, _)| i as u32)
                .collect();
            debug_assert_eq!(new_idx.len(), targets.len(), "new entries of {p}");
            apexes.entry(p).or_default().new_idx = new_idx;
        }
        // Wedges closed by a new edge {a, b}: apexes storing entries for
        // BOTH endpoints where neither entry is itself new (those wedges
        // are already generated by the new_idx paths).
        for (a, b) in &new_edges {
            // One endpoint is often a hub everyone points at: probe the
            // longer apex list from the shorter one.
            let (la, lb) = (rev.apexes(*a), rev.apexes(*b));
            let (short, long) = if la.len() <= lb.len() {
                (la, lb)
            } else {
                (lb, la)
            };
            for &p in short {
                if long.binary_search(&p).is_err()
                    || new_targets
                        .get(&p)
                        .is_some_and(|s| s.contains(a) || s.contains(b))
                {
                    continue;
                }
                let adj = &vertices[idx_of(vertices, p).expect("apex exists")].adj;
                let pos = |t: u64| {
                    let k = patch[&t];
                    adj.binary_search_by(|e| e.key.cmp(&k))
                        .expect("closing entry present") as u32
                };
                let (ia, ib) = (pos(*a), pos(*b));
                let pair = (ia.min(ib), ia.max(ib));
                apexes.entry(p).or_default().closing.push(pair);
            }
        }
        for ap in apexes.values_mut() {
            ap.closing.sort_unstable();
        }

        BatchDelta {
            new_edges,
            new_vertices,
            apexes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dodgr::build_dist_graph;
    use crate::edge_list::EdgeList;
    use crate::partition::Partition;
    use std::sync::Arc;
    use tripoll_ygm::World;

    type V = LocalVertex<u64, u32>;

    /// From-scratch single-rank build over an edge list (the resident
    /// tier's global-storage shape).
    fn build(edges: &[(u64, u64, u32)]) -> Vec<V> {
        let list = EdgeList::from_vec(edges.to_vec());
        let mut out = World::new(1).run(|comm| {
            let g = build_dist_graph(
                comm,
                list.as_slice().to_vec(),
                |v| v * 31 + 7,
                Partition::Hashed,
            );
            Arc::into_inner(g.into_shard()).unwrap().into_vertices()
        });
        let mut vs = out.pop().unwrap();
        vs.sort_by_key(|v| v.id);
        vs
    }

    fn em_of(u: u64, v: u64) -> u32 {
        ((u.min(v) as u32) << 8) | (u.max(v) as u32)
    }

    /// Exact structural equality of two global vertex lists.
    fn assert_identical(got: &[V], want: &[V]) {
        assert_eq!(got.len(), want.len(), "vertex count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id);
            assert_eq!(g.key, w.key, "key of {}", g.id);
            assert_eq!(g.meta, w.meta, "meta of {}", g.id);
            assert_eq!(g.adj.len(), w.adj.len(), "d+ of {}", g.id);
            for (a, b) in g.adj.iter().zip(&w.adj) {
                assert_eq!(
                    (a.v, a.key, a.em, a.vm),
                    (b.v, b.key, b.em, b.vm),
                    "entry of {}",
                    g.id
                );
            }
        }
    }

    fn meta_edges(pairs: &[(u64, u64)]) -> Vec<(u64, u64, u32)> {
        pairs.iter().map(|&(u, v)| (u, v, em_of(u, v))).collect()
    }

    /// Ingest `batch` onto `base` and compare against a from-scratch
    /// build of the concatenation.
    fn check_incremental(base: &[(u64, u64)], batch: &[(u64, u64)]) {
        let base = meta_edges(base);
        let batch = meta_edges(batch);
        let mut vertices = build(&base);
        let mut rev = ReverseIndex::build(&vertices);
        apply_edge_batch_with(&mut vertices, &mut rev, &batch, |v| v * 31 + 7).unwrap();
        let mut all = base;
        all.extend(batch);
        assert_identical(&vertices, &build(&all));
        // The maintained reverse index matches a fresh build.
        let fresh = ReverseIndex::build(&vertices);
        for lv in &vertices {
            assert_eq!(rev.apexes(lv.id), fresh.apexes(lv.id), "rev[{}]", lv.id);
        }
    }

    #[test]
    fn append_to_empty_storage_matches_build() {
        check_incremental(&[], &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn new_edges_between_existing_vertices() {
        check_incremental(&[(0, 1), (1, 2), (2, 3), (3, 4)], &[(0, 2), (1, 3)]);
    }

    #[test]
    fn batch_introducing_new_vertices() {
        check_incremental(&[(0, 1), (1, 2)], &[(2, 9), (9, 10), (10, 0)]);
    }

    #[test]
    fn degree_growth_flips_orientation() {
        // A star around 5 grows 5's degree past its neighbors', forcing
        // previously-outgoing edges of 5 to flip toward the leaves.
        check_incremental(
            &[(5, 0), (5, 1), (0, 1), (1, 2)],
            &[(5, 2), (5, 3), (5, 4), (5, 6), (5, 7)],
        );
    }

    #[test]
    fn duplicates_and_self_loops_are_dropped() {
        let base = meta_edges(&[(0, 1), (1, 2)]);
        let mut vertices = build(&base);
        let mut rev = ReverseIndex::build(&vertices);
        // (1,0) duplicates (0,1) reversed; (3,3) is a self-loop; the
        // two (1,2)-with-different-metadata records keep the stored em.
        let batch = vec![(1u64, 0u64, 999u32), (3, 3, 999), (2, 1, 999)];
        let delta = apply_edge_batch(&mut vertices, &mut rev, &batch).unwrap();
        assert!(delta.is_empty());
        assert_identical(&vertices, &build(&base));
    }

    #[test]
    fn within_batch_duplicate_keeps_first() {
        let mut vertices = build(&meta_edges(&[(0, 1)]));
        let mut rev = ReverseIndex::build(&vertices);
        let batch = vec![(1u64, 2u64, 42u32), (2, 1, 999)];
        let delta = apply_edge_batch_with(&mut vertices, &mut rev, &batch, |v| v * 31 + 7).unwrap();
        assert_eq!(delta.new_edges, vec![(1, 2)]);
        let mut all = meta_edges(&[(0, 1)]);
        all.push((1, 2, 42));
        assert_identical(&vertices, &build(&all));
    }

    #[test]
    fn strict_mode_rejects_unknown_vertices_without_mutating() {
        let base = meta_edges(&[(0, 1), (1, 2)]);
        let mut vertices = build(&base);
        let mut rev = ReverseIndex::build(&vertices);
        let err =
            apply_edge_batch(&mut vertices, &mut rev, &meta_edges(&[(0, 2), (2, 77)])).unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex { vertex: 77 });
        assert_identical(&vertices, &build(&base));
    }

    #[test]
    fn delta_plan_indexes_new_and_closing_wedges() {
        // Vertex 0 (degree 2) stores its higher-degree neighbors 1 and
        // 2; the batch edge (1,2) closes the old wedge 1-0-2 without
        // touching 0's own entries, and is itself stored as one new
        // entry at whichever of {1, 2} has the smaller grown key.
        let base = &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
        let mut vertices = build(&meta_edges(base));
        let mut rev = ReverseIndex::build(&vertices);
        let delta = apply_edge_batch(&mut vertices, &mut rev, &meta_edges(&[(1, 2)])).unwrap();
        assert_eq!(delta.new_edges, vec![(1, 2)]);
        let closing: usize = delta.apexes.values().map(|a| a.closing.len()).sum();
        let new_entries: usize = delta.apexes.values().map(|a| a.new_idx.len()).sum();
        assert_eq!(new_entries, 1, "one new stored edge");
        assert_eq!(closing, 1, "exactly one closed wedge");
        let zero = &delta.apexes[&0];
        assert!(zero.new_idx.is_empty(), "0's entries are all old");
        assert_eq!(zero.closing, vec![(0, 1)], "0's two entries close");
    }

    #[test]
    fn repeated_batches_converge_like_one_shot() {
        let all: Vec<(u64, u64)> = (0..18u64)
            .flat_map(|i| [(i, (i + 3) % 18), (i, (i + 7) % 18)])
            .collect();
        for split in [1, 3, 6] {
            let chunks: Vec<&[(u64, u64)]> = all.chunks(all.len().div_ceil(split)).collect();
            let mut vertices: Vec<V> = Vec::new();
            let mut rev = ReverseIndex::default();
            let mut prefix: Vec<(u64, u64, u32)> = Vec::new();
            for chunk in chunks {
                let batch = meta_edges(chunk);
                apply_edge_batch_with(&mut vertices, &mut rev, &batch, |v| v * 31 + 7).unwrap();
                prefix.extend(batch);
                assert_identical(&vertices, &build(&prefix));
            }
        }
    }
}
