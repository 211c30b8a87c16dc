//! Distributed degree-ordered directed graph (DODGr) with metadata.
//!
//! This is TriPoll's graph storage (paper §4.2): vertices are assigned to
//! ranks by a [`Partition`]; the owning rank stores, for each vertex `u`,
//! its metadata `meta(u)` and the metadata-augmented out-adjacency
//!
//! ```text
//! Adjm+(u) = { (v, meta(u,v), meta(v)) | v ∈ Adj+(u) }
//! ```
//!
//! where `Adj+(u)` keeps only neighbors *larger* than `u` in the degree
//! order `<+` (§3), sorted ascending by that order. Each entry also
//! carries the target's undirected degree, which defines its `<+` key.
//!
//! This storage deliberately departs from the paper's in one respect:
//! the paper also stores the target's DODGr out-degree `d+(v)` on every
//! edge (§4.4), so that Push-Pull can decide whether pulling `Adjm+(v)`
//! is worthwhile. Here that decision is taken by `Rank(v)` itself, which
//! answers each dry-run record from its own `|Adjm+(v)|` (see
//! `tripoll-core`'s `push_pull`), and no message carries `d+(v)`; an
//! entry therefore does not store it.
//!
//! Construction ([`build_dist_graph`]) is two asynchronous rounds over
//! the communicator around one flat CSR per rank. Both rounds batch
//! their records per destination rank and ship a chunk of them as one
//! message, so the runtime's per-record cost is paid once per chunk
//! rather than once per edge:
//!
//! 1. **Scatter** — every input edge `(u,v)` is sent to `Rank(u)` as
//!    `(u,v)` and to `Rank(v)` as `(v,u)` (symmetrization); the owner
//!    appends each arriving record to one of 256 buckets, picked by the
//!    top bits of `hash64(u)`. Each bucket is then sorted by `(u,v)`
//!    with a stable radix sort ([`crate::radix`]), so that of several
//!    records for one edge the first to arrive survives deduplication.
//!    A bucket's runs of equal `u` are the rows, and a row's length is
//!    the undirected degree `d(u)`. This grouping is linear in the
//!    records, and its scratch buffer is one bucket long.
//! 2. **Degree exchange** — walking the rows, each owner tells the owner
//!    of every neighbor the degree of its local vertices. The rows are
//!    then drained, bucket by bucket, into the shard's vertices, which a
//!    last radix sort by id puts in id order. Each record's neighbor key
//!    in `<+` is resolved once: a larger neighbor becomes an out-entry,
//!    and a smaller one is skipped.
//!
//! Vertex metadata is produced by a deterministic function of the vertex
//! id supplied by the caller (generators and file loaders close over
//! their attribute tables), so `meta(v)` can be materialized on any rank
//! without a third exchange; it is still *stored* per edge, reproducing
//! the paper's `O(|E|)` vertex-metadata storage trade-off.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use tripoll_ygm::hash::{hash64, FastMap};
use tripoll_ygm::wire::Wire;
use tripoll_ygm::{Comm, Handler};

use crate::order::OrderKey;
use crate::partition::Partition;
use crate::radix::{pair_key, radix_sort_by_key};

/// One out-edge of the DODGr, with everything a survey needs colocated.
#[derive(Debug, Clone)]
pub struct AdjEntry<VM, EM> {
    /// Target vertex id (`v`, with `u <+ v`).
    pub v: u64,
    /// Target's position in the `<+` order — the merge-path sort key.
    pub key: OrderKey,
    /// Edge metadata `meta(u, v)`.
    pub em: EM,
    /// Target vertex metadata `meta(v)` (the paper's O(|E|) storage).
    pub vm: VM,
}

/// A vertex owned by this rank, with its augmented out-adjacency.
#[derive(Debug, Clone)]
pub struct LocalVertex<VM, EM> {
    /// Vertex id.
    pub id: u64,
    /// This vertex's position in the `<+` order; it carries `d(u)`.
    pub key: OrderKey,
    /// Vertex metadata `meta(u)`.
    pub meta: VM,
    /// `Adjm+(u)`, sorted ascending by `AdjEntry::key`.
    pub adj: Vec<AdjEntry<VM, EM>>,
}

impl<VM, EM> LocalVertex<VM, EM> {
    /// Undirected degree `d(u)`.
    #[inline]
    pub fn degree(&self) -> u64 {
        self.key.degree
    }

    /// DODGr out-degree `d+(u)`.
    #[inline]
    pub fn dplus(&self) -> u64 {
        self.adj.len() as u64
    }
}

/// All vertices owned by one rank: a view over an id-sorted vertex list.
///
/// The list sits behind an [`Arc`] so that the shards of every rank, at
/// every world size, can read the *same* storage: the resident tier
/// keeps one list for the whole graph and hands each rank a
/// [`LocalShard::view`] of the vertices it owns, copying nothing. A
/// shard that a build or [`LocalShard::from_vertices`] produced is the
/// view that owns its whole list.
///
/// A vertex's **slot** is its position among this shard's vertices in
/// id order — the compact handle the engines store instead of a borrow.
#[derive(Debug)]
pub struct LocalShard<VM, EM> {
    /// The id-sorted list the view reads.
    all: Arc<Vec<LocalVertex<VM, EM>>>,
    /// Ascending indices into `all` of this rank's vertices, by slot.
    owned: Vec<u32>,
    /// Vertex id → slot.
    index: FastMap<u64, u32>,
}

impl<VM, EM> LocalShard<VM, EM> {
    /// Assembles a shard that owns every one of `vertices` (any order);
    /// they are sorted by id (unless they already are) and indexed. This
    /// is how the build and snapshot loading produce shards without a
    /// communication round.
    pub fn from_vertices(mut vertices: Vec<LocalVertex<VM, EM>>) -> Self {
        if !vertices.is_sorted_by_key(|v| v.id) {
            vertices.sort_by_key(|v| v.id);
        }
        let len = u32::try_from(vertices.len()).expect("a shard indexes its vertices with u32");
        let owned = (0..len).collect();
        Self::view(Arc::new(vertices), owned)
    }

    /// A shard of the vertices of `all` at the indices `owned`, sharing
    /// the list instead of copying from it — resident-graph re-sharding.
    ///
    /// # Panics
    /// If `owned` is not strictly ascending or indexes past the list.
    pub fn view(all: Arc<Vec<LocalVertex<VM, EM>>>, owned: Vec<u32>) -> Self {
        assert!(
            owned.windows(2).all(|w| w[0] < w[1])
                && owned.last().is_none_or(|&i| (i as usize) < all.len()),
            "owned indices must ascend within the vertex list"
        );
        let index = owned
            .iter()
            .enumerate()
            .map(|(slot, &i)| (all[i as usize].id, slot as u32))
            .collect();
        LocalShard { all, owned, index }
    }

    /// Vertices owned by this rank, in id order (slot order).
    #[inline]
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = &LocalVertex<VM, EM>> + Clone + '_ {
        self.owned.iter().map(|&i| &self.all[i as usize])
    }

    /// The vertex at `slot`.
    ///
    /// # Panics
    /// If `slot >= self.len()`.
    #[inline]
    pub fn vertex(&self, slot: usize) -> &LocalVertex<VM, EM> {
        &self.all[self.owned[slot] as usize]
    }

    /// Slot of the locally-owned vertex `id`.
    #[inline]
    fn slot_of(&self, id: u64) -> Option<usize> {
        self.index.get(&id).map(|&slot| slot as usize)
    }

    /// Takes this rank's vertices out of the shard, sorted by id: moved
    /// when the shard owns its whole list and is the list's only holder,
    /// cloned otherwise.
    pub fn into_vertices(self) -> Vec<LocalVertex<VM, EM>>
    where
        VM: Clone,
        EM: Clone,
    {
        if self.owned.len() == self.all.len() {
            Arc::unwrap_or_clone(self.all)
        } else {
            self.vertices().cloned().collect()
        }
    }

    /// Looks up a locally-owned vertex by id.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&LocalVertex<VM, EM>> {
        self.slot_of(id).map(|slot| self.vertex(slot))
    }

    /// Number of vertices owned by this rank.
    #[inline]
    pub fn len(&self) -> usize {
        self.owned.len()
    }

    /// True when this rank owns no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owned.is_empty()
    }
}

/// Global graph statistics, aggregated collectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Vertices with at least one incident edge.
    pub vertices: u64,
    /// Directed edges after symmetrization (Table 1's `|E|` convention).
    pub directed_edges: u64,
    /// Edges of the DODGr (= undirected edges).
    pub dodgr_edges: u64,
    /// Maximum undirected degree (`d_max`).
    pub max_degree: u64,
    /// Maximum DODGr out-degree (`d_max+`).
    pub max_out_degree: u64,
    /// `|W+|`: wedge checks the DODGr generates, `Σ_p C(d+(p), 2)` —
    /// the work measure of the weak-scaling study (§5.5).
    pub wedges: u64,
}

/// A distributed DODGr handle: this rank's shard plus the partition map.
///
/// Cheap to clone (the shard is reference-counted); message handlers
/// capture clones. The shard sits behind an [`Arc`] so a resident
/// graph can share the same immutable storage across many query
/// worlds without copying.
pub struct DistGraph<VM, EM> {
    shard: Arc<LocalShard<VM, EM>>,
    partition: Partition,
    nranks: usize,
}

impl<VM, EM> Clone for DistGraph<VM, EM> {
    fn clone(&self) -> Self {
        DistGraph {
            shard: Arc::clone(&self.shard),
            partition: self.partition,
            nranks: self.nranks,
        }
    }
}

impl<VM, EM> DistGraph<VM, EM> {
    /// Wraps pre-built shared storage as a rank-local graph handle —
    /// the resident-graph path, where the shard was built once and is
    /// now being attached to a fresh per-query world.
    pub fn from_parts(shard: Arc<LocalShard<VM, EM>>, partition: Partition, nranks: usize) -> Self {
        DistGraph {
            shard,
            partition,
            nranks,
        }
    }

    /// Rank owning vertex `v` — the paper's `Rank(v)`.
    #[inline]
    pub fn owner(&self, v: u64) -> usize {
        self.partition.owner(v, self.nranks)
    }

    /// Number of ranks the graph is partitioned over.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// This rank's shard.
    #[inline]
    pub fn shard(&self) -> &Arc<LocalShard<VM, EM>> {
        &self.shard
    }

    /// Gives up this handle's share of the shard — to take the storage
    /// out with [`Arc::into_inner`] once no other handle is left.
    #[inline]
    pub fn into_shard(self) -> Arc<LocalShard<VM, EM>> {
        self.shard
    }

    /// The partitioning in use.
    #[inline]
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Statistics of this rank's shard only.
    pub fn local_stats(&self) -> GraphStats {
        let mut s = GraphStats {
            vertices: self.shard.len() as u64,
            ..Default::default()
        };
        for v in self.shard.vertices() {
            s.directed_edges += v.degree();
            s.dodgr_edges += v.dplus();
            s.max_degree = s.max_degree.max(v.degree());
            s.max_out_degree = s.max_out_degree.max(v.dplus());
            let d = v.dplus();
            s.wedges += d * d.saturating_sub(1) / 2;
        }
        s
    }

    /// Global statistics. Collective.
    pub fn global_stats(&self, comm: &Comm) -> GraphStats {
        let l = self.local_stats();
        GraphStats {
            vertices: comm.all_reduce_sum(l.vertices),
            directed_edges: comm.all_reduce_sum(l.directed_edges),
            dodgr_edges: comm.all_reduce_sum(l.dodgr_edges),
            max_degree: comm.all_reduce_max(l.max_degree),
            max_out_degree: comm.all_reduce_max(l.max_out_degree),
            wedges: comm.all_reduce_sum(l.wedges),
        }
    }
}

/// Records per build message, in both rounds: small enough to
/// interleave with delivery, large enough to amortize the runtime's
/// per-record cost (quiescence and traffic counters, handler dispatch).
const EXCHANGE_CHUNK: usize = 512;

/// One build round's outgoing records, batched per destination rank:
/// a destination's records ship as a single `Vec<T>` message each time
/// [`EXCHANGE_CHUNK`] of them have accumulated, and once more at
/// [`Chunked::finish`].
struct Chunked<'a, T: Wire> {
    comm: &'a Comm,
    handler: Handler<Vec<T>>,
    batches: Vec<Vec<T>>,
}

impl<'a, T: Wire> Chunked<'a, T> {
    fn new(comm: &'a Comm, handler: Handler<Vec<T>>) -> Self {
        let batches = (0..comm.nranks())
            .map(|_| Vec::with_capacity(EXCHANGE_CHUNK))
            .collect();
        Chunked {
            comm,
            handler,
            batches,
        }
    }

    #[inline]
    fn push(&mut self, dst: usize, rec: T) {
        let batch = &mut self.batches[dst];
        batch.push(rec);
        if batch.len() == EXCHANGE_CHUNK {
            self.comm.send(dst, &self.handler, batch);
            batch.clear();
        }
    }

    fn finish(self) {
        for (dst, batch) in self.batches.iter().enumerate() {
            if !batch.is_empty() {
                self.comm.send(dst, &self.handler, batch);
            }
        }
    }
}

/// The scatter handler spreads this rank's records over `1 << BUCKET_BITS`
/// buckets by the top bits of `hash64(u)`. The low bits pick the rank
/// under [`Partition::Hashed`]: they would fill a few buckets and leave
/// the rest empty. At 256 buckets one bucket of a build of a few hundred
/// thousand records is a few thousand records, which sort within the L2
/// cache.
const BUCKET_BITS: u32 = 8;

/// The bucket that vertex `u`'s records arrive in.
#[inline]
fn bucket_of(u: u64) -> usize {
    (hash64(u) >> (u64::BITS - BUCKET_BITS)) as usize
}

/// One scattered record at its owner: `v` is a neighbour of the local
/// vertex `u`.
struct Arrival<EM> {
    u: u64,
    v: u64,
    em: EM,
}

impl<EM> Arrival<EM> {
    #[inline]
    fn key(&self) -> u128 {
        pair_key(self.u, self.v)
    }
}

/// The symmetrized, deduplicated undirected adjacency of this rank's
/// vertices: bucket `bucket_of(u)` holds vertex `u`'s records, each
/// bucket ascending by `(u, v)`. A bucket's runs of equal `u` are its
/// rows, `len` of them in all.
struct Rows<EM> {
    buckets: Vec<Vec<Arrival<EM>>>,
    len: usize,
}

impl<EM> Rows<EM> {
    /// Groups the scattered records, each bucket in arrival order. Of
    /// several records for one `(u, v)` the first to arrive survives —
    /// on one rank that is input order, the rule `ingest` relies on.
    /// The sort is stable, so arrival order needs no key of its own,
    /// and its scratch buffer, shared by the buckets, is as long as
    /// the largest of them.
    fn group(mut buckets: Vec<Vec<Arrival<EM>>>) -> Self {
        let mut scratch = Vec::new();
        let mut len = 0;
        for bucket in &mut buckets {
            radix_sort_by_key(bucket, &mut scratch, Arrival::key);
            bucket.dedup_by(|later, first| (later.u, later.v) == (first.u, first.v));
            len += bucket.chunk_by(|a, b| a.u == b.u).count();
        }
        Rows { buckets, len }
    }

    /// Every row's records, bucket after bucket; a row's length is the
    /// undirected degree of its vertex.
    fn rows(&self) -> impl Iterator<Item = &[Arrival<EM>]> {
        self.buckets
            .iter()
            .flat_map(|bucket| bucket.chunk_by(|a, b| a.u == b.u))
    }

    /// Round 2: sends `(u, d(u))` to the owner of every neighbour of
    /// row `u`, once per destination rank.
    fn announce_degrees(
        &self,
        comm: &Comm,
        partition: Partition,
        handler: Handler<Vec<(u64, u64)>>,
    ) {
        let nranks = comm.nranks();
        let mut out = Chunked::new(comm, handler);
        // `told[dst] == i` once row `i` has been announced to `dst`.
        let mut told = vec![usize::MAX; nranks];
        for (i, row) in self.rows().enumerate() {
            let (u, degree) = (row[0].u, row.len() as u64);
            let mut untold = nranks;
            for r in row {
                let dst = partition.owner(r.v, nranks);
                if told[dst] != i {
                    told[dst] = i;
                    out.push(dst, (u, degree));
                    untold -= 1;
                    if untold == 0 {
                        break;
                    }
                }
            }
        }
        out.finish();
    }
}

/// Builds the distributed DODGr from this rank's share of the input edge
/// records. Collective: every rank calls with its own `local_edges`.
///
/// * Input edges are undirected; direction, duplicates and self-loops are
///   normalized away during the build. Of duplicate records for one edge
///   the first to reach the owner supplies the metadata; on one rank
///   that is the first in `local_edges`.
/// * `vm_fn` must be deterministic and identical on every rank.
pub fn build_dist_graph<VM, EM, F>(
    comm: &Comm,
    local_edges: Vec<(u64, u64, EM)>,
    vm_fn: F,
    partition: Partition,
) -> DistGraph<VM, EM>
where
    VM: Clone + 'static,
    EM: Wire + Clone + 'static,
    F: Fn(u64) -> VM,
{
    let nranks = comm.nranks();

    // What each round's handler fills: the arrival buckets of round 1,
    // and `d(v)` of every neighbour of a local vertex.
    let buckets: Rc<RefCell<Vec<Vec<Arrival<EM>>>>> = Rc::new(RefCell::new(
        (0..1 << BUCKET_BITS).map(|_| Vec::new()).collect(),
    ));
    let deg: Rc<RefCell<FastMap<u64, u64>>> = Rc::default();

    let into = buckets.clone();
    let h_edge = comm.register::<Vec<(u64, u64, EM)>, _>(move |_c, chunk| {
        let mut into = into.borrow_mut();
        for (u, v, em) in chunk {
            into[bucket_of(u)].push(Arrival { u, v, em });
        }
    });
    let into = deg.clone();
    let h_deg = comm.register::<Vec<(u64, u64)>, _>(move |_c, pairs| {
        into.borrow_mut().extend(pairs);
    });

    // Round 1: scatter both directions of every edge to the endpoint
    // owners (symmetrization on the fly).
    let mut out = Chunked::new(comm, h_edge);
    for (u, v, em) in local_edges {
        if u == v {
            continue; // self-loops never participate in triangles
        }
        out.push(partition.owner(u, nranks), (u, v, em.clone()));
        out.push(partition.owner(v, nranks), (v, u, em));
    }
    out.finish();
    comm.barrier();

    // Local: one radix sort per bucket groups the arrivals by vertex
    // and collapses parallel edges. Degrees are now final.
    let rows = Rows::group(buckets.take());

    // Round 2: each owner announces d(u) of its local vertices to the
    // owner of every neighbor.
    rows.announce_degrees(comm, partition, h_deg);
    comm.barrier();
    let deg = deg.take();

    // Local: drain the rows, bucket by bucket, into the shard's
    // vertices. Every record's neighbour key is resolved here, once. A
    // larger neighbour becomes an out-entry, augmented with edge +
    // target metadata; a smaller one stores `u` as its own target and
    // is skipped.
    let mut vertices: Vec<LocalVertex<VM, EM>> = Vec::with_capacity(rows.len);
    let mut row_lens: Vec<(u64, usize)> = Vec::new();
    for bucket in rows.buckets {
        row_lens.clear();
        row_lens.extend(
            bucket
                .chunk_by(|a, b| a.u == b.u)
                .map(|row| (row[0].u, row.len())),
        );
        let mut recs = bucket.into_iter();
        for &(u, degree) in &row_lens {
            let key = OrderKey::new(u, degree as u64);
            let mut adj = Vec::with_capacity(degree);
            for Arrival { v, em, .. } in recs.by_ref().take(degree) {
                let kv = OrderKey::new(v, deg[&v]);
                if key < kv {
                    adj.push(AdjEntry {
                        v,
                        key: kv,
                        em,
                        vm: vm_fn(v),
                    });
                }
            }
            adj.shrink_to_fit();
            // Keys are distinct within a row, so unstable is exact.
            adj.sort_unstable_by_key(|e| e.key);
            vertices.push(LocalVertex {
                id: u,
                key,
                meta: vm_fn(u),
                adj,
            });
        }
    }
    // Each bucket drained in id order, but the buckets interleave: one
    // more radix sort, over the vertices rather than the records,
    // restores id order.
    radix_sort_by_key(&mut vertices, &mut Vec::new(), |lv| u128::from(lv.id));

    DistGraph {
        shard: Arc::new(LocalShard::from_vertices(vertices)),
        partition,
        nranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;
    use tripoll_ygm::World;

    type Edge = (u64, u64, u32);

    fn vm(v: u64) -> u64 {
        v.wrapping_mul(7)
    }

    /// Direction-independent edge metadata, so that duplicate records of
    /// one edge agree whichever reaches the owner first.
    fn with_meta(pairs: &[(u64, u64)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(u, v)| (u, v, (u.min(v) * 1000 + u.max(v)) as u32))
            .collect()
    }

    /// Every field of a vertex record, for `assert_eq!`.
    type Record = (u64, OrderKey, u64, Vec<(u64, OrderKey, u32, u64)>);

    fn record(lv: &LocalVertex<u64, u32>) -> Record {
        let adj = lv.adj.iter().map(|e| (e.v, e.key, e.em, e.vm));
        (lv.id, lv.key, lv.meta, adj.collect())
    }

    /// Serial reference: the storage a build must produce, over all
    /// ranks, by vertex id. The first record of an edge supplies its
    /// metadata.
    fn serial_dodgr(edges: &[Edge]) -> Vec<Record> {
        let mut em: FastMap<(u64, u64), u32> = FastMap::default();
        let mut nbrs: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for &(u, v, m) in edges {
            if u != v && !em.contains_key(&(u.min(v), u.max(v))) {
                em.insert((u.min(v), u.max(v)), m);
                nbrs.entry(u).or_default().push(v);
                nbrs.entry(v).or_default().push(u);
            }
        }
        let key = |v: u64| OrderKey::new(v, nbrs[&v].len() as u64);
        nbrs.iter()
            .map(|(&u, list)| {
                let mut out: Vec<u64> = list.iter().copied().filter(|&v| key(u) < key(v)).collect();
                out.sort_by_key(|&v| key(v));
                let adj = out.into_iter().map(|v| {
                    let m = em[&(u.min(v), u.max(v))];
                    (v, key(v), m, vm(v))
                });
                (u, key(u), vm(u), adj.collect())
            })
            .collect()
    }

    /// Builds on `nranks` ranks, rank `r` contributing `share(r)`, and
    /// compares every stored field and the entry order with the serial
    /// reference over the concatenated shares. An edge's metadata must
    /// come from the first of its records in some rank's share: records
    /// from one sender reach an owner in order, but the senders
    /// interleave. With one rank, or metadata that duplicates agree on,
    /// that is exactly the reference's.
    fn check_shares(
        share: impl Fn(usize) -> Vec<Edge> + Sync,
        nranks: usize,
        partition: Partition,
    ) {
        let shares: Vec<Vec<Edge>> = (0..nranks).map(&share).collect();
        let mut keepable: FastMap<(u64, u64), Vec<u32>> = FastMap::default();
        for share in &shares {
            let mut seen = std::collections::HashSet::new();
            for &(u, v, m) in share {
                if seen.insert((u.min(v), u.max(v))) {
                    keepable.entry((u.min(v), u.max(v))).or_default().push(m);
                }
            }
        }
        let all: Vec<Edge> = shares.concat();
        let shards = World::new(nranks).run(|comm| {
            let g = build_dist_graph(comm, share(comm.rank()), vm, partition);
            g.shard().vertices().map(record).collect::<Vec<_>>()
        });
        let mut got: Vec<Record> = Vec::new();
        for (rank, shard) in shards.into_iter().enumerate() {
            assert!(
                shard.windows(2).all(|w| w[0].0 < w[1].0),
                "shard in id order"
            );
            for rec in &shard {
                assert_eq!(partition.owner(rec.0, nranks), rank, "owner of {}", rec.0);
            }
            got.extend(shard);
        }
        got.sort_by_key(|rec| rec.0);
        let want = serial_dodgr(&all);
        assert_eq!(got.len(), want.len(), "vertex count");
        for (g, w) in got.iter().zip(&want) {
            // Metadata the build may keep reads as the reference's.
            let mut g = g.clone();
            for (e, f) in g.3.iter_mut().zip(&w.3) {
                if keepable[&(g.0.min(e.0), g.0.max(e.0))].contains(&e.2) {
                    e.2 = f.2;
                }
            }
            assert_eq!(&g, w, "{nranks} ranks, {partition:?}");
        }
    }

    /// The input strided over the ranks, the way the drivers load it.
    fn check_against_serial(edges: &[Edge], nranks: usize, partition: Partition) {
        let list = EdgeList::from_vec(edges.to_vec());
        check_shares(|rank| list.stride_for_rank(rank, nranks), nranks, partition);
    }

    #[test]
    fn matches_serial_across_ranks_and_partitions() {
        let circulant: Vec<(u64, u64)> = (0..60u64)
            .flat_map(|i| [(i, (i + 7) % 60), (i, (i + 13) % 60), ((i * i) % 60, i)])
            .collect();
        let cases: [&[(u64, u64)]; 4] = [
            &[(0, 1), (1, 2), (2, 0)],
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
            // Duplicates in both directions and self-loops collapse.
            &[(0, 1), (1, 0), (0, 1), (1, 1), (2, 2), (1, 2)],
            &circulant,
        ];
        for pairs in cases {
            for nranks in [1, 2, 3, 4, 7] {
                for partition in [Partition::Hashed, Partition::Cyclic] {
                    check_against_serial(&with_meta(pairs), nranks, partition);
                }
            }
        }
    }

    #[test]
    fn chunk_boundaries() {
        // A star whose hub is even and whose leaves are odd, all of it
        // read by rank 0: under the cyclic partition of 2 ranks that is
        // `n` scatter records from one sender to each destination and
        // `n` degree announcements from rank 1 to rank 0.
        for n in [EXCHANGE_CHUNK - 1, EXCHANGE_CHUNK, EXCHANGE_CHUNK + 1] {
            let star: Vec<(u64, u64)> = (0..n as u64).map(|i| (0, 2 * i + 1)).collect();
            let star = with_meta(&star);
            let share = |rank| if rank == 0 { star.clone() } else { Vec::new() };
            check_shares(share, 2, Partition::Cyclic);
        }
    }

    #[test]
    fn first_duplicate_supplies_the_metadata() {
        // On one rank arrival order is input order; `ingest` relies on
        // the earlier record of an edge winning, whichever way it points.
        let edges = [(1, 2, 10), (2, 1, 20), (2, 3, 30), (1, 2, 40), (3, 2, 50)];
        check_against_serial(&edges, 1, Partition::Hashed);
        let kept: Vec<u32> = serial_dodgr(&edges)
            .iter()
            .flat_map(|rec| rec.3.iter().map(|e| e.2))
            .collect();
        assert_eq!(kept, [10, 30]);
    }

    #[test]
    fn build_traffic_is_chunked() {
        // Each round ships at most one partial chunk per (sender,
        // destination) pair on top of its full ones, and no round moves
        // more than the 2E scatter records.
        const EDGES: u64 = 10_000;
        let nranks = 2;
        let pairs: Vec<(u64, u64)> = (0..EDGES)
            .map(|i| (i % 2_000, (i * 7 + i / 2_000 + 1) % 2_000))
            .collect();
        let list = EdgeList::from_vec(with_meta(&pairs));
        let records: u64 = World::new(nranks)
            .run(|comm| {
                let before = comm.stats();
                build_dist_graph(
                    comm,
                    list.stride_for_rank(comm.rank(), nranks),
                    vm,
                    Partition::Hashed,
                );
                comm.stats().delta(&before).records_total()
            })
            .into_iter()
            .sum();
        let bound = 2 * (2 * EDGES / EXCHANGE_CHUNK as u64 + (nranks * nranks) as u64);
        assert!(
            records <= bound,
            "{records} build records, expected <= {bound}"
        );
    }

    #[test]
    fn views_share_one_list() {
        let pairs: Vec<(u64, u64)> = (0..20u64).map(|i| (i, (i + 3) % 20)).collect();
        let all = World::new(1)
            .run(|comm| build_dist_graph(comm, with_meta(&pairs), vm, Partition::Hashed))
            .pop()
            .unwrap();
        let all = Arc::new(Arc::into_inner(all.into_shard()).unwrap().into_vertices());
        let odd: Vec<u32> = (0..all.len() as u32).filter(|i| i % 2 == 1).collect();
        let view = LocalShard::view(all.clone(), odd.clone());
        assert_eq!(view.len(), odd.len());
        for (slot, lv) in view.vertices().enumerate() {
            assert!(std::ptr::eq(lv, &all[odd[slot] as usize]), "no copy");
            assert!(std::ptr::eq(lv, view.vertex(slot)));
            assert_eq!(view.slot_of(lv.id), Some(slot));
            assert!(std::ptr::eq(lv, view.get(lv.id).unwrap()));
        }
        assert!(view.get(all[0].id).is_none(), "index 0 is another rank's");
        let taken: Vec<Record> = view.into_vertices().iter().map(record).collect();
        let want: Vec<Record> = odd.iter().map(|&i| record(&all[i as usize])).collect();
        assert_eq!(taken, want);
    }

    #[test]
    fn star_graph_hub_has_no_out_edges() {
        // Star: hub 0 has the max degree, so every edge points *at* it.
        let edges: Vec<(u64, u64)> = (1..=6).map(|v| (0u64, v)).collect();
        let out = World::new(3).run(|comm| {
            let list =
                EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let stats = g.global_stats(comm);
            let hub_dplus = g.shard().get(0).map(|v| v.dplus());
            (stats, hub_dplus)
        });
        let (stats, _) = out[0];
        assert_eq!(stats.vertices, 7);
        assert_eq!(stats.directed_edges, 12);
        assert_eq!(stats.dodgr_edges, 6);
        assert_eq!(stats.max_degree, 6);
        // DODGr sends all 6 edges into the hub; leaves have d+ = 1.
        assert_eq!(stats.max_out_degree, 1);
        assert_eq!(stats.wedges, 0);
        for (stats_r, hub) in out {
            assert_eq!(stats_r, stats, "stats agree on all ranks");
            if let Some(d) = hub {
                assert_eq!(d, 0, "hub has no out-edges");
            }
        }
    }

    #[test]
    fn build_is_two_rounds() {
        // Scatter, then degree exchange: one barrier each, whatever the
        // world size.
        let pairs: Vec<(u64, u64)> = (0..40u64).map(|i| (i, (i * 7 + 3) % 40)).collect();
        let list = EdgeList::from_vec(with_meta(&pairs));
        for nranks in [1, 2, 4] {
            let barriers = World::new(nranks).run(|comm| {
                let before = comm.stats();
                let local = list.stride_for_rank(comm.rank(), nranks);
                build_dist_graph(comm, local, vm, Partition::Hashed);
                comm.stats().delta(&before).barriers
            });
            assert_eq!(barriers, vec![2; nranks], "{nranks} ranks");
        }
    }

    #[test]
    fn adjacency_sorted_by_order_key() {
        let edges: Vec<(u64, u64)> = (0..30u64)
            .flat_map(|i| [(i, (i + 7) % 30), (i, (i + 13) % 30)])
            .collect();
        World::new(3).run(|comm| {
            let list =
                EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            for lv in g.shard().vertices() {
                assert!(lv.adj.windows(2).all(|w| w[0].key < w[1].key));
                for e in &lv.adj {
                    assert!(lv.key < e.key, "out-edge must increase in <+");
                }
            }
        });
    }

    #[test]
    fn edge_metadata_preserved() {
        let out = World::new(2).run(|comm| {
            let edges = [(1u64, 2u64, "a".to_string()), (2, 3, "b".to_string())];
            let local: Vec<_> = edges
                .iter()
                .skip(comm.rank())
                .step_by(comm.nranks())
                .cloned()
                .collect();
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let mut found: Vec<(u64, u64, String)> = Vec::new();
            for lv in g.shard().vertices() {
                for e in &lv.adj {
                    found.push((lv.id, e.v, e.em.clone()));
                }
            }
            found
        });
        let mut all: Vec<(u64, u64, String)> = out.into_iter().flatten().collect();
        all.sort();
        // One DODGr edge per undirected edge, metadata intact (direction
        // depends on the degree order; normalize endpoints).
        let normalized: Vec<(u64, u64, String)> = all
            .into_iter()
            .map(|(u, v, m)| (u.min(v), u.max(v), m))
            .collect();
        assert_eq!(
            normalized,
            vec![(1, 2, "a".to_string()), (2, 3, "b".to_string())]
        );
    }

    #[test]
    fn wedge_count_matches_formula() {
        // Complete graph K5: every vertex pair adjacent. |W+| must equal
        // sum over vertices of C(d+, 2) and the DODGr of K_n has
        // out-degrees 0..n-1 in some order → |W+| = Σ C(k,2) = C(n,3) · 3 / ...
        // For K5: out-degrees are {4,3,2,1,0} ⇒ Σ C(k,2) = 6+3+1+0+0 = 10.
        let mut edges = Vec::new();
        for u in 0..5u64 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let out = World::new(2).run(|comm| {
            let list =
                EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            g.global_stats(comm).wedges
        });
        assert_eq!(out, vec![10, 10]);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Ids that differ only in the top byte and arrive in one
        /// bucket, so that a bucket's sort must order rows by that
        /// byte.
        fn top_byte_ids() -> Vec<u64> {
            let mut by_bucket: std::collections::BTreeMap<usize, Vec<u64>> = Default::default();
            for k in 0..=255u64 {
                let id = k << 56 | 0x00ab_cdef;
                by_bucket.entry(bucket_of(id)).or_default().push(id);
            }
            let ids = by_bucket.into_values().max_by_key(Vec::len).unwrap();
            assert!(ids.len() >= 3, "{ids:?}");
            ids
        }

        /// Vertex ids that reach every radix digit of a `(u, v)` key and
        /// both ends of the id space: small ids, ids at and above
        /// `2^32`, [`top_byte_ids`], and `u64::MAX`.
        fn wide_id(pick: u8, top: &[u64]) -> u64 {
            match pick % 12 {
                p @ 0..=3 => u64::from(p),
                p @ 4..=6 => (1 << 32) + u64::from(p),
                p @ 7..=9 => top[usize::from(p - 7)],
                10 => u64::MAX - 1,
                _ => u64::MAX,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Wide ids at every rank count and partition, with
            /// duplicates whose metadata differs: within a rank's one
            /// chunk the first record must win (exactly so on one
            /// rank), and across ranks one rank's first.
            #[test]
            fn wide_ids_and_first_arrivals_match_serial(
                edges in proptest::collection::vec((0u8..12, 0u8..12, 0u32..1000), 1..80),
            ) {
                let top = top_byte_ids();
                let edges: Vec<Edge> = edges
                    .iter()
                    .map(|&(u, v, m)| (wide_id(u, &top), wide_id(v, &top), m))
                    .collect();
                for nranks in 1..=4 {
                    for partition in [Partition::Hashed, Partition::Cyclic] {
                        check_against_serial(&edges, nranks, partition);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn distributed_matches_serial(
                edges in proptest::collection::vec((0u64..40, 0u64..40), 1..120),
                nranks in 1usize..5,
            ) {
                check_against_serial(&with_meta(&edges), nranks, Partition::Hashed);
            }
        }
    }
}
