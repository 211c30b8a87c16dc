//! Zero-allocation floors of the wedge-batch hot path, counted exactly.
//!
//! A counting global allocator tallies every heap allocation and
//! reallocation into a thread-local counter, so the tests of this binary
//! may run in parallel without seeing each other's allocations. The
//! workload is a stream of 4 096 wedge batches of 64 hub-scale
//! candidates each: ids spread by hash (multi-byte varints, as
//! scrambled R-MAT ids are) and degrees in the thousands (two-byte
//! varints raw, one-byte deltas in the columnar degree column).
//!
//! After one warm-up pass the steady state allocates nothing: encoding
//! each apex's candidate columns once into a reused [`ColSuffixes`] and
//! copying the batch's frame out of it into a [`SendBuffer`] that
//! restarts from a [`BufferPool`], capturing each frame with
//! [`ColCursor::begin`], decoding its key columns into a reused flat
//! [`OrderKey`] column, intersecting them under [`IntersectKernel::Auto`]
//! through the index form, and decoding the metadata of every match
//! with `ColMetas::get`. The frame's exact byte
//! count is pinned too.
//!
//! Receiving through a [`FrameDecoder`] allocates nothing either: each
//! apex ships the nested suffixes of the hub list, interleaved with
//! frames of another list, and the decoder serves a nested suffix from
//! the last frame it decoded, under `Auto`, with the metadata of every
//! match decoded.
//!
//! The pull side allocates nothing either: deliveries of assorted
//! lengths are captured once with [`ColCursor::begin`], decoded by
//! [`decode_key_column`] into one reused key column, their meta columns
//! walked once into one reused offset column, indexed by one reused
//! [`KeyIndex`], and probed by every resume suffix, decoding the
//! metadata of every match at its offset.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tripoll::core::{
    decode_key_column, intersect_indices, FrameDecoder, IntersectKernel, KeyIndex,
};
use tripoll::graph::OrderKey;
use tripoll::ygm::buffer::{BufferPool, SendBuffer};
use tripoll::ygm::hash::hash64;
use tripoll::ygm::wire::{ColCursor, ColSuffixes, Wire, WireEncode, WireReader};

/// Delegates to [`System`], counting allocations on the calling thread.
struct CountingAlloc;

thread_local! {
    /// Allocations and reallocations made by this thread. `const`
    /// initialised and free of drop glue, so the allocator may touch it
    /// at any point of a thread's life without allocating itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// each `GlobalAlloc` contract the caller upholds is upheld for `System`;
// the counter bump touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded to `System.alloc` verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, and
    // is returned to it with the caller's `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: all arguments are forwarded to `System.realloc` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the allocations this thread made inside it.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const BATCHES: usize = 4096;
const CANDIDATES: usize = 64;
/// Stand-in for the communicator's flush threshold.
const FLUSH_BYTES: usize = 1 << 20;
/// Bytes of the 4 096-batch frame stream: 11.812 per candidate.
const STREAM_BYTES: usize = 3_096_321;

/// One stored adjacency entry: target id, degree, edge metadata.
struct Entry {
    v: u64,
    degree: u64,
    em: u64,
}

/// The 64 candidates every wedge batch carries, in `<+` order.
fn hub_adjacency() -> Vec<Entry> {
    (0..CANDIDATES as u64)
        .map(|i| Entry {
            v: hash64(i),
            degree: 4096 + i * 3,
            em: i % 7,
        })
        .collect()
}

/// Encodes wedge batch `b`, `(p, q, meta_p, meta_pq, candidates)`, as
/// the production sender does: the apex's candidate columns are encoded
/// once into `cols`, reused across apexes, and the batch's frame is
/// copied out of that encoding. Each batch here is its own apex and
/// ships the whole list.
fn encode_batch(b: usize, adj: &[Entry], cols: &mut ColSuffixes, out: &mut Vec<u8>) {
    cols.fill(adj, |e| e.v, |e| e.degree, |e, out| e.em.encode(out));
    (b as u64, b as u64 + 1, &42u64, &7u64, cols.suffix(0)).encode_wire(out);
}

/// The payload of one envelope carrying every batch, handler ids excluded.
fn push_stream(adj: &[Entry]) -> Vec<u8> {
    let mut cols = ColSuffixes::new();
    let mut out = Vec::new();
    for b in 0..BATCHES {
        encode_batch(b, adj, &mut cols, &mut out);
    }
    out
}

/// Pushes every batch as a record into `buf`, flushing into `pool` at
/// the threshold; returns the record bytes written.
fn push_batches(
    adj: &[Entry],
    cols: &mut ColSuffixes,
    buf: &mut SendBuffer,
    pool: &mut BufferPool,
) -> usize {
    let mut total = 0;
    for b in 0..BATCHES {
        total += buf.push_record_with(3, |out| encode_batch(b, adj, cols, out));
        if buf.len() > FLUSH_BYTES {
            let data = buf.drain_pooled(pool);
            pool.put(data);
        }
    }
    total
}

/// The receiver's stored adjacency: every other candidate of the hub
/// batch, each candidate followed by a near-miss key, in `<+` order.
fn stored_adjacency() -> Vec<(u64, OrderKey)> {
    let mut out = Vec::new();
    for e in hub_adjacency() {
        if e.degree % 2 == 0 {
            out.push((e.v, OrderKey::new(e.v, e.degree)));
        }
        out.push((!e.v, OrderKey::new(!e.v, e.degree + 1)));
    }
    out
}

/// How far [`receive`] takes each batch.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Decode the header and capture the frame with `ColCursor::begin`.
    Capture,
    /// Also decode the key columns and intersect them under
    /// `IntersectKernel::Auto`.
    Intersect,
    /// Also decode every match's metadata with `ColMetas::get`.
    MetaOnMatch,
}

/// Walks every batch of `stream` as a receiving rank does, as far as
/// `stage`, decoding key columns into the flat column `cands`; returns
/// a checksum of what it read and the match count.
fn receive(
    stream: &[u8],
    right: &[(u64, OrderKey)],
    stage: Stage,
    cands: &mut Vec<OrderKey>,
) -> (u64, u64) {
    let mut r = WireReader::new(stream);
    let (mut acc, mut matches) = (0u64, 0u64);
    while !r.is_empty() {
        for _ in 0..4 {
            acc = acc.wrapping_add(u64::decode(&mut r).expect("header"));
        }
        let ColCursor { keys, mut metas } = ColCursor::<u64>::begin(&mut r).expect("frame");
        if let Stage::Capture = stage {
            continue;
        }
        cands.clear();
        for k in keys {
            let k = k.expect("key columns");
            cands.push(OrderKey::new(k.v, k.degree));
        }
        intersect_indices(
            IntersectKernel::Auto,
            cands,
            right,
            |&k| k,
            |e| e.1,
            |i, j| {
                acc = acc.wrapping_add(right[j].0);
                matches += 1;
                if let Stage::MetaOnMatch = stage {
                    acc = acc.wrapping_add(metas.get(i).expect("meta"));
                }
            },
        );
    }
    (acc, matches)
}

#[test]
fn hub_frame_bytes_are_pinned() {
    assert_eq!(push_stream(&hub_adjacency()).len(), STREAM_BYTES);
}

#[test]
fn steady_state_encode_allocates_nothing() {
    let adj = hub_adjacency();
    let mut cols = ColSuffixes::new();
    let mut buf = SendBuffer::new();
    let mut pool = BufferPool::new(8, FLUSH_BYTES * 4);
    // The warm-up pass grows the buffers the measured pass recycles.
    push_batches(&adj, &mut cols, &mut buf, &mut pool);
    let data = buf.drain_pooled(&mut pool);
    pool.put(data);
    let (allocs, bytes) = allocs_in(|| push_batches(&adj, &mut cols, &mut buf, &mut pool));
    assert_eq!(allocs, 0, "encoding {BATCHES} batches allocated");
    // One handler-id byte per record on top of the frame stream.
    assert_eq!(bytes, STREAM_BYTES + BATCHES);
}

#[test]
fn receive_path_allocates_nothing() {
    let stream = push_stream(&hub_adjacency());
    let right = stored_adjacency();
    for (stage, matches) in [
        (Stage::Capture, 0),
        (Stage::Intersect, BATCHES as u64 * 32),
        (Stage::MetaOnMatch, BATCHES as u64 * 32),
    ] {
        let mut cands = Vec::new();
        let warm = receive(&stream, &right, stage, &mut cands);
        let (allocs, got) = allocs_in(|| receive(&stream, &right, stage, &mut cands));
        assert_eq!(got, warm, "{stage:?} is deterministic");
        assert_eq!(got.1, matches, "{stage:?} matches");
        assert_eq!(allocs, 0, "{stage:?} allocated over {BATCHES} batches");
    }
}

/// Apexes of the nested stream.
const APEXES: usize = 64;
/// Every this many suffixes, the nested stream interleaves a frame
/// that is not a suffix of the hub list.
const INTERLEAVE: usize = 8;

/// Every apex's pushes as the production sender ships them: the hub
/// list's columns are encoded once per apex, and each suffix past its
/// first element is a batch, with a whole frame of a list of other
/// vertices after every [`INTERLEAVE`] of them.
fn nested_stream(adj: &[Entry]) -> Vec<u8> {
    let other: Vec<Entry> = adj
        .iter()
        .map(|e| Entry {
            v: !e.v,
            degree: e.degree,
            em: e.em,
        })
        .collect();
    let (mut cols, mut others) = (ColSuffixes::new(), ColSuffixes::new());
    others.fill(&other, |e| e.v, |e| e.degree, |e, out| e.em.encode(out));
    let mut out = Vec::new();
    for b in 0..APEXES as u64 {
        cols.fill(adj, |e| e.v, |e| e.degree, |e, out| e.em.encode(out));
        for j in 1..adj.len() {
            (b, j as u64, &42u64, &7u64, cols.suffix(j)).encode_wire(&mut out);
            if j % INTERLEAVE == 0 {
                (b, 0u64, &42u64, &7u64, others.suffix(0)).encode_wire(&mut out);
            }
        }
    }
    out
}

/// Walks every batch of `stream` as the production receive handler
/// does: capture the frame, take its key column from `decoder`,
/// intersect under `IntersectKernel::Auto`, decode every match's
/// metadata. Returns [`receive`]'s checksum and match count.
fn receive_nested(
    stream: &[u8],
    right: &[(u64, OrderKey)],
    decoder: &mut FrameDecoder,
) -> (u64, u64) {
    let mut r = WireReader::new(stream);
    let (mut acc, mut matches) = (0u64, 0u64);
    while !r.is_empty() {
        for _ in 0..4 {
            acc = acc.wrapping_add(u64::decode(&mut r).expect("header"));
        }
        let ColCursor { keys, mut metas } = ColCursor::<u64>::begin(&mut r).expect("frame");
        let cands = decoder.decode(keys).expect("key columns");
        intersect_indices(
            IntersectKernel::Auto,
            cands,
            right,
            |&k| k,
            |e| e.1,
            |i, j| {
                acc = acc
                    .wrapping_add(right[j].0)
                    .wrapping_add(metas.get(i).expect("meta"));
                matches += 1;
            },
        );
    }
    (acc, matches)
}

#[test]
fn nested_receive_allocates_nothing() {
    let stream = nested_stream(&hub_adjacency());
    let right = stored_adjacency();
    let fresh = receive(&stream, &right, Stage::MetaOnMatch, &mut Vec::new());
    let mut decoder = FrameDecoder::new();
    let warm = receive_nested(&stream, &right, &mut decoder);
    assert_eq!(warm, fresh, "served frames decode as fresh ones do");
    let (allocs, got) = allocs_in(|| receive_nested(&stream, &right, &mut decoder));
    assert_eq!(got, warm, "receiving is deterministic");
    assert!(got.1 > 0, "the suffixes match");
    assert_eq!(
        allocs, 0,
        "receiving {APEXES} apexes' nested frames allocated"
    );
}

/// Pulled `Adjm+(q)` lengths, one delivery each: short and long, in an
/// order that shrinks the index table as well as growing it.
const PULL_LENGTHS: [usize; 6] = [100, 37, 256, 5, 0, 100];
/// Resume suffixes served by each delivery.
const SUFFIXES: usize = 35;

/// Delivery `j`'s `Adjm+(q)` as `(v, degree, meta(q, r))`, in `<+`
/// order.
fn pulled_list(j: usize) -> Vec<Entry> {
    (0..PULL_LENGTHS[j] as u64)
        .map(|i| Entry {
            v: hash64((j as u64) << 20 | i),
            degree: 4096 + 3 * i,
            em: i % 5,
        })
        .collect()
}

/// The puller's `Adjm+(p)` against delivery `j`: every other pulled
/// key, each pulled key followed by a near miss, in `<+` order. Its
/// suffixes are the resume suffixes.
fn puller_adjacency(j: usize) -> Vec<OrderKey> {
    let mut out = Vec::new();
    for e in pulled_list(j) {
        if e.degree % 2 == 0 {
            out.push(OrderKey::new(e.v, e.degree));
        }
        out.push(OrderKey::new(!e.v, e.degree + 1));
    }
    out
}

/// The pull handler's reused buffers: the decoded key column, the meta
/// column's element offsets and the hash index.
#[derive(Default)]
struct PullBuffers {
    frame_keys: Vec<OrderKey>,
    meta_offsets: Vec<u32>,
    index: KeyIndex,
}

/// Serves every delivery as the production pull handler does: capture
/// the frame, decode its key columns into `frame_keys`, walk its meta
/// column once into `meta_offsets`, index the keys, then probe each
/// resume suffix, decoding `meta(q, r)` of every match at its offset.
/// Returns a checksum and the match count.
fn serve_pulls(
    frames: &[Vec<u8>],
    pullers: &[Vec<OrderKey>],
    bufs: &mut PullBuffers,
) -> (u64, u64) {
    let PullBuffers {
        frame_keys,
        meta_offsets,
        index,
    } = bufs;
    let (mut acc, mut matches) = (0u64, 0u64);
    for (frame, adj) in frames.iter().zip(pullers) {
        let mut r = WireReader::new(frame);
        let ColCursor { keys, metas } = ColCursor::<'_, u64>::begin(&mut r).expect("frame");
        decode_key_column(keys, frame_keys).expect("key columns");
        metas.offsets(meta_offsets).expect("meta column");
        index.build(frame_keys).expect("short frame");
        for start in 0..SUFFIXES.min(adj.len()) {
            index.probe(
                &adj[start..],
                |&k| k,
                |a, i| {
                    acc = acc
                        .wrapping_add(metas.decode_at(meta_offsets[i]).expect("meta"))
                        .wrapping_add(a as u64);
                    matches += 1;
                },
            );
        }
    }
    (acc, matches)
}

#[test]
fn pull_probe_allocates_nothing() {
    let mut cols = ColSuffixes::new();
    let frames: Vec<Vec<u8>> = (0..PULL_LENGTHS.len())
        .map(|j| {
            let list = pulled_list(j);
            cols.fill(&list, |e| e.v, |e| e.degree, |e, out| e.em.encode(out));
            let mut frame = Vec::new();
            cols.suffix(0).encode_wire(&mut frame);
            frame
        })
        .collect();
    let pullers: Vec<Vec<OrderKey>> = (0..PULL_LENGTHS.len()).map(puller_adjacency).collect();
    let mut bufs = PullBuffers::default();
    // The warm-up pass grows the key and offset columns and the table
    // to the longest delivery.
    let warm = serve_pulls(&frames, &pullers, &mut bufs);
    let (allocs, got) = allocs_in(|| serve_pulls(&frames, &pullers, &mut bufs));
    assert_eq!(got, warm, "serving is deterministic");
    assert!(got.1 > 0, "the suffixes match");
    assert_eq!(
        allocs,
        0,
        "serving {} pull deliveries allocated",
        frames.len()
    );
}
