//! Versioned binary snapshots of DODGr storage.
//!
//! A snapshot captures everything needed to reconstitute resident graph
//! storage in O(read) time — no re-ingest, no symmetrization, no
//! degree exchange round. The layout reuses the varint wire machinery
//! of `tripoll-ygm`:
//!
//! ```text
//! magic[8] = "TPLSNAP\0"
//! varint   schema version          (currently 2)
//! u8       partition tag           (0 = Cyclic, 1 = Hashed)
//! varint   section count
//! varint   total vertex count      (cross-checked after decode)
//! repeated section:
//!   varint   body length in bytes  (bounds-checked before reading)
//!   body:
//!     varint   vertex count
//!     repeated vertex:
//!       varint  id
//!       varint  undirected degree d(u)     (rebuilds the <+ key)
//!       VM      vertex metadata
//!       varint  out-degree d+(u)
//!       repeated adjacency entry:
//!         varint  target id v
//!         varint  target degree d(v)       (rebuilds the target key)
//!         EM      edge metadata
//!         VM      target vertex metadata
//! ```
//!
//! Version 1 also stored each target's out-degree `d+(v)`, which no
//! reader used; it is refused as [`SnapshotError::UnsupportedVersion`].
//!
//! Order keys are *not* stored: `OrderKey::new(v, degree)` is a pure
//! function of `(id, degree)`, so they are rebuilt on load and then
//! *validated* — each adjacency must be strictly increasing in `<+` and
//! strictly above its source vertex. A target's degree is stored twice,
//! in its own record and in every entry that points at it, so the
//! loader also checks that every entry's target has a record, that the
//! entry's key equals the record's, and that every record's degree is
//! its out-degree plus the entries that point at it — one hash probe
//! per entry. A target's metadata is stored twice as well, and the
//! loader checks that each entry's copy encodes to the bytes its
//! target's record encodes to: `VM` has no equality bound, but equal
//! values encode alike.
//!
//! Every other defect is structural: truncation, oversized section
//! claims, unknown versions, duplicate vertices, order violations and
//! the cross-record checks above all surface as structured
//! [`SnapshotError`]s, and no input can panic the loader.

use std::fmt;
use std::path::Path;

use tripoll_ygm::hash::FastMap;
use tripoll_ygm::wire::{put_varint, Wire, WireError, WireReader};

use crate::dodgr::{AdjEntry, LocalVertex};
use crate::order::OrderKey;
use crate::partition::Partition;

/// Leading magic bytes of every TriPoll snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TPLSNAP\0";

/// Schema version written by this build.
pub const SNAPSHOT_VERSION: u64 = 2;

/// A structural defect in snapshot bytes.
#[derive(Debug)]
pub enum SnapshotError {
    /// The first eight bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The header declares a schema version this build cannot read.
    UnsupportedVersion(u64),
    /// The partition tag byte is not a known [`Partition`].
    BadPartitionTag(u8),
    /// A section header claims more body bytes than remain in the input.
    SectionOverrun {
        /// Bytes the section header claimed.
        claimed: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A varint/metadata decode failed (truncation, overflow, bad value).
    Wire(WireError),
    /// Bytes remain after the structure was fully decoded — either
    /// trailing garbage after the last section or slack inside one.
    TrailingBytes,
    /// The decoded vertex count disagrees with the header.
    VertexCountMismatch {
        /// Count the header declared.
        expected: u64,
        /// Count actually decoded.
        actual: u64,
    },
    /// The same vertex id appears twice.
    DuplicateVertex {
        /// The repeated id.
        vertex: u64,
    },
    /// An adjacency list is not strictly increasing in `<+`, or an
    /// entry does not sort above its source vertex — the DODGr
    /// invariant every survey kernel relies on.
    AdjacencyOrder {
        /// The vertex whose adjacency is malformed.
        vertex: u64,
    },
    /// An adjacency entry names a vertex with no record.
    DanglingTarget {
        /// The vertex whose adjacency holds the entry.
        vertex: u64,
        /// The entry's target.
        target: u64,
    },
    /// An adjacency entry stores a degree for its target that differs
    /// from the target's own record.
    TargetKeyMismatch {
        /// The vertex whose adjacency holds the entry.
        vertex: u64,
        /// The entry's target.
        target: u64,
    },
    /// An adjacency entry stores metadata for its target that encodes
    /// differently from the target's own record.
    TargetMetaMismatch {
        /// The vertex whose adjacency holds the entry.
        vertex: u64,
        /// The entry's target.
        target: u64,
    },
    /// A record's degree is not its out-degree plus the entries that
    /// point at it.
    DegreeMismatch {
        /// The vertex whose record is wrong.
        vertex: u64,
        /// The degree its record stores.
        stored: u64,
        /// Its out-degree plus the entries that point at it.
        counted: u64,
    },
    /// Underlying file I/O failure (save/load wrappers only).
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a TriPoll snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot schema version {v}")
            }
            SnapshotError::BadPartitionTag(t) => write!(f, "unknown partition tag {t}"),
            SnapshotError::SectionOverrun { claimed, remaining } => write!(
                f,
                "section claims {claimed} bytes but only {remaining} remain"
            ),
            SnapshotError::Wire(e) => write!(f, "snapshot decode error: {e:?}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            SnapshotError::VertexCountMismatch { expected, actual } => write!(
                f,
                "header declares {expected} vertices but sections hold {actual}"
            ),
            SnapshotError::DuplicateVertex { vertex } => {
                write!(f, "vertex {vertex} appears in more than one section")
            }
            SnapshotError::AdjacencyOrder { vertex } => {
                write!(f, "adjacency of vertex {vertex} violates the <+ order")
            }
            SnapshotError::DanglingTarget { vertex, target } => write!(
                f,
                "adjacency of vertex {vertex} names vertex {target}, which has no record"
            ),
            SnapshotError::TargetKeyMismatch { vertex, target } => write!(
                f,
                "adjacency of vertex {vertex} stores a degree for vertex {target} that its record \
                 does not"
            ),
            SnapshotError::TargetMetaMismatch { vertex, target } => write!(
                f,
                "adjacency of vertex {vertex} stores metadata for vertex {target} that its record \
                 does not"
            ),
            SnapshotError::DegreeMismatch {
                vertex,
                stored,
                counted,
            } => write!(
                f,
                "vertex {vertex} stores degree {stored} but has {counted} incident entries"
            ),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn partition_tag(p: Partition) -> u8 {
    match p {
        Partition::Cyclic => 0,
        Partition::Hashed => 1,
    }
}

fn partition_from_tag(t: u8) -> Result<Partition, SnapshotError> {
    match t {
        0 => Ok(Partition::Cyclic),
        1 => Ok(Partition::Hashed),
        other => Err(SnapshotError::BadPartitionTag(other)),
    }
}

/// Encodes DODGr storage into snapshot bytes. Vertices are grouped into
/// `nsections` sections by `partition.owner(id, nsections)`, so a
/// loader that keeps the same rank count can stream exactly the
/// sections it owns; any other rank count re-shards after decode.
pub fn encode_snapshot<VM: Wire, EM: Wire>(
    vertices: &[LocalVertex<VM, EM>],
    partition: Partition,
    nsections: usize,
) -> Vec<u8> {
    let nsections = nsections.max(1);
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_varint(&mut out, SNAPSHOT_VERSION);
    out.push(partition_tag(partition));
    put_varint(&mut out, nsections as u64);
    put_varint(&mut out, vertices.len() as u64);

    let mut body = Vec::new();
    for section in 0..nsections {
        body.clear();
        let mine = vertices
            .iter()
            .filter(|v| partition.owner(v.id, nsections) == section);
        put_varint(&mut body, mine.clone().count() as u64);
        for lv in mine {
            put_varint(&mut body, lv.id);
            put_varint(&mut body, lv.degree());
            lv.meta.encode(&mut body);
            put_varint(&mut body, lv.adj.len() as u64);
            for e in &lv.adj {
                put_varint(&mut body, e.v);
                put_varint(&mut body, e.key.degree);
                e.em.encode(&mut body);
                e.vm.encode(&mut body);
            }
        }
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
    }
    out
}

/// Decodes snapshot bytes back into the global vertex list (sorted by
/// id) and the partition it was built with. Every defect a hostile or
/// truncated input can exhibit returns a structured error.
pub fn decode_snapshot<VM: Wire, EM: Wire>(
    bytes: &[u8],
) -> Result<(Vec<LocalVertex<VM, EM>>, Partition), SnapshotError> {
    let mut r = WireReader::new(bytes);
    let magic = r.take(SNAPSHOT_MAGIC.len()).map_err(SnapshotError::Wire)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.take_varint()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let partition = partition_from_tag(r.take_u8()?)?;
    let nsections = r.take_varint()?;
    let total = r.take_varint()?;

    let mut vertices: Vec<LocalVertex<VM, EM>> = Vec::new();
    for _ in 0..nsections {
        let claimed = r.take_varint()?;
        if claimed as usize > r.remaining() {
            return Err(SnapshotError::SectionOverrun {
                claimed,
                remaining: r.remaining(),
            });
        }
        let body = r.take(claimed as usize).map_err(SnapshotError::Wire)?;
        let mut s = WireReader::new(body);
        let nverts = s.take_varint()?;
        for _ in 0..nverts {
            let id = s.take_varint()?;
            let degree = s.take_varint()?;
            let meta = VM::decode(&mut s)?;
            let key = OrderKey::new(id, degree);
            let dplus = s.take_varint()?;
            // An entry is at least two varints, so a `d+` the section's
            // bytes cannot hold reserves no more than they could.
            let cap = dplus.min(s.remaining() as u64 / 2) as usize;
            let mut adj: Vec<AdjEntry<VM, EM>> = Vec::with_capacity(cap);
            let mut prev = key;
            for _ in 0..dplus {
                let v = s.take_varint()?;
                let deg_v = s.take_varint()?;
                let em = EM::decode(&mut s)?;
                let vm = VM::decode(&mut s)?;
                let kv = OrderKey::new(v, deg_v);
                if kv <= prev {
                    return Err(SnapshotError::AdjacencyOrder { vertex: id });
                }
                prev = kv;
                adj.push(AdjEntry { v, key: kv, em, vm });
            }
            vertices.push(LocalVertex { id, key, meta, adj });
        }
        if !s.is_empty() {
            return Err(SnapshotError::TrailingBytes);
        }
    }
    if !r.is_empty() {
        return Err(SnapshotError::TrailingBytes);
    }
    if vertices.len() as u64 != total {
        return Err(SnapshotError::VertexCountMismatch {
            expected: total,
            actual: vertices.len() as u64,
        });
    }
    vertices.sort_by_key(|v| v.id);
    if let Some(w) = vertices.windows(2).find(|w| w[0].id == w[1].id) {
        return Err(SnapshotError::DuplicateVertex { vertex: w[0].id });
    }
    check_entries(&vertices)?;
    Ok((vertices, partition))
}

/// Checks the duplicate-free `vertices` against themselves: every
/// entry's target has a record whose key is the entry's and whose
/// metadata encodes to the entry's bytes, and every record's degree is
/// its out-degree plus the entries that point at it. One hash probe and
/// one metadata encode per entry.
fn check_entries<VM: Wire, EM>(vertices: &[LocalVertex<VM, EM>]) -> Result<(), SnapshotError> {
    // Every record's metadata, encoded once, end to end.
    let mut metas = Vec::new();
    // id → (stored degree, the part of it no entry has accounted for
    // yet, the record's metadata bytes in `metas`). The arithmetic
    // wraps: `left` is `stored - counted` modulo 2^64, and `counted`,
    // at most the number of entries, fits.
    let mut open: FastMap<u64, (u64, u64, std::ops::Range<usize>)> = vertices
        .iter()
        .map(|lv| {
            let start = metas.len();
            lv.meta.encode(&mut metas);
            let left = lv.degree().wrapping_sub(lv.dplus());
            (lv.id, (lv.degree(), left, start..metas.len()))
        })
        .collect();
    let mut vm = Vec::new();
    for lv in vertices {
        for e in &lv.adj {
            let (vertex, target) = (lv.id, e.v);
            let Some((stored, left, meta)) = open.get_mut(&target) else {
                return Err(SnapshotError::DanglingTarget { vertex, target });
            };
            // Both keys are `OrderKey::new(target, _)`: they are equal
            // exactly when the degrees are.
            if e.key.degree != *stored {
                return Err(SnapshotError::TargetKeyMismatch { vertex, target });
            }
            vm.clear();
            e.vm.encode(&mut vm);
            if vm != metas[meta.clone()] {
                return Err(SnapshotError::TargetMetaMismatch { vertex, target });
            }
            *left = left.wrapping_sub(1);
        }
    }
    match open.iter().find(|(_, (_, left, _))| *left != 0) {
        Some((&vertex, &(stored, left, _))) => Err(SnapshotError::DegreeMismatch {
            vertex,
            stored,
            counted: stored.wrapping_sub(left),
        }),
        None => Ok(()),
    }
}

/// Writes a snapshot to a file.
pub fn save_snapshot<VM: Wire, EM: Wire, P: AsRef<Path>>(
    path: P,
    vertices: &[LocalVertex<VM, EM>],
    partition: Partition,
    nsections: usize,
) -> Result<(), SnapshotError> {
    std::fs::write(path, encode_snapshot(vertices, partition, nsections))?;
    Ok(())
}

/// Reads a snapshot from a file.
pub fn load_snapshot<VM: Wire, EM: Wire, P: AsRef<Path>>(
    path: P,
) -> Result<(Vec<LocalVertex<VM, EM>>, Partition), SnapshotError> {
    decode_snapshot(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dodgr::build_dist_graph;
    use crate::edge_list::EdgeList;
    use std::sync::Arc;
    use tripoll_ygm::World;

    fn sample_vertices() -> Vec<LocalVertex<u64, u32>> {
        let edges: Vec<(u64, u64, u32)> = (0..24u64)
            .flat_map(|i| {
                [
                    (i, (i + 5) % 24, (i * 10) as u32),
                    (i, (i + 9) % 24, (i * 10 + 1) as u32),
                ]
            })
            .collect();
        let list = EdgeList::from_vec(edges);
        let mut out = World::new(1).run(move |comm| {
            let g = build_dist_graph(comm, list.as_slice().to_vec(), |v| v * 3, Partition::Hashed);
            Arc::into_inner(g.into_shard()).unwrap().into_vertices()
        });
        out.pop().unwrap()
    }

    fn assert_same(a: &[LocalVertex<u64, u32>], b: &[LocalVertex<u64, u32>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.key, y.key);
            assert_eq!(x.meta, y.meta);
            assert_eq!(x.adj.len(), y.adj.len());
            for (p, q) in x.adj.iter().zip(&y.adj) {
                assert_eq!((p.v, p.key, p.em, p.vm), (q.v, q.key, q.em, q.vm));
            }
        }
    }

    #[test]
    fn roundtrip_all_section_counts() {
        let verts = sample_vertices();
        for nsections in [1, 2, 4, 7] {
            let bytes = encode_snapshot(&verts, Partition::Hashed, nsections);
            let (back, part) = decode_snapshot::<u64, u32>(&bytes).unwrap();
            assert_eq!(part, Partition::Hashed);
            assert_same(&verts, &back);
        }
    }

    #[test]
    fn partition_tag_roundtrips() {
        let verts = sample_vertices();
        let bytes = encode_snapshot(&verts, Partition::Cyclic, 3);
        let (_, part) = decode_snapshot::<u64, u32>(&bytes).unwrap();
        assert_eq!(part, Partition::Cyclic);
    }

    #[test]
    fn every_strict_prefix_errors_never_panics() {
        let verts = sample_vertices();
        let bytes = encode_snapshot(&verts, Partition::Hashed, 3);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot::<u64, u32>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn wrong_magic_and_future_version() {
        let verts = sample_vertices();
        let mut bytes = encode_snapshot(&verts, Partition::Hashed, 2);
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot::<u64, u32>(&wrong),
            Err(SnapshotError::BadMagic)
        ));
        // The version byte follows the 8-byte magic: a future version
        // and the retired version 1 are both refused.
        for version in [9, 1] {
            bytes[8] = version;
            assert!(matches!(
                decode_snapshot::<u64, u32>(&bytes),
                Err(SnapshotError::UnsupportedVersion(v)) if v == u64::from(version)
            ));
        }
    }

    #[test]
    fn section_overrun_is_structured() {
        let verts = sample_vertices();
        let bytes = encode_snapshot(&verts, Partition::Hashed, 1);
        // First section length varint sits right after the fixed header
        // (magic 8 + version 1 + tag 1 + nsections 1 + total varint).
        let mut r = WireReader::new(&bytes[8..]);
        r.take_varint().unwrap();
        r.take_u8().unwrap();
        r.take_varint().unwrap();
        r.take_varint().unwrap();
        let len_at = 8 + r.position();
        let mut evil = bytes[..len_at].to_vec();
        put_varint(&mut evil, u64::MAX / 2);
        evil.extend_from_slice(&bytes[len_at..]);
        match decode_snapshot::<u64, u32>(&evil) {
            Err(SnapshotError::SectionOverrun { .. }) => {}
            other => panic!("expected SectionOverrun, got {other:?}"),
        }
    }

    /// One record whose `d+` claims `u64::MAX / 4` entries, followed by
    /// the first two varints of one entry: decode runs out of bytes
    /// and reports it, with no reservation sized by the claim.
    #[test]
    fn huge_out_degree_claim_is_structured() {
        let mut body = Vec::new();
        put_varint(&mut body, 1); // nverts
        put_varint(&mut body, 0); // id
        put_varint(&mut body, 1); // degree
        7u64.encode(&mut body); // meta
        put_varint(&mut body, u64::MAX / 4); // d+
        put_varint(&mut body, 1); // target
        put_varint(&mut body, 1); // target degree
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        put_varint(&mut bytes, SNAPSHOT_VERSION);
        bytes.push(partition_tag(Partition::Hashed));
        put_varint(&mut bytes, 1); // nsections
        put_varint(&mut bytes, 1); // total
        put_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&body);
        match decode_snapshot::<u64, u32>(&bytes) {
            Err(SnapshotError::Wire(_)) => {}
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let verts = sample_vertices();
        let mut bytes = encode_snapshot(&verts, Partition::Hashed, 2);
        bytes.push(0);
        assert!(matches!(
            decode_snapshot::<u64, u32>(&bytes),
            Err(SnapshotError::TrailingBytes)
        ));
    }

    /// The triangle `{0, 1, 2}`: every degree is 2, the `<+`-least
    /// vertex holds both other vertices, the middle one holds the top.
    fn triangle_vertices() -> Vec<LocalVertex<u64, u32>> {
        let list = EdgeList::from_vec(vec![(0u64, 1u64, 1u32), (1, 2, 2), (2, 0, 3)]);
        let mut out = World::new(1).run(move |comm| {
            let g = build_dist_graph(comm, list.as_slice().to_vec(), |v| v, Partition::Hashed);
            Arc::into_inner(g.into_shard()).unwrap().into_vertices()
        });
        let verts = out.pop().unwrap();
        let dplus: Vec<usize> = verts.iter().map(|lv| lv.adj.len()).collect();
        assert_eq!(dplus.iter().sum::<usize>(), 3);
        assert!(dplus.contains(&2) && dplus.contains(&0));
        verts
    }

    /// Encodes `verts` after `tamper` and decodes the bytes.
    fn decode_tampered(
        tamper: impl FnOnce(&mut Vec<LocalVertex<u64, u32>>),
    ) -> Result<(Vec<LocalVertex<u64, u32>>, Partition), SnapshotError> {
        let mut verts = triangle_vertices();
        tamper(&mut verts);
        decode_snapshot::<u64, u32>(&encode_snapshot(&verts, Partition::Hashed, 2))
    }

    /// The apex's last entry, the top vertex, claims degree 3 where the
    /// top vertex's record says 2. The adjacency stays ordered.
    #[test]
    fn entry_degree_disagreeing_with_its_target_is_refused() {
        let mut top = 0;
        let got = decode_tampered(|verts| {
            let apex = verts.iter_mut().find(|lv| lv.adj.len() == 2).unwrap();
            let last = apex.adj.last_mut().unwrap();
            top = last.v;
            last.key = OrderKey::new(last.v, 3);
        });
        match got {
            Err(SnapshotError::TargetKeyMismatch { target, .. }) => assert_eq!(target, top),
            other => panic!("expected TargetKeyMismatch, got {other:?}"),
        }
    }

    /// The apex's last entry stores vertex metadata 1000 for the top
    /// vertex, whose record stores its id. Key and degrees agree.
    #[test]
    fn entry_metadata_disagreeing_with_its_target_is_refused() {
        let mut top = 0;
        let got = decode_tampered(|verts| {
            let apex = verts.iter_mut().find(|lv| lv.adj.len() == 2).unwrap();
            let last = apex.adj.last_mut().unwrap();
            top = last.v;
            last.vm += 1000;
        });
        match got {
            Err(SnapshotError::TargetMetaMismatch { target, .. }) => assert_eq!(target, top),
            other => panic!("expected TargetMetaMismatch, got {other:?}"),
        }
    }

    /// The apex's last entry names a vertex no record holds.
    #[test]
    fn entry_without_a_target_record_is_refused() {
        let got = decode_tampered(|verts| {
            let apex = verts.iter_mut().find(|lv| lv.adj.len() == 2).unwrap();
            let last = apex.adj.last_mut().unwrap();
            last.v = 99;
            last.key = OrderKey::new(99, 3);
        });
        match got {
            Err(SnapshotError::DanglingTarget { target: 99, .. }) => {}
            other => panic!("expected DanglingTarget, got {other:?}"),
        }
    }

    /// The top vertex's degree reads 3 in its record and in both
    /// entries that point at it, so every key agrees and the adjacency
    /// stays ordered, but only two entries are incident to it.
    #[test]
    fn record_degree_off_by_one_is_refused() {
        let mut top = 0;
        let got = decode_tampered(|verts| {
            let t = verts.iter_mut().find(|lv| lv.adj.is_empty()).unwrap();
            top = t.id;
            t.key = OrderKey::new(top, 3);
            for e in verts.iter_mut().flat_map(|lv| &mut lv.adj) {
                if e.v == top {
                    e.key = OrderKey::new(top, 3);
                }
            }
        });
        match got {
            Err(SnapshotError::DegreeMismatch {
                vertex,
                stored: 3,
                counted: 2,
            }) => assert_eq!(vertex, top),
            other => panic!("expected DegreeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_storage_roundtrips() {
        let bytes = encode_snapshot::<u64, u32>(&[], Partition::Hashed, 4);
        let (verts, _) = decode_snapshot::<u64, u32>(&bytes).unwrap();
        assert!(verts.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let verts = sample_vertices();
        let dir = std::env::temp_dir().join("tripoll-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tps");
        save_snapshot(&path, &verts, Partition::Hashed, 4).unwrap();
        let (back, part) = load_snapshot::<u64, u32, _>(&path).unwrap();
        assert_eq!(part, Partition::Hashed);
        assert_same(&verts, &back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
