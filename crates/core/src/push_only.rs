//! The Push-Only survey engine (paper §4.3, Alg. 1).
//!
//! The simplest TriPoll algorithm: every vertex `p` walks its
//! `<+`-sorted out-adjacency, and for each out-neighbor `q` pushes the
//! remaining suffix (the candidate `r` vertices) to `Rank(q)`, where a
//! merge-path intersection against `Adjm+(q)` identifies triangles and
//! runs the user callback. One quiescence barrier ends the survey.

use std::rc::Rc;

use tripoll_graph::DistGraph;
use tripoll_ygm::wire::Wire;
use tripoll_ygm::Comm;

use crate::engine::{EngineMode, PhaseTimer, SurveyConfig, SurveyReport};
use crate::meta::SurveyCallback;
use crate::push_common::{push_wedge_batches, register_push_handler};

/// Runs a Push-Only triangle survey; `callback` executes once per
/// triangle on the rank where the metadata is colocated (`Rank(q)`).
///
/// Collective: every rank calls with the same graph and an equivalent
/// callback. Returns this rank's [`SurveyReport`]. Runs the production
/// [`SurveyConfig`]; see [`survey_push_only_with`] to select the
/// configuration explicitly.
pub fn survey_push_only<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    callback: F,
) -> SurveyReport
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    survey_push_only_with(comm, graph, SurveyConfig::default(), callback)
}

/// [`survey_push_only`] with an explicit [`SurveyConfig`] (or a bare
/// [`crate::engine::IntersectKernel`], via `Into`). The kernel is a
/// local compute choice;
/// [`crate::engine::IntersectKernel::MergeScalar`] selects the reference
/// path the differential suites compare against.
pub fn survey_push_only_with<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    config: impl Into<SurveyConfig>,
    callback: F,
) -> SurveyReport
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let config = config.into();
    let handler = register_push_handler(comm, graph, Rc::new(callback), config);

    let timer = PhaseTimer::begin(comm, "push");
    push_wedge_batches(comm, graph, &handler, |_| false);
    comm.barrier();
    let phase = timer.end();

    SurveyReport {
        mode: EngineMode::PushOnly,
        total_seconds: phase.seconds,
        phases: vec![phase],
        pulled_vertices: 0,
        pull_grants: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::TriangleMeta;
    use std::cell::Cell;
    use tripoll_graph::{build_dist_graph, EdgeList, Partition};
    use tripoll_ygm::World;

    fn count_triangles(edges: &[(u64, u64)], nranks: usize) -> u64 {
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        let out = World::new(nranks).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let count = Rc::new(Cell::new(0u64));
            let count2 = count.clone();
            let report = survey_push_only(comm, &g, move |_c, _tm| {
                count2.set(count2.get() + 1);
            });
            assert_eq!(report.mode, EngineMode::PushOnly);
            assert_eq!(report.phases.len(), 1);
            assert_eq!(report.pulled_vertices, 0);
            comm.all_reduce_sum(count.get())
        });
        let first = out[0];
        assert!(out.iter().all(|&c| c == first), "ranks disagree: {out:?}");
        first
    }

    #[test]
    fn triangle() {
        assert_eq!(count_triangles(&[(0, 1), (1, 2), (2, 0)], 2), 1);
    }

    #[test]
    fn k5_various_ranks() {
        let mut edges = Vec::new();
        for u in 0..5u64 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        for nranks in [1, 2, 3, 4] {
            assert_eq!(count_triangles(&edges, nranks), 10, "nranks={nranks}");
        }
    }

    #[test]
    fn triangle_free() {
        assert_eq!(count_triangles(&[(0, 1), (1, 2), (2, 3), (3, 0)], 3), 0);
    }

    #[test]
    fn callback_sees_correct_metadata() {
        // Content-addressed metadata: meta(v) = v*31+7, meta(u,v) = canonical
        // pair encoding. The callback cross-checks every field.
        let edges: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)];
        let em_of = |u: u64, v: u64| (u.min(v) << 20) | u.max(v);
        let list = EdgeList::from_vec(
            edges
                .iter()
                .map(|&(u, v)| (u, v, em_of(u, v)))
                .collect::<Vec<_>>(),
        );
        let out = World::new(3).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |v| v * 31 + 7, Partition::Hashed);
            let seen = Rc::new(Cell::new(0u64));
            let seen2 = seen.clone();
            survey_push_only(comm, &g, move |_c, tm| {
                assert_eq!(*tm.meta_p, tm.p * 31 + 7);
                assert_eq!(*tm.meta_q, tm.q * 31 + 7);
                assert_eq!(*tm.meta_r, tm.r * 31 + 7);
                assert_eq!(*tm.meta_pq, em_of(tm.p, tm.q));
                assert_eq!(*tm.meta_pr, em_of(tm.p, tm.r));
                assert_eq!(*tm.meta_qr, em_of(tm.q, tm.r));
                assert!(tm.p != tm.q && tm.q != tm.r && tm.p != tm.r);
                seen2.set(seen2.get() + 1);
            });
            comm.all_reduce_sum(seen.get())
        });
        // K4 on {0,1,2,3} has 4 triangles.
        assert_eq!(out, vec![4, 4, 4]);
    }

    fn misrouted_push(config: SurveyConfig) {
        use crate::push_common::register_push_handler;
        use tripoll_ygm::wire::ColBatch;
        // A push handler is registered normally, then one wedge batch is
        // deliberately sent to the rank that does NOT own its target:
        // the survey must abort with a structured error naming the
        // sending rank, not a bare unwrap panic.
        let edges = [(0u64, 1u64), (1, 2), (2, 0)];
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let cb = Rc::new(|_c: &Comm, _tm: &TriangleMeta<'_, (), ()>| {});
            let h = register_push_handler(comm, &g, cb, config);
            if comm.rank() == 0 {
                let q = 0u64;
                let wrong = (g.owner(q) + 1) % comm.nranks();
                comm.send(wrong, &h, &(1u64, q, (), (), ColBatch::<()>::default()));
            }
            comm.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "vertex ownership disagrees across ranks")]
    fn misrouted_push_aborts_cleanly_cursor() {
        misrouted_push(SurveyConfig::default());
    }

    #[test]
    #[should_panic(expected = "vertex ownership disagrees across ranks")]
    fn misrouted_push_aborts_cleanly_owned() {
        misrouted_push(SurveyConfig::from(
            crate::engine::IntersectKernel::MergeScalar,
        ));
    }

    /// A pushed frame's key columns are validated whole, not only as
    /// far as the merge walks: a frame with a trailing vertex-column
    /// byte, sent to a `q` whose `Adjm+(q)` is empty, still fails.
    #[test]
    #[should_panic(expected = "columnar byte budget mismatch")]
    fn push_frame_with_trailing_key_bytes_aborts() {
        use crate::push_common::register_push_handler;
        use tripoll_ygm::wire::{put_varint, WireEncode};
        struct Raw(Vec<u8>);
        impl WireEncode for Raw {
            fn encode_wire(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }
        }
        let edges = [(0u64, 1u64), (1, 2), (2, 0)];
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        World::new(1).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let cb = Rc::new(|_c: &Comm, _tm: &TriangleMeta<'_, (), ()>| {
                panic!("callback ran on a corrupt push frame")
            });
            let h = register_push_handler(comm, &g, cb, SurveyConfig::default());
            let q = g
                .shard()
                .vertices()
                .find(|lv| lv.adj.is_empty())
                .expect("the <+-largest vertex has no out-neighbours")
                .id;
            // (p, q, (), (), frame): n = 1, vertex column [5, 7].
            let mut frame = Vec::new();
            for v in [0, q, 1, 2, 5, 7, 1, 3, 0] {
                put_varint(&mut frame, v);
            }
            comm.send_encoded(0, &h, Raw(frame));
            comm.barrier();
        });
    }

    /// A pushed frame whose keys repeat is refused before any key is
    /// intersected, even against an empty `Adjm+(q)`.
    #[test]
    #[should_panic(expected = "frame keys must strictly increase")]
    fn push_frame_with_repeated_key_aborts() {
        use crate::push_common::register_push_handler;
        use tripoll_ygm::wire::{put_varint, WireEncode};
        struct Raw(Vec<u8>);
        impl WireEncode for Raw {
            fn encode_wire(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }
        }
        let edges = [(0u64, 1u64), (1, 2), (2, 0)];
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        World::new(1).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let cb = Rc::new(|_c: &Comm, _tm: &TriangleMeta<'_, (), ()>| {
                panic!("callback ran on a corrupt push frame")
            });
            let h = register_push_handler(comm, &g, cb, SurveyConfig::default());
            let q = g
                .shard()
                .vertices()
                .find(|lv| lv.adj.is_empty())
                .expect("the <+-largest vertex has no out-neighbours")
                .id;
            // (p, q, (), (), frame): n = 2, vertex column [5, 5], degree
            // column [3, +0]: the key (5, 3) twice.
            let mut frame = Vec::new();
            for v in [0, q, 2, 2, 5, 5, 2, 3, 0, 0] {
                put_varint(&mut frame, v);
            }
            comm.send_encoded(0, &h, Raw(frame));
            comm.barrier();
        });
    }

    /// Key columns of `keys`: the vertex column, and the degree column
    /// (the first degree raw, every later one a zigzag delta).
    fn key_columns(keys: &[(u64, u64)]) -> (Vec<u8>, Vec<u8>) {
        use tripoll_ygm::wire::put_varint;
        let (mut vcol, mut dcol) = (Vec::new(), Vec::new());
        let mut prev = 0u64;
        for (i, &(v, d)) in keys.iter().enumerate() {
            put_varint(&mut vcol, v);
            let delta = d.wrapping_sub(prev) as i64;
            let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
            put_varint(&mut dcol, if i == 0 { d } else { zigzag });
            prev = d;
        }
        (vcol, dcol)
    }

    /// Pushes the frame of `whole` to a `q` whose `Adjm+(q)` is empty,
    /// then a frame of the suffix of `whole` from element 1, its vertex
    /// and degree columns passed through `corrupt` first: the second
    /// frame is served from the first frame's key column only if its
    /// bytes are that suffix's.
    fn nested_push(whole: &[(u64, u64); 3], corrupt: fn(&mut Vec<u8>, &mut Vec<u8>)) {
        use crate::push_common::register_push_handler;
        use tripoll_ygm::wire::{put_varint, WireEncode};
        struct Raw(Vec<u8>);
        impl WireEncode for Raw {
            fn encode_wire(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }
        }
        let edges = [(0u64, 1u64), (1, 2), (2, 0)];
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        World::new(1).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let cb = Rc::new(|_c: &Comm, _tm: &TriangleMeta<'_, (), ()>| {
                panic!("callback ran against an empty Adjm+(q)")
            });
            let h = register_push_handler(comm, &g, cb, SurveyConfig::default());
            let q = g
                .shard()
                .vertices()
                .find(|lv| lv.adj.is_empty())
                .expect("the <+-largest vertex has no out-neighbours")
                .id;
            let (whole_v, whole_d) = key_columns(whole);
            let (mut suffix_v, mut suffix_d) = key_columns(&whole[1..]);
            corrupt(&mut suffix_v, &mut suffix_d);
            for (n, vcol, dcol) in [(3, whole_v, whole_d), (2, suffix_v, suffix_d)] {
                // (p, q, (), (), frame) with the unit meta column.
                let mut frame = Vec::new();
                for v in [0, q, n] {
                    put_varint(&mut frame, v);
                }
                for col in [&vcol, &dcol] {
                    put_varint(&mut frame, col.len() as u64);
                    frame.extend_from_slice(col);
                }
                put_varint(&mut frame, 0);
                comm.send_encoded(0, &h, Raw(frame));
            }
            comm.barrier();
        });
    }

    /// Three keys whose suffix from element 1 is served by
    /// [`nested_push`] unless corrupted.
    const NESTED: [(u64, u64); 3] = [(5, 3), (7, 4), (9, 5)];

    /// The uncorrupted pair is accepted, so each test below aborts on
    /// its corruption alone.
    #[test]
    fn nested_push_suffix_is_served() {
        nested_push(&NESTED, |_, _| {});
    }

    /// The first raw degree one too high: every later degree moves up
    /// with it, and the last wraps past `u64::MAX` to 0, so the keys
    /// fall back. The other bytes are the stored suffix's.
    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn nested_push_with_first_degree_off_by_one_aborts() {
        let whole = [(5, 3), (7, u64::MAX - 1), (9, u64::MAX)];
        nested_push(&whole, |_, dcol| {
            // Head `MAX`, then the stored delta +1.
            *dcol = key_columns(&[(7, u64::MAX), (9, 0)]).1;
        });
    }

    /// The vertex column carries a trailing byte past the stored
    /// suffix's: a byte-budget error, whatever the degree column says.
    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn nested_push_with_trailing_vertex_byte_aborts() {
        nested_push(&NESTED, |vcol, _| vcol.push(0));
    }

    /// The suffix repeats its first key, `(7, 4)`: its vertex column
    /// and first degree are the stored suffix's (element 2 of the
    /// first frame has vertex 7 too), and only the delta differs.
    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn nested_push_with_repeated_key_aborts() {
        nested_push(&[(5, 3), (7, 4), (7, 5)], |_, dcol| {
            *dcol = key_columns(&[(7, 4), (7, 4)]).1;
        });
    }

    #[test]
    fn explicit_kernels_count_like_the_default() {
        use crate::engine::IntersectKernel;
        // K5 on 2 ranks under each kernel, the reference and the
        // default: the same 10 triangles.
        let mut edges = Vec::new();
        for u in 0..5u64 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        for kernel in [IntersectKernel::MergeScalar, IntersectKernel::Merge] {
            let out = World::new(2).run(|comm| {
                let local = list.stride_for_rank(comm.rank(), comm.nranks());
                let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
                let count = Rc::new(Cell::new(0u64));
                let count2 = count.clone();
                survey_push_only_with(comm, &g, kernel, move |_c, _tm| {
                    count2.set(count2.get() + 1);
                });
                comm.all_reduce_sum(count.get())
            });
            assert_eq!(out, vec![10, 10], "kernel {kernel}");
        }
    }

    #[test]
    fn string_metadata_survives_the_wire() {
        let edges = [(0u64, 1u64), (1, 2), (2, 0)];
        let list = EdgeList::from_vec(
            edges
                .iter()
                .map(|&(u, v)| (u, v, format!("e{}-{}", u.min(v), u.max(v))))
                .collect::<Vec<_>>(),
        );
        let out = World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |v| format!("v{v}"), Partition::Hashed);
            let ok = Rc::new(Cell::new(false));
            let ok2 = ok.clone();
            survey_push_only(comm, &g, move |_c, tm| {
                assert_eq!(*tm.meta_p, format!("v{}", tm.p));
                assert_eq!(
                    *tm.meta_qr,
                    format!("e{}-{}", tm.q.min(tm.r), tm.q.max(tm.r))
                );
                ok2.set(true);
            });
            comm.barrier();
            ok.get()
        });
        assert!(out.iter().any(|&b| b), "some rank saw the triangle");
    }
}
