//! Load-once, serve-many: the resident survey service.
//!
//! ```text
//! cargo run --release --example resident_service
//! ```
//!
//! The classic entry points rebuild the distributed graph (and, for
//! Push-Pull, rerun the dry-run) on every survey. This example shows
//! the server shape instead: ingest an R-MAT graph **once** into a
//! [`ResidentGraph`], save it as a versioned binary snapshot, restart
//! from the snapshot in O(read), and then serve a stream of queries —
//! different world sizes and engines — against the same shared
//! storage. Repeat Push-Pull queries at a world size
//! replay the cached dry-run plan with zero dry-run traffic.

use std::time::Instant;

use tripoll::prelude::*;

fn main() {
    // ---- Ingest once -------------------------------------------------
    let cfg = RmatConfig::graph500(10, 42);
    let edges = EdgeList::from_vec(
        rmat_edges(&cfg)
            .into_iter()
            .map(|(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    println!(
        "Ingesting {} R-MAT edges into resident storage...",
        edges.len()
    );
    let t = Instant::now();
    let resident: ResidentGraph<(), ()> = ResidentGraph::build(&edges, |_| (), Partition::Hashed);
    println!(
        "  built {} resident vertices in {:.1?}\n",
        resident.num_vertices(),
        t.elapsed()
    );

    // ---- Snapshot: persist, then restart in O(read) ------------------
    let dir = std::env::temp_dir().join("tripoll-resident-example");
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let path = dir.join("graph.tplsnap");
    resident
        .save_snapshot(&path, 4)
        .expect("snapshot write failed");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let t = Instant::now();
    let restored: ResidentGraph<(), ()> =
        ResidentGraph::load_snapshot(&path).expect("snapshot load failed");
    println!(
        "Snapshot: {} bytes on disk, restart (load + validate) in {:.1?}\n",
        bytes,
        t.elapsed()
    );

    // ---- Serve many queries against the shared storage ---------------
    println!("Serving queries against the restored graph:");
    for (nranks, mode) in [
        (2, EngineMode::PushOnly),
        (4, EngineMode::PushPull),
        (4, EngineMode::PushPull), // replays the cached plan
        (7, EngineMode::PushPull),
    ] {
        let q = ResidentQuery::new(nranks).with_mode(mode);
        let t = Instant::now();
        let count = restored.triangle_count(&q);
        println!(
            "  {mode} on {nranks} ranks: {count} triangles in {:.1?}",
            t.elapsed()
        );
    }

    // Queries see the same graph the original resident instance holds.
    let q = ResidentQuery::new(4);
    assert_eq!(resident.triangle_count(&q), restored.triangle_count(&q));
    println!("\nOriginal and snapshot-restored graphs agree. Done.");
    let _ = std::fs::remove_file(&path);
}
