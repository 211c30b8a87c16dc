//! Ablations of three substrate design choices the paper makes (§4.1,
//! §4.2); `docs/ARCHITECTURE.md` describes the flush policy.
//!
//! Not a paper table — these sweeps justify the substrate's knobs:
//!
//! 1. **Message buffering** (§4.1.1): sweep the flush threshold and show
//!    how aggregation collapses the envelope count (and the modeled
//!    latency term) at identical payload volume. This is YGM's founding
//!    trick; threshold → 0 degenerates to the "naïve workflow" the paper
//!    contrasts against.
//! 2. **Partitioning** (§4.2): Cyclic vs Hashed vertex ownership on a
//!    hub-heavy web graph — the paper argues the DODGr transformation
//!    makes cheap partitionings palatable; both should land close.
//! 3. **Counting-set cache** (§4.1.4): sweep the write-back cache
//!    capacity and show how it trades records on the wire for memory.

use tripoll_analysis::{fmt_bytes, fmt_secs, Table};
use tripoll_bench::{seed, size};
use tripoll_core::surveys::count::triangle_count;
use tripoll_core::EngineMode;
use tripoll_gen::webcc12_like;
use tripoll_graph::{build_dist_graph, DistGraph, EdgeList, Partition};
use tripoll_ygm::container::DistCountingSet;
use tripoll_ygm::{CommConfig, CostModel, World};

fn main() {
    let nranks = 4;
    let web = webcc12_like(size(), seed());
    let list = EdgeList::from_vec(
        web.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    println!(
        "Ablations on the web-cc12 stand-in ({} edges) with {nranks} ranks\n",
        list.len()
    );
    let model = CostModel::catalyst_like();

    // --- 1. Buffering threshold -------------------------------------------
    let mut buf_table = Table::new(
        "Ablation 1: flush threshold vs envelopes (Push-Pull count)",
        &["threshold", "envelopes", "payload", "modeled time"],
    );
    for threshold in [64usize, 1024, 8 * 1024, 64 * 1024, 1 << 20] {
        let out = World::new(nranks)
            .with_config(CommConfig {
                flush_threshold: Some(threshold),
            })
            .run_with_stats(|comm| {
                let local = list.stride_for_rank(comm.rank(), comm.nranks());
                let g: DistGraph<bool, ()> =
                    build_dist_graph(comm, local, |_| false, Partition::Hashed);
                triangle_count(comm, &g, EngineMode::PushPull).0
            });
        let total = out.total_stats();
        buf_table.row(&[
            fmt_bytes(threshold as u64),
            (total.envelopes_remote + total.envelopes_local).to_string(),
            fmt_bytes(total.bytes_total()),
            fmt_secs(model.phase_time(&out.stats)),
        ]);
    }
    println!("{}", buf_table.render());
    println!("Expected: payload constant; envelopes (and the α term) collapse as the\nthreshold grows — the §4.1.1 aggregation story.\n");

    // --- 2. Partitioning ----------------------------------------------------
    let mut part_table = Table::new(
        "Ablation 2: Cyclic vs Hashed partitioning (Push-Pull count)",
        &["partition", "|T|", "payload", "modeled time"],
    );
    for partition in [Partition::Cyclic, Partition::Hashed] {
        let out = World::new(nranks).run_with_stats(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g: DistGraph<bool, ()> = build_dist_graph(comm, local, |_| false, partition);
            triangle_count(comm, &g, EngineMode::PushPull).0
        });
        part_table.row(&[
            format!("{partition:?}"),
            out.results[0].to_string(),
            fmt_bytes(out.total_stats().bytes_total()),
            fmt_secs(model.phase_time(&out.stats)),
        ]);
    }
    println!("{}", part_table.render());
    println!("Expected: identical counts; comparable cost — the DODGr tames the hubs\nthat would otherwise punish cheap partitionings (§4.2).\n");

    // --- 3. Counting-set cache ---------------------------------------------
    let mut cache_table = Table::new(
        "Ablation 3: counting-set cache capacity (degree-pair survey)",
        &["cache", "records", "payload"],
    );
    for capacity in [1usize, 16, 256, 4096] {
        let out = World::new(nranks).run_with_stats(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g: DistGraph<bool, ()> =
                build_dist_graph(comm, local, |_| false, Partition::Hashed);
            let before = comm.stats();
            let set = DistCountingSet::<(u64, u64)>::with_cache_capacity(comm, capacity);
            let set_cb = set.clone();
            tripoll_core::survey(comm, &g, EngineMode::PushPull, move |c, tm| {
                set_cb.increment(c, (tm.p % 64, tm.q % 64));
            });
            set.finalize(comm);
            comm.stats().delta(&before)
        });
        let total: tripoll_ygm::CommStats = tripoll_ygm::CommStats::sum(out.results.iter());
        cache_table.row(&[
            capacity.to_string(),
            total.records_total().to_string(),
            fmt_bytes(total.bytes_total()),
        ]);
    }
    println!("{}", cache_table.render());
    println!("Expected: a larger write-back cache absorbs repeated keys, cutting the\nrecords the counting set puts on the wire (§4.1.4).\n");
}
