//! Stress and property tests for the runtime: many ranks on few cores,
//! deep handler chains, container storms, repeated worlds.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tripoll_ygm::container::{owner_of, DistCountingSet};
use tripoll_ygm::{Comm, CommConfig, Handler, World};

#[test]
fn oversubscribed_world_sixteen_ranks() {
    // Far more ranks than cores: the barrier must stay correct under
    // heavy preemption.
    let out = World::new(16).run(|comm| {
        let seen = Rc::new(Cell::new(0u64));
        let seen2 = seen.clone();
        let h = comm.register::<u64, _>(move |_c, v| {
            seen2.set(seen2.get() + v);
        });
        for round in 0..3u64 {
            for dest in 0..comm.nranks() {
                comm.send(dest, &h, &(round + 1));
            }
            comm.barrier();
        }
        seen.get()
    });
    // Each rank receives (1+2+3) from all 16 ranks.
    assert_eq!(out, vec![96; 16]);
}

#[test]
fn deep_handler_chains_across_barrier() {
    // Chains of length 1000 started by every rank; quiescence must wait
    // for all of them.
    let nranks = 4;
    let out = World::new(nranks).run(|comm| {
        let ends = Rc::new(Cell::new(0u64));
        let ends2 = ends.clone();
        let slot: Rc<RefCell<Option<Handler<u64>>>> = Rc::new(RefCell::new(None));
        let slot2 = slot.clone();
        let h = comm.register::<u64, _>(move |c: &Comm, hops| {
            if hops == 0 {
                ends2.set(ends2.get() + 1);
            } else {
                let h = slot2.borrow().expect("set");
                c.send((c.rank() + 3) % c.nranks(), &h, &(hops - 1));
            }
        });
        *slot.borrow_mut() = Some(h);
        comm.send((comm.rank() + 1) % comm.nranks(), &h, &1000u64);
        comm.barrier();
        comm.all_reduce_sum(ends.get())
    });
    assert_eq!(out, vec![nranks as u64; nranks]);
}

#[test]
fn container_storm() {
    // A counting set and two raw handlers, one carrying `String`
    // payloads, all active at once with a tiny flush threshold,
    // interleaving three handler types in shared buffers.
    let config = CommConfig {
        flush_threshold: Some(48),
    };
    let out = World::new(5).with_config(config).run_with_stats(|comm| {
        let sums = Rc::new(Cell::new(0u64));
        let sums2 = sums.clone();
        let sum = comm.register::<u64, _>(move |_c, v| sums2.set(sums2.get() + v));
        let items = Rc::new(Cell::new(0u64));
        let items2 = items.clone();
        let item = comm.register::<(u64, String), _>(move |_c, (i, s)| {
            assert_eq!(s, format!("item-{i}"));
            items2.set(items2.get() + 1);
        });
        let set = DistCountingSet::<String>::with_cache_capacity(comm, 4);
        let nranks = comm.nranks() as u64;
        for i in 0..200u64 {
            comm.send(owner_of(&(i % 37), comm.nranks()), &sum, &1);
            comm.send(
                ((i + comm.rank() as u64) % nranks) as usize,
                &item,
                &(i, format!("item-{i}")),
            );
            set.increment(comm, format!("key-{}", i % 11));
        }
        comm.barrier();
        set.finalize(comm);

        let sum_total = comm.all_reduce_sum(sums.get());
        let item_total = comm.all_reduce_sum(items.get());
        let set_total = comm.all_reduce_sum(set.local_counts().values().sum::<u64>());
        (sum_total, item_total, set_total)
    });
    for &(m, b, s) in &out.results {
        assert_eq!(m, 5 * 200);
        assert_eq!(b, 5 * 200);
        assert_eq!(s, 5 * 200);
    }
    // The tiny threshold must have produced many envelopes.
    assert!(out.total_stats().envelopes_remote > 50);
}

#[test]
fn repeated_worlds_do_not_leak_state() {
    for trial in 0..10 {
        let out = World::new(3).run(|comm| {
            let set = DistCountingSet::<u64>::new(comm);
            set.increment(comm, 7);
            set.gather(comm).first().map(|&(_, c)| c).unwrap_or(0)
        });
        assert_eq!(out, vec![3, 3, 3], "trial {trial}");
    }
}

#[test]
fn alternating_collectives_and_async_traffic() {
    let out = World::new(4).run(|comm| {
        let acc = Rc::new(Cell::new(0u64));
        let acc2 = acc.clone();
        let h = comm.register::<u64, _>(move |_c, v| {
            acc2.set(acc2.get() + v);
        });
        let mut checksum = 0u64;
        for round in 1..=5u64 {
            comm.send((comm.rank() + 1) % comm.nranks(), &h, &round);
            comm.barrier();
            checksum += comm.all_reduce_sum(acc.get());
            let gathered = comm.all_gather(&(comm.rank() as u64));
            assert_eq!(gathered, vec![0, 1, 2, 3]);
            let bc = comm.broadcast(&round, (round as usize) % comm.nranks());
            assert_eq!(bc, round);
        }
        checksum
    });
    // After round k, every rank holds sum 1..k; global = 4 * k(k+1)/2;
    // checksum = Σ_k 4·k(k+1)/2 = 4·(1+3+6+10+15) = 140.
    assert_eq!(out, vec![140; 4]);
}

#[test]
fn empty_world_barriers() {
    // Barriers with zero traffic, many times, all rank counts.
    for nranks in [1, 2, 7] {
        let out = World::new(nranks).run(|comm| {
            for _ in 0..20 {
                comm.barrier();
            }
            comm.rank()
        });
        assert_eq!(out.len(), nranks);
    }
}

#[test]
fn large_payloads_cross_intact() {
    // Payloads far above the flush threshold ship as oversized envelopes.
    let out = World::new(2).run(|comm| {
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        let h = comm.register::<Vec<u64>, _>(move |_c, v| {
            got2.borrow_mut().push(v.len());
        });
        let big: Vec<u64> = (0..100_000u64).collect();
        comm.send((comm.rank() + 1) % 2, &h, &big);
        comm.barrier();
        let lens = got.borrow().clone();
        lens
    });
    for lens in out {
        assert_eq!(lens, vec![100_000]);
    }
}

#[test]
fn every_record_ships_from_inside_a_handler() {
    // At a one-byte flush threshold every send ships its own envelope,
    // so each handler that sends ships mid-envelope and publishes a
    // partial, possibly negative, pending balance. Relay chains and
    // two-level fan-outs must still complete inside every barrier, and
    // the traffic totals must be exact.
    const ROUNDS: u64 = 4;
    for nranks in [4usize, 16] {
        let config = CommConfig {
            flush_threshold: Some(1),
        };
        let out = World::new(nranks)
            .with_config(config)
            .run_with_stats(|comm| {
                let ends = Rc::new(Cell::new(0u64));
                let leaves = Rc::new(Cell::new(0u64));
                let relay: Rc<RefCell<Option<Handler<u64>>>> = Rc::new(RefCell::new(None));

                let (ends2, relay2) = (ends.clone(), relay.clone());
                let h_relay = comm.register::<u64, _>(move |c: &Comm, hops| {
                    if hops == 0 {
                        ends2.set(ends2.get() + 1);
                    } else {
                        let h = relay2.borrow().expect("set");
                        c.send((c.rank() + 1) % c.nranks(), &h, &(hops - 1));
                    }
                });
                let leaves2 = leaves.clone();
                let h_leaf = comm.register::<u64, _>(move |_c, _v| {
                    leaves2.set(leaves2.get() + 1);
                });
                let h_fan = comm.register::<u64, _>(move |c: &Comm, v| {
                    let me = c.rank();
                    c.send_to_many([me, (me + 1) % c.nranks()], &h_leaf, v);
                });
                *relay.borrow_mut() = Some(h_relay);

                let mut per_round = Vec::new();
                for round in 0..ROUNDS {
                    let hops = 20 + comm.rank() as u64;
                    comm.send((comm.rank() + 1) % comm.nranks(), &h_relay, &hops);
                    comm.send_to_many(0..comm.nranks(), &h_fan, round);
                    comm.barrier();
                    per_round.push((ends.get(), leaves.get()));
                }
                per_round
            });

        let n = nranks as u64;
        for round in 0..ROUNDS as usize {
            let ends: u64 = out.results.iter().map(|r| r[round].0).sum();
            let leaves: u64 = out.results.iter().map(|r| r[round].1).sum();
            let done = round as u64 + 1;
            assert_eq!(ends, n * done, "nranks={nranks} round={round}: chains");
            assert_eq!(
                leaves,
                2 * n * n * done,
                "nranks={nranks} round={round}: leaves"
            );
        }

        // Per round: chain r has 21 + r records, all remote; each of the
        // n fan-outs reaches every rank (1 local, n - 1 remote) and each
        // of those n * n deliveries sends one local and one remote leaf.
        let chain_records: u64 = (0..n).map(|r| 21 + r).sum();
        let local = ROUNDS * (n + n * n);
        let remote = ROUNDS * (chain_records + n * (n - 1) + n * n);
        let total = out.total_stats();
        assert_eq!(total.records_local, local, "nranks={nranks}");
        assert_eq!(total.records_remote, remote, "nranks={nranks}");
        assert_eq!(total.handlers_run, local + remote, "nranks={nranks}");
        assert_eq!(total.envelopes_local, local, "nranks={nranks}");
        assert_eq!(total.envelopes_remote, remote, "nranks={nranks}");
        assert_eq!(total.barriers, ROUNDS * n, "nranks={nranks}");
    }
}
