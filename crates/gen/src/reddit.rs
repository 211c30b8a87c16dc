//! Temporal Reddit-like comment-graph generator.
//!
//! Stand-in for the paper's Reddit dataset (§5.2): "authors as vertices
//! and comments between authors as undirected edges", timestamps as edge
//! metadata, chronologically-first comment kept between each author
//! pair. The generative process is tuned to reproduce the qualitative
//! shape of Fig. 6:
//!
//! * **Bursty activity** — comments arrive in sessions: most gaps are
//!   seconds-to-minutes, a minority are hours-to-days (heavy tail), so
//!   *wedges open quickly* (two comments touching a common author often
//!   land in the same session).
//! * **Slow triadic closure** — a friend-of-friend only occasionally
//!   replies across an open wedge, and typically in a *later* session,
//!   so *triangles are not systematically closed rapidly* — the paper's
//!   headline observation.
//!
//! Timestamps are Unix seconds starting in December 2005, the start of
//! the paper's crawl window.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tripoll_graph::EdgeList;
use tripoll_ygm::hash::hash64;

/// Unix timestamp of the paper's first Reddit comment month (Dec 2005).
pub const REDDIT_EPOCH: u64 = 1_133_420_000;

/// Reddit generator configuration.
#[derive(Debug, Clone)]
pub struct RedditConfig {
    /// Number of comment authors (vertices).
    pub users: u64,
    /// Raw comment records to generate (before the chronologically-first
    /// deduplication, which typically removes 20-40%).
    pub comments: u64,
    /// Probability a comment replies within the active session window
    /// (bursty wedge formation).
    pub reply_locality: f64,
    /// Probability a comment closes an open wedge (triadic closure).
    pub closure_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RedditConfig {
    fn default() -> Self {
        RedditConfig {
            users: 10_000,
            comments: 100_000,
            reply_locality: 0.12,
            closure_rate: 0.25,
            seed: 2005,
        }
    }
}

/// Generates the canonicalized temporal edge list: one edge per author
/// pair carrying the **chronologically-first** comment timestamp (the
/// paper's preparation), sorted and deduplicated.
pub fn reddit_edges(cfg: &RedditConfig) -> EdgeList<u64> {
    EdgeList::from_vec(reddit_comments(cfg)).canonicalize_by(|&t| t)
}

/// Generates the raw comment stream `(author_a, author_b, timestamp)` —
/// a temporal multigraph in nondecreasing time order.
pub fn reddit_comments(cfg: &RedditConfig) -> Vec<(u64, u64, u64)> {
    assert!(cfg.users > 2);
    let mut rng = StdRng::seed_from_u64(hash64(cfg.seed ^ 0x004e_dd17));
    let n = cfg.users;

    // Capped adjacency for triadic closure sampling.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    const ADJ_CAP: usize = 48;
    let remember = |adj: &mut Vec<Vec<u32>>, a: u64, b: u64, rng: &mut StdRng| {
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut adj[x as usize];
            if list.len() < ADJ_CAP {
                list.push(y as u32);
            } else {
                // Reservoir-ish replacement keeps recent contacts mixed in.
                let slot = rng.random_range(0..ADJ_CAP);
                list[slot] = y as u32;
            }
        }
    };

    // Sliding window of recently active users (the "session").
    const WINDOW: usize = 256;
    let mut recent: Vec<u32> = Vec::with_capacity(WINDOW);
    let mut recent_at = 0usize;
    let remember_active = |recent: &mut Vec<u32>, recent_at: &mut usize, u: u64| {
        if recent.len() < WINDOW {
            recent.push(u as u32);
        } else {
            recent[*recent_at] = u as u32;
            *recent_at = (*recent_at + 1) % WINDOW;
        }
    };

    // Mild per-user popularity (karma): most users are picked rarely
    // and meet each partner once; a small head stays active for years
    // and becomes the graph's hubs. Computed once per user: the sampler
    // below accepts about one draw in twenty.
    let popularity: Vec<f64> = (0..n)
        .map(|u| {
            let rank = (hash64(u.wrapping_add(cfg.seed)) % n) + 1;
            (rank as f64).powf(-0.35)
        })
        .collect();
    // Rejection sampler for popularity-weighted users: two draws per
    // try, so the table changes the cost of a try and not the stream.
    let pick_user = |rng: &mut StdRng| -> u64 {
        loop {
            let u = rng.random_range(0..n);
            if rng.random::<f64>() < popularity[u as usize] {
                return u;
            }
        }
    };

    let mut t = REDDIT_EPOCH;
    let mut out = Vec::with_capacity(cfg.comments as usize);
    let mut remaining = cfg.comments as i64;

    // Comment threads: an author opens a thread, a handful of
    // participants pile in over minutes, and comments fly between them.
    // *Wedges open fast* because one thread gives its participants
    // several nearly-simultaneous edges; *triangles close slowly*
    // because the closing edge typically comes from a later thread in
    // which two earlier co-participants (friends of the author) meet
    // again.
    while remaining > 0 {
        // Inter-thread gap: minutes to (rarely) days.
        let x: f64 = rng.random();
        t += if x < 0.70 {
            rng.random_range(60u64..3_600)
        } else if x < 0.95 {
            rng.random_range(3_600u64..43_200)
        } else {
            rng.random_range(43_200u64..259_200)
        };

        let author = if !recent.is_empty() && rng.random::<f64>() < cfg.reply_locality {
            u64::from(recent[rng.random_range(0..recent.len())])
        } else {
            pick_user(&mut rng)
        };

        // Assemble participants: the author's old friends re-engage
        // (closing old wedges), active users drop by, strangers wander in.
        let nparticipants = rng.random_range(2..=6usize);
        let mut participants: Vec<u64> = Vec::with_capacity(nparticipants);
        for _ in 0..nparticipants {
            let roll: f64 = rng.random();
            let friends = &adj[author as usize];
            let p = if roll < cfg.closure_rate && !friends.is_empty() {
                u64::from(friends[rng.random_range(0..friends.len())])
            } else if roll < cfg.closure_rate + cfg.reply_locality && !recent.is_empty() {
                u64::from(recent[rng.random_range(0..recent.len())])
            } else {
                pick_user(&mut rng)
            };
            if p != author && !participants.contains(&p) {
                participants.push(p);
            }
        }

        // The author replies to each participant...
        for &p in &participants {
            t += rng.random_range(5u64..240);
            out.push((author, p, t));
            remember(&mut adj, author, p, &mut rng);
            remember_active(&mut recent, &mut recent_at, p);
            remaining -= 1;
        }
        // ...and participants reply to each other within the thread.
        for i in 0..participants.len() {
            for j in (i + 1)..participants.len() {
                if rng.random::<f64>() < 0.35 {
                    t += rng.random_range(5u64..120);
                    out.push((participants[i], participants[j], t));
                    remember(&mut adj, participants[i], participants[j], &mut rng);
                    remaining -= 1;
                }
            }
        }
        remember_active(&mut recent, &mut recent_at, author);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `hash64` fold over every record, in stream order.
    fn fingerprint(comments: &[(u64, u64, u64)]) -> u64 {
        comments
            .iter()
            .fold(0, |h, &(a, b, t)| hash64(hash64(hash64(h ^ a) ^ b) ^ t))
    }

    #[test]
    fn reddit_benchmark_shape_is_pinned() {
        // The `reddit_stream` workload's stream at seed 42.
        let comments = reddit_comments(&RedditConfig {
            users: 20_000,
            comments: 240_000,
            seed: 42,
            ..Default::default()
        });
        assert_eq!(comments.len(), 240_003);
        assert_eq!(fingerprint(&comments), 1_720_148_712_521_661_842);
    }

    #[test]
    fn deterministic() {
        let comments = reddit_comments(&RedditConfig {
            users: 500,
            comments: 5_000,
            ..Default::default()
        });
        assert_eq!(comments.len(), 5_006);
        assert_eq!(fingerprint(&comments), 14_451_589_859_728_609_199);
    }

    #[test]
    fn timestamps_nondecreasing_and_after_epoch() {
        let cfg = RedditConfig {
            users: 300,
            comments: 3_000,
            ..Default::default()
        };
        let comments = reddit_comments(&cfg);
        assert!(!comments.is_empty());
        let mut last = 0;
        for &(a, b, t) in &comments {
            assert!(t >= REDDIT_EPOCH);
            assert!(t >= last);
            assert_ne!(a, b);
            last = t;
        }
    }

    #[test]
    fn canonical_keeps_first_timestamp() {
        let cfg = RedditConfig {
            users: 100,
            comments: 5_000,
            ..Default::default()
        };
        let raw = reddit_comments(&cfg);
        let canon = reddit_edges(&cfg);
        assert!(canon.len() < raw.len(), "multigraph should deduplicate");
        // Every canonical edge carries the minimum timestamp among its
        // raw duplicates.
        for (u, v, t) in canon.as_slice() {
            let min_t = raw
                .iter()
                .filter(|&&(a, b, _)| (a.min(b), a.max(b)) == (*u, *v))
                .map(|&(_, _, t)| t)
                .min()
                .expect("canonical edge came from raw");
            assert_eq!(*t, min_t);
        }
    }

    #[test]
    fn graph_contains_triangles() {
        let cfg = RedditConfig {
            users: 400,
            comments: 20_000,
            ..Default::default()
        };
        let canon = reddit_edges(&cfg);
        let topo: Vec<(u64, u64)> = canon.as_slice().iter().map(|&(u, v, _)| (u, v)).collect();
        let t = tripoll_analysis::triangle_count(&tripoll_graph::Csr::from_edges(&topo));
        assert!(t > 100, "closure process should create triangles, got {t}");
    }

    #[test]
    fn wedges_open_faster_than_triangles_close() {
        // The Fig. 6 shape: median open time < median close time over
        // the actual triangles of the generated graph.
        use tripoll_analysis::enumerate_triangles;
        use tripoll_ygm::hash::FastMap;
        let cfg = RedditConfig {
            users: 300,
            comments: 15_000,
            ..Default::default()
        };
        let canon = reddit_edges(&cfg);
        let ts: FastMap<(u64, u64), u64> = canon
            .as_slice()
            .iter()
            .map(|&(u, v, t)| ((u, v), t))
            .collect();
        let topo: Vec<(u64, u64)> = canon.as_slice().iter().map(|&(u, v, _)| (u, v)).collect();
        let csr = tripoll_graph::Csr::from_edges(&topo);
        let mut opens = Vec::new();
        let mut closes = Vec::new();
        enumerate_triangles(&csr, |p, q, r| {
            let get = |a: u64, b: u64| ts[&(a.min(b), a.max(b))];
            let mut tt = [get(p, q), get(p, r), get(q, r)];
            tt.sort_unstable();
            opens.push(tt[1] - tt[0]);
            closes.push(tt[2] - tt[0]);
        });
        assert!(opens.len() > 50, "need triangles for the shape check");
        opens.sort_unstable();
        closes.sort_unstable();
        let med_open = opens[opens.len() / 2];
        let med_close = closes[closes.len() / 2];
        assert!(
            med_close >= 2 * med_open.max(1),
            "expected slow closure: open median {med_open}, close median {med_close}"
        );
    }
}
