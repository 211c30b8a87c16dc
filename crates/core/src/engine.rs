//! Shared machinery of the survey engines.
//!
//! Both engines reduce triangle identification to the same kernel: an
//! *intersection* (paper §4.3) of two lists sorted by the degree order
//! `<+` — the suffix of `Adjm+(p)` past `q` (the candidate `r`
//! vertices) against `Adjm+(q)`. Because [`OrderKey`] equality implies
//! vertex equality, the intersection compares keys and never hashes a
//! vertex: the pull side's [`KeyIndex`] slots a key by its own `tie`,
//! which is already `hash64(v)`.
//!
//! # One production path, one reference
//!
//! A survey is configured by [`SurveyConfig`], which names an
//! [`IntersectKernel`]. Candidate batches always cross the wire as
//! columnar frames ([`tripoll_ygm::wire::ColSuffixes`]), and there
//! are exactly two ways a rank consumes them:
//!
//! * **Production** ([`IntersectKernel::Auto`], or an explicit
//!   [`Gallop`] / [`Merge`]): the frame is captured in place
//!   ([`tripoll_ygm::wire::ColCursor`]), its two key columns become a
//!   flat [`OrderKey`] column (a frame whose keys do not strictly
//!   increase is a wire error), and a match arrives as an index pair
//!   whose frame index selects the one metadata element to decode. A
//!   pushed batch goes through a rank-owned [`FrameDecoder`], which
//!   serves it from the last frame it decoded when the frame's key
//!   bytes are a suffix of that frame's; its column is the left side
//!   against `Adjm+(q)`, intersected by [`intersect_indices`] under the
//!   configured kernel. A pulled `Adjm+(q)` is decoded whole by
//!   [`decode_key_column`], which keeps nothing, and serves every
//!   resume suffix recorded for `q`: its column is indexed once per
//!   delivery in a [`KeyIndex`] and each suffix is probed into it,
//!   whatever the kernel. The survey callback is a type parameter of
//!   the handler, so the per-triangle call is direct.
//! * **Reference** ([`IntersectKernel::MergeScalar`]): the frame is
//!   materialised as an owned [`tripoll_ygm::wire::ColBatch`] and
//!   intersected by the element-wise two-pointer merge through
//!   [`intersect_slices`]. It reads the same bytes and must emit the
//!   same survey; it exists so the differential suites
//!   (`tests/kernels.rs`) have something deliberately naive to compare
//!   the production path against, not as a tuning choice.
//!
//! # Intersection kernels
//!
//! The kernels of [`IntersectKernel`] run in one body
//! ([`intersect_indices`]) and emit the **identical match sequence**
//! (same pairs, same callback order); they differ only in how they step
//! and in compares per candidate. On the production path they
//! intersect pushed batches; an explicit kernel selects the push arm
//! only, because every production pull delivery is probed through a
//! [`KeyIndex`] instead, which emits the same sequence on strictly
//! increasing lists:
//!
//! * [`IntersectKernel::MergeScalar`] — the classic element-wise
//!   two-pointer merge ([`merge_path`]) over the derived two-field
//!   `Ord`: one three-way key compare per pointer step, branching on
//!   its outcome.
//! * [`IntersectKernel::Merge`] — the same two-pointer walk, branch
//!   free: each key is read as one `u128` word ([`OrderKey::word`],
//!   exactly the derived order), and a step advances `a` by `x <= y`
//!   and `b` by `y <= x`, so the only branch is the match. It takes the
//!   reference's steps, so it counts the reference's compares.
//! * [`IntersectKernel::Gallop`] — exponential (galloping) search over
//!   the same one-word keys: each key of the smaller side seeks its
//!   position in the larger side by doubling probes plus a binary
//!   search, `O(s·log(L/s))` compares instead of `O(L)`. Wins exactly
//!   when the sides are skewed (`|small|·K < |large|` — a low-degree
//!   candidate batch against a hub adjacency), loses on balanced sides.
//! * [`IntersectKernel::Auto`] (production default) — one rule,
//!   [`IntersectKernel::select`]: gallop when either side is at least
//!   [`GALLOP_RATIO`]× the other (`min·K < max`), the branchless merge
//!   otherwise. Both sides are random-access slices by the time a
//!   kernel runs (a frame's keys are decoded first, whole), so the
//!   gallop can seek into whichever side is larger and no streaming
//!   left side remains. Each arm wins somewhere — the gallop does 48×
//!   fewer compares at 1000:1 hub skew (the `micro` bench's
//!   `intersect_kernel` section; `Auto`'s compare counts are pinned in
//!   `tests/kernels.rs`) — which is why the choice is made from the two
//!   lengths and not left to a knob. Both lengths are known before any
//!   key is compared, so selection is free and deterministic.
//!
//! Every kernel and every probe tallies deterministic counters
//! ([`KernelStats`]: compares, candidates, matches, per-kernel dispatch
//! counts, probe runs) into a thread-local, read via [`kernel_stats`] /
//! [`kernel_stats_take`] — the tier-1 tests pin compare counts to
//! literals and the differential suite cross-checks match counts
//! against the reference.
//!
//! [`Gallop`]: IntersectKernel::Gallop
//! [`Merge`]: IntersectKernel::Merge

use std::cell::Cell;
use std::time::Instant;

use tripoll_graph::OrderKey;
use tripoll_ygm::stats::CommStats;
use tripoll_ygm::wire::{ColKeys, WireError, WireReader};
use tripoll_ygm::Comm;

/// Which TriPoll algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// §4.3: every wedge batch is pushed to `Rank(q)`.
    PushOnly,
    /// §4.4: a dry-run pass decides per (source rank, target vertex)
    /// whether to push the wedge batches or pull `Adjm+(q)` once.
    PushPull,
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMode::PushOnly => write!(f, "Push-Only"),
            EngineMode::PushPull => write!(f, "Push-Pull"),
        }
    }
}

/// Which intersection kernel compares the two sorted sides of a pushed
/// wedge batch (see the module docs for the full taxonomy; production
/// pull deliveries are probed through a [`KeyIndex`] whatever the
/// kernel). A local compute choice — it moves no bytes — with one
/// structural meaning: in a [`SurveyConfig`], [`MergeScalar`] selects
/// the *reference* receive path (materialised batch, two-pointer merge,
/// inline) for pushes and pulls alike, and every other value the
/// production path.
///
/// All kernels emit the identical match sequence; [`Auto`] resolves
/// per intersection from the side lengths alone:
///
/// ```
/// use tripoll_core::{IntersectKernel, GALLOP_RATIO};
///
/// let auto = IntersectKernel::Auto;
/// // Balanced random-access sides: the branchless merge.
/// assert_eq!(auto.select(1000, 1000), IntersectKernel::Merge);
/// // Heavy skew in either direction: gallop into the larger side.
/// assert_eq!(auto.select(10, 10 * GALLOP_RATIO + 1), IntersectKernel::Gallop);
/// assert_eq!(auto.select(10 * GALLOP_RATIO + 1, 10), IntersectKernel::Gallop);
/// // Explicit kernels always resolve to themselves.
/// assert_eq!(IntersectKernel::Gallop.select(5, 5), IntersectKernel::Gallop);
/// ```
///
/// [`Auto`]: IntersectKernel::Auto
/// [`MergeScalar`]: IntersectKernel::MergeScalar
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntersectKernel {
    /// Per-batch size-ratio heuristic: [`IntersectKernel::Gallop`] at
    /// heavy skew, else [`IntersectKernel::Merge`] — see
    /// [`IntersectKernel::select`] for the exact contract. The
    /// production default.
    #[default]
    Auto,
    /// Element-wise two-pointer merge — the reference kernel. A survey
    /// configured with it runs the reference receive path (see the
    /// module docs), which the differential suites compare the
    /// production path against.
    MergeScalar,
    /// Exponential-search seek through the larger side.
    Gallop,
    /// Branch-free two-pointer merge over keys read as one `u128`
    /// word each.
    Merge,
}

/// Skew ratio at which [`IntersectKernel::Auto`] switches to
/// galloping: [`IntersectKernel::select`] gallops when
/// `min(|l|,|r|)·K < max(|l|,|r|)`, symmetric because the gallop seeks
/// into whichever side is larger.
///
/// At ratio `K` the merge walks up to `max + min` keys while galloping
/// costs about `min·(2·log₂(max/min)+2)` compares; `K = 8` is where
/// the gallop's per-seek overhead (probe + binary search ≈ 2·log₂ 8 +
/// 2 = 8 compares) breaks even with the walk it skips, counted in
/// compares. `K` was chosen against an earlier merge arm and is not
/// re-tuned for the branchless one. A branchless step waits on the
/// previous step's compare, so where the break-even lies in time need
/// not match where it lies in compares.
pub const GALLOP_RATIO: usize = 8;

impl IntersectKernel {
    /// Resolves [`IntersectKernel::Auto`] for one intersection of two
    /// slices; explicit kernels return themselves. **Symmetric** in the side lengths: a skew past
    /// [`GALLOP_RATIO`] in either direction picks the gallop (it can
    /// seek into whichever side is larger); anything milder resolves
    /// to [`IntersectKernel::Merge`]. Deterministic, and both
    /// lengths are known up front.
    #[inline]
    pub fn select(self, left_len: usize, right_len: usize) -> IntersectKernel {
        match self {
            IntersectKernel::Auto => {
                let (small, large) = if left_len <= right_len {
                    (left_len, right_len)
                } else {
                    (right_len, left_len)
                };
                if small.saturating_mul(GALLOP_RATIO) < large {
                    IntersectKernel::Gallop
                } else {
                    IntersectKernel::Merge
                }
            }
            k => k,
        }
    }
}

impl std::fmt::Display for IntersectKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntersectKernel::Auto => write!(f, "Auto"),
            IntersectKernel::MergeScalar => write!(f, "MergeScalar"),
            IntersectKernel::Gallop => write!(f, "Gallop"),
            IntersectKernel::Merge => write!(f, "Merge"),
        }
    }
}

/// Per-survey engine configuration: the intersection kernel. It moves
/// no byte on the wire (candidate batches are always columnar frames),
/// so it is a local compute choice, named here so a survey carries one
/// reproducible configuration. The default, [`IntersectKernel::Auto`],
/// is the production path; [`IntersectKernel::MergeScalar`] selects
/// the reference path the differential suites compare it against (see
/// the module docs).
///
/// A survey runs on its rank's thread alone: the rank is the unit of
/// parallelism, as in the paper, and a wider survey adds ranks.
///
/// Build one with [`SurveyConfig::with_kernel`], or pass a bare
/// [`IntersectKernel`] anywhere `impl Into<SurveyConfig>` is accepted
/// (the `survey_*_with` entry points):
///
/// ```
/// use tripoll_core::{IntersectKernel, SurveyConfig};
///
/// // The production configuration.
/// let prod = SurveyConfig::new();
/// assert_eq!(prod.kernel, IntersectKernel::Auto);
///
/// // An explicit kernel.
/// let gallop_only = SurveyConfig::new().with_kernel(IntersectKernel::Gallop);
/// assert_eq!(gallop_only, SurveyConfig::from(IntersectKernel::Gallop));
///
/// // The reference the differential suites compare against.
/// let reference = SurveyConfig::from(IntersectKernel::MergeScalar);
/// assert_eq!(reference.kernel, IntersectKernel::MergeScalar);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SurveyConfig {
    /// Intersection kernel for every pushed wedge batch;
    /// [`IntersectKernel::MergeScalar`] selects the reference path.
    pub kernel: IntersectKernel,
}

impl SurveyConfig {
    /// The production configuration (auto-selected kernel).
    pub fn new() -> Self {
        SurveyConfig::default()
    }

    /// This configuration with the given intersection kernel.
    pub fn with_kernel(mut self, kernel: IntersectKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Whether this configuration selects the reference receive path
    /// (materialised batch, two-pointer merge) instead of the
    /// production one.
    pub(crate) fn is_reference(self) -> bool {
        self.kernel == IntersectKernel::MergeScalar
    }
}

/// A bare kernel selects that kernel.
impl From<IntersectKernel> for SurveyConfig {
    fn from(kernel: IntersectKernel) -> Self {
        SurveyConfig { kernel }
    }
}

/// Timing and traffic of one engine phase, local to this rank.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (`"dry-run"`, `"push"`, `"pull"`).
    pub name: &'static str,
    /// Wall-clock seconds this rank spent in the phase (barrier
    /// inclusive, so ranks agree up to scheduling noise).
    pub seconds: f64,
    /// Communication-counter delta of this rank over the phase.
    pub stats: CommStats,
}

/// Per-rank outcome of a survey run.
#[derive(Debug, Clone)]
pub struct SurveyReport {
    /// Algorithm that produced this report.
    pub mode: EngineMode,
    /// Phase breakdown in execution order.
    pub phases: Vec<PhaseReport>,
    /// Total wall-clock seconds (sum of phases).
    pub total_seconds: f64,
    /// Adjacency lists this rank pulled (Table 3's "pulls per rank");
    /// zero under Push-Only.
    pub pulled_vertices: u64,
    /// Pull requests this rank granted (adjacency lists it served).
    pub pull_grants: u64,
}

impl SurveyReport {
    /// Communication totals over all phases (this rank).
    pub fn local_stats(&self) -> CommStats {
        CommStats::sum(self.phases.iter().map(|p| &p.stats))
    }
}

/// Tracks a phase: wraps timing and counter deltas around a closure.
pub(crate) struct PhaseTimer<'a> {
    comm: &'a Comm,
    start_stats: CommStats,
    start_time: Instant,
    name: &'static str,
}

impl<'a> PhaseTimer<'a> {
    pub(crate) fn begin(comm: &'a Comm, name: &'static str) -> Self {
        PhaseTimer {
            comm,
            start_stats: comm.stats(),
            start_time: Instant::now(),
            name,
        }
    }

    /// Ends the phase (caller must have completed its barrier).
    pub(crate) fn end(self) -> PhaseReport {
        PhaseReport {
            name: self.name,
            seconds: self.start_time.elapsed().as_secs_f64(),
            stats: self.comm.stats().delta(&self.start_stats),
        }
    }
}

/// Merge-path intersection of two `<+`-sorted lists.
///
/// Invokes `on_match(&l, &r)` for every pair with equal [`OrderKey`].
/// Both lists must be strictly increasing in key (adjacency lists and
/// their suffixes are, by construction).
#[inline]
pub fn merge_path<L, R>(
    left: &[L],
    right: &[R],
    key_l: impl Fn(&L) -> OrderKey,
    key_r: impl Fn(&R) -> OrderKey,
    mut on_match: impl FnMut(&L, &R),
) {
    let (mut a, mut b) = (0, 0);
    while a < left.len() && b < right.len() {
        match key_l(&left[a]).cmp(&key_r(&right[b])) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                on_match(&left[a], &right[b]);
                a += 1;
                b += 1;
            }
        }
    }
}

// --------------------------------------------------------------------
// Intersection-kernel layer — see the module docs for the taxonomy.
// --------------------------------------------------------------------

/// Deterministic tallies of the kernel layer, accumulated per thread
/// (one simulated rank = one thread). Counter semantics:
///
/// * `compares` — key comparisons performed (a merge step of either
///   merge, gallop probes and binary-search steps, and the equality
///   check after a gallop each count one);
/// * `candidates` — left-side elements, all of them whichever kernel
///   runs (a pushed frame's keys are decoded whole, so every wedge
///   counts exactly once);
/// * `matches` — key-equal pairs emitted, identical across kernels by
///   the differential contract;
/// * `*_runs` — intersections dispatched per resolved kernel (what
///   [`IntersectKernel::Auto`] actually picked), and `probe_runs` the
///   left sides probed into a [`KeyIndex`] (every resume suffix of a
///   production pull delivery).
///
/// A [`KeyIndex::probe`] counts one compare per table slot it
/// inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Key comparisons performed.
    pub compares: u64,
    /// Left-side elements of every intersection.
    pub candidates: u64,
    /// Key-equal pairs emitted.
    pub matches: u64,
    /// Intersections run by the scalar merge kernel.
    pub scalar_runs: u64,
    /// Intersections run by the galloping kernel.
    pub gallop_runs: u64,
    /// Intersections run by the branchless merge kernel.
    pub merge_runs: u64,
    /// Left sides probed into a [`KeyIndex`].
    pub probe_runs: u64,
}

impl KernelStats {
    const ZERO: KernelStats = KernelStats {
        compares: 0,
        candidates: 0,
        matches: 0,
        scalar_runs: 0,
        gallop_runs: 0,
        merge_runs: 0,
        probe_runs: 0,
    };
}

impl std::ops::AddAssign for KernelStats {
    /// Field-wise sum — the counters are plain tallies, so stats from
    /// independent surveys (or a full survey and an incremental delta)
    /// merge additively.
    fn add_assign(&mut self, rhs: KernelStats) {
        self.compares += rhs.compares;
        self.candidates += rhs.candidates;
        self.matches += rhs.matches;
        self.scalar_runs += rhs.scalar_runs;
        self.gallop_runs += rhs.gallop_runs;
        self.merge_runs += rhs.merge_runs;
        self.probe_runs += rhs.probe_runs;
    }
}

thread_local! {
    static KERNEL_STATS: Cell<KernelStats> = const { Cell::new(KernelStats::ZERO) };
}

/// This thread's accumulated [`KernelStats`] since the last
/// [`kernel_stats_take`].
pub fn kernel_stats() -> KernelStats {
    KERNEL_STATS.with(Cell::get)
}

/// Reads and resets this thread's accumulated [`KernelStats`].
pub fn kernel_stats_take() -> KernelStats {
    KERNEL_STATS.with(|c| c.replace(KernelStats::ZERO))
}

/// Flushes one intersection's local tallies into the thread counter —
/// a single `Cell` write per intersection, so the hot loops count into
/// registers. `run` bumps the dispatch counter of the arm that ran.
#[inline]
fn record_kernel(compares: u64, candidates: u64, matches: u64, run: fn(&mut KernelStats)) {
    KERNEL_STATS.with(|c| {
        let mut s = c.get();
        s.compares += compares;
        s.candidates += candidates;
        s.matches += matches;
        run(&mut s);
        c.set(s);
    });
}

/// First index in `right[from..]` whose key word is `>= target`, found
/// by exponential probing (1, 2, 4, … steps) and a binary search of the
/// final window — `O(log distance)` compares regardless of how far the
/// seek lands. Keys are compared as [`OrderKey::word`]s.
#[inline]
fn gallop_seek<R>(
    right: &[R],
    key_r: &impl Fn(&R) -> OrderKey,
    from: usize,
    target: u128,
    compares: &mut u64,
) -> usize {
    let n = right.len();
    if from >= n {
        return n;
    }
    let word = |i: usize| key_r(&right[i]).word();
    *compares += 1;
    if word(from) >= target {
        return from;
    }
    // Invariant: word(lo) < target; hi is n or has word >= target.
    let mut lo = from;
    let mut hi = n;
    let mut step = 1usize;
    while lo + step < n {
        *compares += 1;
        if word(lo + step) < target {
            lo += step;
            step <<= 1;
        } else {
            hi = lo + step;
            break;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        *compares += 1;
        if word(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Intersects two `<+`-sorted slices with the selected kernel and
/// reports every key-equal pair `(left[a], right[b])` as its index pair
/// `on_match(a, b)`, in increasing key order — the one kernel body.
/// The production push handler calls it directly: a decoded frame is
/// a flat key column, and a match only needs the index into it to
/// decode that element's metadata. [`intersect_slices`] is the
/// by-reference adapter over it. (Pull deliveries are probed through a
/// [`KeyIndex`] instead.)
pub fn intersect_indices<L, R>(
    kernel: IntersectKernel,
    left: &[L],
    right: &[R],
    key_l: impl Fn(&L) -> OrderKey,
    key_r: impl Fn(&R) -> OrderKey,
    mut on_match: impl FnMut(usize, usize),
) {
    let resolved = kernel.select(left.len(), right.len());
    let (mut compares, mut matches) = (0u64, 0u64);
    match resolved {
        IntersectKernel::MergeScalar => {
            let (mut a, mut b) = (0, 0);
            while a < left.len() && b < right.len() {
                compares += 1;
                match key_l(&left[a]).cmp(&key_r(&right[b])) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        on_match(a, b);
                        matches += 1;
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
        IntersectKernel::Gallop => {
            if left.len() <= right.len() {
                let mut b = 0;
                for (a, l) in left.iter().enumerate() {
                    if b >= right.len() {
                        break;
                    }
                    let kl = key_l(l).word();
                    b = gallop_seek(right, &key_r, b, kl, &mut compares);
                    if b < right.len() {
                        compares += 1;
                        if key_r(&right[b]).word() == kl {
                            on_match(a, b);
                            matches += 1;
                            b += 1;
                        }
                    }
                }
            } else {
                let mut a = 0;
                for (b, r) in right.iter().enumerate() {
                    if a >= left.len() {
                        break;
                    }
                    let kr = key_r(r).word();
                    a = gallop_seek(left, &key_l, a, kr, &mut compares);
                    if a < left.len() {
                        compares += 1;
                        if key_l(&left[a]).word() == kr {
                            on_match(a, b);
                            matches += 1;
                            a += 1;
                        }
                    }
                }
            }
        }
        IntersectKernel::Merge => {
            // Branchless steps over one-word keys: both pointers advance
            // by a flag, so the only branch taken per step is the match.
            let (mut a, mut b) = (0, 0);
            while a < left.len() && b < right.len() {
                let x = key_l(&left[a]).word();
                let y = key_r(&right[b]).word();
                if x == y {
                    on_match(a, b);
                    matches += 1;
                }
                a += usize::from(x <= y);
                b += usize::from(y <= x);
            }
            // One compare per step: a step advances one pointer, or
            // both on a match.
            compares = (a + b) as u64 - matches;
        }
        IntersectKernel::Auto => unreachable!("select never returns Auto"),
    }
    let run: fn(&mut KernelStats) = match resolved {
        IntersectKernel::MergeScalar => |s| s.scalar_runs += 1,
        IntersectKernel::Gallop => |s| s.gallop_runs += 1,
        IntersectKernel::Merge => |s| s.merge_runs += 1,
        IntersectKernel::Auto => unreachable!("Auto resolves before recording"),
    };
    record_kernel(compares, left.len() as u64, matches, run);
}

/// Intersects two `<+`-sorted slices with the selected kernel,
/// invoking `on_match` for every key-equal pair in increasing key
/// order — the kernel-dispatching generalization of [`merge_path`], and
/// a by-reference adapter over [`intersect_indices`]. The reference
/// receive path of both engines runs it with
/// [`IntersectKernel::MergeScalar`] over a materialised batch.
pub fn intersect_slices<L, R>(
    kernel: IntersectKernel,
    left: &[L],
    right: &[R],
    key_l: impl Fn(&L) -> OrderKey,
    key_r: impl Fn(&R) -> OrderKey,
    mut on_match: impl FnMut(&L, &R),
) {
    intersect_indices(kernel, left, right, key_l, key_r, |a, b| {
        on_match(&left[a], &right[b])
    });
}

/// Frame index of an empty [`KeyIndex`] slot. No key is stored under
/// it: [`KeyIndex::build`] rejects a frame that would need it.
const EMPTY_SLOT: u32 = u32::MAX;

/// Least [`KeyIndex`] slots per indexed key. A probe's loop exits at
/// its first slot unless that slot holds a key, so the sparser the
/// table, the more often the exit comes at once and the more
/// predictable the branch: at this ratio at most one home slot in
/// eight is taken. The `micro` bench's `pull_probe` rows at the
/// workloads' pull shapes chose it.
const SLOTS_PER_KEY: usize = 8;

/// An open-addressing hash index over one decoded frame's flat
/// [`OrderKey`] column: the production pull handler builds it once per
/// delivery and probes every resume suffix into it, where a merge would
/// walk the pulled `Adjm+(q)` once per suffix.
///
/// The table's size is a power of two, at least eight times the key
/// count, and each slot is a key's `u32` frame index; the keys'
/// [`OrderKey::word`]s sit in a dense column beside it, in frame order.
/// That is 48 to 80 bytes per key, and a probe that misses reads one
/// 4-byte slot, almost always an empty one. A key's home slot is
/// `tie & mask`: `tie` is already `hash64(v)`, so there is no second
/// hash. Collisions probe linearly. [`KeyIndex::probe`] reports exactly
/// the index pairs, in exactly the order, of a merge of two strictly
/// increasing lists. A frame whose ties were chosen to
/// share their low bits shares one long chain: its build and probes
/// slow down, but never report a wrong pair.
///
/// The slots and words are cleared, not reallocated, on each
/// [`KeyIndex::build`], so one index serves every delivery of a rank
/// and no slot of an earlier frame outlives its rebuild.
///
/// ```
/// use tripoll_core::KeyIndex;
/// use tripoll_graph::OrderKey;
///
/// let frame: Vec<OrderKey> = (1..=6).map(|v| OrderKey::new(v, v)).collect();
/// let mut index = KeyIndex::new();
/// index.build(&frame).expect("short frame");
/// // Vertex 3 with degree 9 is not in the frame.
/// let suffix = [OrderKey::new(2, 2), OrderKey::new(5, 5), OrderKey::new(3, 9)];
/// let mut pairs = Vec::new();
/// index.probe(&suffix, |&k| k, |a, i| pairs.push((a, i)));
/// assert_eq!(pairs, [(0, 1), (1, 4)]);
/// ```
#[derive(Debug, Default)]
pub struct KeyIndex {
    /// Frame indices, or [`EMPTY_SLOT`].
    slots: Vec<u32>,
    /// The indexed keys' words, by frame index.
    words: Vec<u128>,
}

impl KeyIndex {
    /// An empty index; it matches nothing until built.
    pub fn new() -> Self {
        KeyIndex::default()
    }

    /// Indexes `keys`, a decoded frame's key column whose positions are
    /// its frame indices, replacing whatever the index held. The keys
    /// must be distinct, as a strictly increasing frame's are. A frame
    /// whose indices do not fit a slot's `u32` fails as a wire error.
    pub fn build(&mut self, keys: &[OrderKey]) -> Result<(), WireError> {
        if keys.len() >= EMPTY_SLOT as usize {
            return Err(WireError::InvalidValue("frame too long to index"));
        }
        let size = (SLOTS_PER_KEY * keys.len()).next_power_of_two();
        let mask = size - 1;
        self.slots.clear();
        self.slots.resize(size, EMPTY_SLOT);
        self.words.clear();
        self.words.extend(keys.iter().map(|k| k.word()));
        for (i, k) in keys.iter().enumerate() {
            let mut s = k.tie as usize & mask;
            while self.slots[s] != EMPTY_SLOT {
                s = (s + 1) & mask;
            }
            self.slots[s] = i as u32;
        }
        Ok(())
    }

    /// Looks up every element of `left` in order and reports each one
    /// whose key is indexed as `on_match(a, i)`: `a` its position in
    /// `left`, `i` the matching key's frame index. When `left` and the
    /// indexed frame both strictly increase, these are the pairs of
    /// [`merge_path`] in its order, so `i` ascends too. Tallies into
    /// [`KernelStats`]: every element of `left` is a candidate, and
    /// every slot inspected is one compare.
    #[inline]
    pub fn probe<L>(
        &self,
        left: &[L],
        key_l: impl Fn(&L) -> OrderKey,
        mut on_match: impl FnMut(usize, usize),
    ) {
        let (mut compares, mut matches) = (0u64, 0u64);
        // An index never built has no slots and matches nothing.
        if let Some(mask) = self.slots.len().checked_sub(1) {
            for (a, l) in left.iter().enumerate() {
                let k = key_l(l);
                let x = k.word();
                let mut s = k.tie as usize & mask;
                // A probe stops at the first empty slot or at the key;
                // only the second is a match.
                loop {
                    let i = self.slots[s];
                    compares += 1;
                    if i == EMPTY_SLOT {
                        break;
                    }
                    if self.words[i as usize] == x {
                        on_match(a, i as usize);
                        matches += 1;
                        break;
                    }
                    s = (s + 1) & mask;
                }
            }
        }
        record_kernel(compares, left.len() as u64, matches, |s| s.probe_runs += 1);
    }
}

/// Decodes every key of `keys`, a walk that has not started, into
/// `out` (cleared first): the frame's flat key column, whose positions
/// are its frame indices. Walking to the last element enforces the key
/// columns' byte budget, and the keys must strictly increase, as every
/// `<+`-sorted list and its suffixes do: a frame whose keys repeat or
/// fall back fails, so every frame decoded here is one on which the
/// merge and the hash probe report the same pairs.
///
/// It keeps nothing of the frame. The pull handler decodes every
/// delivery with it: a pulled list is almost never a suffix of the one
/// before, so a [`FrameDecoder`]'s copy of its bytes would never be
/// served.
pub fn decode_key_column(keys: ColKeys<'_>, out: &mut Vec<OrderKey>) -> Result<(), WireError> {
    decode_keys_with(keys, out, |_| {})
}

/// [`decode_key_column`], passing `at` the walk's column positions
/// before each element and once at the end.
#[inline]
fn decode_keys_with(
    mut keys: ColKeys<'_>,
    out: &mut Vec<OrderKey>,
    mut at: impl FnMut((usize, usize)),
) -> Result<(), WireError> {
    debug_assert_eq!(keys.positions(), (0, 0), "the walk has not started");
    out.clear();
    out.reserve(keys.remaining());
    loop {
        at(keys.positions());
        let Some(k) = keys.next_key() else {
            return Ok(());
        };
        let k = k?;
        debug_assert_eq!(k.idx, out.len(), "frame index is the position");
        let key = OrderKey::new(k.v, k.degree);
        if out.last().is_some_and(|prev| prev.word() >= key.word()) {
            return Err(WireError::InvalidValue("frame keys must strictly increase"));
        }
        out.push(key);
    }
}

/// The push handler's frame decoder: it decodes a frame's two key
/// columns, whole, into a flat [`OrderKey`] column whose positions are
/// the frame indices, and serves a frame that is a nested suffix of the
/// last frame it decoded without decoding it.
///
/// A push apex ships, for every out-neighbour, the suffix of one list
/// past it, so a rank receives runs of frames that are suffixes of the
/// one before. The decoder keeps the last decoded frame's key column,
/// its raw vertex and degree column bytes in one buffer, and each
/// element's `u32` byte offset in both columns. A frame of `n'`
/// elements can only be the suffix from element `j = n − n'` of a
/// stored frame of `n`, and it is served as `&keys[j..]` when
///
/// 1. its vertex column equals the stored one from element `j`'s
///    offset,
/// 2. its first raw degree equals stored key `j`'s degree, and
/// 3. its remaining degree bytes equal the stored ones from element
///    `j + 1`'s offset.
///
/// Identical bytes decode to identical keys, so a served frame is
/// exactly what a fresh decode would return. Any other frame is decoded
/// fresh, as [`decode_key_column`] decodes it (the same errors, the
/// same strict-increase check), and replaces the stored one. A failed
/// decode forgets the stored frame, and a frame whose key columns
/// outgrow `u32` offsets is decoded but not stored.
///
/// Buffers are cleared, not reallocated, so one decoder serves every
/// frame of a rank and allocates only while they grow.
///
/// ```
/// use tripoll_core::FrameDecoder;
/// use tripoll_graph::OrderKey;
/// use tripoll_ygm::wire::{ColCursor, ColSuffixes, WireEncode, WireReader};
///
/// let list: Vec<(u64, u64)> = (1..=5).map(|v| (v, 10 * v)).collect();
/// let mut cols = ColSuffixes::new();
/// cols.fill(&list, |e| e.0, |e| e.1, |_, _| {});
/// let mut decoder = FrameDecoder::new();
/// for j in 0..list.len() {
///     let mut frame = Vec::new();
///     cols.suffix(j).encode_wire(&mut frame);
///     let cursor = ColCursor::<()>::begin(&mut WireReader::new(&frame)).unwrap();
///     // Frames 1.. are served from frame 0's column.
///     let keys = decoder.decode(cursor.keys).unwrap();
///     let fresh: Vec<OrderKey> = list[j..].iter().map(|&(v, d)| OrderKey::new(v, d)).collect();
///     assert_eq!(keys, &fresh[..]);
/// }
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// The last decoded frame's keys.
    keys: Vec<OrderKey>,
    /// Its vertex column bytes, then its degree column bytes.
    cols: Vec<u8>,
    /// `(vertex, degree)` column offsets: one entry per element, then
    /// one at the two column ends. Empty when no frame is stored.
    offsets: Vec<(u32, u32)>,
}

impl FrameDecoder {
    /// A decoder with no stored frame.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Decodes `keys`, a walk that has not started, into the frame's
    /// flat key column: served from the stored frame when the frame is
    /// one of its suffixes, decoded fresh otherwise (see the type
    /// docs). Fails, and forgets the stored frame, exactly where a
    /// fresh decode fails.
    pub fn decode(&mut self, keys: ColKeys<'_>) -> Result<&[OrderKey], WireError> {
        debug_assert_eq!(keys.positions(), (0, 0), "the walk has not started");
        match self.suffix_start(&keys) {
            Some(j) => Ok(&self.keys[j..]),
            None => {
                if let Err(e) = self.decode_fresh(keys) {
                    self.keys.clear();
                    self.offsets.clear();
                    return Err(e);
                }
                Ok(&self.keys)
            }
        }
    }

    /// The stored element the frame of `keys` is the suffix from, if it
    /// is one: its byte columns match the stored ones from there.
    #[inline]
    fn suffix_start(&self, keys: &ColKeys<'_>) -> Option<usize> {
        let n = keys.remaining();
        let j = self.offsets.len().checked_sub(n + 1)?;
        if n == 0 {
            return None;
        }
        let (vcol, dcol) = keys.column_bytes();
        let vlen = self.offsets[self.keys.len()].0 as usize;
        let (stored_v, stored_d) = self.cols.split_at(vlen);
        if vcol != &stored_v[self.offsets[j].0 as usize..] {
            return None;
        }
        let mut d = WireReader::new(dcol);
        if d.take_varint().ok()? != self.keys[j].degree {
            return None;
        }
        (dcol[d.position()..] == stored_d[self.offsets[j + 1].1 as usize..]).then_some(j)
    }

    /// Decodes every key of `keys` and stores the frame's column bytes
    /// and element offsets, if they fit `u32`.
    fn decode_fresh(&mut self, keys: ColKeys<'_>) -> Result<(), WireError> {
        let (vcol, dcol) = keys.column_bytes();
        let store = vcol.len() + dcol.len() <= u32::MAX as usize;
        let offsets = &mut self.offsets;
        offsets.clear();
        if store {
            offsets.reserve(keys.remaining() + 1);
        }
        decode_keys_with(keys, &mut self.keys, |(v, d)| {
            if store {
                offsets.push((v as u32, d as u32));
            }
        })?;
        self.cols.clear();
        if store {
            self.cols.extend_from_slice(vcol);
            self.cols.extend_from_slice(dcol);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(ids: &[u64]) -> Vec<(u64, OrderKey)> {
        // Distinct degrees so order follows the given sequence.
        ids.iter()
            .enumerate()
            .map(|(i, &v)| (v, OrderKey::new(v, i as u64)))
            .collect()
    }

    #[test]
    fn merge_path_intersects() {
        // left = elements 0..6, right = evens; sorted by same key space.
        let all = keys(&[10, 11, 12, 13, 14, 15]);
        let left: Vec<_> = all.clone();
        let right: Vec<_> = all.iter().filter(|(v, _)| v % 2 == 0).cloned().collect();
        let mut matches = Vec::new();
        merge_path(
            &left,
            &right,
            |l| l.1,
            |r| r.1,
            |l, r| {
                assert_eq!(l.0, r.0);
                matches.push(l.0);
            },
        );
        assert_eq!(matches, vec![10, 12, 14]);
    }

    #[test]
    fn merge_path_empty_sides() {
        let some = keys(&[1, 2, 3]);
        let empty: Vec<(u64, OrderKey)> = Vec::new();
        let mut called = false;
        merge_path(&some, &empty, |l| l.1, |r| r.1, |_, _| called = true);
        merge_path(&empty, &some, |l| l.1, |r| r.1, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn merge_path_disjoint() {
        let left = keys(&[1, 2]);
        let right: Vec<(u64, OrderKey)> =
            vec![(9, OrderKey::new(9, 100)), (8, OrderKey::new(8, 101))];
        let mut called = false;
        merge_path(&left, &right, |l| l.1, |r| r.1, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn report_aggregation() {
        let mk = |name, secs, bytes| PhaseReport {
            name,
            seconds: secs,
            stats: CommStats {
                bytes_remote: bytes,
                ..Default::default()
            },
        };
        let report = SurveyReport {
            mode: EngineMode::PushPull,
            phases: vec![
                mk("dry-run", 1.0, 10),
                mk("push", 2.0, 100),
                mk("pull", 0.5, 30),
            ],
            total_seconds: 3.5,
            pulled_vertices: 4,
            pull_grants: 2,
        };
        assert_eq!(report.local_stats().bytes_remote, 140);
    }

    #[test]
    fn mode_display() {
        assert_eq!(EngineMode::PushOnly.to_string(), "Push-Only");
        assert_eq!(EngineMode::PushPull.to_string(), "Push-Pull");
    }

    #[test]
    fn survey_config_defaults_and_conversions() {
        // Production default: the auto-selected kernel.
        let d = SurveyConfig::default();
        assert_eq!(d.kernel, IntersectKernel::Auto);
        assert_eq!(SurveyConfig::new(), d);
        assert!(!d.is_reference());
        // A bare kernel converts to the config that names it.
        assert_eq!(
            SurveyConfig::from(IntersectKernel::Gallop),
            d.with_kernel(IntersectKernel::Gallop)
        );
        // Only the scalar merge selects the reference path.
        assert!(SurveyConfig::from(IntersectKernel::MergeScalar).is_reference());
        assert!(!SurveyConfig::from(IntersectKernel::Gallop).is_reference());
        assert!(!SurveyConfig::from(IntersectKernel::Merge).is_reference());
    }

    #[test]
    fn auto_kernel_selection_follows_the_skew_ratio() {
        let auto = IntersectKernel::Auto;
        // Balanced or mildly skewed sides: the branchless merge.
        assert_eq!(auto.select(100, 100), IntersectKernel::Merge);
        assert_eq!(auto.select(100, 799), IntersectKernel::Merge);
        assert_eq!(auto.select(799, 100), IntersectKernel::Merge);
        // Past GALLOP_RATIO in either direction: gallop.
        assert_eq!(auto.select(100, 801), IntersectKernel::Gallop);
        assert_eq!(auto.select(801, 100), IntersectKernel::Gallop);
        assert_eq!(auto.select(0, 1), IntersectKernel::Gallop);
        // Explicit kernels resolve to themselves at any skew.
        for k in [
            IntersectKernel::MergeScalar,
            IntersectKernel::Gallop,
            IntersectKernel::Merge,
        ] {
            assert_eq!(k.select(1, 1_000_000), k);
            assert_eq!(k.select(5, 5), k);
        }
    }

    /// Pins the dispatch-count counters of the one [`GALLOP_RATIO`]
    /// rule, symmetric in the side lengths, so the docs and the code
    /// cannot drift apart. A frame's keys are decoded before they are
    /// intersected, so a frame on either side resolves like a slice.
    #[test]
    fn auto_dispatch_counters_pin_the_shape_contract() {
        use tripoll_ygm::wire::{to_bytes, ColBatch, ColCursor, WireReader};
        let mk = |n: usize| -> Vec<(u64, OrderKey)> {
            (0..n as u64).map(|v| (v, OrderKey::new(v, v))).collect()
        };
        let big = mk(900);
        let small = mk(100);
        let runs = |l: &[(u64, OrderKey)], r: &[(u64, OrderKey)]| {
            let _ = kernel_stats_take();
            intersect_slices(IntersectKernel::Auto, l, r, |e| e.1, |e| e.1, |_, _| {});
            let s = kernel_stats_take();
            (s.scalar_runs, s.gallop_runs, s.merge_runs)
        };
        assert_eq!(runs(&small, &small), (0, 0, 1), "balanced");
        assert_eq!(runs(&small, &big), (0, 1, 0), "right-heavy");
        assert_eq!(runs(&big, &small), (0, 1, 0), "left-heavy");
        // The same sides as decoded frames: the same dispatch.
        let decoded = |l: &[(u64, OrderKey)]| -> Vec<(u64, OrderKey)> {
            let frame = to_bytes(&ColBatch::<()>(
                l.iter().map(|e| (e.0, e.1.degree, ())).collect(),
            ));
            let mut reader = WireReader::new(&frame);
            let cur: ColCursor<'_, ()> = ColCursor::begin(&mut reader).expect("frame");
            cur.keys
                .map(|k| k.map(|k| (k.v, OrderKey::new(k.v, k.degree))))
                .collect::<Result<_, _>>()
                .expect("keys")
        };
        assert_eq!(runs(&decoded(&small), &small), (0, 0, 1), "frame balanced");
        assert_eq!(runs(&decoded(&small), &big), (0, 1, 0), "frame right-heavy");
        assert_eq!(runs(&decoded(&big), &small), (0, 1, 0), "frame left-heavy");
    }

    #[test]
    fn gallop_seek_finds_the_lower_bound() {
        let list: Vec<(u64, OrderKey)> = (0..200u64)
            .map(|i| (i * 2, OrderKey::new(i * 2, i * 2)))
            .collect();
        let key = |e: &(u64, OrderKey)| e.1;
        let mut compares = 0u64;
        for target_v in 0..420u64 {
            let target = OrderKey::new(target_v, target_v);
            for from in [0usize, 3, 150, 199, 200] {
                let got = gallop_seek(&list, &key, from, target.word(), &mut compares);
                // Reference: first index >= from with key >= target.
                let mut reference = list.len();
                for (i, e) in list.iter().enumerate().skip(from) {
                    if key(e) >= target {
                        reference = i;
                        break;
                    }
                }
                assert_eq!(got, reference, "target {target_v} from {from}");
            }
        }
        assert!(compares > 0);
    }

    /// Every kernel must emit exactly the match sequence of
    /// `merge_path`, on slices, for assorted shapes.
    #[test]
    fn slice_kernels_agree_with_merge_path() {
        let mk = |vals: &[u64]| -> Vec<(u64, OrderKey)> {
            vals.iter().map(|&v| (v, OrderKey::new(v, v))).collect()
        };
        let cases: &[(Vec<u64>, Vec<u64>)] = &[
            (vec![], vec![]),
            (vec![1, 2, 3], vec![]),
            (vec![], vec![1, 2, 3]),
            (
                (0..200).map(|i| i * 2).collect(),
                (0..200).map(|i| i * 3).collect(),
            ),
            ((0..500).collect(), vec![250]),
            (vec![250], (0..500).collect()),
            (vec![7, 7, 7], vec![7, 7]),
        ];
        for (lv, rv) in cases {
            let left = mk(lv);
            let right = mk(rv);
            let mut oracle = Vec::new();
            merge_path(
                &left,
                &right,
                |l| l.1,
                |r| r.1,
                |l, r| oracle.push((l.0, r.0)),
            );
            for kernel in [
                IntersectKernel::Auto,
                IntersectKernel::MergeScalar,
                IntersectKernel::Gallop,
                IntersectKernel::Merge,
            ] {
                let mut got = Vec::new();
                intersect_slices(
                    kernel,
                    &left,
                    &right,
                    |l| l.1,
                    |r| r.1,
                    |l, r| got.push((l.0, r.0)),
                );
                assert_eq!(got, oracle, "kernel {kernel} on {lv:?} x {rv:?}");
            }
        }
    }

    /// A built index is a power of two at least [`SLOTS_PER_KEY`] slots
    /// per key, holds each frame index in exactly one slot, and keeps
    /// the keys' words in frame order; a rebuild for a shorter frame
    /// leaves none of the longer frame's slots or words.
    #[test]
    fn key_index_holds_each_key_once_in_a_sparse_table() {
        let mut index = KeyIndex::new();
        for n in [200u64, 0, 1, 2, 7, 8, 9, 64, 65] {
            let keys: Vec<OrderKey> = (0..n).map(|v| OrderKey::new(v, v)).collect();
            index.build(&keys).expect("short frame");
            let size = index.slots.len();
            assert!(size.is_power_of_two(), "{n} keys: {size} slots");
            assert!(size >= SLOTS_PER_KEY * keys.len(), "{n} keys: {size} slots");
            assert!(
                n == 0 || size < 2 * SLOTS_PER_KEY * keys.len(),
                "{n} keys: {size} slots"
            );
            let mut held: Vec<u32> = index
                .slots
                .iter()
                .copied()
                .filter(|&i| i != EMPTY_SLOT)
                .collect();
            held.sort_unstable();
            assert_eq!(held, (0..n as u32).collect::<Vec<_>>(), "{n} keys");
            let words: Vec<u128> = keys.iter().map(|k| k.word()).collect();
            assert_eq!(index.words, words, "{n} keys");
        }
    }

    #[test]
    fn kernel_stats_accumulate_and_reset() {
        let _ = kernel_stats_take();
        let left: Vec<(u64, OrderKey)> = (0..64u64).map(|v| (v, OrderKey::new(v, v))).collect();
        intersect_slices(
            IntersectKernel::MergeScalar,
            &left,
            &left,
            |l| l.1,
            |r| r.1,
            |_, _| {},
        );
        let s = kernel_stats();
        assert_eq!(s.matches, 64);
        assert_eq!(s.candidates, 64);
        assert_eq!(s.scalar_runs, 1);
        assert!(s.compares >= 64);
        // Auto at heavy skew dispatches the gallop kernel.
        let small = &left[..4];
        intersect_slices(
            IntersectKernel::Auto,
            small,
            &left,
            |l| l.1,
            |r| r.1,
            |_, _| {},
        );
        assert_eq!(kernel_stats().gallop_runs, 1);
        let taken = kernel_stats_take();
        assert_eq!(taken.matches, 68);
        assert_eq!(kernel_stats(), KernelStats::default());
    }
}
