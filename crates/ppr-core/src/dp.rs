//! The PP-ARQ chunking dynamic program (Eqs. 4–5, §5.1).
//!
//! Given the run-length representation of a packet, the receiver chooses
//! which *chunks* — groups of consecutive bad runs together with the good
//! runs trapped between them — to request for retransmission. Describing
//! many small chunks costs feedback bits; merging them into one big chunk
//! re-sends good symbols. The DP balances the two:
//!
//! * Singleton chunk `c_{i,i}` (Eq. 4):
//!   `C = log S + log λᵇᵢ + min(λᵍᵢ, λ_C)`
//!   (offset + length description, plus sending the following good run or
//!   its checksum, whichever is smaller).
//! * Interval `c_{i,j}` (Eq. 5): either keep it intact —
//!   `2 log S + Σ_{l=i}^{j-1} λᵍ_l` (describe one big range, re-send the
//!   interior good symbols) — or split it at the cheapest point `k` into
//!   `C(c_{i,k}) + C(c_{k+1,j})`.
//!
//! The paper memoizes this bottom-up over intervals: `O(L³)` time,
//! `O(L²)` space. That formulation is kept verbatim as
//! [`plan_chunks_interval`] — the pinned reference the property tests and
//! the bench ladder compare against — but it is **not** what the
//! production path runs, because the recurrence has far more structure
//! than the interval form exposes:
//!
//! 1. **The optimum is a partition.** Every split tree bottoms out in a
//!    set of maximal unsplit intervals, so the search space is exactly
//!    the partitions of the `L` bad runs into consecutive groups (what
//!    [`plan_chunks_brute`] enumerates), and the interval DP collapses to
//!    the 1-D partition DP `best[j] = min_i best[i-1] + w(i, j)`.
//! 2. **The off-diagonal weight is separable.** With `P[i]` the prefix
//!    sum of good-run lengths, a multi-run group costs
//!    `w(i, j) = 2 log S + (P[j] − P[i])·bpu` — a function of `i` plus a
//!    function of `j`. Separable weights satisfy the concave Monge /
//!    total-monotonicity condition *with equality*, so the usual
//!    Knuth/SMAWK machinery degenerates further: the minimum over `i` is
//!    a single running prefix-minimum of `best[i-1] − P[i]·bpu`, and the
//!    whole DP is `O(L)` time, `O(L)` space. The `min(λᵍ, λ_C)` kink of
//!    Eq. 4 lives only on the diagonal (`i = j`, the singleton chunk), so
//!    it is one extra candidate per cell, not a Monge violation inside
//!    the minimization. (The kink *does* break the quadrangle inequality
//!    for the combined weight — `2 log S ≤ singleton(j)` can fail — which
//!    is why a generic SMAWK over the combined `w` would be unsound;
//!    [`plan_chunks_with`] cross-checks itself against
//!    [`plan_chunks_interval`] under `debug_assertions` instead of
//!    assuming the inequality.)
//!
//! Plans are *identical* to the interval DP's, not merely cost-equal.
//! The interval reconstruction prefers the unsplit interval on cost ties
//! and the smallest split point `k` otherwise; unfolding that recursion
//! shows the partition it selects is the greedy **smallest-boundary**
//! optimum: scanning left to right, each group is the shortest prefix
//! group consistent with global optimality, except that a single group
//! running to the end wins any tie. The `O(L)` planner reconstructs with
//! exactly that rule from a suffix-cost array (`subopt[s]` = optimal cost
//! of runs `s..L`), so it agrees with the interval DP chunk-for-chunk —
//! pinned by the tie-inducing property tests in `tests/properties.rs`.
//!
//! So there is one production planner ([`plan_chunks`] /
//! [`plan_chunks_with`]), one executable spec ([`plan_chunks_interval`])
//! and one exponential oracle ([`plan_chunks_brute`]).
//!
//! **Selection runs in fixed point.** Summing the same group costs in
//! different associations (the interval DP's split tree vs a suffix
//! fold) perturbs `f64` totals by an ulp, which is enough to flip an
//! exact cost tie into an implementation-dependent strict comparison. So
//! every planner scores partitions in Q23.40 fixed point: each atomic
//! cost (`log S`, `log λᵇ`, `bpu`, `λ_C`) is quantized once, products
//! with integer run lengths and all sums are then exact, and integer
//! addition is associative — two different evaluation orders, one
//! answer. `cost_bits` is the fixed-point optimum converted back to
//! `f64` (within `≈ L · 2⁻⁴¹` bits of the exact real value), identical
//! across planners. The `no-float` lint (`cargo run -p ppr-lint`)
//! enforces this mechanically: the scoring and reconstruction spans
//! below are declared `region(no-float)` and may not contain float
//! tokens, so a stray `f64` cannot creep back into selection.
//!
//! The per-frame entry point [`plan_chunks_with`] takes a caller-provided
//! [`ChunkScratch`] so the hot feedback path
//! ([`crate::arq::ReceiverPacket::make_feedback`]) performs no table
//! allocation per frame; [`plan_chunks`] is its allocating convenience
//! wrapper.

use crate::runs::{RunLengths, UnitRange};

/// Cost model translating run lengths (in units) into feedback bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Packet size `S` in units (for `log S` offset/length descriptors).
    pub packet_units: usize,
    /// Bits per unit (8 when units are bytes, 4 when codewords).
    pub bits_per_unit: f64,
    /// Checksum length `λ_C` in bits (16 for the CRC-16 used here).
    pub checksum_bits: f64,
}

/// Fractional bits of the planners' fixed-point cost representation
/// (Q23.40: exact for dyadic cost models, `< 5·10⁻¹³` bits of rounding
/// per irrational atom otherwise).
const FX_SHIFT: u32 = 40;

/// Quantizes one atomic cost (bits) to fixed point.
fn fx(bits: f64) -> i64 {
    (bits * (1i64 << FX_SHIFT) as f64).round() as i64
}

impl CostModel {
    /// Model for a packet of `packet_units` byte units.
    pub fn bytes(packet_units: usize) -> Self {
        CostModel {
            packet_units,
            bits_per_unit: 8.0,
            checksum_bits: 16.0,
        }
    }

    /// `log₂ S`, the bits to describe an offset (or length) in the packet.
    fn log_s(&self) -> f64 {
        (self.packet_units.max(2) as f64).log2()
    }

    /// Eq. 4 in `f64` — only [`plan_chunks_brute`] scores with this, so
    /// the exponential reference stays arithmetic-independent of the
    /// fixed-point planners it checks.
    fn singleton(&self, bad_len: usize, good_len: usize) -> f64 {
        self.log_s()
            + (bad_len.max(2) as f64).log2()
            + (good_len as f64 * self.bits_per_unit).min(self.checksum_bits)
    }

    /// Eq. 5 first branch in `f64` (see [`Self::singleton`]).
    fn merged(&self, interior_good_units: usize) -> f64 {
        2.0 * self.log_s() + interior_good_units as f64 * self.bits_per_unit
    }

    /// The quantized atoms every planner scores partitions with.
    fn fixed(&self) -> FxCost {
        FxCost {
            log_s: fx(self.log_s()),
            bits_per_unit: fx(self.bits_per_unit),
            checksum_bits: fx(self.checksum_bits),
        }
    }
}

/// The cost model's atoms in Q23.40 fixed point (see the module docs on
/// why selection must not run in `f64`).
#[derive(Debug, Clone, Copy)]
struct FxCost {
    log_s: i64,
    bits_per_unit: i64,
    checksum_bits: i64,
}

impl FxCost {
    /// Converts a fixed-point total back to bits (the only approved
    /// float boundary on the way *out* of the planners).
    fn to_bits(total: i64) -> f64 {
        total as f64 / (1i64 << FX_SHIFT) as f64
    }

    // ppr-lint: region(no-float) begin — Eq. 4/5 scoring must stay in
    // Q23.40 integer arithmetic: one stray float sum re-introduces the
    // association-order tie flips PR 5 removed.
    /// Eq. 4: cost of a singleton chunk.
    fn singleton(&self, bad_len: usize, good_len: usize) -> i64 {
        self.log_s
            // ppr-lint: allow(no-float) — quantizing the log λᵇ atom is
            // the approved float boundary on the way in: a pure function
            // of the integer run length, identical across planners.
            + fx((bad_len.max(2) as f64).log2())
            + (good_len as i64 * self.bits_per_unit).min(self.checksum_bits)
    }

    /// Eq. 5 first branch: cost of keeping `c_{i,j}` as one chunk.
    /// Written as `2 log S + (P[j] − P[i])·bpu`; the per-unit product is
    /// exact, so the weight is exactly separable in `i` and `j`.
    fn merged(&self, interior_good_units: usize) -> i64 {
        2 * self.log_s + interior_good_units as i64 * self.bits_per_unit
    }
    // ppr-lint: region(no-float) end
}

/// The planner's output: the chunk ranges to request, in packet order,
/// and the optimal cost in feedback bits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkPlan {
    /// Requested retransmission ranges (unit coordinates). Every bad run
    /// is covered by exactly one chunk; chunks never overlap and are
    /// sorted.
    pub chunks: Vec<UnitRange>,
    /// The DP-optimal feedback cost in bits (`C(c_{1,L})`).
    pub cost_bits: f64,
}

impl ChunkPlan {
    /// An empty plan (nothing to retransmit).
    pub fn empty() -> Self {
        ChunkPlan {
            chunks: Vec::new(),
            cost_bits: 0.0,
        }
    }

    /// Total units requested for retransmission.
    pub fn requested_units(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

/// Reusable working memory for the production planner.
///
/// One scratch per receiver amortizes every per-frame allocation of the
/// feedback path: the good-run prefix sums, the suffix-cost array and
/// the output chunk vector all keep their capacity across frames. The
/// interval DP's `2·L²` table rows have no counterpart here at all — the
/// partition planner never materializes a table.
#[derive(Debug, Clone, Default)]
pub struct ChunkScratch {
    /// `prefix_good[i]` = Σ good-run lengths of runs `0..i` (units).
    prefix_good: Vec<i64>,
    /// `subopt[s]` = fixed-point optimal cost of chunking runs `s..L`
    /// (length `L+1`).
    subopt: Vec<i64>,
    /// The most recent plan; its chunk vector is reused across calls.
    plan: ChunkPlan,
}

impl ChunkScratch {
    /// An empty scratch (allocates lazily on first use).
    pub fn new() -> Self {
        ChunkScratch::default()
    }

    /// The plan produced by the most recent [`plan_chunks_with`] call.
    pub fn plan(&self) -> &ChunkPlan {
        &self.plan
    }

    /// (Re)builds the good-run prefix sums for `rl`.
    fn fill_prefix(&mut self, rl: &RunLengths) {
        self.prefix_good.clear();
        self.prefix_good.reserve(rl.l() + 1);
        let mut acc = 0i64;
        self.prefix_good.push(0);
        for p in &rl.pairs {
            acc += p.good_len as i64;
            self.prefix_good.push(acc);
        }
    }
}

/// Plans the optimal chunk set: the production planner
/// ([`plan_chunks_with`]) on a fresh scratch. Plans are identical to the
/// paper's `O(L³)` interval DP ([`plan_chunks_interval`]).
pub fn plan_chunks(rl: &RunLengths, cost: &CostModel) -> ChunkPlan {
    plan_chunks_with(rl, cost, &mut ChunkScratch::new()).clone()
}

/// The `O(L)`-time planner: the separable off-diagonal weight reduces
/// the partition DP's minimization to a running suffix minimum of
/// `P[e]·bpu + subopt[e + 1]` (module docs); the Eq. 4 singleton is the
/// one extra candidate per cell.
///
/// Under `debug_assertions` every instance with `L ≤ 96` is cross-checked
/// against [`plan_chunks_interval`] — the per-instance fallback guard for
/// the total-monotonicity argument.
pub fn plan_chunks_with<'a>(
    rl: &RunLengths,
    cost: &CostModel,
    scratch: &'a mut ChunkScratch,
) -> &'a ChunkPlan {
    let l = rl.l();
    scratch.plan.chunks.clear();
    scratch.plan.cost_bits = 0.0;
    if l == 0 {
        return &scratch.plan;
    }
    let fxc = cost.fixed();
    scratch.fill_prefix(rl);
    scratch.subopt.clear();
    scratch.subopt.resize(l + 1, 0);
    // ppr-lint: region(no-float) begin — suffix-min DP selection and
    // reconstruction compare exact Q23.40 integers only.
    let two_log_s = 2 * fxc.log_s;
    // P[i]·bpu, exact in fixed point — the separable half of the merged
    // weight.
    let pb = |scratch: &ChunkScratch, i: usize| scratch.prefix_good[i] * fxc.bits_per_unit;
    // Running minimum over e ∈ {s+1, …, L-1} of P[e]·bpu + subopt[e+1],
    // maintained as e-candidates are produced right to left. Integer
    // arithmetic makes the factored candidate (2logS − P[s]·bpu) +
    // suffix_min *equal* to the direct merged(s,e) + subopt[e+1] — the
    // separability that collapses the O(L) scan per cell to O(1).
    let mut suffix_min = i64::MAX;
    for s in (0..l).rev() {
        let mut best =
            fxc.singleton(rl.pairs[s].bad_len, rl.pairs[s].good_len) + scratch.subopt[s + 1];
        if s + 1 < l {
            let cand = (two_log_s - pb(scratch, s)) + suffix_min;
            if cand < best {
                best = cand;
            }
        }
        scratch.subopt[s] = best;
        suffix_min = suffix_min.min(pb(scratch, s) + scratch.subopt[s + 1]);
    }

    // Greedy smallest-boundary reconstruction with the same integer
    // candidate values the DP minimized.
    let mut s = 0usize;
    while s < l {
        if s + 1 == l {
            scratch.plan.chunks.push(rl.chunk_range(s, s));
            break;
        }
        let to_end = (two_log_s - pb(scratch, s)) + pb(scratch, l - 1);
        if to_end == scratch.subopt[s] {
            scratch.plan.chunks.push(rl.chunk_range(s, l - 1));
            break;
        }
        let singleton =
            fxc.singleton(rl.pairs[s].bad_len, rl.pairs[s].good_len) + scratch.subopt[s + 1];
        let mut e = s;
        if singleton != scratch.subopt[s] {
            e = s + 1;
            loop {
                let cand = (two_log_s - pb(scratch, s)) + (pb(scratch, e) + scratch.subopt[e + 1]);
                if cand == scratch.subopt[s] {
                    break;
                }
                e += 1;
                debug_assert!(e < l, "reconstruction ran past the last run");
            }
        }
        scratch.plan.chunks.push(rl.chunk_range(s, e));
        s = e + 1;
    }
    // ppr-lint: region(no-float) end
    scratch.plan.cost_bits = FxCost::to_bits(scratch.subopt[0]);

    #[cfg(debug_assertions)]
    if l <= 96 {
        let spec = plan_chunks_interval(rl, cost);
        debug_assert_eq!(
            scratch.plan.chunks, spec.chunks,
            "O(L) planner diverged from the interval DP"
        );
        debug_assert_eq!(
            scratch.plan.cost_bits, spec.cost_bits,
            "O(L) cost diverged from the interval DP"
        );
    }
    &scratch.plan
}

/// The paper's `O(L³)`-time, `O(L²)`-space interval DP (Eqs. 4–5),
/// kept verbatim as the executable spec: the property tests, the
/// `chunking_dp` bench ladder and [`plan_chunks_with`]'s debug
/// cross-check compare against it. Production code paths call
/// [`plan_chunks`] (the `O(L)` planner) instead; the two produce
/// identical chunk vectors.
pub fn plan_chunks_interval(rl: &RunLengths, cost: &CostModel) -> ChunkPlan {
    let l = rl.l();
    if l == 0 {
        return ChunkPlan::empty();
    }
    let fxc = cost.fixed();
    // ppr-lint: region(no-float) begin — the pinned reference scores in
    // the same exact Q23.40 integers as the production planners.
    // cost_table[i][j], choice[i][j] for i ≤ j; j index shifted by i.
    let mut cost_table = vec![vec![0i64; l]; l];
    let mut split = vec![vec![usize::MAX; l]; l]; // usize::MAX = merged

    for (i, row) in cost_table.iter_mut().enumerate() {
        row[i] = fxc.singleton(rl.pairs[i].bad_len, rl.pairs[i].good_len);
    }
    for span in 2..=l {
        for i in 0..=(l - span) {
            let j = i + span - 1;
            let mut best = fxc.merged(rl.interior_good(i, j));
            let mut best_split = usize::MAX;
            for k in i..j {
                let c = cost_table[i][k] + cost_table[k + 1][j];
                if c < best {
                    best = c;
                    best_split = k;
                }
            }
            cost_table[i][j] = best;
            split[i][j] = best_split;
        }
    }

    let mut chunks = Vec::new();
    reconstruct(rl, &split, 0, l - 1, &mut chunks);
    chunks.sort_by_key(|c| c.start);
    // ppr-lint: region(no-float) end
    ChunkPlan {
        chunks,
        cost_bits: FxCost::to_bits(cost_table[0][l - 1]),
    }
}

fn reconstruct(
    rl: &RunLengths,
    split: &[Vec<usize>],
    i: usize,
    j: usize,
    out: &mut Vec<UnitRange>,
) {
    if i == j || split[i][j] == usize::MAX {
        out.push(rl.chunk_range(i, j));
        return;
    }
    let k = split[i][j];
    reconstruct(rl, split, i, k, out);
    reconstruct(rl, split, k + 1, j, out);
}

/// Exponential-time reference: evaluates every partition of the bad runs
/// into consecutive groups and returns the best. For property tests only
/// (`L ≤ ~16`).
pub fn plan_chunks_brute(rl: &RunLengths, cost: &CostModel) -> ChunkPlan {
    let l = rl.l();
    if l == 0 {
        return ChunkPlan::empty();
    }
    assert!(l <= 20, "brute force is exponential; got L={l}");
    let mut best_cost = f64::INFINITY;
    let mut best_mask = 0u32;
    // Bit b of mask set ⇒ boundary between bad runs b and b+1.
    for mask in 0..(1u32 << (l - 1)) {
        let mut total = 0.0;
        let mut start = 0usize;
        for b in 0..l {
            let is_end = b == l - 1 || mask & (1 << b) != 0;
            if is_end {
                total += group_cost(rl, cost, start, b);
                start = b + 1;
            }
        }
        if total < best_cost {
            best_cost = total;
            best_mask = mask;
        }
    }
    let mut chunks = Vec::new();
    let mut start = 0usize;
    for b in 0..l {
        let is_end = b == l - 1 || best_mask & (1 << b) != 0;
        if is_end {
            chunks.push(rl.chunk_range(start, b));
            start = b + 1;
        }
    }
    ChunkPlan {
        chunks,
        cost_bits: best_cost,
    }
}

/// Cost of one group in a partition: Eq. 4 for singletons, the merged
/// branch of Eq. 5 otherwise.
fn group_cost(rl: &RunLengths, cost: &CostModel, i: usize, j: usize) -> f64 {
    if i == j {
        cost.singleton(rl.pairs[i].bad_len, rl.pairs[i].good_len)
    } else {
        cost.merged(rl.interior_good(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == 'g').collect()
    }

    fn plan(s: &str) -> ChunkPlan {
        let rl = RunLengths::from_labels(&labels(s));
        plan_chunks(&rl, &CostModel::bytes(s.len()))
    }

    /// Runs the production planner and the interval spec on one
    /// instance, asserts they agree and returns the production plan.
    fn plan_all_agree(rl: &RunLengths, cost: &CostModel) -> ChunkPlan {
        let interval = plan_chunks_interval(rl, cost);
        let production = plan_chunks(rl, cost);
        assert_eq!(interval.chunks, production.chunks, "O(L) planner diverged");
        let tol = 1e-9 * (1.0 + interval.cost_bits.abs());
        assert!((interval.cost_bits - production.cost_bits).abs() <= tol);
        production
    }

    #[test]
    fn all_good_plans_nothing() {
        let p = plan("gggggggg");
        assert!(p.chunks.is_empty());
        assert_eq!(p.cost_bits, 0.0);
    }

    #[test]
    fn single_bad_run_is_one_chunk() {
        let p = plan("gggbbbgg");
        assert_eq!(p.chunks, vec![UnitRange::new(3, 6)]);
        assert!(p.cost_bits > 0.0);
    }

    #[test]
    fn nearby_bad_runs_merge() {
        // Two bad runs separated by ONE good byte: describing two chunks
        // costs ~2(logS + logλ) + checksum ≥ 2·log(1000)·… while merging
        // costs 2 logS + 8 bits. Merge must win.
        let mut s = String::new();
        s.push_str(&"g".repeat(400));
        s.push_str("bbb");
        s.push('g');
        s.push_str("bbb");
        s.push_str(&"g".repeat(593));
        let p = plan(&s);
        assert_eq!(p.chunks.len(), 1);
        assert_eq!(p.chunks[0], UnitRange::new(400, 407));
    }

    #[test]
    fn distant_bad_runs_stay_separate() {
        // Two bad runs separated by 300 good bytes (2400 bits): merging
        // would re-send all of them; separate description is far cheaper.
        let mut s = String::new();
        s.push_str(&"g".repeat(100));
        s.push_str("bbbb");
        s.push_str(&"g".repeat(300));
        s.push_str("bb");
        s.push_str(&"g".repeat(594));
        let p = plan(&s);
        assert_eq!(p.chunks.len(), 2);
        assert_eq!(p.chunks[0], UnitRange::new(100, 104));
        assert_eq!(p.chunks[1], UnitRange::new(404, 406));
    }

    #[test]
    fn chunks_cover_all_bad_runs_and_never_overlap() {
        for s in [
            "bgbgbgbgbgbgbg",
            "bbbbgggbbgggggbggggggggggbbbbbbgggggb",
            "gbggggggggggggggggggggggggggggggggggb",
        ] {
            let rl = RunLengths::from_labels(&labels(s));
            let p = plan_all_agree(&rl, &CostModel::bytes(s.len()));
            for pair in &rl.pairs {
                let covered = p
                    .chunks
                    .iter()
                    .filter(|c| c.covers(pair.bad_start) && c.covers(pair.bad().end - 1))
                    .count();
                assert_eq!(covered, 1, "bad run {pair:?} in {s}");
            }
            for w in p.chunks.windows(2) {
                assert!(w[0].end <= w[1].start, "overlap in {s}");
            }
            // Chunks start and end on bad runs (never waste edges).
            let lab = labels(s);
            for c in &p.chunks {
                assert!(!lab[c.start], "chunk starts on good unit in {s}");
                assert!(!lab[c.end - 1], "chunk ends on good unit in {s}");
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_fixed_cases() {
        for s in [
            "bgb",
            "bbggbbggbb",
            "bgggggggggggggggggggggb",
            "bgbgbgbggggggggbgbgb",
            "gggbbgbbgggggbgggggggggggggggbbbbbgb",
        ] {
            let rl = RunLengths::from_labels(&labels(s));
            let cost = CostModel::bytes(s.len().max(64));
            let dp = plan_all_agree(&rl, &cost);
            let brute = plan_chunks_brute(&rl, &cost);
            assert!(
                (dp.cost_bits - brute.cost_bits).abs() < 1e-9,
                "cost mismatch on {s}: dp {} brute {}",
                dp.cost_bits,
                brute.cost_bits
            );
            assert_eq!(dp.chunks, brute.chunks, "chunk mismatch on {s}");
        }
    }

    #[test]
    fn exact_tie_cases_replicate_interval_tie_breaking() {
        // Dyadic cost model: every atomic cost is an integer-valued f64
        // (logS = 4, log λᵇ ∈ {1, 2, 3}, good contributions ∈ {0, 8, 16},
        // merged = 8 + 8·interior), so sums are exact in every planner
        // and ties are genuine. The interval DP's choices (merged beats
        // splits on ties; smallest split point wins) must be replicated
        // exactly.
        let cost = CostModel {
            packet_units: 16,
            bits_per_unit: 8.0,
            checksum_bits: 16.0,
        };
        for s in [
            "bgbgb",
            "bgbgbgbgb",
            "bbgbbgbb",
            "bggbggbggb",
            "bgbggbgbggbgb",
            "bbbbgbgbbbbgbgbbbb",
            "bgggbgggbgggb",
        ] {
            let rl = RunLengths::from_labels(&labels(s));
            let p = plan_all_agree(&rl, &cost);
            let brute = plan_chunks_brute(&rl, &cost);
            assert!((p.cost_bits - brute.cost_bits).abs() < 1e-9, "case {s}");
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        // One scratch across many instances: each call must fully reset
        // the derived state (this is the per-receiver usage pattern).
        let mut scratch = ChunkScratch::new();
        let cost = CostModel::bytes(64);
        let cases = ["bgb", "gggggggg", "bbggbbggbb", "b", "bgbgbgbg"];
        for s in cases {
            let rl = RunLengths::from_labels(&labels(s));
            let fresh = plan_chunks(&rl, &cost);
            let reused = plan_chunks_with(&rl, &cost, &mut scratch);
            assert_eq!(reused, &fresh, "scratch reuse on {s}");
        }
    }

    #[test]
    fn doc_example_single_burst() {
        // The facade doc-test scenario: 64 units, bad burst at 28..36.
        let mut hints = [0u8; 64];
        for h in &mut hints[28..36] {
            *h = 9;
        }
        let labels: Vec<bool> = hints.iter().map(|&h| h <= 6).collect();
        let rl = RunLengths::from_labels(&labels);
        let p = plan_chunks(&rl, &CostModel::bytes(64));
        assert_eq!(p.chunks.len(), 1);
        assert!(p.chunks[0].covers(30));
        assert_eq!(p.chunks[0], UnitRange::new(28, 36));
    }

    #[test]
    fn requested_units_accounting() {
        let p = plan("gggbbgggggggggggggggggggggggggggbbbg");
        assert_eq!(
            p.requested_units(),
            p.chunks.iter().map(|c| c.len()).sum::<usize>()
        );
        assert!(p.requested_units() >= 5);
    }
}
