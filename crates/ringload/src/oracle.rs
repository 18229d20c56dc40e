//! The scalable dynamic-partitioning oracle built on ring-cut
//! structure.
//!
//! ## Lower bound: phases against disjoint cut windows
//!
//! Any placement that respects capacity `k` must cut at least one edge
//! in **every window of `k` consecutive ring edges** — a window with no
//! cut edge would put its `k+1` spanned processes on one server. Tile
//! the ring with `⌊n/k⌋` disjoint windows (at some offset `c`) and
//! split the trace, per window, into **phases**: a phase ends as soon
//! as every edge of the window has been requested at least once since
//! the phase began. During a complete phase the offline schedule either
//! (a) kept the window's cut set fixed — then its cut edge in the
//! window (which exists) was requested and cost 1 of communication —
//! or (b) changed it, which requires migrating a process incident to
//! the window and costs 1 per move. A communication payment belongs to
//! exactly one window (windows are edge-disjoint) and one migration
//! can toggle edges of at most two adjacent windows, so
//!
//! ```text
//! OPT ≥ (total complete phases over disjoint windows) / 2
//! ```
//!
//! for **every** offset `c`; the oracle maximizes over a deterministic
//! sample of offsets (each individually sound, so sampling never breaks
//! the certificate).
//!
//! One trace pass counts up to 64 offsets, one bit lane each: a `u64`
//! per edge marks the lanes whose current phase has seen it, and each
//! window keeps its 64 lane counters bit-sliced, so one ripple-carry
//! add bumps all of a window's fresh lanes and its carry out is the set
//! of lanes that just completed a phase (`lane_phase_counts`).
//!
//! ## Upper bound: explicit feasible schedules
//!
//! Any feasible schedule's cost upper-bounds `OPT`. Every schedule
//! serves the first request on the initial placement; the oracle then
//! prices (a) the **lazy** schedule — keep the initial placement, pay
//! every request on its cut set — and (b) for packed instances
//! (`n = ℓ·k`), the **migrate-then-freeze** schedule of every rotation
//! `c < k`: pay the migrations into the contiguous placement with
//! blocks at offset `c` under its cheapest cyclic block→server
//! labelling, then serve statically on its cut edges `c − 1 + j·k`.
//! The reported bound is the cheapest of them. One pass builds the
//! per-edge request histogram every schedule is priced from, and one
//! pass over the processes counts rotation 0's labelling matches; each
//! later rotation moves one process per block, so all `k` rotations
//! cost `O(n + k·ℓ)`.

use rdbp_model::{Edge, Placement, RingInstance, WorkCounters};
use rdbp_offline::OfflineOracle;

/// The ring-loading oracle: certified `lower_bound ≤ OPT ≤ upper_bound`
/// at sizes far beyond the exact solvers (see module docs).
#[derive(Debug, Clone, Default)]
pub struct RingloadOracle {
    cut_evals: u64,
    rounding_passes: u64,
}

/// Offset budget of the lower bound, which maximizes over the window
/// offsets `0, step, 2·step, … < k` with `step = max(1, ⌊k / budget⌋)`.
/// That is `⌈k / step⌉` offsets, which can exceed the budget: all `k`
/// while `k < 2·budget`, so up to 127 (100 at k = 100, 67 at k = 200).
/// Each offset is individually sound; more offsets only tighten the
/// bound.
const MAX_OFFSETS: usize = 64;

impl RingloadOracle {
    /// An oracle with zeroed work counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The phase count of the best sampled window offset (twice the
    /// lower bound, kept integral). Offsets `0, step, 2·step, …` below
    /// `k` are scanned, `step = max(1, ⌊k / max_offsets⌋)` (see
    /// [`MAX_OFFSETS`]); each group of up to [`LANES`] of them is
    /// counted in one trace pass.
    fn best_phase_count(
        &mut self,
        instance: &RingInstance,
        trace: &[Edge],
        max_offsets: usize,
    ) -> u64 {
        let n = instance.n() as usize;
        let k = instance.capacity() as usize;
        if n <= k {
            // One server could hold the whole ring: no forced cuts.
            return 0;
        }
        let step = (k / max_offsets.max(1)).max(1);
        let offsets: Vec<usize> = (0..k).step_by(step).collect();
        // One (request, offset) pair decided per evaluation.
        self.cut_evals += trace.len() as u64 * offsets.len() as u64;
        offsets
            .chunks(LANES)
            .flat_map(|group| lane_phase_counts(n, k, group, trace))
            .max()
            .unwrap_or(0)
    }

    /// The cheapest explicit feasible schedule (see module docs).
    fn cheapest_schedule(
        &mut self,
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> u64 {
        let n = instance.n() as usize;
        let ell = instance.servers() as usize;
        let k = instance.capacity() as usize;

        // Lazy: stay put, pay the initial cut set.
        self.rounding_passes += 1;
        let Some((&first, rest)) = trace.split_first() else {
            return 0;
        };
        // Migrations only happen *after* serving a request (the cost
        // model charges communication on the pre-migration config), so
        // every schedule serves the first request on the initial
        // placement. The rest is counted per edge: a schedule pays the
        // counts of its cut edges.
        let first_charge = u64::from(initial.is_cut(first));
        let mut weights = vec![0u64; n];
        for e in rest {
            weights[e.0 as usize] += 1;
        }
        let lazy = initial
            .cut_edges()
            .map(|e| weights[e.0 as usize])
            .sum::<u64>();

        // Migrate-then-freeze rotations need exact blocks of k.
        if n != ell * k {
            return first_charge + lazy;
        }
        let rotation = self.cheapest_rotation(initial.assignment(), &weights, ell, k);
        first_charge + lazy.min(rotation)
    }

    /// The cheapest migrate-then-freeze schedule after the first request
    /// over every rotation `c < k` of a packed ring: its migrations plus
    /// the `weights` of its cut edges `c − 1 + j·k` (mod `n`).
    ///
    /// Rotation `c`'s block `j` holds processes `c + j·k .. c + (j+1)·k`.
    /// A cyclic labelling `t` puts block `j` on server `j − t` (mod `ℓ`),
    /// so it leaves in place `matches[t]` processes, those whose block
    /// `j` and server `s` have `j − s ≡ t`, and moves the rest. From
    /// rotation `c − 1` to `c` only process `c − 1 + j·k` changes block,
    /// from `j` to `j − 1`, so each rotation updates `ℓ` matches.
    fn cheapest_rotation(&mut self, servers: &[u32], weights: &[u64], ell: usize, k: usize) -> u64 {
        let n = servers.len();
        let mut matches = vec![0u64; ell];
        for (j, block) in servers.chunks(k).enumerate() {
            for &s in block {
                matches[sub_mod(j, s as usize, ell)] += 1;
            }
        }
        let kept = |matches: &[u64]| matches.iter().copied().max().unwrap_or(0);
        // Rotation 0's cut edges: n − 1 and j·k − 1.
        let comm = weights[n - 1] + (1..ell).map(|j| weights[j * k - 1]).sum::<u64>();
        let mut best = n as u64 - kept(&matches) + comm;
        for c in 1..k {
            let mut comm = 0;
            let mut back = ell - 1; // the block before block j
            for j in 0..ell {
                let p = c - 1 + j * k; // also rotation c's cut edge
                comm += weights[p];
                let s = servers[p] as usize;
                matches[sub_mod(j, s, ell)] -= 1;
                matches[sub_mod(back, s, ell)] += 1;
                back = j;
            }
            best = best.min(n as u64 - kept(&matches) + comm);
        }
        // One schedule per rotation, `ℓ` cut edges priced for each.
        self.rounding_passes += k as u64;
        self.cut_evals += (k * ell) as u64;
        best
    }
}

/// `(a − b) mod m` for `a, b < m`.
fn sub_mod(a: usize, b: usize, m: usize) -> usize {
    if a >= b {
        a - b
    } else {
        a + m - b
    }
}

/// Window offsets counted together in one trace pass: one bit lane of
/// a `u64` per offset.
const LANES: usize = 64;

/// The edges outside the tiling at offset `c`: positions
/// `⌊n/k⌋·k .. n` counted clockwise from edge `c`.
fn untiled_edges(n: usize, covered: usize, c: usize) -> impl Iterator<Item = usize> {
    (covered..n).map(move |pos| (pos + c) % n)
}

/// One `u64` counter plane per bit: bit `j` of plane `i` of a window is
/// bit `i` of lane `j`'s counter in that window, so one ripple-carry
/// add bumps any set of a window's lanes at once.
///
/// Every counter starts at `2^bits − k` with `bits = ⌊log₂ k⌋ + 1`, so
/// its `k`-th bump carries out of the top plane: the carry is exactly
/// the set of lanes that just completed a phase.
struct SlicedCounters {
    bits: usize,
    /// `2^bits − k`, in `[1, 2^(bits−1)]`.
    start: u64,
    /// Window-major, `bits` planes per window.
    planes: Vec<u64>,
}

impl SlicedCounters {
    fn new(windows: usize, k: usize) -> Self {
        let bits = k.ilog2() as usize + 1;
        let start = (1u64 << bits) - k as u64;
        let window: Vec<u64> = (0..bits)
            .map(|i| 0u64.wrapping_sub(start >> i & 1))
            .collect();
        Self {
            bits,
            start,
            planes: window.repeat(windows),
        }
    }

    /// Adds one to the counters of the lanes in `lanes` of window `w`
    /// and returns the lanes that carried out of the top plane; their
    /// counters are left at zero for [`Self::restart`].
    #[inline]
    fn bump(&mut self, w: usize, lanes: u64) -> u64 {
        let mut carry = lanes;
        for plane in &mut self.planes[w * self.bits..(w + 1) * self.bits] {
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
        carry
    }

    /// Sets the counters of `lanes` (all zero after their carry) of
    /// window `w` back to the start value.
    fn restart(&mut self, w: usize, lanes: u64) {
        for (i, plane) in self.planes[w * self.bits..(w + 1) * self.bits]
            .iter_mut()
            .enumerate()
        {
            *plane |= lanes & 0u64.wrapping_sub(self.start >> i & 1);
        }
    }

    /// The lanes of window `w` whose counter is below the start value
    /// (none, while the kernel's invariant holds).
    fn below_start(&self, w: usize) -> u64 {
        let (mut below, mut equal) = (0u64, u64::MAX);
        for (i, &plane) in self.planes[w * self.bits..(w + 1) * self.bits]
            .iter()
            .enumerate()
            .rev()
        {
            if self.start >> i & 1 == 1 {
                below |= equal & !plane;
                equal &= plane;
            } else {
                equal &= !plane;
            }
        }
        below
    }
}

/// The complete-phase count of every offset in `offsets` (ascending,
/// below `k`, at most [`LANES`]), from one pass over the trace.
///
/// Bit `j` of `seen[e]` is set when edge `e` was requested in the
/// current phase of its window under offset `offsets[j]`, or lies
/// outside that offset's tiling (set once, never cleared). Unused lanes
/// start set, so a request whose edge is set in every lane costs one
/// load and one compare. Otherwise its fresh lanes split by the
/// request's residue `r = e mod k`: lanes with offset `≤ r` count in
/// window `⌊e/k⌋`, the rest in the window before it (the last window
/// when `e < k`), and each window's lanes take one bit-sliced bump.
fn lane_phase_counts(n: usize, k: usize, offsets: &[usize], trace: &[Edge]) -> [u64; LANES] {
    debug_assert!(!offsets.is_empty() && offsets.len() <= LANES);
    let windows = n / k;
    let covered = windows * k;
    let mut seen = vec![u64::MAX.checked_shl(offsets.len() as u32).unwrap_or(0); n];
    for (j, &c) in offsets.iter().enumerate() {
        for e in untiled_edges(n, covered, c) {
            seen[e] |= 1 << j;
        }
    }
    // `early[r]`: the lanes whose offset is ≤ r.
    let early: Vec<u64> = (0..k)
        .map(|r| {
            let lanes = offsets.partition_point(|&c| c <= r) as u32;
            !u64::MAX.checked_shl(lanes).unwrap_or(0)
        })
        .collect();
    // One window more than the tiling: a request on an untiled edge
    // past the last window bumps it with no lanes.
    let mut counters = SlicedCounters::new(windows + 1, k);
    let mut phases = [0u64; LANES];
    for &Edge(e) in trace {
        let fresh = !seen[e as usize];
        if fresh == 0 {
            continue;
        }
        seen[e as usize] = u64::MAX;
        let (q, r) = ((e / k as u32) as usize, (e % k as u32) as usize);
        let p = if q == 0 { windows - 1 } else { q - 1 };
        let (now, before) = (fresh & early[r], fresh & !early[r]);
        debug_assert!(q < windows || now == 0, "fresh lanes outside their tiling");
        let done = [(q, counters.bump(q, now)), (p, counters.bump(p, before))];
        if done[0].1 | done[1].1 != 0 {
            for (w, lanes) in done {
                bank(&mut seen, &mut phases, k, offsets, w, lanes);
                counters.restart(w, lanes);
            }
        }
        debug_assert!(
            counters.below_start(q) | counters.below_start(p) == 0,
            "a counter left [2^bits − k, 2^bits)"
        );
    }
    debug_assert!(
        (0..=windows).all(|w| counters.below_start(w) == 0),
        "a counter left [2^bits − k, 2^bits)"
    );
    debug_assert!(
        offsets
            .iter()
            .enumerate()
            .all(|(j, &c)| untiled_edges(n, covered, c).all(|e| seen[e] >> j & 1 == 1)),
        "an out-of-tiling bit was cleared"
    );
    phases
}

/// Banks one phase for each lane in `lanes`, which just completed
/// window `w`, and clears the lane's seen bit over that window, edges
/// `w·k + c .. w·k + c + k` (mod `n`) for the lane's offset `c`.
fn bank(
    seen: &mut [u64],
    phases: &mut [u64; LANES],
    k: usize,
    offsets: &[usize],
    w: usize,
    mut lanes: u64,
) {
    let n = seen.len();
    while lanes != 0 {
        let j = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        phases[j] += 1;
        let keep = !(1u64 << j);
        let start = w * k + offsets[j]; // < n; the window may wrap
        let end = start + k;
        for s in &mut seen[start..end.min(n)] {
            *s &= keep;
        }
        for s in &mut seen[..end.saturating_sub(n)] {
            *s &= keep;
        }
    }
}

impl OfflineOracle for RingloadOracle {
    fn name(&self) -> &'static str {
        "ringload"
    }

    fn lower_bound(
        &mut self,
        instance: &RingInstance,
        _initial: &Placement,
        trace: &[Edge],
    ) -> f64 {
        self.best_phase_count(instance, trace, MAX_OFFSETS) as f64 / 2.0
    }

    fn upper_bound(
        &mut self,
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> Option<f64> {
        Some(self.cheapest_schedule(instance, initial, trace) as f64)
    }

    fn work_counters(&self) -> WorkCounters {
        WorkCounters {
            oracle_cut_evals: self.cut_evals,
            oracle_rounding_passes: self.rounding_passes,
            ..WorkCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The per-offset scan the lane kernel replaced, kept as its
    /// reference: one trace pass per sampled offset, counting
    /// `trace.len()` cut evaluations for each.
    fn reference_phase_count(
        oracle: &mut RingloadOracle,
        instance: &RingInstance,
        trace: &[Edge],
        max_offsets: usize,
    ) -> u64 {
        let n = instance.n();
        let k = instance.capacity();
        if n <= k {
            // One server could hold the whole ring: no forced cuts.
            return 0;
        }
        let step = (k as usize / max_offsets.max(1)).max(1);
        let mut best = 0u64;
        for c in (0..k).step_by(step) {
            oracle.cut_evals += trace.len() as u64;
            best = best.max(reference_phases_at(instance, c, trace));
        }
        best
    }

    /// The complete phases of the tiling at offset `c`, by one pass of
    /// the per-offset scan.
    fn reference_phases_at(instance: &RingInstance, c: u32, trace: &[Edge]) -> u64 {
        let n = instance.n();
        let k = instance.capacity();
        let windows = (n / k) as usize;
        let covered = windows * k as usize;
        let mut seen = vec![false; covered];
        let mut count = vec![0u32; windows];
        let mut phases = 0u64;
        for e in trace {
            let pos = ((e.0 + n - c) % n) as usize;
            if pos < covered && !seen[pos] {
                seen[pos] = true;
                let w = pos / k as usize;
                count[w] += 1;
                if count[w] == k {
                    // Window complete: one phase banked, reset it.
                    phases += 1;
                    count[w] = 0;
                    seen[w * k as usize..(w + 1) * k as usize].fill(false);
                }
            }
        }
        phases
    }

    /// Asserts the lane kernel and the reference scan agree on the
    /// phase count and on `oracle_cut_evals`, at every offset budget,
    /// and on every lane's own count when all `k` offsets are lanes.
    fn assert_matches_reference(instance: &RingInstance, trace: &[Edge]) {
        for max_offsets in [1, 7, MAX_OFFSETS, 200] {
            let mut kernel = RingloadOracle::new();
            let mut reference = RingloadOracle::new();
            let got = kernel.best_phase_count(instance, trace, max_offsets);
            let want = reference_phase_count(&mut reference, instance, trace, max_offsets);
            assert_eq!(
                (got, kernel.cut_evals),
                (want, reference.cut_evals),
                "{instance:?}, max_offsets={max_offsets}, {} requests",
                trace.len()
            );
        }
        let (n, k) = (instance.n(), instance.capacity());
        if n > k {
            let offsets: Vec<usize> = (0..k as usize).collect();
            for group in offsets.chunks(LANES) {
                let lanes = lane_phase_counts(n as usize, k as usize, group, trace);
                for (j, &c) in group.iter().enumerate() {
                    assert_eq!(
                        lanes[j],
                        reference_phases_at(instance, c as u32, trace),
                        "{instance:?}, offset {c}, {} requests",
                        trace.len()
                    );
                }
            }
        }
    }

    /// A random instance: capacity 1..=300, weighted towards more than
    /// 64 offsets (65..=127, 200); packed, with slack (`n < ℓ·k`, some
    /// edges outside every tiling), or on one server (`n ≤ k`).
    fn random_instance(rng: &mut StdRng) -> RingInstance {
        let k = match rng.random_range(0..8u32) {
            0 | 1 => rng.random_range(65..=127),
            2 => 200,
            3 => rng.random_range(128..=300),
            _ => rng.random_range(1..=64),
        };
        let servers = rng.random_range(1..=6u32).max(3u32.div_ceil(k));
        let full = servers * k;
        let n = if rng.random_bool(0.5) {
            full
        } else {
            rng.random_range(3.max(full / 2)..=full)
        };
        RingInstance::new(n, servers, k)
    }

    /// A random trace mixing sweeps (every window completes), short
    /// local walks (some windows complete), uniform requests and a
    /// hammered edge.
    fn random_trace(rng: &mut StdRng, instance: &RingInstance) -> Vec<Edge> {
        let n = instance.n();
        let len = rng.random_range(0..=(3 * n).min(1500));
        let mut at = rng.random_range(0..n);
        let mode = rng.random_range(0..4u32);
        (0..len)
            .map(|_| {
                at = match mode {
                    0 => (at + 1) % n,
                    1 => (at + rng.random_range(0..3u32) + n - 1) % n,
                    2 => rng.random_range(0..n),
                    _ if rng.random_bool(0.9) => at,
                    _ => rng.random_range(0..n),
                };
                Edge(at)
            })
            .collect()
    }

    #[test]
    fn lane_kernel_matches_the_per_offset_scan_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0x51ce);
        for _ in 0..400 {
            let inst = random_instance(&mut rng);
            let trace = random_trace(&mut rng, &inst);
            assert_matches_reference(&inst, &trace);
        }
    }

    #[test]
    fn lane_kernel_matches_the_per_offset_scan_on_edge_cases() {
        let mut instances = vec![
            RingInstance::new(6, 1, 8),   // n < k
            RingInstance::new(8, 1, 8),   // n = k
            RingInstance::packed(3, 1),   // k = 1: every request a phase
            RingInstance::packed(4, 100), // 100 offsets: two lane groups
            RingInstance::packed(2, 200), // 67 offsets at the default
            RingInstance::new(250, 2, 127),
            RingInstance::new(700, 3, 300),
        ];
        instances.extend((64..=66).map(|k| RingInstance::new(3 * k - 5, 3, k)));
        // Counter widths at their carry boundaries: start values
        // 2^bits − k of 1 (k = 2^bits − 1) and of 2^(bits−1) (k a power
        // of two), each packed and with untiled edges.
        for k in [
            2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257,
        ] {
            instances.push(RingInstance::packed(3, k));
            instances.push(RingInstance::new(3 * k - k.div_ceil(2), 3, k));
        }
        for inst in instances {
            let (n, k) = (u64::from(inst.n()), u64::from(inst.capacity()));
            let sweeps: Vec<Edge> = (0..5 * n + 3).map(|i| inst.edge(i)).collect();
            let backwards: Vec<Edge> = sweeps.iter().rev().copied().collect();
            let hammered = vec![inst.edge(n - 1); 500];
            // Every edge but `e`, then `e`: its request completes the
            // windows on both sides of its residue split, in window
            // ⌊e/k⌋ and in the one before it (the last when e < k).
            let split: Vec<Edge> = [k / 2, k + k / 2, n - 1]
                .into_iter()
                .flat_map(|e| (e + 1..e + n).chain([e]))
                .map(|i| inst.edge(i))
                .collect();
            // Sweeps across edge 0: the last window of every offset
            // past the tiling's end wraps, and completes at q = 0.
            let wrap: Vec<Edge> = (0..3)
                .flat_map(|_| n - k.min(n)..n + k)
                .map(|i| inst.edge(i))
                .collect();
            for trace in [Vec::new(), sweeps, backwards, hammered, split, wrap] {
                assert_matches_reference(&inst, &trace);
            }
        }
    }

    /// The upper bound before every rotation was priced, kept as the
    /// "never looser" reference: the lazy cost by a pass over the trace,
    /// then the 16 rotations whose cut sets carry the least traffic,
    /// each matched to the initial placement by its own pass over the
    /// processes.
    fn reference_schedule(instance: &RingInstance, initial: &Placement, trace: &[Edge]) -> u64 {
        reference_ranked_scan(instance, initial, trace, 16)
    }

    /// Every rotation priced by its own matching pass: the reference of
    /// the incremental matching.
    fn reference_all_rotations(
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> u64 {
        reference_ranked_scan(instance, initial, trace, usize::MAX)
    }

    /// The ranked scan over the `take` lightest rotations.
    fn reference_ranked_scan(
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
        take: usize,
    ) -> u64 {
        let n = instance.n();
        let ell = instance.servers();
        let k = instance.capacity();

        // Lazy: stay put, pay the initial cut set.
        let mut best: u64 = trace.iter().filter(|&&e| initial.is_cut(e)).count() as u64;

        // Migrate-then-freeze rotations need exact blocks of k.
        if u64::from(n) != u64::from(ell) * u64::from(k) || trace.is_empty() {
            return best;
        }
        let first_charge = u64::from(initial.is_cut(trace[0]));
        let mut weights = vec![0u64; n as usize];
        for e in &trace[1..] {
            weights[e.0 as usize] += 1;
        }
        let mut rotations: Vec<(u64, u32)> = (0..k)
            .map(|c| {
                let comm: u64 = (0..ell)
                    .map(|j| weights[((c + j * k + n - 1) % n) as usize])
                    .sum();
                (comm, c)
            })
            .collect();
        rotations.sort_unstable();
        for &(comm, c) in rotations.iter().take(take) {
            if first_charge + comm >= best {
                break;
            }
            let mut matches = vec![0u64; ell as usize];
            for p in 0..n {
                let block = ((p + n - c) % n) / k;
                let server = initial.server(rdbp_model::Process(p)).0;
                matches[((block + ell - server % ell) % ell) as usize] += 1;
            }
            let moves = u64::from(n) - matches.iter().copied().max().unwrap_or(0);
            best = best.min(first_charge + moves + comm);
        }
        best
    }

    /// A uniformly random placement that respects capacity: the first
    /// `n` of the `ℓ·k` server slots, shuffled.
    fn random_placement(rng: &mut StdRng, instance: &RingInstance) -> Placement {
        let k = instance.capacity();
        let mut slots: Vec<u32> = (0..instance.servers() * k).map(|slot| slot / k).collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.random_range(0..=i));
        }
        slots.truncate(instance.n() as usize);
        Placement::from_assignment(instance, slots)
    }

    /// The lazy cost from the histogram and the incremental rotation
    /// matching equal their per-schedule references, and pricing every
    /// rotation is never looser than the ranked scan (equal to it when
    /// it already saw every rotation).
    #[test]
    fn lazy_cost_from_the_histogram_matches_the_trace_pass() {
        let mut rng = StdRng::seed_from_u64(0x1a2e);
        for round in 0..300 {
            let inst = random_instance(&mut rng);
            let initial = if rng.random_bool(0.5) {
                random_placement(&mut rng, &inst)
            } else {
                Placement::contiguous(&inst)
            };
            let trace = match round % 3 {
                0 => Vec::new(),
                1 => vec![Edge(rng.random_range(0..inst.n()))],
                _ => random_trace(&mut rng, &inst),
            };
            let run = format!("{inst:?}, {} requests", trace.len());
            let got = RingloadOracle::new()
                .upper_bound(&inst, &initial, &trace)
                .expect("ringload always has an upper bound");
            let all = reference_all_rotations(&inst, &initial, &trace) as f64;
            let ranked = reference_schedule(&inst, &initial, &trace) as f64;
            assert_eq!(got, all, "{run}");
            assert!(
                got <= ranked,
                "{run}: {got} above the ranked scan's {ranked}"
            );
            let packed = inst.n() == inst.servers() * inst.capacity();
            if !packed || inst.capacity() <= 16 {
                assert_eq!(got, ranked, "{run}");
            }
            if !packed {
                // No rotation schedule: the bound is the lazy count.
                let lazy = trace.iter().filter(|&&e| initial.is_cut(e)).count();
                assert_eq!(got, lazy as f64, "{run}");
            }
        }
    }

    #[test]
    fn the_cheapest_rotation_can_rank_below_sixteenth_by_traffic() {
        // packed(2, 64) from the contiguous placement, whose cut edges
        // are 63 and 127. Rotation 1 (cut edges 0 and 64) moves 2
        // processes and pays the 5 requests on edge 0. Rotations 2..=23
        // and 41..=63 each carry 200 requests on edge c − 1, so the 16
        // lightest cut sets are the untouched rotations 24..=39, which
        // move at least 48 processes each.
        let inst = RingInstance::packed(2, 64);
        let initial = Placement::contiguous(&inst);
        let mut trace = vec![inst.edge(63); 100];
        trace.extend([inst.edge(0); 5]);
        for c in (2..=23).chain(41..=63) {
            trace.extend(vec![inst.edge(c - 1); 200]);
        }
        let ub = RingloadOracle::new().upper_bound(&inst, &initial, &trace);
        // The first request is cut: 1 + 2 moves + 5 requests.
        assert_eq!(ub, Some(8.0));
        assert_eq!(reference_schedule(&inst, &initial, &trace), 49);
    }

    #[test]
    fn the_upper_bound_counts_one_schedule_per_rotation() {
        let trace =
            |inst: &RingInstance| -> Vec<Edge> { (0..50u64).map(|i| inst.edge(i * 3)).collect() };
        // Packed: the lazy schedule and k = 5 rotations, ℓ = 3 cut
        // edges priced for each.
        let packed = RingInstance::packed(3, 5);
        let mut oracle = RingloadOracle::new();
        oracle.upper_bound(&packed, &Placement::contiguous(&packed), &trace(&packed));
        let counters = oracle.work_counters();
        assert_eq!(
            (counters.oracle_rounding_passes, counters.oracle_cut_evals),
            (1 + 5, 3 * 5)
        );
        // With slack there are no rotations: the lazy schedule alone.
        let slack = RingInstance::new(13, 3, 5);
        let mut oracle = RingloadOracle::new();
        oracle.upper_bound(&slack, &Placement::contiguous(&slack), &trace(&slack));
        let counters = oracle.work_counters();
        assert_eq!(
            (counters.oracle_rounding_passes, counters.oracle_cut_evals),
            (1, 0)
        );
    }

    #[test]
    fn offsets_scanned_can_exceed_max_offsets() {
        // step = ⌊100/64⌋ = 1, so all 100 offsets are scanned.
        let inst = RingInstance::packed(4, 100);
        let initial = Placement::contiguous(&inst);
        let trace = sweep_trace(&inst, 2);
        let mut oracle = RingloadOracle::new();
        oracle.lower_bound(&inst, &initial, &trace);
        assert_eq!(
            oracle.work_counters().oracle_cut_evals,
            100 * trace.len() as u64
        );
    }

    /// A trace that sweeps every edge of the ring repeatedly: every
    /// window completes one phase per sweep.
    fn sweep_trace(instance: &RingInstance, sweeps: u64) -> Vec<Edge> {
        (0..sweeps * u64::from(instance.n()))
            .map(|i| instance.edge(i))
            .collect()
    }

    #[test]
    fn full_sweeps_force_half_a_phase_per_window() {
        let inst = RingInstance::packed(4, 8); // n=32, 4 windows of 8
        let initial = Placement::contiguous(&inst);
        let mut oracle = RingloadOracle::new();
        let trace = sweep_trace(&inst, 10);
        let lb = oracle.lower_bound(&inst, &initial, &trace);
        // 4 windows × 10 complete phases each, halved.
        assert_eq!(lb, 20.0);
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        assert!(lb <= ub, "certified sandwich");
        // Lazy schedule pays the 4 cut edges once per sweep.
        assert_eq!(ub, 40.0);
    }

    #[test]
    fn single_server_instances_have_a_zero_bound() {
        let inst = RingInstance::new(6, 1, 8); // n ≤ k: everything fits
        let initial = Placement::contiguous(&inst);
        let mut oracle = RingloadOracle::new();
        let trace = sweep_trace(&inst, 5);
        assert_eq!(oracle.lower_bound(&inst, &initial, &trace), 0.0);
    }

    #[test]
    fn localized_traffic_yields_a_small_lower_bound() {
        // Requests hammer one edge only: no window ever completes, and
        // the rotation schedule can dodge the hot edge entirely.
        let inst = RingInstance::packed(4, 8);
        let initial = Placement::contiguous(&inst);
        let mut oracle = RingloadOracle::new();
        let trace: Vec<Edge> = (0..1000).map(|_| inst.edge(3)).collect();
        assert_eq!(oracle.lower_bound(&inst, &initial, &trace), 0.0);
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        // Edge 3 is interior to the first contiguous block: lazy pays 0.
        assert_eq!(ub, 0.0);
    }

    #[test]
    fn rotation_schedule_beats_lazy_when_the_cut_is_hot() {
        // Hammer the initial placement's own cut edge: lazy pays every
        // request, while rotating the blocks by one is k migrations
        // and then free.
        let inst = RingInstance::packed(4, 8);
        let initial = Placement::contiguous(&inst);
        let hot = inst.edge(7); // a boundary edge of the contiguous blocks
        assert!(initial.is_cut(hot));
        let mut oracle = RingloadOracle::new();
        let trace: Vec<Edge> = (0..10_000).map(|_| hot).collect();
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        assert!(
            ub < 10_000.0,
            "migrate-then-freeze must beat the lazy schedule, got {ub}"
        );
        assert!(oracle.lower_bound(&inst, &initial, &trace) <= ub);
    }

    #[test]
    fn bounds_and_counters_are_deterministic() {
        let inst = RingInstance::packed(4, 8);
        let initial = Placement::contiguous(&inst);
        let trace: Vec<Edge> = (0..500u64).map(|i| inst.edge(i * 7 + 1)).collect();
        let run = || {
            let mut oracle = RingloadOracle::new();
            let lb = oracle.lower_bound(&inst, &initial, &trace);
            let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
            (lb, ub, oracle.work_counters())
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.2.oracle_cut_evals > 0);
        assert!(a.2.oracle_rounding_passes > 0);
    }
}
