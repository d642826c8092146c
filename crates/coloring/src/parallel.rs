//! Speculative iterative parallel distance-1 coloring (Çatalyürek et al.,
//! the paper's reference \[12\]).
//!
//! Each round runs two parallel passes over the worklist of still-uncolored
//! vertices. Both passes read only state frozen at the start of the round,
//! so the coloring is bitwise identical at every thread count.
//!
//! 1. **Tentative coloring** — every worklist vertex picks the smallest
//!    color that no colored neighbor uses.
//! 2. **Conflict detection** — a vertex keeps its tentative color unless an
//!    uncolored neighbor with a lower id picked the same one. The losers
//!    form the next round's worklist.
//!
//! The lowest-id worklist vertex always keeps its color, so the loop ends,
//! but the number of rounds is not small in general: it tracks the size of
//! the densest core of uncolored vertices. A clique of k vertices gives up
//! only its lowest-id member per round, so k rounds (and k colors); the
//! RMAT hub core of the end-to-end benchmark takes 57–87 rounds per phase.
//! An ascending-id path settles O(1) vertices per round.
//!
//! Rounds stay cheap anyway because the work of a round is proportional to
//! the edges among uncolored vertices, not to the whole adjacency of every
//! uncolored vertex. Each vertex keeps
//!
//! - a **pending list** of its neighbors that were still uncolored at its
//!   last visit: a segment of one flat copy of the CSR targets, compacted
//!   in place each round, with self-loops dropped;
//! - a **forbidden bitset** of `deg + 1` bits (the smallest free color is
//!   at most `deg`) holding the colors of the neighbors that left the
//!   pending list.
//!
//! Round 1 needs neither: every tentative color is 0, so a vertex keeps
//! color 0 iff it has no lower-id neighbor.
//!
//! **Work budget.** Worklist slots plus pending entries scanned, summed over
//! rounds, may not exceed [`WORK_BUDGET_FACTOR`] × (n + adjacency entries).
//! Past that, the remaining worklist is finished by serial first-fit in
//! ascending id order, so long ascending-id chains (paths, trees) end in
//! bounded time with a valid, still deterministic coloring.

use crate::Coloring;
use grappolo_graph::{CsrGraph, SharedSlice, VertexId};
use rayon::prelude::*;

const UNCOLORED: u32 = u32::MAX;

/// Cap on speculative work, as a multiple of `n + adjacency entries` (see
/// the module docs). The benchmark RMAT needs about 8 and planted inputs
/// 3.9–6.6, while an ascending-id path adds about 1 per round: at this
/// factor a 120 K-vertex path stops speculating after ~65 rounds instead
/// of ~60 K. Inputs with long ascending-id chains grow toward it with
/// size (the `europe-osm` road proxy reaches it at scale 1).
pub const WORK_BUDGET_FACTOR: u64 = 64;

/// Tuning knobs for [`color_parallel`].
#[derive(Clone, Debug)]
pub struct ParallelColoringConfig {
    /// Below this vertex count the serial greedy algorithm is used directly
    /// (parallel setup costs dominate on tiny inputs).
    pub serial_cutoff: usize,
}

impl Default for ParallelColoringConfig {
    fn default() -> Self {
        Self {
            serial_cutoff: 1_024,
        }
    }
}

/// Work counters of one [`color_parallel_with_stats`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelColoringStats {
    /// Speculative rounds run (0 when the serial cutoff engaged).
    pub rounds: usize,
    /// Worklist slots plus pending-list entries scanned, summed over rounds.
    pub work: u64,
    /// Vertices colored by the serial finish after `work` passed
    /// [`WORK_BUDGET_FACTOR`] × (n + adjacency entries); 0 when
    /// speculation colored everything.
    pub serial_finish: usize,
}

/// Colors `g` with distance-1 semantics using speculation + conflict
/// resolution. Returns the coloring; validity is guaranteed
/// ([`crate::stats::is_valid_distance1`] holds) and tested.
pub fn color_parallel(g: &CsrGraph, cfg: &ParallelColoringConfig) -> Coloring {
    color_parallel_with_stats(g, cfg).0
}

/// [`color_parallel`], also returning its round and work counters.
pub fn color_parallel_with_stats(
    g: &CsrGraph,
    cfg: &ParallelColoringConfig,
) -> (Coloring, ParallelColoringStats) {
    let n = g.num_vertices();
    let mut stats = ParallelColoringStats::default();
    if n == 0 {
        return (Vec::new(), stats);
    }
    if n <= cfg.serial_cutoff {
        return (crate::greedy::color_greedy_serial(g), stats);
    }
    let entries = g.num_adjacency_entries();
    let budget = WORK_BUDGET_FACTOR * (n + entries) as u64;

    // Round 1: every tentative color is 0, and the pending lists are the
    // CSR rows themselves.
    let mut worklist: Vec<VertexId> = (0..n as VertexId)
        .into_par_iter()
        .filter(|&v| g.neighbor_ids(v).iter().any(|&u| u < v))
        .collect();
    let mut colors: Coloring = vec![0; n];
    for &v in &worklist {
        colors[v as usize] = UNCOLORED;
    }
    stats.rounds = 1;
    stats.work = (n + entries) as u64;

    // Zeroed allocations stay untouched for vertices that never reach them.
    let mut pending: Vec<VertexId> = vec![0; entries];
    let mut pending_len: Vec<u32> = vec![0; n];
    let mut forbidden: Vec<u64> = vec![0; entries / 64 + n];
    let mut tentative: Vec<u32> = vec![0; n];
    let mut built = false;

    while !worklist.is_empty() && stats.work <= budget {
        stats.rounds += 1;
        let scanned = {
            let lists = PendingLists::new(&mut pending, &mut pending_len, &mut forbidden);
            let tent = SharedSlice::new(&mut tentative);
            let colors = &colors;
            worklist
                .par_iter()
                .fold(
                    || 0u64,
                    |acc, &v| {
                        // SAFETY: worklist ids are distinct, and every slot
                        // touched here (`v`'s pending segment, length,
                        // bitset words and tentative color) belongs to `v`.
                        let scanned = unsafe {
                            let (scanned, free) = lists.settle(g, v, built, |u| colors[u as usize]);
                            tent.write(v as usize, free);
                            scanned
                        };
                        acc + scanned
                    },
                )
                .reduce(|| 0, |a, b| a + b)
        };
        built = true;

        let offsets = g.adjacency_offsets();
        let (pending, pending_len, tentative) = (&pending, &pending_len, &tentative);
        let out = SharedSlice::new(&mut colors);
        let losers: Vec<VertexId> = worklist
            .par_iter()
            .copied()
            .filter(|&v| {
                let vi = v as usize;
                let start = offsets[vi];
                let c = tentative[vi];
                let lost = pending[start..start + pending_len[vi] as usize]
                    .iter()
                    .any(|&u| u < v && tentative[u as usize] == c);
                if !lost {
                    // SAFETY: each worklist vertex writes only its own
                    // color, and this pass reads no colors.
                    unsafe { out.write(vi, c) };
                }
                lost
            })
            .collect();
        stats.work += worklist.len() as u64 + scanned;
        worklist = losers;
    }

    stats.serial_finish = worklist.len();
    let lists = PendingLists::new(&mut pending, &mut pending_len, &mut forbidden);
    let out = SharedSlice::new(&mut colors);
    for &v in &worklist {
        // SAFETY: single-threaded; the views are the only live accessors.
        unsafe {
            let (_, free) = lists.settle(g, v, built, |u| out.read(u as usize));
            out.write(v as usize, free);
        }
    }
    (colors, stats)
}

/// Raw views of the per-vertex incremental state. Vertex `v` owns
/// `pending[offsets[v]..offsets[v + 1]]`, `pending_len[v]` and the bitset
/// words [`bitset_words`]`(v)`; no two vertices share a slot.
struct PendingLists {
    pending: SharedSlice<VertexId>,
    pending_len: SharedSlice<u32>,
    forbidden: SharedSlice<u64>,
}

impl PendingLists {
    fn new(pending: &mut [VertexId], pending_len: &mut [u32], forbidden: &mut [u64]) -> Self {
        Self {
            pending: SharedSlice::new(pending),
            pending_len: SharedSlice::new(pending_len),
            forbidden: SharedSlice::new(forbidden),
        }
    }

    /// Scans `v`'s pending list (its CSR row before the lists are `built`),
    /// keeps the neighbors `color_of` reports uncolored, and moves the
    /// colors of the others into `v`'s forbidden bitset. Returns the entries
    /// scanned and the smallest color not forbidden.
    ///
    /// # Safety
    /// No other thread may access `v`'s slots while this runs.
    unsafe fn settle(
        &self,
        g: &CsrGraph,
        v: VertexId,
        built: bool,
        color_of: impl Fn(VertexId) -> u32,
    ) -> (u64, u32) {
        let start = g.adjacency_offsets()[v as usize];
        let words = bitset_words(g, v);
        let bits = 64 * words.len();
        let mut kept = 0;
        // Compacts in place: entry `kept` is written only after entry
        // `kept` (or a later one) has been read.
        let mut visit = |u: VertexId| {
            if u == v {
                return;
            }
            let c = color_of(u);
            if c == UNCOLORED {
                self.pending.write(start + kept, u);
                kept += 1;
            } else if (c as usize) < bits {
                // Colors past the bitset cannot be the smallest free one.
                let w = words.start + c as usize / 64;
                self.forbidden
                    .write(w, self.forbidden.read(w) | 1 << (c % 64));
            }
        };
        let scanned = if built {
            let len = self.pending_len.read(v as usize) as usize;
            (start..start + len).for_each(|i| visit(self.pending.read(i)));
            len
        } else {
            let row = g.neighbor_ids(v);
            row.iter().for_each(|&u| visit(u));
            row.len()
        };
        self.pending_len.write(v as usize, kept as u32);
        let mut free = 0;
        for w in words {
            let word = self.forbidden.read(w);
            free += word.trailing_ones();
            if word != u64::MAX {
                break;
            }
        }
        (scanned as u64, free)
    }
}

/// Word range of `v`'s forbidden bitset: `deg / 64 + 1` words (≥ deg + 1
/// bits) from `offsets[v] / 64 + v`. Consecutive ranges cannot overlap
/// because `⌊(a + d) / 64⌋ ≥ ⌊a / 64⌋ + ⌊d / 64⌋`, and all fit in
/// `entries / 64 + n` words.
fn bitset_words(g: &CsrGraph, v: VertexId) -> std::ops::Range<usize> {
    let range = g.neighbor_range(v);
    let first = range.start / 64 + v as usize;
    first..first + range.len() / 64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{color_class_sizes, is_valid_distance1};
    use grappolo_graph::from_unweighted_edges;
    use grappolo_graph::gen::{erdos_renyi, rmat, ErConfig, RmatConfig};

    fn cfg_parallel_always() -> ParallelColoringConfig {
        ParallelColoringConfig { serial_cutoff: 0 }
    }

    #[test]
    fn valid_on_random_graph() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 5_000,
            num_edges: 30_000,
            seed: 1,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
    }

    #[test]
    fn valid_on_skewed_graph() {
        let g = rmat(&RmatConfig {
            scale: 12,
            num_edges: 50_000,
            ..Default::default()
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
    }

    #[test]
    fn all_vertices_colored() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 2_000,
            num_edges: 10_000,
            seed: 2,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        assert_eq!(c.len(), 2_000);
        assert!(c.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn color_count_reasonable() {
        // Parallel speculation may use a few more colors than serial greedy,
        // but stays within max_degree + 1 per round-local first-fit.
        let g = erdos_renyi(&ErConfig {
            num_vertices: 3_000,
            num_edges: 20_000,
            seed: 3,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        let used = *c.iter().max().unwrap() as usize + 1;
        assert!(used <= g.max_degree() + 1, "used {used} colors");
    }

    #[test]
    fn serial_cutoff_matches_greedy() {
        let g = from_unweighted_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let cfg = ParallelColoringConfig::default(); // cutoff engages
        assert_eq!(
            color_parallel(&g, &cfg),
            crate::greedy::color_greedy_serial(&g)
        );
    }

    #[test]
    fn empty_graph() {
        let g = grappolo_graph::CsrGraph::empty(0);
        assert!(color_parallel(&g, &cfg_parallel_always()).is_empty());
    }

    #[test]
    fn self_loops_ignored() {
        let g = grappolo_graph::from_weighted_edges(3, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
            .unwrap();
        let c = color_parallel(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
    }

    fn path(n: u32, id: impl Fn(u32) -> u32) -> CsrGraph {
        from_unweighted_edges(n as usize, (0..n - 1).map(|i| (id(i), id(i + 1)))).unwrap()
    }

    #[test]
    fn ascending_path_finishes_serially_within_budget() {
        // "Lower id wins" settles O(1) vertices of an ascending chain per
        // round, so speculation alone would need ~n/2 rounds.
        let g = path(120_000, |i| i);
        let (c, stats) = color_parallel_with_stats(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
        assert!(stats.serial_finish > 100_000, "{stats:?}");
        assert!(stats.rounds < 100, "{stats:?}");
    }

    #[test]
    fn shuffled_path_needs_no_serial_finish() {
        // 7919 is coprime to 120 000, so i ↦ 7919·i mod n permutes the ids.
        let g = path(120_000, |i| (i as u64 * 7_919 % 120_000) as u32);
        let (c, stats) = color_parallel_with_stats(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
        assert_eq!(stats.serial_finish, 0, "{stats:?}");
    }

    #[test]
    fn star_with_hub_at_either_end_takes_two_rounds() {
        let leaves = 50_000u32;
        let entries = 2 * leaves as u64;
        let n = leaves as u64 + 1;
        let low = from_unweighted_edges(n as usize, (1..=leaves).map(|v| (0, v))).unwrap();
        let high = from_unweighted_edges(n as usize, (0..leaves).map(|v| (v, leaves))).unwrap();
        for (g, hub, rest) in [
            (low, 0, 1..n as usize),
            (high, leaves as usize, 0..leaves as usize),
        ] {
            let (c, stats) = color_parallel_with_stats(&g, &cfg_parallel_always());
            assert!(is_valid_distance1(&g, &c));
            assert_eq!(c.iter().max(), Some(&1));
            assert_eq!(stats.rounds, 2);
            assert_eq!(stats.serial_finish, 0);
            // Round 1 scans everything once; round 2 scans the losers' rows.
            let round2 = if hub == 0 {
                2 * leaves as u64
            } else {
                1 + leaves as u64
            };
            assert_eq!(stats.work, n + entries + round2);
            assert!(rest.into_iter().all(|v| c[v] != c[hub]));
        }
    }

    #[test]
    fn clique_keeps_ascending_first_fit() {
        // K_500 gives up one vertex per round; the serial finish continues
        // the same ascending order, so colors equal ids either way.
        let g = from_unweighted_edges(
            500,
            (0..500).flat_map(|u| (u + 1..500).map(move |v| (u, v))),
        )
        .unwrap();
        for cfg in [cfg_parallel_always(), ParallelColoringConfig::default()] {
            let c = color_parallel(&g, &cfg);
            assert!(is_valid_distance1(&g, &c));
            assert!(c.iter().enumerate().all(|(v, &x)| x as usize == v));
        }
    }

    #[test]
    fn bitset_ranges_are_disjoint_and_in_bounds() {
        let g = rmat(&RmatConfig {
            scale: 12,
            num_edges: 50_000,
            ..Default::default()
        });
        let n = g.num_vertices();
        let mut end = 0;
        for v in 0..n as VertexId {
            let words = bitset_words(&g, v);
            assert!(words.start >= end);
            assert!(64 * words.len() > g.degree(v));
            end = words.end;
        }
        assert!(end <= g.num_adjacency_entries() / 64 + n);
    }

    #[test]
    fn class_sizes_cover_all_vertices() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 4_000,
            num_edges: 16_000,
            seed: 5,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        let sizes = color_class_sizes(&c);
        assert_eq!(sizes.iter().sum::<usize>(), 4_000);
    }
}
