//! Cluster-seeded initial graphs: `G(0)` built from intra-cluster
//! edges instead of uniform random ones.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use knn_graph::{KnnGraph, Neighbor, UserId};

use crate::ClusterAssignment;

/// Builds the cluster-seeded initial graph `G(0)`: every vertex
/// receives `min(k, n-1)` distinct out-neighbors — most drawn from its
/// **own cluster**, with `⌈k/3⌉` slots reserved for seeded random users
/// from the full population. All edges carry the
/// [`Neighbor::unscored`] sentinel, exactly like
/// [`KnnGraph::random_init`], so iteration 1's real similarities
/// displace them.
///
/// Seeding `G(0)` inside clusters starts NN-Descent's
/// neighbor-of-neighbor walk where the answers actually live, which is
/// what cuts iterations-to-convergence. The reserved explore slots are
/// load-bearing, not a fallback: a *purely* intra-cluster `G(0)` can be
/// disconnected along cluster boundaries, and since iteration only
/// proposes neighbors-of-neighbors, a vertex whose component holds none
/// of its true neighbors could never find them — the random edges keep
/// the walk mixing across clusters (and also top up small clusters).
///
/// Costs O(n·K) expected: each cluster keeps one persistent
/// permutation of its members and the population one of all ids, and
/// a vertex partially shuffles only the slots it fills. Deterministic
/// in `seed`; the same seed gives a different (equally uniform) graph
/// than the quadratic full-shuffle builder this replaced.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn cluster_seeded_graph(assignment: &ClusterAssignment, k: usize, seed: u64) -> KnnGraph {
    cluster_seeded_graph_from(assignment, k, &mut StdRng::seed_from_u64(seed))
}

/// [`cluster_seeded_graph`] over any generator.
fn cluster_seeded_graph_from<R: RngCore>(
    assignment: &ClusterAssignment,
    k: usize,
    rng: &mut R,
) -> KnnGraph {
    assert!(k > 0, "K must be positive");
    let n = assignment.num_users();
    let mut g = KnnGraph::new(n, k);
    if n <= 1 {
        return g;
    }
    let take = k.min(n - 1);
    // Reserve ~a third of the degree for cross-population edges (at
    // least one whenever the vertex has any intra candidates to
    // displace). A third keeps unstructured workloads — where the
    // clusters carry little signal — no slower to converge than a
    // random G(0).
    let explore = k.div_ceil(3).min(take.saturating_sub(1));
    let intra_take = take - explore;
    let mut clusters = assignment.members();
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        // Intra-cluster first: one spare slot covers drawing v itself,
        // and a cluster smaller than that is taken whole.
        let members = &mut clusters[assignment.label_of(v) as usize];
        let (sample, _) = members.partial_shuffle(rng, intra_take + 1);
        let mut list: Vec<Neighbor> = sample
            .iter()
            .filter(|&&c| c != v)
            .take(intra_take)
            .map(|&c| Neighbor::unscored(UserId::new(c)))
            .collect();
        // Explore slots plus top-up (small clusters, or k larger than
        // the cluster) from the whole population, one Fisher–Yates
        // step at a time until the list is full.
        for i in 0..n {
            if list.len() == take {
                break;
            }
            let c = pool[i..].partial_shuffle(rng, 1).0[0];
            if c != v && !list.iter().any(|nb| nb.id.raw() == c) {
                list.push(Neighbor::unscored(UserId::new(c)));
            }
        }
        g.set_neighbors(UserId::new(v), list)
            .expect("cluster-seeded list upholds the KNN invariants");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(labels: Vec<u32>, k: u32) -> ClusterAssignment {
        ClusterAssignment::new(labels, k).unwrap()
    }

    #[test]
    fn respects_knn_invariants() {
        let a = assignment((0..60).map(|u| u % 3).collect(), 3);
        let g = cluster_seeded_graph(&a, 5, 9);
        assert_eq!(g.num_edges(), 60 * 5);
        for v in 0..60u32 {
            let u = UserId::new(v);
            let list = g.neighbors(u);
            assert_eq!(list.len(), 5);
            assert!(list.iter().all(|nb| nb.id != u), "no self-loops");
            assert!(list.iter().all(|nb| nb.is_unscored()));
            let mut ids: Vec<u32> = list.iter().map(|nb| nb.id.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "no duplicates");
        }
    }

    #[test]
    fn prefers_intra_cluster_edges_but_keeps_exploring() {
        // 3 clusters of 20, k=5: explore = ⌈5/3⌉ = 2, so at least 3 of
        // every vertex's 5 edges stay inside its cluster, and across
        // the graph some edge must leave its cluster (the mixing edges
        // that keep G(0) connected).
        let a = assignment((0..60).map(|u| u / 20).collect(), 3);
        let g = cluster_seeded_graph(&a, 5, 4);
        let mut cross_total = 0usize;
        for v in 0..60u32 {
            let cross = g
                .neighbors(UserId::new(v))
                .iter()
                .filter(|nb| a.label_of(nb.id.raw()) != a.label_of(v))
                .count();
            assert!(cross <= 2, "vertex {v} has {cross} cross edges, > explore");
            cross_total += cross;
        }
        assert!(cross_total > 0, "no mixing edges at all");
    }

    #[test]
    fn tops_up_when_cluster_is_too_small() {
        // Cluster 0 = {0}, cluster 1 = everyone else. User 0 has no
        // intra-cluster candidates and must still get k neighbors.
        let mut labels = vec![1u32; 30];
        labels[0] = 0;
        let g = cluster_seeded_graph(&assignment(labels, 2), 4, 8);
        assert_eq!(g.neighbors(UserId::new(0)).len(), 4);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = assignment((0..40).map(|u| u % 4).collect(), 4);
        assert_eq!(
            cluster_seeded_graph(&a, 3, 5),
            cluster_seeded_graph(&a, 3, 5)
        );
        assert_ne!(
            cluster_seeded_graph(&a, 3, 5),
            cluster_seeded_graph(&a, 3, 6)
        );
    }

    #[test]
    fn small_populations_cap_at_n_minus_one() {
        let a = assignment(vec![0, 0, 1], 2);
        let g = cluster_seeded_graph(&a, 10, 1);
        for v in 0..3u32 {
            assert_eq!(g.neighbors(UserId::new(v)).len(), 2);
        }
        let lone = cluster_seeded_graph(&assignment(vec![0], 1), 4, 1);
        assert_eq!(lone.num_edges(), 0);
    }

    /// Counts the 64-bit words drawn from the wrapped generator.
    struct Counting {
        inner: StdRng,
        words: u64,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn draws_stay_linear_in_k_per_vertex() {
        // k=6: 4 intra slots (5 draws with the spare) and 2 explore
        // draws, plus the rare redraw of v or an intra pick. The
        // per-vertex cost must not grow with n or the cluster size;
        // cluster 0 holds a single user, which tops up from the pool.
        for n in [600u32, 6000] {
            let labels = (0..n)
                .map(|u| if u == 0 { 0 } else { 1 + u % 10 })
                .collect();
            let a = assignment(labels, 11);
            let mut rng = Counting {
                inner: StdRng::seed_from_u64(3),
                words: 0,
            };
            let g = cluster_seeded_graph_from(&a, 6, &mut rng);
            assert_eq!(g.num_edges(), n as usize * 6);
            let per_vertex = rng.words as f64 / n as f64;
            assert!(
                per_vertex <= 2.0 * 8.0,
                "{per_vertex} words per vertex at n={n}"
            );
        }
    }

    #[test]
    fn targets_are_uniform_within_and_across_clusters() {
        // 3 clusters of 8, k=6: 4 intra slots over a fixed vertex's 7
        // cluster mates, then 2 explore slots over the 19 users left.
        // A mate appears at rate 4/7 + (3/7)(2/19), anyone else at
        // 2/19; every count must sit within 4.5 binomial standard
        // deviations of its rate.
        const N: u32 = 24;
        const SEEDS: u64 = 6000;
        let a = assignment((0..N).map(|u| u / 8).collect(), 3);
        let (p_intra, p_explore) = (4.0 / 7.0, 2.0 / 19.0);
        for v in [0u32, 13] {
            let mut hits = [0u64; N as usize];
            for seed in 0..SEEDS {
                let g = cluster_seeded_graph(&a, 6, seed);
                for nb in g.neighbors(UserId::new(v)) {
                    hits[nb.id.index()] += 1;
                }
            }
            assert_eq!(hits[v as usize], 0);
            for t in (0..N).filter(|&t| t != v) {
                let p = if a.label_of(t) == a.label_of(v) {
                    p_intra + (1.0 - p_intra) * p_explore
                } else {
                    p_explore
                };
                let expected = SEEDS as f64 * p;
                let sigma = (expected * (1.0 - p)).sqrt();
                let h = hits[t as usize] as f64;
                assert!(
                    (h - expected).abs() < 4.5 * sigma,
                    "vertex {v} -> {t}: {h} hits, expected {expected:.0} ± {sigma:.0}"
                );
            }
        }
    }

    #[test]
    fn builds_large_graphs_quickly() {
        // 200k users in ~450 clusters: O(n·K) draws, where a full
        // shuffle of the cluster and the population per vertex would
        // be ~4·10^10.
        let n = 200_000u32;
        let a = assignment((0..n).map(|u| u % 450).collect(), 450);
        let g = cluster_seeded_graph(&a, 8, 1);
        assert_eq!(g.num_edges(), n as usize * 8);
        let intra = g
            .neighbors(UserId::new(7))
            .iter()
            .filter(|nb| a.label_of(nb.id.raw()) == a.label_of(7))
            .count();
        assert!(intra >= 5, "only {intra} intra-cluster edges");
    }
}
