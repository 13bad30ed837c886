//! Invariant checkers for the paper's guarantees.
//!
//! These are *observer* utilities (they look at global state) used by the
//! test-suite and the experiment harness to validate protocol outcomes —
//! they are never consulted by per-node protocol logic.

use dcluster_sim::network::Network;
use dcluster_sim::{Reception, ResolverKind};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A witnessed violation of the resolver-equivalence contract: two
/// backends returned different reception sets for the same round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverDisagreement {
    /// Index of the transmitter set (round) in the audited sequence.
    pub round: usize,
    /// The reference backend (first in the audited list).
    pub reference: ResolverKind,
    /// The disagreeing backend.
    pub disagreeing: ResolverKind,
    /// Receptions per the reference backend, sorted by receiver.
    pub expected: Vec<Reception>,
    /// Receptions per the disagreeing backend, sorted by receiver.
    pub got: Vec<Reception>,
}

/// Audits resolver-backend equivalence over a sequence of rounds: replays
/// every transmitter set through each backend in `kinds` and returns the
/// first disagreement with `kinds[0]`, or `None` if all backends agree on
/// every round. Observer utility — used by the equivalence test-suites and
/// the `scale_resolvers` CI gate; protocol logic never consults it.
pub fn audit_resolver_equivalence(
    net: &Network,
    rounds: &[Vec<usize>],
    kinds: &[ResolverKind],
) -> Option<ResolverDisagreement> {
    let (&reference, rest) = kinds.split_first()?;
    let mut resolvers: Vec<_> = kinds.iter().map(|k| k.build()).collect();
    let mut expected = Vec::new();
    let mut got = Vec::new();
    for (round, tx) in rounds.iter().enumerate() {
        let (head, tail) = resolvers.split_first_mut().expect("nonempty"); // lint:allow(P1, reason = "guarded: kinds is nonempty (split_first above)")
        head.resolve_into(net, tx, &mut expected);
        expected.sort_by_key(|r| (r.receiver, r.sender));
        for (other, &kind) in tail.iter_mut().zip(rest) {
            other.resolve_into(net, tx, &mut got);
            got.sort_by_key(|r| (r.receiver, r.sender));
            if got != expected {
                return Some(ResolverDisagreement {
                    round,
                    reference,
                    disagreeing: kind,
                    expected,
                    got,
                });
            }
        }
    }
    None
}

/// Quality report for a clustering (paper §1.3's two conditions plus the
/// center-separation requirement of the r-clustering definition in §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringReport {
    /// Number of nodes with no cluster.
    pub unassigned: usize,
    /// Number of distinct clusters.
    pub clusters: usize,
    /// Max distance from a member to its cluster center (condition (i):
    /// every cluster inside a ball of constant radius).
    pub max_radius: f64,
    /// Max number of distinct clusters with a member inside any unit ball
    /// centered at a node (condition (ii): O(1) clusters per unit ball).
    pub max_clusters_per_unit_ball: usize,
    /// Min pairwise distance between cluster centers (definition: centers
    /// ≥ 1 − ε apart).
    pub min_center_separation: f64,
}

/// Computes the report. `cluster_of[v]` is the cluster of node `v` (cluster
/// IDs are the paper IDs of the center nodes); `None` = unassigned.
pub fn check_clustering(net: &Network, cluster_of: &[Option<u64>]) -> ClusteringReport {
    let all: Vec<usize> = (0..net.len()).collect();
    check_clustering_on(net, cluster_of, &all)
}

/// [`check_clustering`] restricted to a participant subset (the awake set
/// under dynamics): only `nodes` are expected to be assigned, and only
/// their memberships count toward the radius / per-ball / separation
/// measurements — an asleep node with a stale assignment is invisible.
pub fn check_clustering_on(
    net: &Network,
    cluster_of: &[Option<u64>],
    nodes: &[usize],
) -> ClusteringReport {
    let mut in_subset = vec![false; net.len()];
    for &v in nodes {
        in_subset[v] = true;
    }
    let unassigned = nodes.iter().filter(|&&v| cluster_of[v].is_none()).count();
    let mut members: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for &v in nodes {
        if let Some(c) = cluster_of[v] {
            members.entry(c).or_default().push(v);
        }
    }
    // Radius around the center node (the node whose ID is the cluster ID).
    let mut max_radius: f64 = 0.0;
    for (&c, vs) in &members {
        if let Some(center) = net.index_of(c) {
            for &v in vs {
                max_radius = max_radius.max(net.pos(v).dist(net.pos(center)));
            }
        }
    }
    // Clusters intersecting unit balls centered at participant nodes.
    let r = net.params().range();
    let mut max_cpb = 0;
    for &v in nodes {
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for u in net.grid().within(net.points(), net.pos(v), r) {
            if !in_subset[u] {
                continue;
            }
            if let Some(c) = cluster_of[u] {
                seen.insert(c);
            }
        }
        max_cpb = max_cpb.max(seen.len());
    }
    // Center separation.
    let centers: Vec<usize> = members.keys().filter_map(|&c| net.index_of(c)).collect();
    let mut min_sep = f64::INFINITY;
    for i in 0..centers.len() {
        for j in i + 1..centers.len() {
            min_sep = min_sep.min(net.pos(centers[i]).dist(net.pos(centers[j])));
        }
    }
    ClusteringReport {
        unassigned,
        clusters: members.len(),
        max_radius,
        max_clusters_per_unit_ball: max_cpb,
        min_center_separation: min_sep,
    }
}

/// True iff `heard_by` witnesses a successful **local broadcast**: every
/// node's message was received by each of its communication-graph
/// neighbors (the problem definition, §1.1).
// lint:allow(D1, reason = "delivery-witness sets; membership queries only")
pub fn local_broadcast_complete(net: &Network, heard_by: &[HashSet<usize>]) -> bool {
    missing_deliveries(net, heard_by).is_empty()
}

/// The `(sender, neighbor)` pairs still missing for a complete local
/// broadcast.
// lint:allow(D1, reason = "delivery-witness sets; membership queries only")
pub fn missing_deliveries(net: &Network, heard_by: &[HashSet<usize>]) -> Vec<(usize, usize)> {
    assert!(
        heard_by.len() >= net.len(),
        "heard_by covers {} of {} nodes",
        heard_by.len(),
        net.len()
    );
    let g = net.comm_graph();
    let mut out = Vec::new();
    for (v, heard) in heard_by.iter().enumerate().take(net.len()) {
        for &u in g.neighbors(v) {
            if !heard.contains(&(u as usize)) {
                out.push((v, u as usize));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::Point;

    fn two_cluster_net() -> (Network, Vec<Option<u64>>) {
        // Cluster 1 centered at node 0 (id 1), cluster 4 at node 3 (id 4).
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.3, 0.0),
            Point::new(0.0, 0.4),
            Point::new(5.0, 0.0),
            Point::new(5.2, 0.1),
        ];
        let net = Network::builder(pts).build().unwrap();
        let cluster_of = vec![Some(1), Some(1), Some(1), Some(4), Some(4)];
        (net, cluster_of)
    }

    #[test]
    fn report_measures_radius_and_separation() {
        let (net, cl) = two_cluster_net();
        let rep = check_clustering(&net, &cl);
        assert_eq!(rep.unassigned, 0);
        assert_eq!(rep.clusters, 2);
        assert!((rep.max_radius - 0.4).abs() < 1e-9);
        assert!((rep.min_center_separation - 5.0).abs() < 1e-9);
        assert_eq!(rep.max_clusters_per_unit_ball, 1);
    }

    #[test]
    fn unassigned_nodes_are_counted() {
        let (net, mut cl) = two_cluster_net();
        cl[2] = None;
        assert_eq!(check_clustering(&net, &cl).unassigned, 1);
    }

    #[test]
    fn subset_report_ignores_non_participants() {
        let (net, mut cl) = two_cluster_net();
        // Node 2 is asleep with a stale (even absurd) assignment: the
        // subset report must not see it.
        cl[2] = Some(4);
        let awake = vec![0, 1, 3, 4];
        let rep = check_clustering_on(&net, &cl, &awake);
        assert_eq!(rep.unassigned, 0);
        assert_eq!(rep.clusters, 2);
        assert!(
            (rep.max_radius - 0.3).abs() < 1e-9,
            "stale member of cluster 4 at distance 5+ must be invisible, got {}",
            rep.max_radius
        );
        // Waking it back up makes the absurd assignment visible again.
        let all: Vec<usize> = (0..net.len()).collect();
        let rep_all = check_clustering_on(&net, &cl, &all);
        assert!(rep_all.max_radius > 4.0);
        assert_eq!(
            check_clustering(&net, &cl),
            rep_all,
            "full-set report is the subset report over all nodes"
        );
    }

    #[test]
    fn resolver_audit_passes_on_equivalent_backends() {
        use dcluster_sim::{deploy, Rng64};
        let mut rng = Rng64::new(5);
        let net = Network::builder(deploy::uniform_square(60, 2.5, &mut rng))
            .build()
            .unwrap();
        // Odd rounds are cut to the aggregated backend's direct path.
        let rounds: Vec<Vec<usize>> = (0..8)
            .map(|r| {
                let cap = if r % 2 == 0 {
                    usize::MAX
                } else {
                    dcluster_sim::DIRECT_MAX_TX
                };
                (0..net.len())
                    .filter(|v| (v + r) % 3 == 0)
                    .take(cap)
                    .collect()
            })
            .collect();
        assert_eq!(
            audit_resolver_equivalence(&net, &rounds, &ResolverKind::ALL),
            None,
            "every backend must agree on every audited round"
        );
        assert_eq!(
            audit_resolver_equivalence(&net, &rounds, &[]),
            None,
            "empty backend list trivially agrees"
        );
    }

    #[test]
    fn local_broadcast_check_spots_missing_pairs() {
        let (net, _) = two_cluster_net();
        let mut heard: Vec<HashSet<usize>> = vec![HashSet::new(); net.len()];
        // Saturate everything…
        for (v, hv) in heard.iter_mut().enumerate() {
            for &u in net.comm_graph().neighbors(v) {
                hv.insert(u as usize);
            }
        }
        assert!(local_broadcast_complete(&net, &heard));
        // …then break one delivery.
        let v = 0;
        let u = *net.comm_graph().neighbors(v).first().unwrap() as usize;
        heard[v].remove(&u);
        assert_eq!(missing_deliveries(&net, &heard), vec![(v, u)]);
    }
}
