//! Hypergraph model of a task set.
//!
//! Vertices are tasks (weighted by cost); each *net* (hyperedge) groups
//! the tasks touching one shared data block (a density/Fock shell-pair
//! block in the chemistry kernel). A k-way partition then balances
//! computation while its **connectivity-λ−1** metric counts the data
//! blocks that must be replicated/communicated — the classical
//! partitioning model the paper uses as its expensive baseline.

/// A hypergraph with weighted vertices and nets.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// Vertex (task) weights.
    pub vwts: Vec<f64>,
    /// Nets: each lists its pin vertices (deduplicated, sorted).
    pub nets: Vec<Vec<u32>>,
    /// Net weights (communication volume of the block).
    pub nwts: Vec<f64>,
}

impl Hypergraph {
    /// Creates a hypergraph; nets are deduplicated/sorted, singleton and
    /// empty nets are dropped (they can never be cut).
    pub fn new(vwts: Vec<f64>, nets: Vec<Vec<u32>>, nwts: Vec<f64>) -> Hypergraph {
        assert_eq!(nets.len(), nwts.len(), "net/weight length mismatch");
        let nv = vwts.len() as u32;
        let mut out_nets = Vec::with_capacity(nets.len());
        let mut out_nwts = Vec::with_capacity(nets.len());
        for (mut net, w) in nets.into_iter().zip(nwts) {
            net.sort_unstable();
            net.dedup();
            assert!(net.iter().all(|&v| v < nv), "net pin out of range");
            if net.len() >= 2 {
                out_nets.push(net);
                out_nwts.push(w);
            }
        }
        Hypergraph {
            vwts,
            nets: out_nets,
            nwts: out_nwts,
        }
    }

    /// Builds the task-affinity hypergraph: `touches[t]` lists the data
    /// blocks task `t` reads/writes; each block with ≥ 2 tasks becomes a
    /// net of unit weight.
    pub fn from_affinities(vwts: Vec<f64>, touches: &[Vec<u32>], nblocks: usize) -> Hypergraph {
        assert_eq!(vwts.len(), touches.len(), "weights/touches length mismatch");
        let mut block_tasks: Vec<Vec<u32>> = vec![Vec::new(); nblocks];
        for (t, blocks) in touches.iter().enumerate() {
            for &b in blocks {
                block_tasks[b as usize].push(t as u32);
            }
        }
        let nwts = vec![1.0; block_tasks.len()];
        Hypergraph::new(vwts, block_tasks, nwts)
    }

    /// Number of vertices.
    pub fn nv(&self) -> usize {
        self.vwts.len()
    }

    /// Total pin count (Σ net sizes).
    pub fn pins(&self) -> usize {
        self.nets.iter().map(|n| n.len()).sum()
    }

    /// Per-part vertex weight of a partition.
    pub fn part_weights(&self, parts: &[u32], k: usize) -> Vec<f64> {
        assert_eq!(parts.len(), self.nv(), "partition length mismatch");
        let mut w = vec![0.0; k];
        for (v, &p) in parts.iter().enumerate() {
            assert!((p as usize) < k, "part id out of range");
            w[p as usize] += self.vwts[v];
        }
        w
    }

    /// Connectivity-minus-one cut: `Σ_nets w · (λ(net) − 1)` where λ is
    /// the number of parts the net spans.
    pub fn connectivity_cut(&self, parts: &[u32], k: usize) -> f64 {
        assert_eq!(parts.len(), self.nv(), "partition length mismatch");
        let mut seen = vec![u32::MAX; k];
        let mut cut = 0.0;
        for (ni, net) in self.nets.iter().enumerate() {
            let mut lambda = 0u32;
            for &v in net {
                let p = parts[v as usize] as usize;
                if seen[p] != ni as u32 {
                    seen[p] = ni as u32;
                    lambda += 1;
                }
            }
            cut += self.nwts[ni] * (lambda.saturating_sub(1)) as f64;
        }
        cut
    }

    /// Number of nets spanning more than one part.
    pub fn cut_nets(&self, parts: &[u32]) -> usize {
        self.nets
            .iter()
            .filter(|net| {
                let p0 = parts[net[0] as usize];
                net.iter().any(|&v| parts[v as usize] != p0)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        // 6 vertices; nets {0,1,2}, {2,3}, {3,4,5}, singleton {5} dropped.
        Hypergraph::new(
            vec![1.0; 6],
            vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![5]],
            vec![1.0, 2.0, 1.0, 9.0],
        )
    }

    #[test]
    fn construction_drops_trivial_nets() {
        let hg = sample();
        assert_eq!(hg.nets.len(), 3);
        assert_eq!(hg.pins(), 8);
    }

    #[test]
    fn dedups_pins() {
        let hg = Hypergraph::new(vec![1.0; 3], vec![vec![1, 1, 2, 2]], vec![1.0]);
        assert_eq!(hg.nets[0], vec![1, 2]);
    }

    #[test]
    fn connectivity_cut_values() {
        let hg = sample();
        // All in one part: zero cut.
        assert_eq!(hg.connectivity_cut(&[0; 6], 2), 0.0);
        // Split {0,1,2} | {3,4,5}: net0 uncut, net1 cut (λ=2 → +2.0),
        // net2 uncut.
        let parts = vec![0, 0, 0, 1, 1, 1];
        assert_eq!(hg.connectivity_cut(&parts, 2), 2.0);
        assert_eq!(hg.cut_nets(&parts), 1);
    }

    #[test]
    fn lambda_counts_parts_not_pins() {
        let hg = Hypergraph::new(vec![1.0; 4], vec![vec![0, 1, 2, 3]], vec![1.0]);
        // Net spans 3 parts → λ−1 = 2, regardless of pin counts.
        assert_eq!(hg.connectivity_cut(&[0, 0, 1, 2], 3), 2.0);
    }

    #[test]
    fn part_weights_accumulate() {
        let hg = Hypergraph::new(vec![1.0, 2.0, 3.0], vec![], vec![]);
        assert_eq!(hg.part_weights(&[0, 1, 1], 2), vec![1.0, 5.0]);
    }

    #[test]
    fn affinity_builder() {
        // 3 tasks; blocks: 0 touched by {0,1}, 1 touched by {1,2},
        // 2 touched only by {2} (dropped).
        let touches = vec![vec![0], vec![0, 1], vec![1, 2]];
        let hg = Hypergraph::from_affinities(vec![1.0; 3], &touches, 3);
        assert_eq!(hg.nets.len(), 2);
        assert_eq!(hg.nets[0], vec![0, 1]);
        assert_eq!(hg.nets[1], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pin_panics() {
        let _ = Hypergraph::new(vec![1.0; 2], vec![vec![0, 5]], vec![1.0]);
    }
}
