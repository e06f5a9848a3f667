//! Multilevel k-way hypergraph partitioning by recursive bisection.
//!
//! A from-scratch implementation of the classical multilevel scheme
//! (PaToH/hMETIS style), the paper's "computationally expensive"
//! load-balancing baseline:
//!
//! 1. **Coarsening** — heavy-connectivity vertex matching until the
//!    hypergraph is small; nets are contracted with the vertices, so
//!    nets left with the same pins become one net of summed weight;
//! 2. **Initial partitioning** — randomized greedy region growth on the
//!    coarsest level, best of several tries;
//! 3. **Uncoarsening + FM refinement** — project the bisection back
//!    through the levels, improving the connectivity cut at each level
//!    with Fiduccia–Mattheyses passes under a balance constraint.
//!
//! k-way partitions come from recursive bisection with proportional
//! target weights, so any `k ≥ 1` is supported.
//!
//! **Balance.** [`HgpConfig::epsilon`] bounds the *final* parts: none
//! may exceed `(1 + ε) · total / k`. A bisection into `k` parts has
//! `⌈log₂ k⌉` levels below it, so it may overshoot a side's target by
//! the factor `(1 + ε′)` with `(1 + ε′)^⌈log₂ k⌉ · (its weight) / k`
//! equal to that bound — `ε′ = (1 + ε)^(1/⌈log₂ k⌉) − 1` at the root,
//! and whatever the bisections above left over further down, which is
//! what keeps odd `k` (branches of unequal depth) inside the bound.
//!
//! Where recursive bisection still ends over the bound — it can gather
//! the heavy vertices in one branch — the heaviest part is bisected
//! afresh together with a lighter one.
//!
//! **Refinement cost.** A level computes every gain once, O(pins), and
//! then keeps them current by the delta rule: moving `v` changes the
//! gain of another pin of a net only when that net's count on the side
//! `v` leaves or enters crosses 0, 1 or 2, so only those *critical*
//! nets are walked. Only boundary vertices (a pin of a cut net) are
//! queued, and a pass ends after a bounded run of moves that did not
//! produce a better prefix.

use crate::hypergraph::Hypergraph;

/// Partitioner configuration.
#[derive(Debug, Clone)]
pub struct HgpConfig {
    /// k-way tolerance: the heaviest part is at most `(1 + ε)` times
    /// the mean part weight when the vertex weights allow it (a vertex
    /// heavier than that is a part of its own).
    pub epsilon: f64,
}

impl Default for HgpConfig {
    fn default() -> Self {
        HgpConfig { epsilon: 0.05 }
    }
}

/// RNG seed of the whole partition (fully deterministic).
const SEED: u64 = 0x9a27;
/// Stop coarsening below this many vertices.
const COARSEN_UNTIL: usize = 64;
/// FM passes per uncoarsening level.
const FM_PASSES: usize = 3;
/// Random restarts for the initial partition.
const INITIAL_TRIES: usize = 6;

/// Partitions `hg` into `k` parts; returns `parts[v] ∈ 0..k`.
pub fn partition(hg: &Hypergraph, k: usize, cfg: &HgpConfig) -> Vec<u32> {
    partition_counted(hg, k, cfg).0
}

/// Exact work counts of one [`partition`] call, summed over every
/// bisection and level: what the near-linearity test reads instead of
/// a clock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct Work {
    /// Levels refined (the coarsest once per initial try).
    pub levels: usize,
    /// Pins of those levels.
    pub level_pins: usize,
    /// FM moves applied, and those of them kept after rollback.
    pub moves_applied: usize,
    pub moves_kept: usize,
    /// Gain changes by the delta rule.
    pub gain_updates: usize,
}

/// [`partition`] with its work counts.
pub(crate) fn partition_counted(hg: &Hypergraph, k: usize, cfg: &HgpConfig) -> (Vec<u32>, Work) {
    assert!(k >= 1, "k must be at least 1");
    let total: f64 = hg.vwts.iter().sum();
    let mut run = Run {
        max_part: (1.0 + cfg.epsilon) * total / k as f64,
        parts: vec![0u32; hg.nv()],
        work: Work::default(),
    };
    if k > 1 && hg.nv() > 0 {
        let ids: Vec<usize> = (0..hg.nv()).collect();
        run.recurse(hg, &ids, k, 0, SEED);
        run.relieve(hg, k);
    }
    (run.parts, run.work)
}

/// What every bisection of one `partition` call shares.
struct Run {
    /// Heaviest part the k-way tolerance allows.
    max_part: f64,
    parts: Vec<u32>,
    work: Work,
}

impl Run {
    /// Pairwise repair of what recursive bisection could not balance
    /// (cut minimisation likes to gather the heavy vertices in one
    /// branch, whose last bisections then have too few vertices to
    /// split evenly): while the heaviest part is over `max_part`,
    /// bisects it afresh together with a lighter part — the lightest
    /// first, the next one up when that did not help. `2k` attempts
    /// bound the cost by that of the recursion itself.
    fn relieve(&mut self, hg: &Hypergraph, k: usize) {
        let mut tried = 0;
        for attempt in 0..2 * k as u64 {
            let loads = hg.part_weights(&self.parts, k);
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&a, &b| loads[a].total_cmp(&loads[b]));
            let (hi, lo) = (order[k - 1], order[tried]);
            let alone = self.parts.iter().filter(|&&p| p as usize == hi).count() < 2;
            if loads[hi] <= self.max_part || alone || hi == lo {
                return;
            }
            let seed = SEED ^ (attempt + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let relieved = self.rebisect(hg, [hi, lo], [loads[hi], loads[lo]], seed);
            tried = if relieved { 0 } else { tried + 1 };
        }
    }

    /// Bisects parts `pair` (of weights `loads`, the first the heavier)
    /// afresh; keeps the result if it lowers the heavier one.
    fn rebisect(&mut self, hg: &Hypergraph, pair: [usize; 2], loads: [f64; 2], seed: u64) -> bool {
        let (sub, ids) = induce(hg, |v| pair.contains(&(self.parts[v] as usize)));
        let half = (loads[0] + loads[1]) / 2.0;
        let band = Band {
            target0: half,
            slack: (self.max_part - half).max(0.0),
        };
        let sides = multilevel_bisect(&sub, &band, seed, &mut self.work);
        let w0: f64 = (0..ids.len())
            .filter(|&i| sides[i] == 0)
            .map(|i| sub.vwts[i])
            .sum();
        let better = w0.max(2.0 * half - w0) < loads[0] * (1.0 - 1e-9);
        if better {
            for (&v, &s) in ids.iter().zip(&sides) {
                self.parts[v] = pair[s as usize] as u32;
            }
        }
        better
    }

    /// Bisects `sub` (whose vertex `i` is vertex `ids[i]` of the input)
    /// and recurses into the halves, writing labels `base..base+k`.
    fn recurse(&mut self, sub: &Hypergraph, ids: &[usize], k: usize, base: u32, seed: u64) {
        let ks = [k / 2, k - k / 2];
        let f = ks[0] as f64 / k as f64;
        let total: f64 = sub.vwts.iter().sum();
        let depth = ((k - 1).ilog2() + 1) as f64;
        let eps = ((self.max_part * k as f64 / total).powf(1.0 / depth) - 1.0).max(0.0);
        let band = Band {
            target0: f * total,
            slack: eps * f.min(1.0 - f) * total,
        };
        let mut sides = multilevel_bisect(sub, &band, seed, &mut self.work);
        fill_short_side(sub, &mut sides, ks);

        for s in 0..2 {
            let on_side = |v: usize| sides[v] as usize == s;
            let child_base = base + (s * ks[0]) as u32;
            if ks[s] == 1 {
                for v in (0..sub.nv()).filter(|&v| on_side(v)) {
                    self.parts[ids[v]] = child_base;
                }
                continue;
            }
            let (child, kept) = induce(sub, on_side);
            if !kept.is_empty() {
                let child_ids: Vec<usize> = kept.iter().map(|&v| ids[v]).collect();
                let seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1 + s as u64);
                self.recurse(&child, &child_ids, ks[s], child_base, seed);
            }
        }
    }
}

/// A side that is to become `ks[s]` parts needs that many vertices:
/// takes the lightest ones from the other side while it can spare them
/// (one vertex heavier than half the weight is otherwise a side alone).
fn fill_short_side(hg: &Hypergraph, sides: &mut [u8], ks: [usize; 2]) {
    let mut count = [0usize; 2];
    for &s in sides.iter() {
        count[s as usize] += 1;
    }
    for s in 0..2 {
        while count[s] < ks[s] && count[1 - s] > ks[1 - s] {
            let v = (0..hg.nv())
                .filter(|&v| sides[v] as usize != s)
                .min_by(|&a, &b| hg.vwts[a].total_cmp(&hg.vwts[b]))
                .expect("the other side has vertices to spare");
            sides[v] = s as u8;
            count[s] += 1;
            count[1 - s] -= 1;
        }
    }
}

/// The sub-hypergraph on the vertices `keep` selects, and which of
/// `hg`'s vertices its vertices are.
fn induce(hg: &Hypergraph, keep: impl Fn(usize) -> bool) -> (Hypergraph, Vec<usize>) {
    let kept: Vec<usize> = (0..hg.nv()).filter(|&v| keep(v)).collect();
    let mut map = vec![u32::MAX; hg.nv()];
    for (i, &v) in kept.iter().enumerate() {
        map[v] = i as u32;
    }
    (contract(hg, &map, kept.len()), kept)
}

/// Maps every vertex `v` to `map[v]` (dropping those mapped to
/// `u32::MAX`) and every net with it: pins that fall together are one
/// pin, nets left with fewer than two pins vanish, and nets left with
/// identical pins are merged into one net carrying their summed weight.
/// Serves both the coarsening step and the extraction of one side.
fn contract(hg: &Hypergraph, map: &[u32], new_nv: usize) -> Hypergraph {
    let mut vwts = vec![0.0; new_nv];
    for (v, &c) in map.iter().enumerate() {
        if c != u32::MAX {
            vwts[c as usize] += hg.vwts[v];
        }
    }
    let mut nets: Vec<(Vec<u32>, f64)> = Vec::with_capacity(hg.nets.len());
    for (net, &w) in hg.nets.iter().zip(&hg.nwts) {
        let mut pins: Vec<u32> = net
            .iter()
            .map(|&v| map[v as usize])
            .filter(|&c| c != u32::MAX)
            .collect();
        pins.sort_unstable();
        pins.dedup();
        if pins.len() >= 2 {
            nets.push((pins, w));
        }
    }
    nets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    nets.dedup_by(|later, first| {
        let parallel = later.0 == first.0;
        if parallel {
            first.1 += later.1;
        }
        parallel
    });
    let (nets, nwts) = nets.into_iter().unzip();
    Hypergraph { vwts, nets, nwts }
}

/// Vertex→net incidence in compressed rows (one allocation per level
/// instead of one per vertex).
struct Incidence {
    start: Vec<u32>,
    nets: Vec<u32>,
}

impl Incidence {
    fn new(hg: &Hypergraph) -> Incidence {
        let mut start = vec![0u32; hg.nv() + 1];
        for &v in hg.nets.iter().flatten() {
            start[v as usize + 1] += 1;
        }
        for v in 0..hg.nv() {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut nets = vec![0u32; hg.pins()];
        for (ni, net) in hg.nets.iter().enumerate() {
            for &v in net {
                nets[fill[v as usize] as usize] = ni as u32;
                fill[v as usize] += 1;
            }
        }
        Incidence { start, nets }
    }

    fn of(&self, v: usize) -> &[u32] {
        &self.nets[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// The balance constraint of one bisection: side 0 should weigh
/// `target0`, give or take `slack`.
struct Band {
    target0: f64,
    slack: f64,
}

impl Band {
    fn deviation(&self, w0: f64) -> f64 {
        (w0 - self.target0).abs()
    }

    /// How far outside the band `w0` is (0 inside).
    fn excess(&self, w0: f64) -> f64 {
        (self.deviation(w0) - self.slack).max(0.0)
    }
}

/// One multilevel bisection: returns side (0/1) per vertex.
fn multilevel_bisect(hg: &Hypergraph, band: &Band, seed: u64, work: &mut Work) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0xc0a53);
    let total: f64 = hg.vwts.iter().sum();
    // FM can carry a vertex across a centred band only if it weighs at
    // most the band's width, so matching builds nothing heavier — down
    // to the weight coarsening to `COARSEN_UNTIL` vertices needs.
    let max_vertex = (2.0 * band.slack).max(total / COARSEN_UNTIL as f64);

    // --- Coarsening ---
    // `levels[i]` is level i with its map to level i + 1; `current` is
    // the coarsest level.
    let mut levels: Vec<(Hypergraph, Incidence, Vec<u32>)> = Vec::new();
    let mut current = hg.clone();
    let mut inc = Incidence::new(&current);
    while current.nv() > COARSEN_UNTIL {
        let (map, coarse_nv) = heavy_connectivity_matching(&current, &inc, max_vertex, &mut rng);
        let coarse = contract(&current, &map, coarse_nv);
        // Stalled: a level that keeps 95 % of the vertices or of the
        // pins costs as much to refine as the one below it.
        let kept = |coarse: usize, fine: usize| coarse as f64 > 0.95 * fine as f64;
        if kept(coarse_nv, current.nv()) || kept(coarse.pins(), current.pins()) {
            break;
        }
        let coarse_inc = Incidence::new(&coarse);
        levels.push((current, inc, map));
        (current, inc) = (coarse, coarse_inc);
    }

    // --- Initial partition on the coarsest level: feasible before cheap ---
    let mut best: Option<((f64, f64), Vec<u8>)> = None;
    for _ in 0..INITIAL_TRIES {
        let sides = grow_bisection(&current, &inc, band.target0, &mut rng);
        let mut fm = Refiner::new(&current, &inc, band, sides);
        fm.refine(work);
        let score = (band.excess(fm.w0), fm.cut());
        if best.as_ref().is_none_or(|(b, _)| score < *b) {
            best = Some((score, fm.side));
        }
    }
    let mut sides = best.expect("at least one initial try").1;

    // --- Uncoarsen + refine ---
    for (fine, inc, map) in levels.iter().rev() {
        let projected = map.iter().map(|&c| sides[c as usize]).collect();
        let mut fm = Refiner::new(fine, inc, band, projected);
        fm.refine(work);
        sides = fm.side;
    }
    sides
}

/// Heavy-connectivity matching: pairs each vertex with the unmatched
/// neighbour sharing the largest net-weight density, among those it
/// can join without exceeding `max_vertex`. Returns the fine→coarse
/// vertex map and the number of coarse vertices.
fn heavy_connectivity_matching(
    hg: &Hypergraph,
    inc: &Incidence,
    max_vertex: f64,
    rng: &mut Rng,
) -> (Vec<u32>, usize) {
    const MAX_NET_FOR_MATCHING: usize = 64;
    let nv = hg.nv();
    let mut order: Vec<usize> = (0..nv).collect();
    rng.shuffle(&mut order);
    let mut score = vec![0.0f64; nv];
    let mut touched: Vec<usize> = Vec::new();
    let mut coarse = vec![u32::MAX; nv];
    let mut next_coarse = 0u32;

    for &u in &order {
        if coarse[u] != u32::MAX {
            continue;
        }
        // Score unmatched neighbours by shared connectivity.
        for &ni in inc.of(u) {
            let net = &hg.nets[ni as usize];
            if net.len() > MAX_NET_FOR_MATCHING {
                continue;
            }
            let density = hg.nwts[ni as usize] / (net.len() - 1) as f64;
            for &v in net {
                let v = v as usize;
                if v != u && coarse[v] == u32::MAX && hg.vwts[u] + hg.vwts[v] <= max_vertex {
                    if score[v] == 0.0 {
                        touched.push(v);
                    }
                    score[v] += density;
                }
            }
        }
        let mut bestv = None;
        let mut bests = 0.0;
        for &v in &touched {
            if score[v] > bests {
                bests = score[v];
                bestv = Some(v);
            }
            score[v] = 0.0;
        }
        touched.clear();

        coarse[u] = next_coarse;
        if let Some(v) = bestv {
            coarse[v] = next_coarse;
        }
        next_coarse += 1;
    }
    (coarse, next_coarse as usize)
}

/// Random greedy region growth until side 0 weighs `target0`.
fn grow_bisection(hg: &Hypergraph, inc: &Incidence, target0: f64, rng: &mut Rng) -> Vec<u8> {
    let nv = hg.nv();
    let mut side = vec![1u8; nv];
    let mut w0 = 0.0;
    let mut queue = std::collections::VecDeque::new();
    let mut enqueued = vec![false; nv];
    // A region that stops growing restarts from a uniform draw among
    // the vertices still unassigned: the next such in a random order.
    let mut restarts: Vec<usize> = (0..nv).collect();
    rng.shuffle(&mut restarts);
    let mut restarts = restarts.into_iter();

    while w0 < target0 {
        let u = match queue.pop_front() {
            Some(u) => u,
            None => match restarts.find(|&v| !enqueued[v]) {
                Some(u) => {
                    enqueued[u] = true;
                    u
                }
                None => break,
            },
        };
        // Stop before badly overshooting the target.
        if w0 + hg.vwts[u] > target0 + 0.5 * hg.vwts[u] && w0 > 0.0 {
            // Still take it if we're far from the target.
            if w0 >= 0.8 * target0 {
                break;
            }
        }
        side[u] = 0;
        w0 += hg.vwts[u];
        for &ni in inc.of(u) {
            for &v in &hg.nets[ni as usize] {
                let v = v as usize;
                if !enqueued[v] {
                    enqueued[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    side
}

/// FM refinement of one level. The per-net side counts and every
/// vertex's gain are computed once, O(pins), and from then on kept
/// current by the delta rule in [`Refiner::flip`] — through the moves
/// of a pass, its rollback, and the passes after it.
struct Refiner<'a> {
    hg: &'a Hypergraph,
    inc: &'a Incidence,
    band: &'a Band,
    side: Vec<u8>,
    /// Per-net pin counts on side 0 / side 1.
    cnt: Vec<[u32; 2]>,
    /// Cut decrease if the vertex changed sides.
    gain: Vec<f64>,
    /// Cut nets at each vertex: positive on the boundary.
    cut_nets: Vec<u32>,
    w0: f64,
    /// How far from the target a move may leave side 0 without
    /// bringing it closer: the bisection's slack, or this level's mean
    /// vertex weight where that is more (a balanced cut of unit
    /// weights would otherwise be frozen).
    tol: f64,
}

impl<'a> Refiner<'a> {
    fn new(hg: &'a Hypergraph, inc: &'a Incidence, band: &'a Band, side: Vec<u8>) -> Self {
        let mut cnt = vec![[0u32; 2]; hg.nets.len()];
        for (c, net) in cnt.iter_mut().zip(&hg.nets) {
            for &v in net {
                c[side[v as usize] as usize] += 1;
            }
        }
        let mut fm = Refiner {
            gain: vec![0.0; hg.nv()],
            cut_nets: vec![0; hg.nv()],
            w0: 0.0,
            tol: band
                .slack
                .max(hg.vwts.iter().sum::<f64>() / hg.nv().max(1) as f64),
            hg,
            inc,
            band,
            side,
            cnt,
        };
        for v in 0..hg.nv() {
            let s = fm.side[v] as usize;
            if s == 0 {
                fm.w0 += hg.vwts[v];
            }
            for &ni in inc.of(v) {
                let (c, w) = (fm.cnt[ni as usize], hg.nwts[ni as usize]);
                if c[s] == 1 {
                    fm.gain[v] += w; // net becomes uncut
                }
                if c[1 - s] == 0 {
                    fm.gain[v] -= w; // net becomes cut
                } else {
                    fm.cut_nets[v] += 1;
                }
            }
        }
        fm
    }

    /// Weighted cut (connectivity cut with k = 2 equals the plain
    /// cut-net metric).
    fn cut(&self) -> f64 {
        let nets = self.cnt.iter().zip(&self.hg.nwts);
        nets.filter(|(c, _)| c[0] > 0 && c[1] > 0)
            .map(|(_, &w)| w)
            .sum()
    }

    /// FM passes until one fails to improve.
    fn refine(&mut self, work: &mut Work) {
        work.levels += 1;
        work.level_pins += self.inc.nets.len();
        for _ in 0..FM_PASSES {
            if !self.pass(work) {
                break;
            }
        }
    }

    /// Moves `v` to the other side. Delta rule: the gain of another
    /// pin changes only on nets whose count on the side `v` leaves or
    /// enters crosses 0, 1 or 2; `changed(u, side of u, gains)` is told
    /// of each.
    fn flip(&mut self, v: usize, work: &mut Work, mut changed: impl FnMut(usize, usize, &[f64])) {
        let (s, t) = (self.side[v] as usize, 1 - self.side[v] as usize);
        let (side, gain, cut_nets) = (&self.side, &mut self.gain, &mut self.cut_nets);
        for &ni in self.inc.of(v) {
            let (net, w) = (&self.hg.nets[ni as usize], self.hg.nwts[ni as usize]);
            let cnt = &mut self.cnt[ni as usize];
            let mut bump = |u: u32, dw: f64| {
                let u = u as usize;
                if u != v {
                    gain[u] += dw;
                    work.gain_updates += 1;
                    changed(u, side[u] as usize, gain);
                }
            };
            if cnt[t] == 0 {
                // Becomes cut: every pin joins the boundary.
                net.iter().for_each(|&u| bump(u, w));
                net.iter().for_each(|&u| cut_nets[u as usize] += 1);
            } else if cnt[t] == 1 {
                let only = net.iter().find(|&&u| side[u as usize] as usize == t);
                bump(*only.expect("one pin on the target side"), -w);
            }
            cnt[s] -= 1;
            cnt[t] += 1;
            if cnt[s] == 0 {
                net.iter().for_each(|&u| bump(u, -w));
                net.iter().for_each(|&u| cut_nets[u as usize] -= 1);
            } else if cnt[s] == 1 {
                let only = net
                    .iter()
                    .find(|&&u| u as usize != v && side[u as usize] as usize == s);
                bump(*only.expect("one pin left on the source side"), w);
            }
        }
        self.gain[v] = -self.gain[v];
        self.side[v] = t as u8;
        self.w0 += if s == 0 {
            -self.hg.vwts[v]
        } else {
            self.hg.vwts[v]
        };
    }

    /// One FM pass. Returns true if it improved the bisection: closer
    /// to the band, or inside it with a lower cut (or, at equal cut,
    /// nearer the target).
    fn pass(&mut self, work: &mut Work) -> bool {
        let (nv, band) = (self.hg.nv(), self.band);
        // Boundary vertices, queued by the side they are on.
        let mut queues = [GainHeap::new(nv), GainHeap::new(nv)];
        for v in (0..nv).filter(|&v| self.cut_nets[v] > 0) {
            queues[self.side[v] as usize].upsert(v, &self.gain);
        }
        let mut locked = vec![false; nv];
        let mut flooded = [false; 2];
        let mut applied: Vec<usize> = Vec::new();
        let mut cum = 0.0;
        // (excess, cut gain, deviation) of the best prefix, feasibility
        // first: FM is also the balance-repair step (the only one for
        // net-free instances).
        let mut best = (band.excess(self.w0), 0.0, band.deviation(self.w0));
        let mut best_len = 0usize;
        let patience = 64 + nv / 100;

        while applied.len() - best_len <= patience {
            let (w0, gain) = (self.w0, &self.gain);
            let heavy = (w0 < band.target0) as usize;
            if band.excess(w0) > 0.0 && queues[heavy].peek().is_none() && !flooded[heavy] {
                // Out of the band with no boundary vertex left to bring
                // it back: every vertex of the heavy side is a candidate.
                flooded[heavy] = true;
                for v in (0..nv).filter(|&v| self.side[v] as usize == heavy && !locked[v]) {
                    queues[heavy].upsert(v, gain);
                }
            }
            // The better top first (at equal gain the one that helps
            // the balance); a move must leave side 0 within the level's
            // tolerance of its target, or closer to it than it is.
            let tops = [queues[0].peek(), queues[1].peek()];
            let first = match tops {
                [Some(a), Some(b)] if gain[a] != gain[b] => (gain[b] > gain[a]) as usize,
                [Some(_), None] => 0,
                [None, Some(_)] => 1,
                _ => heavy,
            };
            let admissible = |s: usize, v: usize| {
                let wv = self.hg.vwts[v];
                let moved = band.deviation(if s == 0 { w0 - wv } else { w0 + wv });
                moved <= self.tol || moved < band.deviation(w0)
            };
            let pick = [first, 1 - first]
                .into_iter()
                .find(|&s| tops[s].is_some_and(|v| admissible(s, v)));
            let Some(s) = pick else {
                // Neither top may move now: both sit this pass out.
                let retired = queues
                    .iter_mut()
                    .filter_map(|q| q.pop(gain))
                    .map(|v| locked[v] = true)
                    .count();
                if retired == 0 {
                    break;
                }
                continue;
            };
            let v = queues[s].pop(gain).expect("picked from this queue");
            locked[v] = true;
            cum += gain[v];
            self.flip(v, work, |u, su, gain| {
                if !locked[u] {
                    queues[su].upsert(u, gain);
                }
            });
            applied.push(v);
            let now = (band.excess(self.w0), cum, band.deviation(self.w0));
            let better = now.0 < best.0
                || now.0 == best.0
                    && (now.1 > best.1 + 1e-12 || now.1 > best.1 - 1e-12 && now.2 < best.2 - 1e-12);
            if better {
                best = (now.0, now.1.max(best.1), now.2);
                best_len = applied.len();
            }
        }

        // Roll back past the best prefix.
        for &v in applied[best_len..].iter().rev() {
            self.flip(v, work, |_, _, _| {});
        }
        work.moves_applied += applied.len();
        work.moves_kept += best_len;
        best_len > 0
    }
}

/// Max-heap of vertices keyed by an external gain array, indexed by
/// vertex so that a changed key is re-sifted in place in O(log n).
struct GainHeap {
    heap: Vec<u32>,
    /// Position of each vertex in `heap`, `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl GainHeap {
    fn new(nv: usize) -> GainHeap {
        GainHeap {
            heap: Vec::new(),
            pos: vec![u32::MAX; nv],
        }
    }

    fn peek(&self) -> Option<usize> {
        self.heap.first().map(|&v| v as usize)
    }

    /// Inserts `v`, or restores the order around it after `gain[v]`
    /// changed.
    fn upsert(&mut self, v: usize, gain: &[f64]) {
        if self.pos[v] == u32::MAX {
            self.pos[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
        }
        let i = self.sift_up(self.pos[v] as usize, gain);
        self.sift_down(i, gain);
    }

    fn pop(&mut self, gain: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, gain);
        }
        Some(top as usize)
    }

    fn key(&self, i: usize, gain: &[f64]) -> f64 {
        gain[self.heap[i] as usize]
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }

    fn sift_up(&mut self, mut i: usize, gain: &[f64]) -> usize {
        while i > 0 && self.key(i, gain) > self.key((i - 1) / 2, gain) {
            self.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize, gain: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut c = i;
            if l < self.heap.len() && self.key(l, gain) > self.key(c, gain) {
                c = l;
            }
            if r < self.heap.len() && self.key(r, gain) > self.key(c, gain) {
                c = r;
            }
            if c == i {
                return;
            }
            self.swap(i, c);
            i = c;
        }
    }
}

/// Deterministic splitmix64-based RNG (no external dependency in the
/// partitioner hot path).
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9e3779b97f4a7c15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpt::lpt;
    use crate::problem::{is_valid, Problem};
    use proptest::prelude::*;

    /// A ring of cliques: `m` groups of `g` vertices; heavy nets inside
    /// groups, light nets linking consecutive groups. The natural
    /// k = m partition cuts only the light links.
    fn ring_of_cliques(m: usize, g: usize) -> Hypergraph {
        let nv = m * g;
        let mut nets = Vec::new();
        let mut nwts = Vec::new();
        for c in 0..m {
            let members: Vec<u32> = (0..g).map(|i| (c * g + i) as u32).collect();
            nets.push(members);
            nwts.push(10.0);
            // Light link to the next group.
            nets.push(vec![(c * g) as u32, (((c + 1) % m) * g) as u32]);
            nwts.push(1.0);
        }
        Hypergraph::new(vec![1.0; nv], nets, nwts)
    }

    /// The benchmark's affinity shape (`synthetic_affinity` in
    /// emx-core): task `i` touches block `i mod nblocks` and two hashed
    /// ones; every block touched twice or more is a unit net.
    fn affinity_hypergraph(vwts: Vec<f64>, nblocks: usize, seed: u64) -> Hypergraph {
        let h = |x: u64| {
            let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 31)
        };
        let touches: Vec<Vec<u32>> = (0..vwts.len() as u64)
            .map(|i| {
                let nb = nblocks as u64;
                vec![(i % nb) as u32, (h(i) % nb) as u32, (h(i + 1) % nb) as u32]
            })
            .collect();
        Hypergraph::from_affinities(vwts, &touches, nblocks)
    }

    /// `n` log-normal weights `exp(σ·z)` (Box–Muller on the module's RNG).
    fn lognormal(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        let mut unit = move || ((rng.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        (0..n)
            .map(|_| {
                let z = (-2.0 * unit().ln()).sqrt() * (std::f64::consts::TAU * unit()).cos();
                (sigma * z).exp()
            })
            .collect()
    }

    fn imbalance(hg: &Hypergraph, parts: &[u32], k: usize) -> f64 {
        Problem::new(hg.vwts.clone(), k).imbalance(parts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `epsilon` is a promise about the k-way result, so it is
        /// checked on the result: unit, log-normal σ = 1.3 and
        /// one-heavy-vertex weights (worth 5–105 % of the rest), with
        /// and without nets, for even, odd and prime `k`.
        #[test]
        fn partition_meets_its_epsilon(
            n in 1usize..400,
            k in 0usize..6,
            weights in 0usize..3,
            nets in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let k = [2, 3, 5, 8, 16, 32][k];
            let mut w = if weights == 1 { lognormal(n, 1.3, seed) } else { vec![1.0; n] };
            if weights == 2 {
                let mut rng = Rng::new(seed);
                w[rng.below(n)] = n as f64 * (0.05 + 0.01 * rng.below(101) as f64);
            }
            let hg = match nets {
                0 => Hypergraph::new(w, vec![], vec![]),
                _ => affinity_hypergraph(w, (n / 4).max(1), seed),
            };
            let cfg = HgpConfig::default();
            let parts = partition(&hg, k, &cfg);
            let case = format!("n {n} k {k} weights {weights} nets {nets} seed {seed}");

            prop_assert!(is_valid(&parts, n, k), "{case}");
            prop_assert_eq!(&parts, &partition(&hg, k, &cfg), "same seed, same partition: {}", case);
            if n >= k {
                let mut used = vec![false; k];
                parts.iter().for_each(|&p| used[p as usize] = true);
                prop_assert!(used.iter().all(|&u| u), "an empty part: {case}");
            }
            // 1 + ε, or what the heaviest vertices force — LPT's packing
            // of the same weights stands in for that bound. Under four
            // vertices a part a recursive bisection cannot be held to a
            // global packing: its last bisections split three or four
            // skewed weights (seen over 18 000 such instances: two
            // misses, at 2.8 and 3.6 vertices a part, none from 4 up).
            if n >= 4 * k {
                let problem = Problem::new(hg.vwts.clone(), k);
                let forced = problem.imbalance(&lpt(&problem));
                let got = problem.imbalance(&parts);
                prop_assert!(
                    got <= (1.0 + cfg.epsilon).max(forced) * (1.0 + 1e-9),
                    "imbalance {got:.4}, LPT {forced:.4}: {case}"
                );
            }
        }
    }

    /// The counts that guard against the coarsest-level blow-up: on
    /// the benchmark's shape (log-normal σ = 1.3 costs, n/4 blocks, 16
    /// parts) FM work per input pin must not grow with the input. No
    /// clock is read. (Measured: 85 moves + gain updates per pin at
    /// 2 000 vertices, 59 at 8 000; the lazy-heap FM this replaced
    /// popped 146 and 160 heap entries per pin at 4 000 and 16 000.)
    #[test]
    fn fm_work_per_pin_does_not_grow_with_the_input() {
        let per_pin = |n: usize| {
            let hg = affinity_hypergraph(lognormal(n, 1.3, 42), n / 4, 42);
            let (parts, work) = partition_counted(&hg, 16, &HgpConfig::default());
            assert!(imbalance(&hg, &parts, 16) <= 1.05 + 1e-9);
            assert!(work.moves_kept <= work.moves_applied && work.level_pins >= hg.pins());
            (work.moves_applied + work.gain_updates) as f64 / hg.pins() as f64
        };
        let (small, large) = (per_pin(2_000), per_pin(8_000));
        assert!(
            large <= 1.5 * small,
            "FM work per pin: {small:.1} at 2 000 vertices, {large:.1} at 8 000"
        );
    }

    #[test]
    fn delta_rule_keeps_gains_equal_to_recomputation() {
        let hg = affinity_hypergraph(lognormal(600, 1.0, 3), 150, 3);
        let inc = Incidence::new(&hg);
        let total: f64 = hg.vwts.iter().sum();
        let band = Band {
            target0: total / 2.0,
            slack: 0.02 * total,
        };
        let sides = grow_bisection(&hg, &inc, band.target0, &mut Rng::new(5));
        let mut fm = Refiner::new(&hg, &inc, &band, sides);
        let mut work = Work::default();
        for pass in 0..3 {
            fm.pass(&mut work);
            let fresh = Refiner::new(&hg, &inc, &band, fm.side.clone());
            assert_eq!(fm.cnt, fresh.cnt, "pass {pass}");
            assert_eq!(fm.cut_nets, fresh.cut_nets, "pass {pass}");
            assert_eq!(fm.gain, fresh.gain, "pass {pass}: unit nets, exact sums");
            assert!((fm.w0 - fresh.w0).abs() < 1e-9 * total);
        }
        assert!(work.moves_kept > 0 && work.gain_updates > 0);
    }

    #[test]
    fn contraction_merges_parallel_nets() {
        // Vertices 0,1 → 0 and 2,3 → 1: nets {0,2} and {1,3} become the
        // same net {0,1}; {0,1} collapses to one pin and vanishes.
        let hg = Hypergraph::new(
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![vec![0, 2], vec![1, 3], vec![0, 1], vec![3, 4]],
            vec![1.0, 2.5, 9.0, 4.0],
        );
        let coarse = contract(&hg, &[0, 0, 1, 1, 2], 3);
        assert_eq!(coarse.vwts, vec![3.0, 7.0, 5.0]);
        assert_eq!(coarse.nets, vec![vec![0, 1], vec![1, 2]]);
        assert_eq!(coarse.nwts, vec![3.5, 4.0]);
        // Extraction of a side drops the other side's pins.
        let (side, kept) = induce(&hg, |v| v != 2);
        assert_eq!(kept, vec![0, 1, 3, 4]);
        assert_eq!(side.nets, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
    }

    #[test]
    fn region_growth_restarts_anywhere_among_the_unassigned() {
        // Net-free: every vertex is a restart. Drawing among all `nv`
        // and indexing the unassigned with it used to fall through to
        // the lowest-numbered vertex most of the time.
        let hg = Hypergraph::new(vec![1.0; 200], vec![], vec![]);
        let side = grow_bisection(&hg, &Incidence::new(&hg), 100.0, &mut Rng::new(1));
        let low = side[..100].iter().filter(|&&s| s == 0).count();
        assert_eq!(side.iter().filter(|&&s| s == 0).count(), 100);
        assert!((30..=70).contains(&low), "{low} of the first 100 chosen");
    }

    #[test]
    fn odd_k_stays_inside_epsilon() {
        // Branches of unequal depth: a fixed per-level ε′ would compound
        // to (1 + ε)^(11/6) on the path 5 → 3 → 2 → 1.
        let hg = affinity_hypergraph(lognormal(3_000, 1.3, 9), 750, 9);
        for k in [3, 5, 7, 11] {
            let parts = partition(&hg, k, &HgpConfig::default());
            assert!(imbalance(&hg, &parts, k) <= 1.05 + 1e-9, "k = {k}");
        }
    }

    #[test]
    fn k1_is_trivial() {
        let hg = ring_of_cliques(2, 4);
        let parts = partition(&hg, 1, &HgpConfig::default());
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn bisection_is_balanced_and_valid() {
        let hg = ring_of_cliques(4, 8);
        let parts = partition(&hg, 2, &HgpConfig::default());
        assert_eq!(parts.len(), 32);
        assert!(parts.iter().all(|&p| p < 2));
        let w = hg.part_weights(&parts, 2);
        assert!((w[0] - w[1]).abs() <= 4.0, "weights {w:?}");
    }

    #[test]
    fn bisection_finds_the_obvious_cut() {
        // Two heavy cliques joined by one light net: the cut should not
        // split a clique.
        let hg = ring_of_cliques(2, 10);
        let parts = partition(&hg, 2, &HgpConfig::default());
        let cut = hg.connectivity_cut(&parts, 2);
        // Optimal cuts only the two inter-clique links (weight 1 each).
        assert!(cut <= 2.0 + 1e-12, "cut {cut} parts {parts:?}");
    }

    #[test]
    fn four_way_respects_structure() {
        let hg = ring_of_cliques(4, 6);
        let parts = partition(&hg, 4, &HgpConfig::default());
        let w = hg.part_weights(&parts, 4);
        let max = w.iter().cloned().fold(0.0, f64::max);
        let mean = w.iter().sum::<f64>() / 4.0;
        // 1 + ε, plus one unit vertex of granularity.
        assert!(max <= 1.05 * mean + 1.0, "weights {w:?}");
        // Each heavy clique net should be internal to one part.
        let cut = hg.connectivity_cut(&parts, 4);
        assert!(cut <= 8.0, "cut {cut}");
    }

    #[test]
    fn odd_k_supported() {
        let hg = ring_of_cliques(6, 5);
        let parts = partition(&hg, 3, &HgpConfig::default());
        assert!(parts.iter().all(|&p| p < 3));
        let w = hg.part_weights(&parts, 3);
        assert!(w.iter().all(|&x| x > 0.0), "no empty parts expected: {w:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let hg = ring_of_cliques(3, 7);
        let cfg = HgpConfig::default();
        assert_eq!(partition(&hg, 4, &cfg), partition(&hg, 4, &cfg));
    }

    #[test]
    fn handles_netless_hypergraph() {
        let hg = Hypergraph::new(vec![1.0; 10], vec![], vec![]);
        let parts = partition(&hg, 2, &HgpConfig::default());
        let w = hg.part_weights(&parts, 2);
        assert!((w[0] - w[1]).abs() <= 2.0, "weights {w:?}");
    }

    #[test]
    fn empty_hypergraph() {
        let hg = Hypergraph::new(vec![], vec![], vec![]);
        assert!(partition(&hg, 4, &HgpConfig::default()).is_empty());
    }

    #[test]
    fn weighted_vertices_balanced_by_weight() {
        // One heavy vertex + many light ones.
        let mut vw = vec![1.0; 20];
        vw[0] = 20.0;
        let hg = Hypergraph::new(vw, vec![], vec![]);
        let parts = partition(&hg, 2, &HgpConfig::default());
        let w = hg.part_weights(&parts, 2);
        // Heavy vertex alone ≈ the other side's 20 light ones.
        assert!((w[0] - w[1]).abs() <= 4.0, "weights {w:?}");
    }

    #[test]
    fn larger_instance_under_coarsening() {
        // Big enough to exercise multiple coarsening levels.
        let hg = ring_of_cliques(32, 16); // 512 vertices
        let parts = partition(&hg, 8, &HgpConfig::default());
        let w = hg.part_weights(&parts, 8);
        let mean = w.iter().sum::<f64>() / 8.0;
        let max = w.iter().cloned().fold(0.0, f64::max);
        // 1 + ε, plus one unit vertex of granularity.
        assert!(
            max <= 1.05 * mean + 1.0,
            "imbalance {:.3}, weights {w:?}",
            max / mean
        );
        // Cut should be far below "everything cut".
        let worst: f64 = hg.nwts.iter().sum();
        assert!(hg.connectivity_cut(&parts, 8) < 0.3 * worst);
    }
}
