//! Windowed correlated edge generation — the core of the Datagen
//! reproduction.
//!
//! Following S3G2/Datagen, persons are sorted along a correlation dimension
//! (university+age, then interests, then a random dimension) and each person
//! connects to others inside a sliding window over that order, with
//! probability decaying with window distance and biased toward high-degree
//! partners. Multiple passes over different dimensions split each person's
//! degree budget, which yields the community structure (high clustering
//! within universities/interest groups) that makes Datagen graphs
//! real-world-like.
//!
//! All decisions are pure functions of `(seed, pass, person)` RNG
//! substreams, so the output is identical regardless of thread count — the
//! determinism guarantee the paper requires of the generator.

use crate::distributions::DegreeDistribution;
use crate::persons::{generate_persons, Person};
use graphalytics_graph::partition::mix64;
use graphalytics_graph::rng::Xoshiro256;
use graphalytics_graph::{Edge, EdgeListGraph};

/// Configuration for the person-knows-person graph generator.
#[derive(Debug, Clone)]
pub struct DatagenConfig {
    /// Number of persons (vertices).
    pub num_persons: usize,
    /// Master seed; same seed ⇒ bit-identical graph.
    pub seed: u64,
    /// Target-degree plugin (paper §2.2 "multiple degree distributions").
    pub degree_distribution: DegreeDistribution,
    /// Sliding-window width for correlated matching.
    pub window_size: usize,
    /// Hard cap on target degrees (heavy-tailed plugins can exceed n).
    pub max_degree: Option<usize>,
    /// Degree-budget split across the three correlation passes
    /// (university, interest, random). Must sum to ~1.
    pub pass_fractions: [f64; 3],
    /// Worker threads for block-parallel generation.
    pub threads: usize,
}

impl Default for DatagenConfig {
    fn default() -> Self {
        Self {
            num_persons: 10_000,
            seed: 42,
            degree_distribution: DegreeDistribution::Facebook(16.0),
            window_size: 64,
            max_degree: None,
            pass_fractions: [0.45, 0.45, 0.10],
            threads: 4,
        }
    }
}

impl DatagenConfig {
    /// Convenience constructor with the default Facebook-like distribution.
    pub fn new(num_persons: usize, seed: u64) -> Self {
        Self {
            num_persons,
            seed,
            ..Self::default()
        }
    }

    /// Sets the number of generation threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Generates the person-knows-person graph (undirected).
pub fn generate(config: &DatagenConfig) -> EdgeListGraph {
    let persons = generate_persons(config.seed, config.num_persons);
    let degrees = sample_target_degrees(config);
    let mut edges = Vec::new();
    for pass in 0..3 {
        edges.extend(generate_pass(config, &persons, &degrees, pass));
    }
    let vertices = (0..config.num_persons as u64).collect();
    EdgeListGraph::new(vertices, edges, false)
}

/// Samples the per-person target degree sequence (deterministic per person).
pub fn sample_target_degrees(config: &DatagenConfig) -> Vec<u32> {
    let n = config.num_persons;
    let cap = config
        .max_degree
        .unwrap_or(usize::MAX)
        .min(n.saturating_sub(1))
        .max(1) as u64;
    let plugin = config.degree_distribution.build();
    (0..n as u64)
        .map(|id| {
            let mut rng = Xoshiro256::substream(config.seed ^ 0x4445_4752, id);
            plugin.sample(&mut rng).clamp(1, cap) as u32
        })
        .collect()
}

/// Sort order for one correlation pass: positions into the person table.
pub fn pass_order(config: &DatagenConfig, persons: &[Person], pass: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..persons.len() as u32).collect();
    match pass {
        0 => order.sort_by_key(|&i| persons[i as usize].university_key()),
        1 => order.sort_by_key(|&i| persons[i as usize].interest_key()),
        _ => order.sort_by_key(|&i| mix64(config.seed ^ i as u64)),
    }
    order
}

/// Positions per generation block. Blocks are the unit of parallelism *and*
/// of budget locality: the block decomposition is fixed by this constant
/// (never by the thread count), so the output graph depends only on the
/// configuration, exactly as Datagen's Hadoop blocks do.
pub const BLOCK_SIZE: usize = 4096;

/// Per-pass edge budget of person `v`: the degree share assigned to this
/// correlation dimension, rounded *systematically* — one uniform draw per
/// person offsets the cumulative shares, so the three pass budgets always
/// sum to exactly the sampled target degree (a degree-1 person gets its
/// one edge in exactly one pass). Pure function of `(seed, pass, v)`.
pub(crate) fn pass_budget(config: &DatagenConfig, degrees: &[u32], pass: usize, v: u32) -> u32 {
    let pass = pass.min(2);
    let d = degrees[v as usize] as f64;
    let mut rng = Xoshiro256::substream(config.seed ^ 0x4255_4447, v as u64);
    let u = rng.next_f64();
    let cum_before: f64 = config.pass_fractions[..pass].iter().sum();
    let cum_after = cum_before + config.pass_fractions[pass];
    ((d * cum_after + u).floor() - (d * cum_before + u).floor()).max(0.0) as u32
}

/// Runs one windowed pass in two phases:
///
/// 1. **Propose** (parallel over fixed-size blocks): every person makes
///    weighted forward picks inside its window — slightly more than its
///    budget, to survive arbitration losses;
/// 2. **Arbitrate** (sequential, cheap): proposals are accepted in block
///    order while *both* endpoints still have pass budget, consuming one
///    unit from each. This makes realized degrees track the sampled
///    targets exactly, globally — the bilateral matching of Datagen's
///    window scan — while the expensive weighted sampling stays parallel.
///
/// Deterministic regardless of thread count: block boundaries, every
/// proposal, and the arbitration order are functions of the configuration
/// alone.
pub fn generate_pass(
    config: &DatagenConfig,
    persons: &[Person],
    degrees: &[u32],
    pass: usize,
) -> Vec<Edge> {
    let order = pass_order(config, persons, pass);
    let n = order.len();
    if n < 2 {
        return Vec::new();
    }
    let results = graphalytics_parallel::map_blocks(config.threads, n, BLOCK_SIZE, |block| {
        propose_block(config, &order, degrees, pass, block.start / BLOCK_SIZE)
    });
    let mut arbiter = Arbiter::new(config, degrees, pass);
    let total: usize = results.iter().map(Vec::len).sum();
    let mut edges = Vec::with_capacity(total);
    for proposals in results {
        arbiter.accept_into(&proposals, &mut edges);
    }
    edges
}

/// Phase 1: the weighted forward picks of the persons in block `block` of
/// `order`. Weights use the *target* degree of candidates (static data),
/// so blocks are embarrassingly parallel.
pub(crate) fn propose_block(
    config: &DatagenConfig,
    order: &[u32],
    degrees: &[u32],
    pass: usize,
    block: usize,
) -> Vec<Edge> {
    let n = order.len();
    let lo = block * BLOCK_SIZE;
    let hi = ((block + 1) * BLOCK_SIZE).min(n);
    let window = config.window_size.max(2).min(n - 1);
    let mut edges = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for pos in lo..hi {
        let src = order[pos];
        let budget = pass_budget(config, degrees, pass, src);
        if budget == 0 {
            continue;
        }
        // Over-propose a little: arbitration rejects picks whose partner's
        // budget is already consumed, and the slack recovers most of them.
        let proposals = budget + budget / 4 + 1;
        let mut rng = Xoshiro256::substream(config.seed ^ (0x5041_5353 + pass as u64), src as u64);
        // Hubs whose budget approaches the window would otherwise saturate
        // it (connecting to *everyone* nearby and flattening the degree
        // distribution); give them a proportionally longer candidate range.
        let range = window.max(proposals as usize * 3).min(n - 1);
        // Weight forward candidates by target degree and window-distance
        // decay: nearer in the correlation order ⇒ more likely to know.
        let decay_step = 0.95f64.powf(window as f64 / range as f64);
        weights.clear();
        weights.reserve(range);
        let mut decay = 1.0f64;
        for r in 0..range {
            let cand = order[(pos + r + 1) % n];
            weights.push(degrees[cand as usize] as f64 * decay);
            decay *= decay_step;
        }
        let mut chosen = 0u32;
        let mut attempts = 0u32;
        while chosen < proposals && attempts < proposals * 8 {
            attempts += 1;
            let Some(idx) = rng.weighted_index(&weights) else {
                break;
            };
            weights[idx] = 0.0;
            let dst = order[(pos + idx + 1) % n];
            if dst == src {
                continue;
            }
            edges.push((src as u64, dst as u64));
            chosen += 1;
        }
    }
    edges
}

/// Phase 2: sequential budget arbitration over proposals, in deterministic
/// (pass, block, position) order. Shared with the cluster deployment,
/// whose merge step performs the same arbitration over spilled proposals.
pub(crate) struct Arbiter {
    remaining: Vec<u32>,
    /// Per person, the sorted larger endpoints of the pass's accepted edges
    /// whose smaller endpoint it is.
    seen: Vec<Vec<u32>>,
}

impl Arbiter {
    /// Initializes per-person remaining budgets for `pass`.
    pub(crate) fn new(config: &DatagenConfig, degrees: &[u32], pass: usize) -> Self {
        Self {
            remaining: (0..degrees.len() as u32)
                .map(|v| pass_budget(config, degrees, pass, v))
                .collect(),
            seen: vec![Vec::new(); degrees.len()],
        }
    }

    /// Accepts proposals while both endpoints have budget, consuming one
    /// unit from each; duplicates within the pass are skipped for free.
    pub(crate) fn accept_into(&mut self, proposals: &[Edge], out: &mut Vec<Edge>) {
        for &(a, b) in proposals {
            if self.remaining[a as usize] == 0 || self.remaining[b as usize] == 0 {
                continue;
            }
            let (seen, hi) = (&mut self.seen[a.min(b) as usize], a.max(b) as u32);
            match seen.binary_search(&hi) {
                Ok(_) => continue,
                Err(at) => seen.insert(at, hi),
            }
            self.remaining[a as usize] -= 1;
            self.remaining[b as usize] -= 1;
            out.push((a, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::metrics;
    use graphalytics_graph::CsrGraph;

    fn small_config() -> DatagenConfig {
        DatagenConfig {
            num_persons: 2000,
            seed: 7,
            degree_distribution: DegreeDistribution::Geometric(0.12),
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let mut cfg = small_config();
        cfg.num_persons = 800;
        cfg.threads = 1;
        let single = generate(&cfg);
        cfg.threads = 7;
        let multi = generate(&cfg);
        assert_eq!(single, multi);
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let mut cfg = small_config();
        cfg.num_persons = 500;
        let a = generate(&cfg);
        cfg.seed = 8;
        let b = generate(&cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn vertex_set_is_dense() {
        let cfg = DatagenConfig::new(300, 1);
        let g = generate(&cfg);
        assert_eq!(g.num_vertices(), 300);
        assert_eq!(g.vertices()[0], 0);
        assert_eq!(*g.vertices().last().unwrap(), 299);
    }

    #[test]
    fn mean_degree_tracks_distribution() {
        let cfg = DatagenConfig {
            num_persons: 5000,
            seed: 11,
            degree_distribution: DegreeDistribution::Geometric(0.12),
            ..Default::default()
        };
        let g = generate(&cfg);
        let mean = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        // Target mean is 1/0.12 ~ 8.3; dedup and rounding lose a little.
        assert!(
            (4.0..=11.0).contains(&mean),
            "mean degree {mean} out of expected band"
        );
    }

    #[test]
    fn output_has_community_structure() {
        let cfg = DatagenConfig {
            num_persons: 3000,
            seed: 13,
            degree_distribution: DegreeDistribution::Facebook(12.0),
            ..Default::default()
        };
        let g = generate(&cfg);
        let csr = CsrGraph::from_edge_list(&g);
        let (_, avg_cc) = metrics::clustering_coefficients(&csr);
        // Datagen-like output: clearly clustered, far above the Erdős–Rényi
        // expectation (~ mean_degree / n ≈ 0.004 here).
        assert!(avg_cc > 0.03, "avg_cc={avg_cc}");
    }

    #[test]
    fn zeta_distribution_shape_survives_generation() {
        let cfg = DatagenConfig {
            num_persons: 8000,
            seed: 17,
            degree_distribution: DegreeDistribution::Zeta(1.7),
            max_degree: Some(500),
            ..Default::default()
        };
        let g = generate(&cfg);
        let csr = CsrGraph::from_edge_list(&g);
        let hist = metrics::degree_histogram(&csr);
        let best = graphalytics_graph::distfit::best_fit(&hist).unwrap();
        // The generated degrees must still look like a power law.
        assert_eq!(best.model.name(), "Zeta", "{best:?}");
    }

    #[test]
    fn pass_fractions_control_edge_volume() {
        let mut cfg = small_config();
        cfg.num_persons = 1000;
        let full = generate(&cfg).num_edges();
        cfg.pass_fractions = [0.225, 0.225, 0.05]; // Half the budget.
        let half = generate(&cfg).num_edges();
        assert!(
            (half as f64) < 0.75 * full as f64,
            "half={half}, full={full}"
        );
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(generate(&DatagenConfig::new(0, 1)).num_edges(), 0);
        assert_eq!(generate(&DatagenConfig::new(1, 1)).num_edges(), 0);
        let two = generate(&DatagenConfig::new(2, 1));
        assert!(two.num_edges() <= 1);
    }

    #[test]
    fn target_degrees_respect_cap() {
        let cfg = DatagenConfig {
            num_persons: 1000,
            seed: 23,
            degree_distribution: DegreeDistribution::Zeta(1.5),
            max_degree: Some(50),
            ..Default::default()
        };
        let degrees = sample_target_degrees(&cfg);
        assert!(degrees.iter().all(|&d| (1..=50).contains(&d)));
    }

    #[test]
    fn pass_orders_sort_by_their_keys() {
        let cfg = DatagenConfig::new(500, 3);
        let persons = generate_persons(cfg.seed, cfg.num_persons);
        let uni = pass_order(&cfg, &persons, 0);
        assert!(uni
            .windows(2)
            .all(|w| persons[w[0] as usize].university_key()
                <= persons[w[1] as usize].university_key()));
        let interest = pass_order(&cfg, &persons, 1);
        assert!(interest.windows(2).all(
            |w| persons[w[0] as usize].interest_key() <= persons[w[1] as usize].interest_key()
        ));
        // The random pass must be a permutation.
        let mut rnd = pass_order(&cfg, &persons, 2);
        rnd.sort_unstable();
        assert_eq!(rnd, (0..500).collect::<Vec<u32>>());
    }
}
