//! Deterministic, seeded tenant traffic: Poisson-ish arrivals of mixed
//! virtual-topology shapes with geometric lifetimes.
//!
//! Serving experiments must be reproducible bit-for-bit, so all sampling
//! runs on the workspace's xorshift PRNG
//! ([`vnpu_mem::proptest_lite::Rng`]) with integer-only arithmetic:
//! inter-arrival gaps are geometric (the discrete analogue of the
//! exponential gaps of a Poisson process), drawn by counting Bernoulli
//! trials of rate `1/mean`, and lifetimes are geometric the same way. The
//! shape mix mirrors the paper's workload diversity (§6): square and
//! rectangular meshes, pipeline chains, and awkward core counts that only
//! embed as near-meshes.

use vnpu::vnpu::VnpuRequest;
use vnpu_mem::proptest_lite::Rng;
use vnpu_topo::mapping::Strategy;
use vnpu_topo::Topology;

/// One requested virtual-topology shape with its sampling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A `w × h` mesh request.
    Mesh(u32, u32),
    /// A pipeline chain of `n` cores.
    Line(u32),
    /// `n` cores with the most-square topology of exactly `n` nodes.
    Cores(u32),
}

impl Shape {
    fn request(self) -> VnpuRequest {
        match self {
            Shape::Mesh(w, h) => VnpuRequest::mesh(w, h),
            Shape::Line(n) => VnpuRequest::custom(Topology::line(n)),
            Shape::Cores(n) => VnpuRequest::cores(n),
        }
    }
}

/// Traffic model parameters. All means are in ticks/epochs and drive
/// geometric distributions (Poisson-ish behaviour at the tick level).
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// PRNG seed; equal seeds reproduce the whole request stream.
    pub seed: u64,
    /// Mean ticks between consecutive arrivals (≥ 1; a mean above 2^20
    /// samples as 2^20, so a hostile mean cannot overflow or stall the
    /// stream).
    pub mean_interarrival_ticks: u64,
    /// Mean vNPU lifetime in epochs (≥ 1; clamped like
    /// `mean_interarrival_ticks`).
    pub mean_lifetime_epochs: u64,
    /// Weighted shape mix; weights need not be normalized.
    pub mix: Vec<(u32, Shape)>,
    /// Guest-memory sizes sampled uniformly per request.
    pub mem_choices: Vec<u64>,
    /// Candidate cap for the per-request similar-topology strategy (keeps
    /// worst-case enumeration bounded under serving latency budgets).
    pub candidate_cap: usize,
}

impl TrafficConfig {
    /// The default serving mix on a 6×6-class chip: mostly small meshes,
    /// some chains, occasional awkward core counts.
    pub fn standard(seed: u64) -> Self {
        TrafficConfig {
            seed,
            mean_interarrival_ticks: 2,
            mean_lifetime_epochs: 6,
            mix: vec![
                (4, Shape::Mesh(2, 2)),
                (3, Shape::Mesh(2, 3)),
                (2, Shape::Mesh(3, 3)),
                (1, Shape::Mesh(1, 1)),
                (2, Shape::Line(3)),
                (1, Shape::Line(5)),
                (2, Shape::Cores(5)),
                (1, Shape::Cores(7)),
            ],
            mem_choices: vec![16 << 20, 32 << 20, 64 << 20, 128 << 20],
            candidate_cap: 400,
        }
    }
}

/// One generated arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// The ready-to-submit request.
    pub request: VnpuRequest,
    /// Epochs the tenant stays resident once placed.
    pub lifetime_epochs: u64,
}

/// The seeded arrival stream.
#[derive(Debug)]
pub struct ArrivalGenerator {
    cfg: TrafficConfig,
    rng: Rng,
    next_arrival_tick: u64,
    total_weight: u64,
    generated: u64,
}

impl ArrivalGenerator {
    /// Creates the stream; the first arrival lands after one sampled gap.
    pub fn new(cfg: TrafficConfig) -> Self {
        assert!(!cfg.mix.is_empty(), "traffic mix must not be empty");
        assert!(
            !cfg.mem_choices.is_empty(),
            "memory choices must not be empty"
        );
        let total_weight = cfg
            .mix
            .iter()
            .map(|(w, _)| u64::from(*w))
            .sum::<u64>()
            .max(1);
        let mut rng = Rng::new(cfg.seed);
        let first_gap = geometric(&mut rng, cfg.mean_interarrival_ticks);
        ArrivalGenerator {
            cfg,
            rng,
            next_arrival_tick: first_gap,
            total_weight,
            generated: 0,
        }
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// All arrivals landing at exactly `tick` (ticks must be consumed in
    /// non-decreasing order).
    pub fn arrivals_for_tick(&mut self, tick: u64) -> Vec<Arrival> {
        let mut out = Vec::new();
        while self.next_arrival_tick <= tick {
            out.push(self.sample_arrival());
            // A zero gap keeps several arrivals on one tick — bursts, as
            // a Poisson process produces.
            let gap = geometric(&mut self.rng, self.cfg.mean_interarrival_ticks);
            self.next_arrival_tick = self.next_arrival_tick.saturating_add(gap);
            if out.len() >= 64 {
                // Burst guard: never flood one tick unboundedly.
                self.next_arrival_tick = self.next_arrival_tick.max(tick + 1);
                break;
            }
        }
        out
    }

    fn sample_arrival(&mut self) -> Arrival {
        let mut pick = self.rng.below(self.total_weight);
        let mut shape = self.cfg.mix[0].1;
        for &(w, s) in &self.cfg.mix {
            if pick < u64::from(w) {
                shape = s;
                break;
            }
            pick -= u64::from(w);
        }
        let mem = self.cfg.mem_choices[self.rng.below(self.cfg.mem_choices.len() as u64) as usize];
        // Lifetime floor of 1 epoch; the geometric part contributes
        // `mean − 1`, so the realized mean matches the configured one.
        let lifetime = 1 + geometric(&mut self.rng, self.cfg.mean_lifetime_epochs.max(1) - 1);
        self.generated += 1;
        let request = shape
            .request()
            .mem_bytes(mem)
            .strategy(Strategy::similar_topology().candidate_cap(self.cfg.candidate_cap));
        Arrival {
            request,
            lifetime_epochs: lifetime,
        }
    }
}

/// The largest traffic mean sampled, in ticks or epochs (2^20): a larger
/// configured mean samples as this one, so a hostile mean costs at most
/// `8 × (2^20 + 1)` Bernoulli trials per draw instead of an overflow.
const MEAN_CEILING: u64 = 1 << 20;

/// Geometric sample with mean `mean` (clamped to [`MEAN_CEILING`]): the
/// number of failed Bernoulli trials of success rate `1/(mean+1)` before
/// the first success (so zero is possible — same-tick bursts; `mean == 0`
/// always returns 0), capped at `8 × (mean+1)` so a pathological streak
/// cannot stall the stream.
fn geometric(rng: &mut Rng, mean: u64) -> u64 {
    let bound = mean.min(MEAN_CEILING) + 1;
    let cap = bound * 8;
    let mut gap = 0;
    while gap < cap && rng.below(bound) != 0 {
        gap += 1;
    }
    gap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let stream = |seed: u64| {
            let mut g = ArrivalGenerator::new(TrafficConfig::standard(seed));
            let mut all = Vec::new();
            for tick in 0..200 {
                for a in g.arrivals_for_tick(tick) {
                    let r = &a.request;
                    let shape = (r.core_count(), r.topology().edge_count());
                    all.push((tick, shape, r.memory_bytes(), a.lifetime_epochs));
                }
            }
            all
        };
        assert_eq!(stream(42), stream(42));
        // Note: Rng::new coerces the seed with `| 1`, so pick seeds that
        // stay distinct after the coercion.
        assert_ne!(stream(42), stream(45), "different seeds must differ");
    }

    #[test]
    fn arrival_rate_tracks_mean() {
        let mut g = ArrivalGenerator::new(TrafficConfig::standard(7));
        let mut count = 0usize;
        for tick in 0..1000 {
            count += g.arrivals_for_tick(tick).len();
        }
        // mean inter-arrival 2 ticks → ~500 arrivals; allow wide slack.
        assert!((300..=800).contains(&count), "got {count} arrivals");
    }

    #[test]
    fn mix_produces_every_shape() {
        let mut g = ArrivalGenerator::new(TrafficConfig::standard(3));
        // Every shape of the standard mix differs in its core or edge count.
        let mut shapes = std::collections::BTreeSet::new();
        for tick in 0..2000 {
            for a in g.arrivals_for_tick(tick) {
                shapes.insert((a.request.core_count(), a.request.topology().edge_count()));
                assert!(a.request.core_count() >= 1);
                assert!(a.lifetime_epochs >= 1);
            }
        }
        assert_eq!(shapes.len(), TrafficConfig::standard(3).mix.len());
    }

    #[test]
    fn hostile_traffic_means_are_bounded_not_a_panic() {
        for mean in [u64::MAX, u64::MAX / 8, MEAN_CEILING + 1] {
            let g = ArrivalGenerator::new(TrafficConfig {
                mean_interarrival_ticks: mean,
                ..TrafficConfig::standard(5)
            });
            assert!(g.next_arrival_tick <= 8 * (MEAN_CEILING + 1));
        }
        // A hostile lifetime mean is drawn at the first arrival.
        let mut g = ArrivalGenerator::new(TrafficConfig {
            mean_lifetime_epochs: u64::MAX,
            ..TrafficConfig::standard(5)
        });
        let first = (0..64)
            .find_map(|tick| g.arrivals_for_tick(tick).into_iter().next())
            .expect("mean gap 2 places an arrival within 64 ticks");
        assert!((1..=1 + 8 * (MEAN_CEILING + 1)).contains(&first.lifetime_epochs));
    }

    #[test]
    fn shape_core_counts() {
        assert_eq!(Shape::Mesh(2, 3).request().core_count(), 6);
        assert_eq!(Shape::Line(5).request().core_count(), 5);
        assert_eq!(Shape::Cores(7).request().core_count(), 7);
    }
}
