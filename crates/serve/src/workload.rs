//! Seeded request-workload generation: arrivals, token lengths, and the
//! drifting topic mix that decides which experts the traffic hits.
//!
//! Everything here is a pure function of the configuration — the same
//! `(seed, WorkloadConfig)` always produces the same request stream and
//! the same routing demand, which is what makes serving comparisons
//! across [`crate::systems::ServingSystemKind`]s meaningful.

use laer_cluster::{DeviceId, ExpertId};
use laer_routing::{DatasetProfile, RoutingGenerator, RoutingGeneratorConfig, RoutingMatrix};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Smallest prompt the generator emits (a bare question).
const MIN_PROMPT_TOKENS: u64 = 16;
/// Smallest decode length (requests always produce a few tokens).
const MIN_DECODE_TOKENS: u64 = 4;

/// One inference request in the synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Sequential request id (arrival order).
    pub id: u64,
    /// Arrival time in seconds of virtual time.
    pub arrival: f64,
    /// Prompt length processed in the prefill phase.
    pub prompt_tokens: u64,
    /// Tokens generated in the decode phase (including the first token
    /// produced by prefill).
    pub decode_tokens: u64,
}

/// Configuration of the request workload and its topic mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of requests in the stream.
    pub requests: usize,
    /// Mean offered load in requests per second.
    pub arrival_rate: f64,
    /// Burstiness knob `b ≥ 1`: 1 is a Poisson process; larger values
    /// mix rare long gaps with frequent short ones (hyperexponential
    /// inter-arrivals with the same mean).
    pub burstiness: f64,
    /// Mean prompt length in tokens.
    pub mean_prompt_tokens: f64,
    /// Mean decode length in tokens.
    pub mean_decode_tokens: f64,
    /// Scheduler steps between forced hot-expert flips of the topic mix
    /// (`None` leaves only the profile's gradual drift).
    pub flip_period: Option<u64>,
    /// Dataset profile calibrating the gradual popularity drift.
    pub profile: DatasetProfile,
    /// Popularity-process iteration the mix resumes from (e.g. where a
    /// training run stopped).
    pub start_iteration: u64,
    /// Seed for arrivals, lengths and the topic mix.
    pub seed: u64,
    /// Optional explicit popularity-process configuration (e.g. a
    /// training run's `routing_config`); when `None` one is derived from
    /// the serving shape and `seed`.
    pub mix: Option<RoutingGeneratorConfig>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            requests: 200,
            arrival_rate: 400.0,
            burstiness: 1.0,
            mean_prompt_tokens: 512.0,
            mean_decode_tokens: 32.0,
            flip_period: None,
            profile: DatasetProfile::Wikitext,
            start_iteration: 0,
            seed: 0,
            mix: None,
        }
    }
}

impl WorkloadConfig {
    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the offered load in requests per second.
    #[must_use]
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate;
        self
    }

    /// Sets the burstiness knob (`1.0` = Poisson).
    #[must_use]
    pub fn with_burstiness(mut self, b: f64) -> Self {
        self.burstiness = b;
        self
    }

    /// Sets the number of requests.
    #[must_use]
    pub fn with_requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the hot-expert flip period (scheduler steps).
    #[must_use]
    pub fn with_flip_period(mut self, period: Option<u64>) -> Self {
        self.flip_period = period;
        self
    }
}

/// Exponential sample with the given mean (inverse-CDF).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Hyperexponential inter-arrival gap with overall mean `1/rate`: with
/// probability `1/b` a long gap (mean `(1+1/b)/(2/b · rate)`), otherwise
/// a short one (mean `1/(2·rate)`). At `b = 1` the long branch is taken
/// always and the process degenerates to Poisson. Draws exactly two RNG
/// values on every path.
fn interarrival(rng: &mut StdRng, rate: f64, b: f64) -> f64 {
    let q = 1.0 / b;
    let long: f64 = rng.gen_range(0.0..1.0);
    let mean = if long < q {
        (1.0 + q) / (2.0 * q * rate)
    } else {
        1.0 / (2.0 * rate)
    };
    exp_sample(rng, mean)
}

/// Shifted, clamped exponential token length: `min + Exp(mean - min)`,
/// capped at four times the mean so one outlier cannot dominate a step.
fn token_length(rng: &mut StdRng, mean: f64, min: u64) -> u64 {
    let extra_mean = (mean - min as f64).max(1.0);
    let raw = min as f64 + exp_sample(rng, extra_mean);
    let cap = (mean * 4.0).max(min as f64 + 1.0);
    raw.min(cap).round() as u64
}

/// Generates the request stream: a deterministic function of the
/// configuration.
///
/// # Panics
///
/// Panics if `arrival_rate` is not positive or `burstiness < 1`.
pub fn generate_requests(cfg: &WorkloadConfig) -> Vec<Request> {
    assert!(cfg.arrival_rate > 0.0, "arrival_rate must be positive");
    assert!(cfg.burstiness >= 1.0, "burstiness must be at least 1");
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(0x9E37_79B9_7F4A_7C15),
    );
    let mut t = 0.0;
    (0..cfg.requests as u64)
        .map(|id| {
            t += interarrival(&mut rng, cfg.arrival_rate, cfg.burstiness);
            Request {
                id,
                arrival: t,
                prompt_tokens: token_length(&mut rng, cfg.mean_prompt_tokens, MIN_PROMPT_TOKENS),
                decode_tokens: token_length(&mut rng, cfg.mean_decode_tokens, MIN_DECODE_TOKENS),
            }
        })
        .collect()
}

/// The time-varying topic mix: the routing crate's drifting popularity
/// process resumed mid-stream, overlaid with a logical-expert
/// permutation that is reshuffled every `flip_period` steps so the
/// hottest expert suddenly becomes the coldest (the adversarial case for
/// a static layout; cf. the churn events of Fig. 1a, but abrupt).
#[derive(Debug, Clone)]
pub struct TopicMix {
    generator: RoutingGenerator,
    /// Logical expert `j` draws its load from latent expert `perm[j]`.
    perm: Vec<usize>,
    flip_period: Option<u64>,
    steps: u64,
}

impl TopicMix {
    /// Builds the mix for a serving shape of `devices × experts`. Uses
    /// `cfg.mix` when provided (it must match the shape), otherwise
    /// derives a popularity process from the workload seed; either way
    /// the process is fast-forwarded to `cfg.start_iteration`.
    ///
    /// # Panics
    ///
    /// Panics if an explicit `cfg.mix` disagrees with `devices` /
    /// `experts`.
    pub fn new(cfg: &WorkloadConfig, devices: usize, experts: usize) -> Self {
        let base = cfg.mix.clone().unwrap_or_else(|| {
            RoutingGeneratorConfig::new(devices, experts, 1)
                .with_profile(cfg.profile)
                .with_seed(cfg.seed.wrapping_add(0x5EED))
        });
        assert_eq!(base.devices, devices, "mix device count");
        assert_eq!(base.experts, experts, "mix expert count");
        let generator = RoutingGenerator::starting_at(base, cfg.start_iteration);
        Self {
            generator,
            perm: (0..experts).collect(),
            flip_period: cfg.flip_period,
            steps: 0,
        }
    }

    /// Produces the routing demand for one scheduler step; `budgets[d]`
    /// is the number of token assignments device `d` contributes (step
    /// batches vary in size). Applies a forced flip first whenever the
    /// flip period elapses.
    ///
    /// # Panics
    ///
    /// Panics if `budgets.len()` differs from the mix's device count.
    pub fn step(&mut self, budgets: &[u64]) -> RoutingMatrix {
        if let Some(period) = self.flip_period {
            if period > 0 && self.steps > 0 && self.steps.is_multiple_of(period) {
                self.flip();
            }
        }
        self.steps += 1;
        let raw = self.generator.next_iteration_with_budgets(budgets);
        self.permuted(&raw)
    }

    /// Swaps the latent sources of the hottest and coldest logical
    /// experts, instantly flipping which logical expert is hot.
    fn flip(&mut self) {
        let probs = self.generator.expert_probabilities();
        let mut hot = 0;
        let mut cold = 0;
        for j in 0..self.perm.len() {
            if probs[self.perm[j]] > probs[self.perm[hot]] {
                hot = j;
            }
            if probs[self.perm[j]] < probs[self.perm[cold]] {
                cold = j;
            }
        }
        if hot != cold {
            self.perm.swap(hot, cold);
        }
    }

    /// Applies the logical-expert permutation column-wise.
    fn permuted(&self, raw: &RoutingMatrix) -> RoutingMatrix {
        let (n, e) = (raw.num_devices(), raw.num_experts());
        let mut out = match RoutingMatrix::zeros(n, e) {
            Ok(m) => m,
            Err(err) => panic!("mix shape validated in new(): {err}"),
        };
        for dev in 0..n {
            for j in 0..e {
                out.set(
                    DeviceId::new(dev),
                    ExpertId::new(j),
                    raw.get(DeviceId::new(dev), ExpertId::new(self.perm[j])),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_and_ordered() {
        let cfg = WorkloadConfig::default().with_seed(7).with_requests(50);
        let a = generate_requests(&cfg);
        let b = generate_requests(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for w in a.windows(2) {
            assert!(w[1].arrival >= w[0].arrival, "arrivals must be sorted");
        }
        for r in &a {
            assert!(r.prompt_tokens >= MIN_PROMPT_TOKENS);
            assert!(r.decode_tokens >= MIN_DECODE_TOKENS);
        }
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let cfg = WorkloadConfig::default()
            .with_seed(3)
            .with_requests(4000)
            .with_arrival_rate(100.0);
        let reqs = generate_requests(&cfg);
        let span = reqs[reqs.len() - 1].arrival;
        let empirical_rate = reqs.len() as f64 / span;
        assert!(
            (empirical_rate - 100.0).abs() < 10.0,
            "empirical rate {empirical_rate} far from 100"
        );
    }

    #[test]
    fn bursty_stream_keeps_mean_but_raises_variance() {
        let base = WorkloadConfig::default()
            .with_seed(11)
            .with_requests(4000)
            .with_arrival_rate(100.0);
        let poisson = generate_requests(&base);
        let bursty = generate_requests(&base.clone().with_burstiness(4.0));
        let mean_gap = |reqs: &[Request]| reqs[reqs.len() - 1].arrival / reqs.len() as f64;
        let var_gap = |reqs: &[Request]| {
            let gaps: Vec<f64> = reqs
                .windows(2)
                .map(|w| w[1].arrival - w[0].arrival)
                .collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64
        };
        assert!((mean_gap(&poisson) - mean_gap(&bursty)).abs() < 0.004);
        assert!(
            var_gap(&bursty) > 1.5 * var_gap(&poisson),
            "burstiness must raise inter-arrival variance"
        );
    }

    #[test]
    fn mix_rows_sum_to_budgets() {
        let cfg = WorkloadConfig::default().with_seed(5);
        let mut mix = TopicMix::new(&cfg, 4, 8);
        let budgets = [100u64, 0, 57, 12];
        let m = mix.step(&budgets);
        for (d, &b) in budgets.iter().enumerate() {
            assert_eq!(m.device_total(DeviceId::new(d)), b);
        }
    }

    #[test]
    fn flip_changes_hot_expert() {
        let cfg = WorkloadConfig::default()
            .with_seed(2)
            .with_flip_period(Some(3));
        let mut mix = TopicMix::new(&cfg, 4, 8);
        let budgets = [4096u64; 4];
        let hot_of = |m: &RoutingMatrix| {
            let loads = m.expert_loads();
            (0..loads.len()).max_by_key(|&j| loads[j]).unwrap_or(0)
        };
        let before = hot_of(&mix.step(&budgets));
        let _ = mix.step(&budgets);
        let _ = mix.step(&budgets);
        // Step 4 applies the flip first (steps % 3 == 0).
        let after = hot_of(&mix.step(&budgets));
        // One flip swaps one pair of the identity permutation.
        let moved = mix.perm.iter().enumerate().filter(|&(j, &p)| j != p);
        assert_eq!(moved.count(), 2, "exactly one flip");
        assert_ne!(before, after, "flip must move the hottest expert");
    }

    #[test]
    fn mix_resumes_mid_stream_deterministically() {
        let cfg = WorkloadConfig::default().with_seed(9);
        let mut ahead = TopicMix::new(
            &WorkloadConfig {
                start_iteration: 5,
                ..cfg.clone()
            },
            4,
            8,
        );
        let mut replay = TopicMix::new(&cfg, 4, 8);
        let budgets = [64u64; 4];
        for _ in 0..5 {
            let _ = replay.step(&budgets);
        }
        // Fast-forwarding the popularity process matches generating and
        // discarding the same iterations.
        assert_eq!(ahead.step(&budgets), replay.step(&budgets));
    }
}
