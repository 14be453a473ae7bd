//! Load prediction for the asynchronous layout tuner.
//!
//! Per the overall workflow (Fig. 7), the expert layout tuner runs on
//! the CPU while the GPU computes: it receives the *current* layer's
//! routing information plus "historical data from previous iterations"
//! and produces the re-layout strategy for the **next** iteration of
//! that layer. The layout a layer executes is therefore one iteration
//! stale. Each predictor bridges that staleness with the same three
//! calls — `observe`, `predict` and `is_warm`:
//!
//! * [`LoadPredictor`] smooths it with an exponential moving average
//!   over routing matrices (the paper's operating point);
//! * [`ReplayPredictor`] eliminates it when demand is *replayable* — RL
//!   post-training re-visits the same prompts across rollout→train
//!   epochs, so a recorded [`RoutingTrace`] is near-perfect foresight
//!   (ReLibra / "Harnessing Routing Foresight");
//! * [`AnyPredictor`] is the serializable closed sum the
//!   [`crate::LayoutPolicy`] keeps per layer (and the LAER system
//!   checkpoints); [`PredictorKind`] names its variants.

use laer_cluster::{DeviceId, ExpertId};
use laer_routing::{RoutingMatrix, RoutingTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Typed failure from [`LoadPredictor::observe`]: the planner paths are
/// panic-free (workspace `unwrap_used` lint), so a routing matrix whose
/// shape disagrees with history is reported, not asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// The observed matrix shape differs from previous observations.
    ShapeChanged {
        /// (devices, experts) established by earlier observations.
        expected: (usize, usize),
        /// (devices, experts) of the offending observation.
        got: (usize, usize),
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::ShapeChanged { expected, got } => write!(
                f,
                "shape changed: expected {}x{} routing matrix, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for PredictError {}

/// Exponential-moving-average predictor over routing matrices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadPredictor {
    /// Smoothing factor in (0, 1]; 1.0 = use last iteration verbatim.
    alpha: f64,
    state: Option<Vec<f64>>,
    devices: usize,
    experts: usize,
}

impl LoadPredictor {
    /// Creates a predictor with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            alpha,
            state: None,
            devices: 0,
            experts: 0,
        }
    }

    /// The paper's operating point: recent iterations dominate (load
    /// autocorrelation is high, Fig. 1a), with mild smoothing against
    /// per-iteration jitter.
    pub fn default_ema() -> Self {
        Self::new(0.75)
    }

    /// Whether the predictor has observed at least one iteration.
    pub fn is_warm(&self) -> bool {
        self.state.is_some()
    }

    /// Feeds one iteration's observed routing matrix.
    ///
    /// Returns [`PredictError::ShapeChanged`] if the shape differs from
    /// previous observations; the EMA state is left untouched.
    pub fn observe(&mut self, observed: &RoutingMatrix) -> Result<(), PredictError> {
        let (d, e) = (observed.num_devices(), observed.num_experts());
        match &mut self.state {
            None => {
                self.devices = d;
                self.experts = e;
                self.state = Some(
                    (0..d)
                        .flat_map(|i| observed.row(DeviceId::new(i)).to_vec())
                        .map(|v| v as f64)
                        .collect(),
                );
            }
            Some(state) => {
                if (d, e) != (self.devices, self.experts) {
                    return Err(PredictError::ShapeChanged {
                        expected: (self.devices, self.experts),
                        got: (d, e),
                    });
                }
                for (idx, slot) in state.iter_mut().enumerate() {
                    let v = observed.row(DeviceId::new(idx / e))[idx % e] as f64;
                    *slot = self.alpha * v + (1.0 - self.alpha) * *slot;
                }
            }
        }
        Ok(())
    }

    /// Predicted routing matrix for the next iteration (rounded EMA).
    ///
    /// Returns `None` before the first observation.
    pub fn predict(&self) -> Option<RoutingMatrix> {
        let state = self.state.as_ref()?;
        let mut r = RoutingMatrix::zeros(self.devices, self.experts)
            .unwrap_or_else(|_| unreachable!("observed shapes are non-empty"));
        for (idx, &v) in state.iter().enumerate() {
            r.set(
                DeviceId::new(idx / self.experts),
                ExpertId::new(idx % self.experts),
                v.round().max(0.0) as u64,
            );
        }
        Some(r)
    }
}

/// Foresight predictor replaying a recorded [`RoutingTrace`].
///
/// Each [`observe`](Self::observe) advances a cursor through the
/// trace; [`predict`](Self::predict) serves the *next* recorded
/// iteration — exact demand foresight when the workload re-executes the
/// recorded prompts in order (RL train phases over rollout traces). A
/// `noise` knob models rollout→train mismatch by perturbing each served
/// cell deterministically, and past the end of the trace the predictor
/// degrades gracefully to the EMA it has been feeding all along.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayPredictor {
    trace: RoutingTrace,
    /// Iterations observed so far; `predict` serves `trace[cursor]`.
    cursor: usize,
    /// Relative per-cell perturbation amplitude in [0, 1]; 0 replays
    /// recorded matrices verbatim.
    noise: f64,
    noise_seed: u64,
    fallback: LoadPredictor,
}

impl ReplayPredictor {
    /// Creates a replay predictor over `trace`.
    ///
    /// `noise` is the relative mismatch amplitude (0 = verbatim replay)
    /// and `noise_seed` makes the perturbation stream deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is not in `[0, 1]`.
    pub fn new(trace: RoutingTrace, noise: f64, noise_seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be in [0, 1]");
        Self {
            trace,
            cursor: 0,
            noise,
            noise_seed,
            fallback: LoadPredictor::default_ema(),
        }
    }

    /// Whether the next prediction comes from the recorded trace (vs
    /// the EMA fallback past the trace end).
    pub fn serving_trace(&self) -> bool {
        self.cursor < self.trace.len()
    }

    /// Advances the replay cursor and feeds the EMA fallback.
    ///
    /// The cursor advances unconditionally — replay position is keyed
    /// by iteration count, not matrix contents — so a shape error from
    /// the fallback still leaves the trace in sync with execution.
    ///
    /// # Errors
    ///
    /// The fallback's [`PredictError::ShapeChanged`].
    pub fn observe(&mut self, observed: &RoutingMatrix) -> Result<(), PredictError> {
        self.cursor += 1;
        self.fallback.observe(observed)
    }

    /// The next recorded iteration, or the EMA fallback's prediction
    /// past the trace end.
    pub fn predict(&self) -> Option<RoutingMatrix> {
        self.serve(self.cursor).or_else(|| self.fallback.predict())
    }

    /// Whether [`Self::predict`] would return a matrix.
    pub fn is_warm(&self) -> bool {
        self.serving_trace() || self.fallback.is_warm()
    }

    /// Serves `trace[cursor]`, perturbed when `noise > 0`.
    fn serve(&self, index: usize) -> Option<RoutingMatrix> {
        let recorded = self.trace.get(index)?;
        if self.noise == 0.0 {
            return Some(recorded.clone());
        }
        let mut rng = StdRng::seed_from_u64(
            self.noise_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let (d, e) = (recorded.num_devices(), recorded.num_experts());
        let mut out = RoutingMatrix::zeros(d, e)
            .unwrap_or_else(|_| unreachable!("recorded shapes are non-empty"));
        for dev in 0..d {
            for exp in 0..e {
                let v = recorded.get(DeviceId::new(dev), ExpertId::new(exp)) as f64;
                let factor = 1.0 + self.noise * rng.gen_range(-1.0f64..1.0);
                out.set(
                    DeviceId::new(dev),
                    ExpertId::new(exp),
                    (v * factor).round().max(0.0) as u64,
                );
            }
        }
        Some(out)
    }
}

/// Closed, serializable sum of the predictor implementations, so the
/// LAER system's per-layer state (and its checkpoints) can hold either
/// without generics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyPredictor {
    /// EMA smoothing of observed demand ([`LoadPredictor`]).
    Ema(LoadPredictor),
    /// Recorded-trace foresight ([`ReplayPredictor`]).
    Replay(ReplayPredictor),
}

impl AnyPredictor {
    /// The paper's default: EMA with `alpha = 0.75`.
    pub fn default_ema() -> Self {
        AnyPredictor::Ema(LoadPredictor::default_ema())
    }

    /// Whether the next prediction is served from a recorded trace.
    pub fn serving_trace(&self) -> bool {
        match self {
            AnyPredictor::Ema(_) => false,
            AnyPredictor::Replay(r) => r.serving_trace(),
        }
    }

    /// Feeds one iteration's observed routing matrix.
    ///
    /// # Errors
    ///
    /// [`PredictError::ShapeChanged`] if the shape differs from
    /// previous observations.
    pub fn observe(&mut self, observed: &RoutingMatrix) -> Result<(), PredictError> {
        match self {
            AnyPredictor::Ema(p) => p.observe(observed),
            AnyPredictor::Replay(p) => p.observe(observed),
        }
    }

    /// Predicted routing matrix for the next iteration, or `None` when
    /// no prediction is available yet.
    pub fn predict(&self) -> Option<RoutingMatrix> {
        match self {
            AnyPredictor::Ema(p) => p.predict(),
            AnyPredictor::Replay(p) => p.predict(),
        }
    }

    /// Whether [`Self::predict`] would return a matrix.
    pub fn is_warm(&self) -> bool {
        match self {
            AnyPredictor::Ema(p) => p.is_warm(),
            AnyPredictor::Replay(p) => p.is_warm(),
        }
    }
}

/// Which demand predictor a workload runs with.
///
/// `Replay` needs recorded traces installed on the layout policy
/// ([`crate::LayoutPolicy::install_replay`]); until they are, every
/// layer falls back to EMA behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Exponential moving average of observed demand (the paper).
    #[default]
    Ema,
    /// Recorded routing-trace foresight (RL replay workloads).
    Replay,
}

impl PredictorKind {
    /// Stable lowercase identifier used in artifact/journal labels.
    pub fn id(self) -> &'static str {
        match self {
            PredictorKind::Ema => "ema",
            PredictorKind::Replay => "replay",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn matrix(vals: &[u64]) -> RoutingMatrix {
        RoutingMatrix::from_rows(2, 2, vals.to_vec()).unwrap()
    }

    #[test]
    fn first_observation_is_identity() {
        let mut p = LoadPredictor::new(0.5);
        assert!(!p.is_warm());
        assert!(p.predict().is_none());
        p.observe(&matrix(&[10, 20, 30, 40])).unwrap();
        assert!(p.is_warm());
        assert_eq!(p.predict().unwrap(), matrix(&[10, 20, 30, 40]));
    }

    #[test]
    fn ema_blends_history() {
        let mut p = LoadPredictor::new(0.5);
        p.observe(&matrix(&[10, 0, 0, 0])).unwrap();
        p.observe(&matrix(&[30, 0, 0, 0])).unwrap();
        // 0.5*30 + 0.5*10 = 20.
        assert_eq!(
            p.predict().unwrap().get(DeviceId::new(0), ExpertId::new(0)),
            20
        );
    }

    #[test]
    fn alpha_one_tracks_last() {
        let mut p = LoadPredictor::new(1.0);
        p.observe(&matrix(&[10, 20, 30, 40])).unwrap();
        p.observe(&matrix(&[1, 2, 3, 4])).unwrap();
        assert_eq!(p.predict().unwrap(), matrix(&[1, 2, 3, 4]));
    }

    /// On the calibrated synthetic trace, EMA prediction tracks the next
    /// iteration's expert loads far better than a uniform guess — the
    /// property that makes one-iteration-stale layouts effective.
    #[test]
    fn prediction_beats_uniform_on_synthetic_trace() {
        let mut gen = RoutingGenerator::new(RoutingGeneratorConfig::new(8, 8, 8192).with_seed(21));
        let mut p = LoadPredictor::default_ema();
        let mut err_pred = 0.0f64;
        let mut err_uniform = 0.0f64;
        p.observe(&gen.next_iteration()).unwrap();
        for _ in 0..30 {
            let next = gen.next_iteration();
            let predicted = p.predict().expect("warm").expert_loads();
            let actual = next.expert_loads();
            let uniform = next.total() as f64 / actual.len() as f64;
            for (pr, ac) in predicted.iter().zip(&actual) {
                err_pred += (*pr as f64 - *ac as f64).abs();
            }
            for ac in &actual {
                err_uniform += (uniform - *ac as f64).abs();
            }
            p.observe(&next).unwrap();
        }
        assert!(
            err_pred < err_uniform * 0.5,
            "EMA error {err_pred:.0} should beat uniform {err_uniform:.0}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = LoadPredictor::new(0.0);
    }

    /// Mid-run shape changes are a typed error, not a panic, and leave
    /// the EMA state untouched.
    #[test]
    fn shape_change_is_typed_error() {
        let mut p = LoadPredictor::new(0.5);
        p.observe(&matrix(&[1, 2, 3, 4])).unwrap();
        let err = p
            .observe(&RoutingMatrix::zeros(3, 2).unwrap())
            .expect_err("shape change must be reported");
        assert_eq!(
            err,
            PredictError::ShapeChanged {
                expected: (2, 2),
                got: (3, 2),
            }
        );
        assert!(err.to_string().contains("shape changed"));
        // State survives: the predictor still serves the old shape.
        assert_eq!(p.predict().unwrap(), matrix(&[1, 2, 3, 4]));
    }

    /// The EMA behind `AnyPredictor` is bit-identical to the concrete
    /// `LoadPredictor` on a fixed seed.
    #[test]
    fn ema_behind_trait_is_bit_identical() {
        let mut gen = RoutingGenerator::new(RoutingGeneratorConfig::new(4, 8, 4096).with_seed(7));
        let mut concrete = LoadPredictor::default_ema();
        let mut any = AnyPredictor::default_ema();
        for _ in 0..20 {
            let m = gen.next_iteration();
            concrete.observe(&m).unwrap();
            any.observe(&m).unwrap();
            assert_eq!(concrete.predict(), any.predict());
            assert_eq!(concrete.is_warm(), any.is_warm());
        }
    }

    fn recorded_trace(iters: usize) -> RoutingTrace {
        let cfg = RoutingGeneratorConfig::new(4, 8, 4096).with_seed(11);
        RoutingTrace::record(cfg, iters)
    }

    /// At `noise = 0` replay serves the recorded matrices verbatim:
    /// after observing iteration `i`, the prediction for `i + 1` is
    /// exactly the recorded demand of `i + 1`.
    #[test]
    fn replay_serves_recorded_trace_verbatim() {
        let trace = recorded_trace(6);
        let mut p = ReplayPredictor::new(trace.clone(), 0.0, 0);
        // Before any observation, replay predicts the first iteration.
        assert_eq!(p.predict().as_ref(), trace.get(0));
        for i in 0..trace.len() - 1 {
            p.observe(trace.get(i).unwrap()).unwrap();
            assert_eq!(p.predict().as_ref(), trace.get(i + 1));
        }
    }

    /// Past the end of the trace, replay degrades to the EMA it has
    /// been feeding all along instead of going cold.
    #[test]
    fn replay_falls_back_to_ema_past_trace_end() {
        let trace = recorded_trace(3);
        let mut p = ReplayPredictor::new(trace.clone(), 0.0, 0);
        let mut ema = LoadPredictor::default_ema();
        for i in 0..trace.len() {
            let m = trace.get(i).unwrap();
            p.observe(m).unwrap();
            ema.observe(m).unwrap();
        }
        assert!(!p.serving_trace());
        assert!(p.is_warm());
        assert_eq!(p.predict(), ema.predict());
    }

    /// Noise perturbs the served matrix but is deterministic in the
    /// seed and leaves the verbatim path untouched at 0.
    #[test]
    fn replay_noise_is_deterministic_and_bounded() {
        let trace = recorded_trace(4);
        let a = ReplayPredictor::new(trace.clone(), 0.25, 99);
        let b = ReplayPredictor::new(trace.clone(), 0.25, 99);
        let (pa, pb) = (a.predict().unwrap(), b.predict().unwrap());
        assert_eq!(pa, pb, "same seed, same perturbation");
        let recorded = trace.get(0).unwrap();
        assert_ne!(&pa, recorded, "noise must actually perturb");
        for dev in 0..recorded.num_devices() {
            for exp in 0..recorded.num_experts() {
                let v = recorded.get(DeviceId::new(dev), ExpertId::new(exp)) as f64;
                let got = pa.get(DeviceId::new(dev), ExpertId::new(exp)) as f64;
                assert!(
                    (got - v).abs() <= v * 0.25 + 1.0,
                    "cell ({dev},{exp}) moved {v} -> {got}, beyond the 25% bound"
                );
            }
        }
    }

    /// A replay predictor round-trips through serde — the LAER system
    /// checkpoints its per-layer predictors.
    #[test]
    fn any_predictor_serde_round_trip() {
        let trace = recorded_trace(2);
        let mut p = AnyPredictor::Replay(ReplayPredictor::new(trace.clone(), 0.0, 3));
        p.observe(trace.get(0).unwrap()).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: AnyPredictor = serde_json::from_str(&json).unwrap();
        assert!(matches!(back, AnyPredictor::Replay(_)));
        assert_eq!(p.predict(), back.predict());
    }

    #[test]
    fn predictor_kind_defaults_to_ema_with_stable_ids() {
        assert_eq!(PredictorKind::default(), PredictorKind::Ema);
        assert_eq!(PredictorKind::Ema.id(), "ema");
        assert_eq!(PredictorKind::Replay.id(), "replay");
    }
}
