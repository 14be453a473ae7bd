//! Routing-trace recording and replay.
//!
//! The paper's scalability study (Appendix D) is trace-driven: routing
//! matrices captured during Mixtral-8x7B training are replayed against
//! different cluster sizes. [`RoutingTrace`] provides the same facility:
//! record matrices from a [`crate::RoutingGenerator`] (or any source),
//! serialize to JSON, and replay deterministically.

use crate::generator::{RoutingGenerator, RoutingGeneratorConfig};
use crate::matrix::{RoutingError, RoutingMatrix};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Error produced when loading or validating a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// JSON decode failure.
    Decode(serde_json::Error),
    /// The trace contained matrices of inconsistent shape.
    InconsistentShape {
        /// Index of the first offending iteration.
        iteration: usize,
    },
    /// A matrix has an empty shape, or its counts do not fill its
    /// `devices × experts` shape.
    Malformed {
        /// Index of the first offending iteration.
        iteration: usize,
        /// What is wrong with its matrix.
        error: RoutingError,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Decode(e) => write!(f, "trace decode error: {e}"),
            TraceError::InconsistentShape { iteration } => {
                write!(f, "trace iteration {iteration} has a different shape")
            }
            TraceError::Malformed { iteration, error } => {
                write!(f, "trace iteration {iteration}: {error}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Decode(e) => Some(e),
            TraceError::InconsistentShape { .. } => None,
            TraceError::Malformed { error, .. } => Some(error),
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Decode(e)
    }
}

/// Provenance metadata attached to a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Free-form description (model, dataset, aux weight...).
    pub description: String,
    /// Seed used by the generator, if generated synthetically.
    pub seed: Option<u64>,
}

/// An ordered sequence of routing matrices, one per iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingTrace {
    meta: TraceMeta,
    iterations: Vec<RoutingMatrix>,
}

impl RoutingTrace {
    /// Creates an empty trace with metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Self {
            meta,
            iterations: Vec::new(),
        }
    }

    /// Records a trace of `iterations` matrices from a generator config.
    pub fn record(cfg: RoutingGeneratorConfig, iterations: usize) -> Self {
        let seed = cfg.seed;
        let description = format!(
            "synthetic {}x{} profile={} aux={}",
            cfg.devices,
            cfg.experts,
            cfg.profile.id(),
            cfg.aux_loss_weight
        );
        let mut gen = RoutingGenerator::new(cfg);
        let mut trace = Self::new(TraceMeta {
            description,
            seed: Some(seed),
        });
        trace.record_from(&mut gen, iterations);
        trace
    }

    /// Appends `iterations` matrices drawn from a *live* generator,
    /// continuing wherever it currently stands.
    ///
    /// This is the recording half of an RL rollout phase: the same
    /// generator keeps advancing across epochs, so demand drifts
    /// naturally between them while each epoch's trace captures exactly
    /// what the train phase will replay.
    pub fn record_from(&mut self, gen: &mut RoutingGenerator, iterations: usize) {
        for _ in 0..iterations {
            self.push(gen.next_iteration());
        }
    }

    /// Appends one iteration's routing matrix.
    pub fn push(&mut self, matrix: RoutingMatrix) {
        self.iterations.push(matrix);
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// The matrix of iteration `i`, if recorded.
    pub fn get(&self, i: usize) -> Option<&RoutingMatrix> {
        self.iterations.get(i)
    }

    /// Iterates over the recorded matrices.
    pub fn iter(&self) -> impl Iterator<Item = &RoutingMatrix> {
        self.iterations.iter()
    }

    /// Trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Validates that every matrix is well formed and all share one
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] or
    /// [`TraceError::InconsistentShape`] naming the first offending
    /// iteration.
    pub fn validate(&self) -> Result<(), TraceError> {
        let shape = |m: &RoutingMatrix| (m.num_devices(), m.num_experts());
        let first = self.iterations.first().map(shape);
        for (iteration, m) in self.iterations.iter().enumerate() {
            m.validate()
                .map_err(|error| TraceError::Malformed { iteration, error })?;
            if Some(shape(m)) != first {
                return Err(TraceError::InconsistentShape { iteration });
            }
        }
        Ok(())
    }

    /// Serializes the trace to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O or encode failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let json = serde_json::to_string(self)?;
        fs::write(path, json)?;
        Ok(())
    }

    /// Loads and validates a trace from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O, decode or shape-validation failure.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let json = fs::read_to_string(path)?;
        let trace: Self = serde_json::from_str(&json)?;
        trace.validate()?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_iterate() {
        let trace = RoutingTrace::record(RoutingGeneratorConfig::new(4, 8, 512).with_seed(1), 10);
        assert_eq!(trace.len(), 10);
        assert!(trace.validate().is_ok());
        assert_eq!(trace.iter().count(), 10);
        assert_eq!(trace.meta().seed, Some(1));
        assert!(trace.get(9).is_some());
        assert!(trace.get(10).is_none());
    }

    #[test]
    fn recording_is_deterministic() {
        let cfg = RoutingGeneratorConfig::new(4, 8, 512).with_seed(9);
        let a = RoutingTrace::record(cfg.clone(), 5);
        let b = RoutingTrace::record(cfg, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn shape_validation_catches_mismatch() {
        let mut trace = RoutingTrace::new(TraceMeta::default());
        trace.push(RoutingMatrix::zeros(2, 2).unwrap());
        trace.push(RoutingMatrix::zeros(2, 3).unwrap());
        assert!(matches!(
            trace.validate(),
            Err(TraceError::InconsistentShape { iteration: 1 })
        ));
    }

    /// A decoded matrix with fewer counts than its shape is a typed
    /// error from `load_json`, not an out-of-bounds panic later.
    #[test]
    fn short_matrix_is_rejected_on_load() {
        let path =
            std::env::temp_dir().join(format!("laer_trace_short_{}.json", std::process::id()));
        let json = r#"{"meta":{"description":"","seed":null},"iterations":[{"devices":2,"experts":2,"counts":[1,2,3]}]}"#;
        std::fs::write(&path, json).unwrap();
        let err = RoutingTrace::load_json(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            err,
            TraceError::Malformed {
                iteration: 0,
                error: RoutingError::DataLength {
                    expected: 4,
                    got: 3
                }
            }
        ));
        assert_eq!(
            err.to_string(),
            "trace iteration 0: routing data length 3, expected 4"
        );
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("laer_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let trace = RoutingTrace::record(RoutingGeneratorConfig::new(2, 4, 64).with_seed(2), 3);
        trace.save_json(&path).unwrap();
        let loaded = RoutingTrace::load_json(&path).unwrap();
        assert_eq!(trace, loaded);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = RoutingTrace::load_json("/nonexistent/laer.json").unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }
}
