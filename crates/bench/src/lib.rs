//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. 5 and the appendices).
//!
//! Each experiment module queues its independent cells on a
//! [`pool::Batch`] with `submit`, and `finish` renders the same
//! rows/series the paper reports and returns them as serializable
//! structs. The `repro` binary keeps one table of targets over these
//! modules and runs one target, or all of them on one shared pool
//! (`repro help` lists them):
//!
//! ```text
//! cargo run --release -p laer-bench --bin repro -- tab2
//! cargo run --release -p laer-bench --bin repro -- fig8 --full
//! cargo run --release -p laer-bench --bin repro -- all --jobs 2
//! ```
//!
//! JSON copies of every result land under `target/repro/`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod chart;
pub mod eq1;
pub mod ext_chaos;
pub mod ext_diagnose;
pub mod ext_faults;
pub mod ext_obs;
pub mod ext_overlap;
pub mod ext_pipeline;
pub mod ext_rack;
pub mod ext_refine;
pub mod ext_replay;
pub mod ext_scale;
pub mod ext_serve;
pub mod ext_staleness;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig8;
pub mod fig9;
pub mod output;
pub mod pool;
pub mod tab2;
pub mod tab3;
pub mod tab4;

/// Effort level of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced layer/iteration counts — minutes, same shapes.
    Quick,
    /// Paper-scale iteration counts (still simulated) — slower.
    Full,
}

impl Effort {
    /// Simulated transformer layers for end-to-end runs.
    pub fn layers(self, model_layers: usize) -> usize {
        match self {
            Effort::Quick => model_layers.min(8),
            Effort::Full => model_layers,
        }
    }

    /// (measured, warmup) iterations for end-to-end runs.
    pub fn iterations(self) -> (usize, usize) {
        match self {
            Effort::Quick => (15, 5),
            Effort::Full => (50, 20),
        }
    }
}
