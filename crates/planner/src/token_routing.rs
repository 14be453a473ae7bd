//! Token routing strategies — the `S[i][j][k]` tensor of Tab. 1.

use crate::layout::ExpertLayout;
use laer_cluster::{DeviceId, ExpertId};
use laer_routing::RoutingMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A violation of the routing-correctness constraint (Eq. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingViolation {
    /// `Σ_k S[i][j][k] != R[i][j]` for some `(i, j)`.
    Conservation {
        /// Source device.
        device: DeviceId,
        /// Expert.
        expert: ExpertId,
        /// Routed total.
        routed: u64,
        /// Required total from `R`.
        required: u64,
    },
    /// Tokens were sent to a device that hosts no replica of the expert.
    MissingReplica {
        /// Destination device.
        device: DeviceId,
        /// Expert.
        expert: ExpertId,
    },
}

impl fmt::Display for RoutingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingViolation::Conservation {
                device,
                expert,
                routed,
                required,
            } => write!(
                f,
                "routing for ({device}, {expert}) moves {routed} tokens, R requires {required}"
            ),
            RoutingViolation::MissingReplica { device, expert } => {
                write!(
                    f,
                    "tokens sent to {device} which hosts no replica of {expert}"
                )
            }
        }
    }
}

impl std::error::Error for RoutingViolation {}

/// Sparse `S[i][j][k]`: the number of tokens on device `i`, routed to
/// expert `j`, sent to device `k` for computation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenRouting {
    devices: usize,
    experts: usize,
    /// Entries `(source, expert, destination, tokens)` with tokens > 0.
    entries: Vec<(DeviceId, ExpertId, DeviceId, u64)>,
}

impl TokenRouting {
    /// Creates an empty routing for `devices × experts`.
    pub fn new(devices: usize, experts: usize) -> Self {
        Self {
            devices,
            experts,
            entries: Vec::new(),
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.experts
    }

    /// Records `tokens` moving from `src` to `dst` for `expert`.
    /// Zero-token records are dropped.
    ///
    /// Inlined wherever it is called: `lite_route` pushes every entry
    /// through it, and without the hint how fast that loop ran depended
    /// on how the crate was split into codegen units (0.2–0.3 ms on a
    /// 265k-entry routing).
    #[inline]
    pub fn push(&mut self, src: DeviceId, expert: ExpertId, dst: DeviceId, tokens: u64) {
        if tokens > 0 {
            self.entries.push((src, expert, dst, tokens));
        }
    }

    /// All non-zero entries.
    pub fn entries(&self) -> &[(DeviceId, ExpertId, DeviceId, u64)] {
        &self.entries
    }

    /// Token-expert assignments computed on each device:
    /// `compute_load[k] = Σ_{i,j} S[i][j][k]` — the per-device load whose
    /// maximum the cost model minimises (Fig. 10b plots it).
    pub fn device_compute_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.devices];
        for &(_, _, dst, tokens) in &self.entries {
            loads[dst.index()] += tokens;
        }
        loads
    }

    /// Tokens leaving each device for remote computation (excludes
    /// `src == dst` local work).
    pub fn device_send_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.devices];
        for &(src, _, dst, tokens) in &self.entries {
            if src != dst {
                loads[src.index()] += tokens;
            }
        }
        loads
    }

    /// Per-expert tokens computed on each device (`Σ_i S[i][j][k]` for
    /// fixed `j, k`), as a `devices × experts` row-major matrix. This is
    /// what the FSEP executor needs to size expert batches.
    pub fn expert_tokens_per_device(&self) -> Vec<u64> {
        let mut m = vec![0u64; self.devices * self.experts];
        for &(_, expert, dst, tokens) in &self.entries {
            m[dst.index() * self.experts + expert.index()] += tokens;
        }
        m
    }

    /// Verifies the two constraints of the optimisation problem:
    /// conservation (Eq. 4, `Σ_k S[i][j][k] = R[i][j]`) and placement
    /// (tokens only go to devices hosting the expert).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(
        &self,
        demand: &RoutingMatrix,
        layout: &ExpertLayout,
    ) -> Result<(), RoutingViolation> {
        // Placement check.
        for &(_, expert, dst, _) in &self.entries {
            if layout.replica_count(dst, expert) == 0 {
                return Err(RoutingViolation::MissingReplica {
                    device: dst,
                    expert,
                });
            }
        }
        // Conservation check.
        let mut routed = vec![0u64; self.devices * self.experts];
        for &(src, expert, _, tokens) in &self.entries {
            routed[src.index() * self.experts + expert.index()] += tokens;
        }
        for i in 0..self.devices {
            for j in 0..self.experts {
                let required = demand.get(DeviceId::new(i), ExpertId::new(j));
                let got = routed[i * self.experts + j];
                if got != required {
                    return Err(RoutingViolation::Conservation {
                        device: DeviceId::new(i),
                        expert: ExpertId::new(j),
                        routed: got,
                        required,
                    });
                }
            }
        }
        Ok(())
    }

    /// Total tokens crossing device boundaries (the All-to-All dispatch
    /// volume in tokens).
    pub fn remote_tokens(&self) -> u64 {
        self.entries
            .iter()
            .filter(|&&(src, _, dst, _)| src != dst)
            .map(|&(_, _, _, t)| t)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_2x2() -> ExpertLayout {
        // dev0 hosts expert0, dev1 hosts expert1.
        let mut l = ExpertLayout::empty(2, 2, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(1));
        l
    }

    #[test]
    fn loads_and_matrices() {
        let mut s = TokenRouting::new(2, 2);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 10);
        s.push(DeviceId::new(0), ExpertId::new(1), DeviceId::new(1), 5);
        s.push(DeviceId::new(1), ExpertId::new(0), DeviceId::new(0), 7);
        assert_eq!(s.device_compute_loads(), vec![17, 5]);
        assert_eq!(s.device_send_loads(), vec![5, 7]);
        assert_eq!(s.remote_tokens(), 12);
        assert_eq!(s.expert_tokens_per_device(), vec![17, 0, 0, 5]);
    }

    #[test]
    fn zero_entries_dropped() {
        let mut s = TokenRouting::new(2, 2);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 0);
        assert!(s.entries().is_empty());
    }

    #[test]
    fn validate_accepts_consistent_routing() {
        let r = RoutingMatrix::from_rows(2, 2, vec![10, 5, 7, 0]).unwrap();
        let mut s = TokenRouting::new(2, 2);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 10);
        s.push(DeviceId::new(0), ExpertId::new(1), DeviceId::new(1), 5);
        s.push(DeviceId::new(1), ExpertId::new(0), DeviceId::new(0), 7);
        assert!(s.validate(&r, &layout_2x2()).is_ok());
    }

    #[test]
    fn validate_catches_conservation() {
        let r = RoutingMatrix::from_rows(2, 2, vec![10, 0, 0, 0]).unwrap();
        let mut s = TokenRouting::new(2, 2);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 9);
        assert!(matches!(
            s.validate(&r, &layout_2x2()),
            Err(RoutingViolation::Conservation {
                routed: 9,
                required: 10,
                ..
            })
        ));
    }

    #[test]
    fn validate_catches_missing_replica() {
        let r = RoutingMatrix::from_rows(2, 2, vec![10, 0, 0, 0]).unwrap();
        let mut s = TokenRouting::new(2, 2);
        // Expert 0 lives on dev0 only; sending to dev1 is invalid.
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(1), 10);
        assert!(matches!(
            s.validate(&r, &layout_2x2()),
            Err(RoutingViolation::MissingReplica { .. })
        ));
    }

    #[test]
    fn violation_display() {
        let v = RoutingViolation::MissingReplica {
            device: DeviceId::new(1),
            expert: ExpertId::new(0),
        };
        assert!(v.to_string().contains("no replica"));
    }
}
