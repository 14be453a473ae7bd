//! The routing matrix `R[i][j]` of Tab. 1.

use laer_cluster::{DeviceId, ExpertId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced by [`RoutingMatrix`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// Matrix shape was empty in one dimension.
    EmptyShape,
    /// Raw data length did not equal `devices × experts`.
    DataLength {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::EmptyShape => write!(f, "routing matrix must be non-empty"),
            RoutingError::DataLength { expected, got } => {
                write!(f, "routing data length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// `R[i][j]` — the number of tokens on device `i` routed to expert `j`
/// during one MoE layer of one iteration.
///
/// Entries count (token, expert) *assignments*: with top-k routing each
/// token contributes `k` assignments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingMatrix {
    devices: usize,
    experts: usize,
    counts: Vec<u64>,
}

impl RoutingMatrix {
    /// Creates a zero matrix for `devices × experts`.
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError::EmptyShape`] if either dimension is zero.
    pub fn zeros(devices: usize, experts: usize) -> Result<Self, RoutingError> {
        if devices == 0 || experts == 0 {
            return Err(RoutingError::EmptyShape);
        }
        Ok(Self {
            devices,
            experts,
            counts: vec![0; devices * experts],
        })
    }

    /// Creates a matrix from row-major data (`devices` rows of `experts`).
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError`] on empty shape or mismatched length.
    pub fn from_rows(devices: usize, experts: usize, data: Vec<u64>) -> Result<Self, RoutingError> {
        let matrix = Self {
            devices,
            experts,
            counts: data,
        };
        matrix.validate()?;
        Ok(matrix)
    }

    /// Checks what the constructors guarantee but a decoded matrix may
    /// lack: a non-empty shape holding exactly `devices × experts`
    /// counts.
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError`] on empty shape or mismatched length.
    pub(crate) fn validate(&self) -> Result<(), RoutingError> {
        if self.devices == 0 || self.experts == 0 {
            return Err(RoutingError::EmptyShape);
        }
        let expected = self.devices.saturating_mul(self.experts);
        if self.counts.len() != expected {
            return Err(RoutingError::DataLength {
                expected,
                got: self.counts.len(),
            });
        }
        Ok(())
    }

    /// Number of devices `N`.
    pub fn num_devices(&self) -> usize {
        self.devices
    }

    /// Number of experts `E`.
    pub fn num_experts(&self) -> usize {
        self.experts
    }

    /// Token count for `(device, expert)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, device: DeviceId, expert: ExpertId) -> u64 {
        assert!(device.index() < self.devices && expert.index() < self.experts);
        self.counts[device.index() * self.experts + expert.index()]
    }

    /// Sets the token count for `(device, expert)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, device: DeviceId, expert: ExpertId, tokens: u64) {
        assert!(device.index() < self.devices && expert.index() < self.experts);
        self.counts[device.index() * self.experts + expert.index()] = tokens;
    }

    /// Adds to the token count for `(device, expert)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add(&mut self, device: DeviceId, expert: ExpertId, tokens: u64) {
        assert!(device.index() < self.devices && expert.index() < self.experts);
        self.counts[device.index() * self.experts + expert.index()] += tokens;
    }

    /// Total assignments originating on `device` (`Σ_j R[i][j]`).
    pub fn device_total(&self, device: DeviceId) -> u64 {
        let base = device.index() * self.experts;
        self.counts[base..base + self.experts].iter().sum()
    }

    /// Total assignments destined for `expert` across all devices —
    /// `expert_load[j] = Σ_i R[i][j]` (`R.sum(axis = 0)` in Alg. 2/4).
    pub fn expert_load(&self, expert: ExpertId) -> u64 {
        (0..self.devices)
            .map(|i| self.counts[i * self.experts + expert.index()])
            .sum()
    }

    /// All expert loads as a vector indexed by expert.
    pub fn expert_loads(&self) -> Vec<u64> {
        (0..self.experts)
            .map(|j| self.expert_load(ExpertId::new(j)))
            .collect()
    }

    /// Grand total of assignments.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Row view for one device.
    pub fn row(&self, device: DeviceId) -> &[u64] {
        let base = device.index() * self.experts;
        &self.counts[base..base + self.experts]
    }

    /// Iterates `(device, expert, count)` over non-zero entries.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (DeviceId, ExpertId, u64)> + '_ {
        (0..self.devices).flat_map(move |i| {
            (0..self.experts).filter_map(move |j| {
                let c = self.counts[i * self.experts + j];
                (c > 0).then(|| (DeviceId::new(i), ExpertId::new(j), c))
            })
        })
    }
}

impl fmt::Display for RoutingMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "R[{}x{}]:", self.devices, self.experts)?;
        for i in 0..self.devices {
            writeln!(f, "  dev{i}: {:?}", self.row(DeviceId::new(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_sums() {
        let mut r = RoutingMatrix::zeros(2, 3).unwrap();
        r.set(DeviceId::new(0), ExpertId::new(0), 5);
        r.add(DeviceId::new(0), ExpertId::new(2), 7);
        r.set(DeviceId::new(1), ExpertId::new(2), 3);
        assert_eq!(r.device_total(DeviceId::new(0)), 12);
        assert_eq!(r.expert_load(ExpertId::new(2)), 10);
        assert_eq!(r.total(), 15);
        assert_eq!(r.expert_loads(), vec![5, 0, 10]);
    }

    #[test]
    fn from_rows_validates_length() {
        assert!(matches!(
            RoutingMatrix::from_rows(2, 2, vec![1, 2, 3]),
            Err(RoutingError::DataLength {
                expected: 4,
                got: 3
            })
        ));
        assert!(matches!(
            RoutingMatrix::from_rows(0, 2, vec![]),
            Err(RoutingError::EmptyShape)
        ));
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let r = RoutingMatrix::from_rows(2, 2, vec![0, 4, 0, 0]).unwrap();
        let items: Vec<_> = r.iter_nonzero().collect();
        assert_eq!(items, vec![(DeviceId::new(0), ExpertId::new(1), 4)]);
    }

    #[test]
    #[should_panic]
    fn get_out_of_range_panics() {
        let r = RoutingMatrix::zeros(2, 2).unwrap();
        let _ = r.get(DeviceId::new(2), ExpertId::new(0));
    }

    #[test]
    fn display_contains_rows() {
        let r = RoutingMatrix::from_rows(1, 2, vec![1, 2]).unwrap();
        assert!(r.to_string().contains("dev0"));
    }
}
