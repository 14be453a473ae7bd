//! Expert re-layout strategies — the `A[i][j]` matrix of Tab. 1.
//!
//! A layout records how many replicas of each expert every device
//! restores during FSEP unshard. The structural invariant (the corrected
//! constraint 3 of the paper, enforced by Alg. 1's `expert_count < C`
//! check) is that each device restores exactly `C` complete experts, for
//! `N · C` replicas in total, and every expert keeps at least one replica
//! so constraint 4 (all tokens routable) stays satisfiable.

use laer_cluster::{DeviceId, ExpertId, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced by [`ExpertLayout`] validation and constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A device hosts a number of replicas different from its capacity.
    CapacityViolated {
        /// Offending device.
        device: DeviceId,
        /// Replicas hosted.
        hosted: usize,
        /// Required capacity `C`.
        capacity: usize,
    },
    /// An expert has no replica anywhere (tokens for it cannot route).
    OrphanExpert {
        /// The expert with zero replicas.
        expert: ExpertId,
    },
    /// Capacity and expert count are inconsistent (`N · C < E`).
    InsufficientSlots {
        /// Total slots `N · C`.
        slots: usize,
        /// Expert count `E`.
        experts: usize,
    },
    /// Shape was empty.
    EmptyShape,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::CapacityViolated {
                device,
                hosted,
                capacity,
            } => write!(
                f,
                "{device} hosts {hosted} replicas, capacity is {capacity}"
            ),
            LayoutError::OrphanExpert { expert } => {
                write!(f, "{expert} has no replica on any device")
            }
            LayoutError::InsufficientSlots { slots, experts } => {
                write!(f, "{slots} total slots cannot host {experts} experts")
            }
            LayoutError::EmptyShape => write!(f, "layout shape must be non-empty"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// `A[i][j]` — the number of replicas of expert `j` restored on device
/// `i` this iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpertLayout {
    devices: usize,
    experts: usize,
    capacity: usize,
    replicas: Vec<u32>,
}

impl ExpertLayout {
    /// Creates an all-zero layout (invalid until populated; used by the
    /// construction algorithms).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::EmptyShape`] for a zero dimension and
    /// [`LayoutError::InsufficientSlots`] if `devices · capacity <
    /// experts`.
    pub fn empty(devices: usize, experts: usize, capacity: usize) -> Result<Self, LayoutError> {
        if devices == 0 || experts == 0 || capacity == 0 {
            return Err(LayoutError::EmptyShape);
        }
        if devices * capacity < experts {
            return Err(LayoutError::InsufficientSlots {
                slots: devices * capacity,
                experts,
            });
        }
        Ok(Self {
            devices,
            experts,
            capacity,
            replicas: vec![0; devices * experts],
        })
    }

    /// The classic expert-parallel layout (GShard / FSDP+EP): device `i`
    /// hosts the contiguous block of `C` experts
    /// `[(i mod E/C)·C, (i mod E/C)·C + C)`; with `N > E/C` the blocks
    /// repeat around the cluster, forming the fixed replica groups of
    /// Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if shapes are empty, `C` does not divide
    /// `E`, or there are insufficient slots.
    pub fn classic_ep(
        devices: usize,
        experts: usize,
        capacity: usize,
    ) -> Result<Self, LayoutError> {
        let mut layout = Self::empty(devices, experts, capacity)?;
        if !experts.is_multiple_of(capacity) {
            return Err(LayoutError::InsufficientSlots {
                slots: devices * capacity,
                experts,
            });
        }
        let ep_groups = experts / capacity;
        for dev in 0..devices {
            let block = dev % ep_groups;
            for slot in 0..capacity {
                layout.add_replica(DeviceId::new(dev), ExpertId::new(block * capacity + slot));
            }
        }
        layout.validate()?;
        Ok(layout)
    }

    /// Number of devices `N`.
    pub fn num_devices(&self) -> usize {
        self.devices
    }

    /// Number of experts `E`.
    pub fn num_experts(&self) -> usize {
        self.experts
    }

    /// Per-device capacity `C`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Replica count of `expert` on `device`.
    pub fn replica_count(&self, device: DeviceId, expert: ExpertId) -> u32 {
        self.replicas[device.index() * self.experts + expert.index()]
    }

    /// Adds one replica of `expert` on `device` (Alg. 1 line 11).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_replica(&mut self, device: DeviceId, expert: ExpertId) {
        assert!(
            device.index() < self.devices && expert.index() < self.experts,
            "layout index out of range"
        );
        self.replicas[device.index() * self.experts + expert.index()] += 1;
    }

    /// Replicas hosted by `device` (`Σ_j A[i][j]`).
    pub fn device_slots_used(&self, device: DeviceId) -> usize {
        let base = device.index() * self.experts;
        self.replicas[base..base + self.experts]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }

    /// Total replicas of `expert` across devices.
    pub fn expert_replicas(&self, expert: ExpertId) -> usize {
        (0..self.devices)
            .map(|i| self.replicas[i * self.experts + expert.index()] as usize)
            .sum()
    }

    /// Total replicas across the layout (`N · C` when valid).
    pub fn total_replicas(&self) -> usize {
        self.replicas.iter().map(|&c| c as usize).sum()
    }

    /// Devices hosting at least one replica of `expert`, with counts.
    pub fn replica_devices(&self, expert: ExpertId) -> Vec<(DeviceId, u32)> {
        (0..self.devices)
            .filter_map(|i| {
                let c = self.replicas[i * self.experts + expert.index()];
                (c > 0).then(|| (DeviceId::new(i), c))
            })
            .collect()
    }

    /// Per-node replica counts of `expert` (Alg. 1 line 7's `node_cnt`).
    pub fn node_replica_counts(&self, topo: &Topology, expert: ExpertId) -> Vec<usize> {
        topo.node_ids()
            .map(|node| {
                topo.devices_on(node)
                    .map(|dev| self.replica_count(dev, expert) as usize)
                    .sum()
            })
            .collect()
    }

    /// Validates the structural invariants: every device filled to
    /// exactly `C`, every expert with ≥ 1 replica.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), LayoutError> {
        for i in 0..self.devices {
            let hosted = self.device_slots_used(DeviceId::new(i));
            if hosted != self.capacity {
                return Err(LayoutError::CapacityViolated {
                    device: DeviceId::new(i),
                    hosted,
                    capacity: self.capacity,
                });
            }
        }
        for j in 0..self.experts {
            if self.expert_replicas(ExpertId::new(j)) == 0 {
                return Err(LayoutError::OrphanExpert {
                    expert: ExpertId::new(j),
                });
            }
        }
        Ok(())
    }

    /// Validates the degraded-mode invariants for a cluster where only
    /// `active` devices participate: every active device filled to
    /// exactly `C`, every inactive device hosting nothing, and every
    /// expert with ≥ 1 replica *on an active device* (otherwise its
    /// tokens cannot route and the run must abort).
    ///
    /// [`Self::validate`] is the special case where `active` lists all
    /// devices.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; an expert whose only
    /// replicas sit on inactive devices surfaces as
    /// [`LayoutError::OrphanExpert`].
    pub fn validate_on(&self, active: &[DeviceId]) -> Result<(), LayoutError> {
        let mut is_active = vec![false; self.devices];
        for d in active {
            if d.index() < self.devices {
                is_active[d.index()] = true;
            }
        }
        for (i, &active_here) in is_active.iter().enumerate() {
            let hosted = self.device_slots_used(DeviceId::new(i));
            let required = if active_here { self.capacity } else { 0 };
            if hosted != required {
                return Err(LayoutError::CapacityViolated {
                    device: DeviceId::new(i),
                    hosted,
                    capacity: required,
                });
            }
        }
        for j in 0..self.experts {
            let live = (0..self.devices)
                .filter(|&i| is_active[i])
                .map(|i| self.replicas[i * self.experts + j] as usize)
                .sum::<usize>();
            if live == 0 {
                return Err(LayoutError::OrphanExpert {
                    expert: ExpertId::new(j),
                });
            }
        }
        Ok(())
    }

    /// Replica-count vector indexed by expert (`expert_rep` in Alg. 1/4).
    pub fn replica_vector(&self) -> Vec<usize> {
        (0..self.experts)
            .map(|j| self.expert_replicas(ExpertId::new(j)))
            .collect()
    }

    /// The flat row-major `devices × experts` replica-count array — the
    /// contiguous hot-path representation used by [`crate::delta`].
    pub fn replica_counts(&self) -> &[u32] {
        &self.replicas
    }

    /// Builds a layout directly from a flat row-major `devices ×
    /// experts` count array (no validity check — callers validate).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::EmptyShape`] / [`LayoutError::InsufficientSlots`]
    /// as [`Self::empty`] does.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != devices * experts`.
    pub fn from_counts(
        devices: usize,
        experts: usize,
        capacity: usize,
        counts: Vec<u32>,
    ) -> Result<Self, LayoutError> {
        let mut layout = Self::empty(devices, experts, capacity)?;
        assert_eq!(counts.len(), devices * experts, "count array shape");
        layout.replicas = counts;
        Ok(layout)
    }
}

impl fmt::Display for ExpertLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A[{}x{}] (C={}):",
            self.devices, self.experts, self.capacity
        )?;
        for i in 0..self.devices {
            let row: Vec<u32> = (0..self.experts)
                .map(|j| self.replica_count(DeviceId::new(i), ExpertId::new(j)))
                .collect();
            writeln!(f, "  dev{i}: {row:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_ep_matches_fig6() {
        // Fig. 6's traditional setup: N = 4, C = 2, E = 4 with
        // P_ep = 2 groups: devices 0, 2 host experts {0, 1}; 1, 3 host
        // {2, 3}.
        let l = ExpertLayout::classic_ep(4, 4, 2).unwrap();
        assert_eq!(l.replica_count(DeviceId::new(0), ExpertId::new(0)), 1);
        assert_eq!(l.replica_count(DeviceId::new(0), ExpertId::new(1)), 1);
        assert_eq!(l.replica_count(DeviceId::new(1), ExpertId::new(2)), 1);
        assert_eq!(l.replica_count(DeviceId::new(2), ExpertId::new(0)), 1);
        assert_eq!(l.replica_count(DeviceId::new(3), ExpertId::new(3)), 1);
        assert!(l.validate().is_ok());
        assert_eq!(l.total_replicas(), 8);
        assert_eq!(l.expert_replicas(ExpertId::new(0)), 2);
    }

    #[test]
    fn paper_setup_32_devices() {
        // Sec. 5.1: 32 devices, 8 experts, C = 2 -> 8 replicas/expert.
        let l = ExpertLayout::classic_ep(32, 8, 2).unwrap();
        assert!(l.validate().is_ok());
        for j in 0..8 {
            assert_eq!(l.expert_replicas(ExpertId::new(j)), 8);
        }
    }

    #[test]
    fn validation_catches_capacity() {
        let mut l = ExpertLayout::empty(2, 2, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(0), ExpertId::new(1));
        // Device 0 hosts 2 > C = 1; device 1 hosts 0.
        assert!(matches!(
            l.validate(),
            Err(LayoutError::CapacityViolated { hosted: 2, .. })
        ));
    }

    #[test]
    fn validation_catches_orphan() {
        let mut l = ExpertLayout::empty(2, 2, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        assert!(matches!(
            l.validate(),
            Err(LayoutError::OrphanExpert { expert }) if expert == ExpertId::new(1)
        ));
    }

    #[test]
    fn insufficient_slots_rejected() {
        assert!(matches!(
            ExpertLayout::empty(2, 8, 2),
            Err(LayoutError::InsufficientSlots {
                slots: 4,
                experts: 8
            })
        ));
    }

    #[test]
    fn node_replica_counts_by_topology() {
        let topo = Topology::new(2, 2).unwrap();
        let mut l = ExpertLayout::empty(4, 2, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        l.add_replica(DeviceId::new(2), ExpertId::new(1));
        l.add_replica(DeviceId::new(3), ExpertId::new(0));
        assert_eq!(l.node_replica_counts(&topo, ExpertId::new(0)), vec![2, 1]);
    }

    #[test]
    fn validate_on_survivors() {
        // 4 devices, device 3 failed: actives filled to C, failed empty.
        let mut l = ExpertLayout::empty(4, 3, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(1));
        l.add_replica(DeviceId::new(2), ExpertId::new(2));
        let active: Vec<_> = (0..3).map(DeviceId::new).collect();
        assert!(l.validate_on(&active).is_ok());
        // Full validation still fails (device 3 empty).
        assert!(l.validate().is_err());
        // A replica on the failed device violates the inactive-empty rule.
        let mut bad = l.clone();
        bad.add_replica(DeviceId::new(3), ExpertId::new(0));
        assert!(matches!(
            bad.validate_on(&active),
            Err(LayoutError::CapacityViolated {
                hosted: 1,
                capacity: 0,
                ..
            })
        ));
        // An expert with no replica on any active device is an orphan.
        let mut orphan = ExpertLayout::empty(4, 2, 1).unwrap();
        orphan.add_replica(DeviceId::new(0), ExpertId::new(0));
        orphan.add_replica(DeviceId::new(1), ExpertId::new(0));
        let survivors = vec![DeviceId::new(0), DeviceId::new(1)];
        assert!(matches!(
            orphan.validate_on(&survivors),
            Err(LayoutError::OrphanExpert { expert }) if expert == ExpertId::new(1)
        ));
    }

    #[test]
    fn replica_vector_matches() {
        let l = ExpertLayout::classic_ep(4, 4, 2).unwrap();
        assert_eq!(l.replica_vector(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn display_shows_rows() {
        let l = ExpertLayout::classic_ep(2, 2, 1).unwrap();
        assert!(l.to_string().contains("dev0"));
    }
}
