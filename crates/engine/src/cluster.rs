//! Cluster description: machine identifiers and cluster-wide configuration.

/// Identifier of a simulated machine (cluster node). The paper's experiments use
/// clusters of 12–24 machines; `u16` leaves generous headroom.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u16);

impl MachineId {
    /// The machine's index as a `usize`, for indexing per-machine vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl From<usize> for MachineId {
    fn from(v: usize) -> Self {
        assert!(v <= u16::MAX as usize, "machine index {v} too large");
        MachineId(v as u16)
    }
}

/// Static description of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of machines in the cluster. The paper sweeps 12, 16, 20 and 24.
    pub num_machines: usize,
    /// Seed used to derive all per-machine, per-superstep randomness (partitioning
    /// hashes, synchronization coins, walker moves). Two runs with the same seed and
    /// configuration produce bit-identical results.
    pub seed: u64,
}

impl ClusterConfig {
    /// A cluster of `num_machines` machines with the given seed.
    pub fn new(num_machines: usize, seed: u64) -> Self {
        assert!(num_machines > 0, "cluster needs at least one machine");
        assert!(
            num_machines <= u16::MAX as usize,
            "at most {} machines supported",
            u16::MAX
        );
        ClusterConfig { num_machines, seed }
    }

    /// Iterator over all machine ids in the cluster.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> {
        (0..self.num_machines).map(MachineId::from)
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // 16 machines matches the cluster size used for the accuracy figures (Fig. 2).
        ClusterConfig::new(16, 0x5EED_F20C)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_id_display_and_index() {
        let m = MachineId(3);
        assert_eq!(m.index(), 3);
        assert_eq!(format!("{m}"), "m3");
        assert_eq!(MachineId::from(7usize), MachineId(7));
    }

    #[test]
    fn cluster_machine_iteration() {
        let c = ClusterConfig::new(4, 1);
        let ids: Vec<_> = c.machines().collect();
        assert_eq!(
            ids,
            vec![MachineId(0), MachineId(1), MachineId(2), MachineId(3)]
        );
    }

    #[test]
    fn default_cluster_is_valid() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_machines, 16);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = ClusterConfig::new(0, 1);
    }
}
