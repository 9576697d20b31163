//! Cluster hardware description and cost-model constants.

use inferturbo_common::{Error, Result};

/// Describes the simulated cluster an engine runs on.
///
/// Presets mirror the paper's §V-A deployment; constants are effective
/// rates (i.e. already discounted for efficiency), chosen so that absolute
/// numbers land in a plausible range — the experiments only interpret
/// ratios and shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker instances.
    pub workers: usize,
    /// CPU cores per worker.
    pub cpus_per_worker: u32,
    /// Effective FLOP/s per core for dense f32 kernels.
    pub flops_per_cpu: f64,
    /// Per-worker network bandwidth in bytes/s.
    pub bandwidth_bytes: f64,
    /// Per-worker memory cap in bytes (OOM boundary).
    pub memory_bytes: u64,
    /// Fixed scheduling/barrier overhead charged per phase, seconds.
    /// Pregel supersteps synchronise cheaply; MapReduce rounds pay job
    /// launch + shuffle setup.
    pub phase_overhead_secs: f64,
    /// Elastic resource accounting: if true (batch systems), a worker is
    /// billed only for its busy time; if false (reserved Pregel gangs), all
    /// workers are billed for the whole phase wall-time.
    pub elastic: bool,
}

impl ClusterSpec {
    /// The paper's Pregel-like cluster: ~1000 instances, 2 CPU, 10 GB,
    /// 20 Gb/s, gang-scheduled (reserved).
    pub fn pregel_cluster(workers: usize) -> ClusterSpec {
        ClusterSpec {
            workers,
            cpus_per_worker: 2,
            flops_per_cpu: 4.0e9,
            bandwidth_bytes: 2.5e9,
            memory_bytes: 10 * (1 << 30),
            phase_overhead_secs: 1.0,
            elastic: false,
        }
    }

    /// The paper's MapReduce cluster: 2 CPU / 2 GB instances, elastic,
    /// external storage between rounds; higher per-round overhead.
    pub fn mapreduce_cluster(workers: usize) -> ClusterSpec {
        ClusterSpec {
            workers,
            cpus_per_worker: 2,
            flops_per_cpu: 4.0e9,
            bandwidth_bytes: 2.5e9,
            memory_bytes: 2 * (1 << 30),
            phase_overhead_secs: 30.0,
            elastic: true,
        }
    }

    /// The traditional inference deployment of §V-B: 200 workers with
    /// 10 CPU / 10 GB each, pulling k-hop subgraphs from a separate
    /// 20-worker distributed graph store.
    pub fn traditional_cluster() -> ClusterSpec {
        ClusterSpec {
            workers: 200,
            cpus_per_worker: 10,
            flops_per_cpu: 4.0e9,
            bandwidth_bytes: 2.5e9,
            memory_bytes: 10 * (1 << 30),
            phase_overhead_secs: 5.0,
            elastic: false,
        }
    }

    /// Tiny deterministic spec for unit tests: numbers chosen so hand
    /// calculations stay exact.
    pub fn test_spec(workers: usize) -> ClusterSpec {
        ClusterSpec {
            workers,
            cpus_per_worker: 1,
            flops_per_cpu: 1.0e6,
            bandwidth_bytes: 1.0e6,
            memory_bytes: 1 << 20,
            phase_overhead_secs: 0.0,
            elastic: false,
        }
    }

    /// Total CPU cores across the cluster.
    pub fn total_cpus(&self) -> u64 {
        self.workers as u64 * self.cpus_per_worker as u64
    }

    /// Check a worker's resident size against the memory cap.
    pub fn check_memory(&self, worker: usize, resident_bytes: u64) -> Result<()> {
        if resident_bytes > self.memory_bytes {
            Err(Error::OutOfMemory {
                worker,
                attempted_bytes: resident_bytes,
                cap_bytes: self.memory_bytes,
            })
        } else {
            Ok(())
        }
    }

    /// Scale memory cap (used by ablations exploring OOM boundaries).
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_shapes() {
        let p = ClusterSpec::pregel_cluster(1000);
        assert_eq!(p.workers, 1000);
        assert_eq!(p.total_cpus(), 2000);
        assert!(!p.elastic);
        let m = ClusterSpec::mapreduce_cluster(1000);
        assert!(m.elastic);
        assert!(m.phase_overhead_secs > p.phase_overhead_secs);
        assert!(m.memory_bytes < p.memory_bytes);
        let t = ClusterSpec::traditional_cluster();
        assert_eq!(t.total_cpus(), 2000); // fairness: equal cores to ours
    }

    #[test]
    fn memory_check() {
        let s = ClusterSpec::test_spec(4);
        assert!(s.check_memory(0, 1 << 19).is_ok());
        let err = s.check_memory(3, (1 << 20) + 1).unwrap_err();
        assert!(err.is_oom());
        match err {
            inferturbo_common::Error::OutOfMemory { worker, .. } => assert_eq!(worker, 3),
            _ => unreachable!(),
        }
    }

    #[test]
    fn builders_modify_single_fields() {
        let s = ClusterSpec::test_spec(2).with_memory(42);
        assert_eq!(s.memory_bytes, 42);
        assert_eq!(s.workers, 2);
    }
}
