//! Execution-mode policy: how a compiled engine chooses between its
//! dense, transferred, and compressed-sparse (EIE-style) run paths.
//!
//! The TFE premise — reuse is a property of the *weights*, computable
//! once at compile time — also covers the pruning comparator family
//! the paper measures against (PAPERS.md): EIE's compressed-sparse
//! execution of pruned models. [`ExecMode`] names the executable paths
//! and [`ModePolicy`] is the pure decision function the engine's
//! compile pass (`tfe_sim::engine`'s `plan` module) evaluates per
//! stage from one weight statistic, **sparsity**: the fraction of
//! logical filter taps that quantized to exactly zero (magnitude
//! pruning feeds this path via `tfe_baselines::SparseFilterBank::prune`).
//!
//! The sparse path is **bit-identical** to the dense path by
//! construction (see the engine's `plan` module for the exactness
//! argument), so the policy is purely a performance choice — any
//! threshold setting is correct, which is what lets tests force the
//! sparse mode everywhere.

use std::fmt;

/// The execution path one compiled stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Conventional dense row sweeps.
    Dense,
    /// Transferred-filter machinery (DCNN meta rows / SCNN orbits) —
    /// the paper's own reuse structure, chosen by the transfer scheme
    /// rather than by this policy.
    Transferred,
    /// UCNN-style factorized dot products. The engine never produces
    /// this mode; the variant and its `"factorized"` label stay so
    /// consumers that tabulate every mode keep a stable column.
    Factorized,
    /// EIE/CSR-style compressed-sparse row streams: only nonzero
    /// weights are stored (index + value) and swept.
    Sparse,
}

impl ExecMode {
    /// Stable lowercase label, used by telemetry rows and stats tables.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Dense => "dense",
            ExecMode::Transferred => "transferred",
            ExecMode::Factorized => "factorized",
            ExecMode::Sparse => "sparse",
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-stage mode decision function: a threshold over the
/// compile-time zero-tap fraction.
///
/// Sparsity lives in `[0, 1]`, so a threshold above `1.0` disables the
/// sparse mode entirely ([`ModePolicy::DENSE_ONLY`]) and a threshold of
/// `0.0` forces it wherever structurally possible
/// ([`ModePolicy::FORCE_SPARSE`] — safe because the sparse path is
/// bit-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePolicy {
    /// Minimum zero-tap fraction for a dense stage to compile to
    /// [`ExecMode::Sparse`]; below it the stage compiles to
    /// [`ExecMode::Dense`].
    pub sparse_threshold: f64,
}

impl ModePolicy {
    /// Never leaves the dense/transferred paths — the baseline side of
    /// every mode-parity comparison and `engine_modes` bench cell.
    pub const DENSE_ONLY: ModePolicy = ModePolicy {
        sparse_threshold: 2.0,
    };

    /// Compiles every dense stage to the compressed-sparse path.
    pub const FORCE_SPARSE: ModePolicy = ModePolicy {
        sparse_threshold: 0.0,
    };

    /// Chooses the mode for a dense-weight stage from its zero-tap
    /// fraction. Transferred stages never reach this decision (their
    /// mode is fixed by the transfer scheme).
    #[must_use]
    pub fn decide(&self, sparsity: f64) -> ExecMode {
        if sparsity >= self.sparse_threshold {
            ExecMode::Sparse
        } else {
            ExecMode::Dense
        }
    }
}

impl Default for ModePolicy {
    /// Sparse wins from 40% zero taps (half the bench's lightest
    /// pruning level, with quantization-induced zeros on top).
    fn default() -> Self {
        ModePolicy {
            sparse_threshold: 0.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_picks_each_mode() {
        let p = ModePolicy::default();
        assert_eq!(p.decide(0.0), ExecMode::Dense);
        assert_eq!(p.decide(0.39), ExecMode::Dense);
        assert_eq!(p.decide(0.4), ExecMode::Sparse);
        assert_eq!(p.decide(0.9), ExecMode::Sparse);
    }

    #[test]
    fn forcing_policies_cover_the_whole_statistic_range() {
        for sparsity in [0.0, 0.3, 1.0] {
            assert_eq!(ModePolicy::DENSE_ONLY.decide(sparsity), ExecMode::Dense);
            assert_eq!(ModePolicy::FORCE_SPARSE.decide(sparsity), ExecMode::Sparse);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecMode::Dense.as_str(), "dense");
        assert_eq!(ExecMode::Transferred.to_string(), "transferred");
        assert_eq!(ExecMode::Factorized.as_str(), "factorized");
        assert_eq!(ExecMode::Sparse.as_str(), "sparse");
    }
}
