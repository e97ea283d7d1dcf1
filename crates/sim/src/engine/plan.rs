//! The compile-time weight plan: per-stage analysis of the quantized
//! row tables and the compressed-sparse tables it emits.
//!
//! TFE's core bet — reuse is a property of the **weights**, computable
//! once at compile time — extends beyond the paper's own transfer
//! structure to the pruning comparators of Fig. 16 (PAPERS.md): EIE's
//! compressed-sparse execution of pruned models. [`plan_stage`] runs
//! once per stage in `Engine::compile`, counts the zero taps of the
//! already-quantized [`Fx16`] rows, and asks the [`ModePolicy`] for an
//! [`ExecMode`]:
//!
//! * [`ExecMode::Transferred`] — DCNN/SCNN stages; the transfer scheme
//!   already fixed the execution structure, nothing to decide.
//! * [`ExecMode::Sparse`] — dense stages past the sparsity threshold
//!   compile a CSR-style `(offset, value)` stream per filter row
//!   ([`SparseUnitIr`], executed by [`super::sparse`]). Bit-identity is
//!   **unconditional**: a zero weight's product is exactly zero and
//!   `Accum::saturating_add(0)` is an exact identity even at the clamp
//!   rails, so skipping zero taps while preserving the dense
//!   `(ky, ci, j)` chain order cannot change any value.
//! * [`ExecMode::Dense`] — every other dense stage.
//!
//! Counters are **not** re-modeled per mode: charges are
//! data-independent (geometry + reuse only), so the sparse executor
//! replays the dense charge model exactly ([`charge_dense_unit_image`]).
//! That keeps PPSR/ERRR accounting, telemetry per-layer sums, and the
//! `NetworkPerf` cross-checks closed; the mode's real savings show up
//! as wall-clock in the `engine_modes` bench, not as counter deltas.

use super::ir::{Geo, StageIr, UnitIr};
use crate::counters::Counters;
use crate::ppsr::charge_conventional;
use tfe_tensor::fixed::Fx16;
use tfe_transfer::mode::{ExecMode, ModePolicy};

/// The compiled weight plan of one stage: the chosen mode, the weight
/// statistic that chose it, and the per-unit sparse tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct StagePlan {
    pub(crate) mode: Option<ExecMode>,
    /// Zero fraction over the stage's logical taps (stuffed dilation
    /// zeros are structural, not weights, and are excluded).
    pub(crate) sparsity: f64,
    /// One CSR table per [`UnitIr`], parallel to `stage.units` — empty
    /// unless the mode is Sparse.
    pub(crate) sparse: Vec<SparseUnitIr>,
}

impl StagePlan {
    /// The chosen execution mode ([`ExecMode::Dense`] until planned).
    pub(crate) fn mode(&self) -> ExecMode {
        self.mode.unwrap_or(ExecMode::Dense)
    }
}

/// One dense filter in compressed-sparse form: per `(ci, ky)` row, the
/// surviving `(stored-offset, value)` taps in ascending offset order —
/// exactly the dense row with its zero positions elided, so the sparse
/// executor can replay the dense chain structure over survivors only.
#[derive(Debug, Clone)]
pub(crate) struct SparseUnitIr {
    /// `rows[ci · K + ky]` = ascending `(j, w)` survivors of the stored
    /// `KW`-span row (dilation's stuffed zeros never appear).
    pub(crate) rows: Vec<Vec<(u16, Fx16)>>,
    /// Surviving taps across all rows (the executor skips empty rows
    /// and, transitively, whole all-zero filters).
    pub(crate) nonzeros: usize,
}

/// Plans one compiled stage: counts its zero taps, asks the policy,
/// and builds the sparse tables when the policy chooses that mode.
pub(crate) fn plan_stage(stage: &StageIr, policy: &ModePolicy) -> StagePlan {
    if !matches!(stage.units.first(), Some(UnitIr::Dense { .. })) {
        return StagePlan {
            mode: Some(ExecMode::Transferred),
            ..StagePlan::default()
        };
    }
    let geo = Geo::of(&stage.shape);
    let (k, d, kw, cpg) = (geo.k, geo.d, geo.kw, geo.cpg);
    let mut zeros = 0usize;
    let mut total = 0usize;
    for unit in &stage.units {
        let UnitIr::Dense { base, .. } = unit else {
            continue;
        };
        for ci in 0..cpg {
            for ky in 0..k {
                let row = &stage.rows[base + (ci * k + ky) * kw..][..kw];
                for t in 0..k {
                    total += 1;
                    if row[t * d].is_zero() {
                        zeros += 1;
                    }
                }
            }
        }
    }
    let sparsity = if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    };
    let mode = policy.decide(sparsity);
    let sparse = if mode == ExecMode::Sparse {
        stage
            .units
            .iter()
            .map(|u| sparse_unit(stage, &geo, u))
            .collect()
    } else {
        Vec::new()
    };
    StagePlan {
        mode: Some(mode),
        sparsity,
        sparse,
    }
}

/// Builds the CSR stream of one dense unit from its stored rows.
fn sparse_unit(stage: &StageIr, geo: &Geo, unit: &UnitIr) -> SparseUnitIr {
    let UnitIr::Dense { base, .. } = unit else {
        unreachable!("sparse tables are built for dense units only");
    };
    let (k, kw, cpg) = (geo.k, geo.kw, geo.cpg);
    let mut rows = Vec::with_capacity(cpg * k);
    let mut nonzeros = 0usize;
    for ci in 0..cpg {
        for ky in 0..k {
            let row = &stage.rows[base + (ci * k + ky) * kw..][..kw];
            let survivors: Vec<(u16, Fx16)> = row
                .iter()
                .enumerate()
                .filter(|(_, w)| !w.is_zero())
                .map(|(j, &w)| (j as u16, w))
                .collect();
            nonzeros += survivors.len();
            rows.push(survivors);
        }
    }
    SparseUnitIr { rows, nonzeros }
}

/// Replays the dense charge model for one unit over one representative
/// image — the exact u64 totals `dense_unit_sweep` charges: per output
/// row, `K · N/groups` calls of [`charge_conventional`]`(K, KW, PW)`
/// plus the `(K−1) · F` window-combine adds. Charges are
/// data-independent, so replaying them is bit-identical to running the
/// dense path; the sparse executor calls this so every counter
/// stream (per-image, telemetry sums, `NetworkPerf` cross-checks) stays
/// closed.
pub(crate) fn charge_dense_unit_image(geo: &Geo, charges: &mut Counters) {
    let Geo {
        e,
        f,
        k,
        cpg,
        pw,
        kw,
        ..
    } = *geo;
    let mut row = Counters::new();
    let _ = charge_conventional(k, kw, pw, &mut row);
    charges.multiplies += (e * k * cpg) as u64 * row.multiplies;
    charges.adds += (e * k * cpg) as u64 * row.adds;
    charges.adds += (e * k.saturating_sub(1) * f) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_charge_replay_matches_the_loop() {
        // The closed-form replay must equal literally looping the dense
        // sweep's charge calls.
        let shape = tfe_tensor::shape::LayerShape::conv("c", 3, 4, 10, 10, 3, 2, 1)
            .unwrap()
            .with_dilation(2)
            .unwrap();
        let geo = Geo::of(&shape);
        let mut replay = Counters::new();
        charge_dense_unit_image(&geo, &mut replay);
        let mut looped = Counters::new();
        for _oy in 0..geo.e {
            for _ky in 0..geo.k {
                for _ci in 0..geo.cpg {
                    let _ = charge_conventional(geo.k, geo.kw, geo.pw, &mut looped);
                }
            }
            looped.adds += (geo.k.saturating_sub(1) * geo.f) as u64;
        }
        assert_eq!(replay, looped);
    }
}
