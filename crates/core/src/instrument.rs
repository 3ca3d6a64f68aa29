//! Telemetry instrumentation points for the solver pipeline.
//!
//! Every metric handle is cached in a `OnceLock`, so the solver hot
//! paths pay one registry lookup per process and afterwards only the
//! atomic record itself. Anything that costs real computation to
//! *observe* — design-matrix condition numbers, covariance-assembly
//! timing — is additionally gated on [`gps_telemetry::detail`], keeping
//! the paper's execution-time comparisons (θ, eq. 5-3) undistorted
//! unless the caller opts in.

use std::sync::OnceLock;

use gps_linalg::{Matrix, SymmetricEigen};
use gps_telemetry::{Counter, Event, Histogram, Level};

macro_rules! cached_metric {
    ($fn_name:ident, Counter, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: OnceLock<Counter> = OnceLock::new();
            HANDLE.get_or_init(|| gps_telemetry::counter($name))
        }
    };
    ($fn_name:ident, Histogram, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static Histogram {
            static HANDLE: OnceLock<Histogram> = OnceLock::new();
            HANDLE.get_or_init(|| gps_telemetry::histogram($name))
        }
    };
}

cached_metric!(nr_solves, Counter, "core.nr.solves");
cached_metric!(nr_nonconvergence, Counter, "core.nr.nonconvergence");
cached_metric!(nr_iterations, Histogram, "core.nr.iterations");
cached_metric!(nr_residual_rms, Histogram, "core.nr.residual_rms_m");
cached_metric!(dlo_solves, Counter, "core.dlo.solves");
cached_metric!(dlo_condition, Histogram, "core.dlo.condition_number");
cached_metric!(dlg_solves, Counter, "core.dlg.solves");
cached_metric!(dlg_condition, Histogram, "core.dlg.condition_number");
cached_metric!(dlg_cov_assembly, Histogram, "core.dlg.cov_assembly_us");
cached_metric!(base_index, Histogram, "core.base.selected_index");
cached_metric!(block_lanes, Histogram, "core.block.lanes");
cached_metric!(raim_exclusions, Counter, "core.raim.exclusions");
cached_metric!(resilient_nominal, Counter, "core.resilient.nominal");
cached_metric!(resilient_degraded, Counter, "core.resilient.degraded");
cached_metric!(resilient_holdover, Counter, "core.resilient.holdover");
cached_metric!(resilient_no_fix, Counter, "core.resilient.no_fix");
cached_metric!(
    resilient_gate_failures,
    Counter,
    "core.resilient.gate_failures"
);
cached_metric!(
    resilient_raim_retries,
    Counter,
    "core.resilient.raim_retries"
);
cached_metric!(
    resilient_accepted_rung,
    Histogram,
    "core.resilient.accepted_rung"
);

/// Counter for a [`crate::FixQuality`] by its canonical name, so the
/// ladder walk emits `core.resilient.{nominal,degraded,holdover,no_fix}`
/// from one generic call site instead of per-quality branches.
pub(crate) fn resilient_fix_quality(name: &'static str) -> &'static Counter {
    match name {
        "nominal" => resilient_nominal(),
        "degraded" => resilient_degraded(),
        "holdover" => resilient_holdover(),
        _ => resilient_no_fix(),
    }
}

/// 2-norm condition number of a design matrix `A` from its 3×3 Gram
/// matrix `AᵀA`, via the symmetric eigendecomposition:
/// `κ₂(A) = √κ₂(AᵀA)`. `None` when the geometry is too degenerate for
/// the QL iteration.
pub(crate) fn design_condition_number(gram: [[f64; 3]; 3]) -> Option<f64> {
    let [r0, r1, r2] = gram;
    let gram = Matrix::from_rows(&[&r0, &r1, &r2]).ok()?;
    SymmetricEigen::new(&gram)
        .ok()
        .map(|eig| eig.condition_number().sqrt())
}

/// Detail observation shared by the direct solvers: records the design
/// matrix's condition number (from its Gram matrix `AᵀA`) in
/// `histogram` and, at debug level, emits a `solved` event on `target`.
/// The eigendecomposition costs more than the solve and allocates, so
/// callers gate this on [`gps_telemetry::detail`].
pub(crate) fn observe_design_condition(
    histogram: &Histogram,
    target: &'static str,
    gram: [[f64; 3]; 3],
    base_index: usize,
    residual_rms_m: f64,
) {
    if let Some(kappa) = design_condition_number(gram) {
        histogram.record(kappa);
        if gps_telemetry::enabled(Level::Debug) {
            Event::new(Level::Debug, target, "solved")
                .with("condition_number", kappa)
                .with("base_index", base_index)
                .with("residual_rms_m", residual_rms_m)
                .emit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_cached_and_live() {
        let a = nr_solves() as *const Counter;
        let b = nr_solves() as *const Counter;
        assert_eq!(a, b, "OnceLock must hand back the same handle");
        let before = nr_solves().value();
        nr_solves().inc();
        assert_eq!(nr_solves().value(), before + 1);
    }

    #[test]
    fn condition_number_matches_known_matrix() {
        // Diagonal design matrix diag(3, 2, 1) padded with a zero row:
        // its singular values are the entries, its Gram matrix their
        // squares.
        let a = Matrix::from_rows(&[
            &[3.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0],
        ])
        .unwrap();
        let g = a.gram();
        let gram = [0, 1, 2].map(|r| [0, 1, 2].map(|c| g[(r, c)]));
        let kappa = design_condition_number(gram).unwrap();
        assert!((kappa - 3.0).abs() < 1e-9, "kappa {kappa}");
    }
}
