//! The brute-force ρ/δ kernels behind [`LeanDpc`](crate::LeanDpc)'s
//! queries under an [`ExecPolicy`].
//!
//! They scan every point against every other point. The kernels stream over the dataset's structure-of-arrays coordinate slices
//! (cache-friendly, vectorisable). The ρ kernel is sqrt-free; the δ kernel
//! runs `dpc-core`'s canonical per-point scan, which roots only the
//! candidates that could still tie the best distance.
//! Callers validate `dc` and the `rho` slice before calling.

use dpc_core::index::delta_point_scan;
use dpc_core::{dc_sq_threshold, exec, Dataset, DeltaResult, DensityOrder, ExecPolicy, Rho};

/// ρ of every point by full scan: counts points strictly within `dc`,
/// excluding the point itself.
pub(crate) fn rho_scan(dataset: &Dataset, dc: f64, policy: ExecPolicy) -> Vec<Rho> {
    let n = dataset.len();
    let (xs, ys) = dataset.coord_slices();
    let dc2 = dc_sq_threshold(dc);
    let mut rho = vec![0 as Rho; n];
    exec::fill_slice(
        &mut rho,
        policy,
        || (),
        |i, ()| {
            let (xi, yi) = (xs[i], ys[i]);
            // Branch-free count over the two coordinate streams; the point
            // itself always satisfies dist² = 0 < dc² (validate_dc guarantees
            // dc² > 0), so subtract it at the end instead of testing j != i in
            // the hot loop. Counting in u32 and converting once keeps the
            // loop integer-only; the count is an exact integer in f64.
            let mut count: u32 = 0;
            for (&xj, &yj) in xs.iter().zip(ys.iter()) {
                let (dx, dy) = (xj - xi, yj - yi);
                count += u32::from(dx * dx + dy * dy < dc2);
            }
            count.saturating_sub(1) as Rho
        },
    );
    rho
}

/// δ and µ of every point by full scan under the given density order, one
/// [`delta_point_scan`] per point.
pub(crate) fn delta_scan(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    policy: ExecPolicy,
) -> DeltaResult {
    let mut result = DeltaResult::unset(dataset.len());
    exec::fill_slice_pair(
        &mut result.delta,
        &mut result.mu,
        policy,
        || (),
        |p, delta_slot, mu_slot, ()| {
            (*delta_slot, *mu_slot) = delta_point_scan(dataset, order, p);
        },
    );
    result
}
