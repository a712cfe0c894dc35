//! The exact brute-force baseline the explore workloads are checked against.
//!
//! ρ and δ follow `NaiveReferenceIndex` to the bit: ρ counts the other
//! points at true distance `< dc`, δ is the true distance to the nearest
//! denser point (the smallest id among equally near ones), and the global
//! peak takes the largest distance to any other point. Centre selection and
//! assignment then run through `dpc-core` on those values. The work is split
//! over at most two threads and only visits denser points for δ, so a
//! 20 000-point check costs a fraction of a second per `dc`.

use dpc_core::{
    assign_clusters, Clustering, Dataset, DecisionGraph, DeltaResult, DensityOrder, DpcParams,
    DpcRun, PointId, Result,
};

/// One clustering at one `dc`: the baseline's answer, which every index
/// must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Local density per point.
    pub rho: Vec<f64>,
    /// Dependent distance and neighbour per point.
    pub deltas: DeltaResult,
    /// Selected centres, sorted.
    pub centers: Vec<PointId>,
    /// Labels, centres and halo flags.
    pub clustering: Clustering,
}

impl From<DpcRun> for Answer {
    fn from(run: DpcRun) -> Self {
        Answer {
            rho: run.rho,
            deltas: run.deltas,
            centers: run.centers,
            clustering: run.clustering,
        }
    }
}

/// Worker threads for the baseline: the container's CPUs, at most two.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Fills `out[i] = f(i)` on [`workers`] threads, interleaving indices so
/// that work growing with `i` is shared evenly.
fn fill<T: Send + Copy + Default>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = workers();
    let parts: Vec<Vec<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || (t..n).step_by(threads).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("baseline worker panicked"))
            .collect()
    });
    let mut out = vec![T::default(); n];
    for (t, part) in parts.into_iter().enumerate() {
        for (k, v) in part.into_iter().enumerate() {
            out[t + k * threads] = v;
        }
    }
    out
}

/// ρ of every point: the number of other points at distance `< dc`.
pub fn rho(data: &Dataset, dc: f64) -> Vec<f64> {
    let (xs, ys) = (data.xs(), data.ys());
    fill(data.len(), |p| {
        let (px, py) = (xs[p], ys[p]);
        let within = xs
            .iter()
            .zip(ys)
            .filter(|&(&x, &y)| {
                let (dx, dy) = (px - x, py - y);
                (dx * dx + dy * dy).sqrt() < dc
            })
            .count();
        // The point itself is at distance 0 < dc.
        (within - 1) as f64
    })
}

/// δ and µ of every point for densities `rho` under `params.tie_break`.
pub fn deltas(data: &Dataset, rho: &[f64], params: &DpcParams) -> DeltaResult {
    let order = DensityOrder::with_tie_break(rho, params.tie_break);
    let ranked = order.rank_descending();
    let mut rank_of = vec![0; ranked.len()];
    for (r, &p) in ranked.iter().enumerate() {
        rank_of[p] = r;
    }
    let pts = data.points();
    let pairs: Vec<(f64, Option<PointId>)> = fill(pts.len(), |p| {
        let denser = &ranked[..rank_of[p]];
        if denser.is_empty() {
            // Global peak: the largest distance to any other point.
            let far = pts.iter().map(|q| pts[p].distance(q)).fold(0.0, f64::max);
            return (far, None);
        }
        let mut best = (f64::INFINITY, PointId::MAX);
        for &q in denser {
            let d = pts[p].distance(&pts[q]);
            if d < best.0 || (d == best.0 && q < best.1) {
                best = (d, q);
            }
        }
        (best.0, Some(best.1))
    });
    let (delta, mu) = pairs.into_iter().unzip();
    DeltaResult::new(delta, mu)
}

/// The full baseline clustering of `data` under `params`.
pub fn expected(data: &Dataset, params: &DpcParams) -> Result<Answer> {
    let rho = rho(data, params.dc);
    let deltas = deltas(data, &rho, params);
    let centers = DecisionGraph::new(rho.clone(), &deltas)?.select_centers(&params.centers)?;
    let order = DensityOrder::with_tie_break(&rho, params.tie_break);
    let clustering = assign_clusters(
        data,
        &order,
        &deltas,
        &centers,
        params.dc,
        &params.assignment,
    )?;
    Ok(Answer {
        rho,
        deltas,
        centers,
        clustering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::{CenterSelection, DpcPipeline};
    use dpc_datasets::DatasetKind;

    #[test]
    fn baseline_equals_the_naive_reference_pipeline() {
        for (kind, scale) in [(DatasetKind::S1, 0.06), (DatasetKind::Brightkite, 0.001)] {
            let data = kind.generate(3, scale).into_dataset();
            for &dc in kind.fig6_dc_values() {
                let params =
                    DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 64 });
                let want = DpcPipeline::new(params.clone())
                    .run(&NaiveReferenceIndex::build(&data))
                    .unwrap();
                assert!(
                    expected(&data, &params).unwrap() == Answer::from(want),
                    "{kind} dc {dc}"
                );
            }
        }
    }
}
