//! Batched evaluation kernels for the two-domain V-F power surface.
//!
//! Every downstream sweep — Pareto frontiers, governor grid scans,
//! serve-engine batches — evaluates one fitted
//! model over *many* `(utilization, V-F)` points. Doing that through the
//! scalar per-point predictor wastes most of its time on per-call
//! overhead; these kernels evaluate the same arithmetic as blocked,
//! cache-friendly panels instead.
//!
//! The contract that makes the kernels safe to substitute anywhere is
//! **bit-identity**: for every point, every path here performs exactly
//! the floating-point operations of the scalar reference, in exactly the
//! same order, so results are equal to the last ULP — not merely close.
//! [`predict_scalar_into`] *is* that reference (the conformance oracle);
//! [`predict_into`] restates it as structure-of-arrays panels whose inner
//! loops the compiler can pipeline and auto-vectorize. Vector lanes
//! evaluate *distinct points* side by side while preserving the
//! within-point operation order (pure IEEE mul/add, never FMA), which is
//! why lane width cannot change results.
//!
//! The panel model here is deliberately shape-generic (any number of
//! core-domain terms): `gpm-linalg` knows nothing about GPUs, only about
//! the quadratic-in-voltage surface `P(v, f) = β₀v + v²f·(β₁ + Σωᵢuᵢ)`
//! summed over two domains.

use crate::LinalgError;

/// One evaluation point: normalized voltages and frequencies (GHz) of
/// both V-F domains.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VfPoint {
    /// Normalized core-domain voltage `V̄core`.
    pub vc: f64,
    /// Core-domain frequency in GHz.
    pub fc: f64,
    /// Normalized memory-domain voltage `V̄mem`.
    pub vm: f64,
    /// Memory-domain frequency in GHz.
    pub fm: f64,
}

/// The per-batch constants of the power surface: domain coefficients plus
/// the `(ωᵢ, Uᵢ)` activity pairs that are fixed across the sweep.
///
/// The dynamic term of each component is applied as `((v²f)·ω)·U` — the
/// exact association the scalar per-component breakdown uses. The
/// component terms are folded from `0.0` in slice order (core terms,
/// then the memory term) and the two-domain constant is added *last*,
/// matching the breakdown's `constant + components.iter().sum()` total
/// to the bit.
#[derive(Debug, Clone, Copy)]
pub struct PanelModel<'a> {
    /// Core-domain static coefficient `β₀` (multiplies `V̄core`).
    pub core_static: f64,
    /// Core-domain idle dynamic coefficient `β₁` (multiplies `V̄²f`).
    pub core_idle: f64,
    /// Core-domain `(ωᵢ, Uᵢ)` pairs, in canonical component order.
    pub core_terms: &'a [(f64, f64)],
    /// Memory-domain static coefficient `β₂`.
    pub mem_static: f64,
    /// Memory-domain idle dynamic coefficient `β₃`.
    pub mem_idle: f64,
    /// Memory-domain `(ω, U)` pair (DRAM).
    pub mem_term: (f64, f64),
}

/// Panel width of [`predict_into`]: big enough to amortize the
/// per-panel setup, small enough that the four f64 scratch panels stay
/// resident in L1 (4 × 256 × 8 B = 8 KiB).
const BLOCK: usize = 256;

/// Evaluates one point exactly as the scalar per-component breakdown
/// does: constant part of both domains, then each dynamic component in
/// order. This is the reference everything else must match bit-for-bit.
#[inline]
fn predict_one(m: &PanelModel<'_>, p: VfPoint) -> f64 {
    let g = p.vc * p.vc * p.fc;
    let h = p.vm * p.vm * p.fm;
    let constant = (m.core_static * p.vc + g * (m.core_idle + 0.0))
        + (m.mem_static * p.vm + h * (m.mem_idle + 0.0));
    let mut acc = 0.0;
    for &(w, u) in m.core_terms {
        acc += g * w * u;
    }
    let (w, u) = m.mem_term;
    constant + (acc + h * w * u)
}

/// The scalar conformance oracle: a plain per-point loop over
/// [`predict_one`]. [`predict_into`] must produce output bit-identical
/// to this one.
///
/// # Panics
///
/// Panics if `out.len() != points.len()`.
pub fn predict_scalar_into(m: &PanelModel<'_>, points: &[VfPoint], out: &mut [f64]) {
    assert_eq!(points.len(), out.len(), "one output slot per point");
    for (p, o) in points.iter().zip(out.iter_mut()) {
        *o = predict_one(m, *p);
    }
}

/// Batched evaluation: points are processed [`BLOCK`] at a time as
/// structure-of-arrays scratch panels, with one tight inner loop per
/// model term streaming over the panel. Per point, the operations and
/// their order are identical to [`predict_scalar_into`]; only the loop
/// nest differs, so the output is bit-identical while the inner loops
/// auto-vectorize and keep their operands in L1.
///
/// # Panics
///
/// Panics if `out.len() != points.len()`.
pub fn predict_into(m: &PanelModel<'_>, points: &[VfPoint], out: &mut [f64]) {
    assert_eq!(points.len(), out.len(), "one output slot per point");
    let ci = m.core_idle + 0.0;
    let mi = m.mem_idle + 0.0;
    let mut g = [0.0f64; BLOCK];
    let mut h = [0.0f64; BLOCK];
    let mut konst = [0.0f64; BLOCK];
    let mut acc = [0.0f64; BLOCK];
    for (pts, outs) in points.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
        let n = pts.len();
        for i in 0..n {
            let p = pts[i];
            g[i] = p.vc * p.vc * p.fc;
            h[i] = p.vm * p.vm * p.fm;
            konst[i] = (m.core_static * p.vc + g[i] * ci) + (m.mem_static * p.vm + h[i] * mi);
            acc[i] = 0.0;
        }
        for &(w, u) in m.core_terms {
            for i in 0..n {
                acc[i] += g[i] * w * u;
            }
        }
        let (w, u) = m.mem_term;
        for i in 0..n {
            outs[i] = konst[i] + (acc[i] + h[i] * w * u);
        }
    }
}

/// The kernel [`predict_into`] runs: always `"blocked"`. Benchmarks
/// record it in their host stamp so a report names the kernel it
/// measured.
pub fn dispatch_kind() -> &'static str {
    "blocked"
}

/// Row-panel dot products: `out[r] = Σⱼ rows[r·ncols + j] · x[j]` with a
/// strictly in-order accumulation per row (starting from `+0.0`), which
/// is bit-identical to `row.iter().zip(x).map(|(a, b)| a * b).sum()`.
/// `rows` is one row-major panel; the joint solver uses this for its
/// design-matrix residuals.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `rows` is not exactly
/// `out.len()` rows of `x.len()` columns.
pub fn dot_rows_into(rows: &[f64], x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
    let ncols = x.len();
    if ncols == 0 || rows.len() != ncols * out.len() {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("{}x{ncols} row panel", out.len()),
            got: format!("{} elements", rows.len()),
        });
    }
    for (row, o) in rows.chunks_exact(ncols).zip(out.iter_mut()) {
        *o = dot(row, x);
    }
    Ok(())
}

/// Strictly in-order inner product: `Σᵢ a[i]·b[i]` accumulated left to
/// right from `+0.0` — bit-identical to
/// `a.iter().zip(b).map(|(x, y)| x * y).sum()`. This is the one audited
/// inner-product implementation in the workspace; the estimator, the
/// joint solver and the Gram-form NNLS route their dot products through it so
/// there is a single place where the bit-identity contract for inner
/// products lives. Trailing elements of the longer slice are ignored
/// (zip semantics).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// (core terms, [core_static, core_idle, mem_static, mem_idle], mem term).
    type DrawnModel = (Vec<(f64, f64)>, [f64; 4], (f64, f64));

    fn arbitrary_model(g: &mut gpm_check::Gen) -> DrawnModel {
        let n_terms = g.usize_in(0..9);
        let terms: Vec<(f64, f64)> = (0..n_terms)
            .map(|_| (g.f64_in(0.0, 50.0), g.f64_in(0.0, 1.0)))
            .collect();
        let coeffs = [
            g.f64_in(0.0, 30.0),
            g.f64_in(0.0, 30.0),
            g.f64_in(0.0, 30.0),
            g.f64_in(0.0, 30.0),
        ];
        let mem = (g.f64_in(0.0, 50.0), g.f64_in(0.0, 1.0));
        (terms, coeffs, mem)
    }

    fn arbitrary_points(g: &mut gpm_check::Gen, len: usize) -> Vec<VfPoint> {
        (0..len)
            .map(|_| VfPoint {
                vc: g.f64_in(0.25, 3.0),
                fc: g.f64_in(0.1, 2.0),
                vm: g.f64_in(0.25, 3.0),
                fm: g.f64_in(0.1, 5.0),
            })
            .collect()
    }

    /// The batched kernel agrees with the scalar oracle bit-for-bit,
    /// across batch sizes that cover empty batches, single points,
    /// sub-block batches, exact blocks and partial trailing blocks.
    #[test]
    fn batched_kernel_matches_the_scalar_oracle() {
        gpm_check::check("batched_kernel_matches_the_scalar_oracle", |g| {
            let (terms, [cs, ci, ms, mi], mem) = arbitrary_model(g);
            let m = PanelModel {
                core_static: cs,
                core_idle: ci,
                core_terms: &terms,
                mem_static: ms,
                mem_idle: mi,
                mem_term: mem,
            };
            let sizes = [0usize, 1, 2, 3, 5, 7, 63, 255, 256, 257, 1003];
            let len = sizes[g.usize_in(0..sizes.len())];
            let points = arbitrary_points(g, len);
            let mut oracle = vec![0.0; len];
            let mut batched = vec![0.0; len];
            predict_scalar_into(&m, &points, &mut oracle);
            predict_into(&m, &points, &mut batched);
            assert_eq!(bits(&oracle), bits(&batched), "batched kernel diverged");
        });
    }

    /// NaN and infinity inputs propagate identically through both
    /// kernels: degraded sensors produce the same poisoned lanes.
    #[test]
    fn non_finite_inputs_propagate_bit_identically() {
        // Degraded components: one with zero utilization, one with zero ω.
        let terms = [(18.0, 0.3), (24.0, 0.0), (0.0, 0.9)];
        let m = PanelModel {
            core_static: 15.0,
            core_idle: 12.0,
            core_terms: &terms,
            mem_static: 10.0,
            mem_idle: 11.0,
            mem_term: (26.0, 0.5),
        };
        let mut points = vec![
            VfPoint {
                vc: f64::NAN,
                fc: 1.0,
                vm: 1.0,
                fm: 3.5,
            };
            7
        ];
        points.push(VfPoint {
            vc: 1.0,
            fc: f64::INFINITY,
            vm: 0.9,
            fm: 3.5,
        });
        points.push(VfPoint {
            vc: 0.9,
            fc: 0.975,
            vm: 1.0,
            fm: 3.505,
        });
        let mut oracle = vec![0.0; points.len()];
        let mut batched = vec![0.0; points.len()];
        predict_scalar_into(&m, &points, &mut oracle);
        predict_into(&m, &points, &mut batched);
        assert_eq!(bits(&oracle), bits(&batched));
        assert!(oracle[0].is_nan(), "NaN voltages must poison their point");
        assert!(oracle[8].is_finite(), "clean points stay clean");
    }

    #[test]
    fn dot_rows_matches_the_iterator_sum() {
        gpm_check::check("dot_rows_matches_the_iterator_sum", |g| {
            let ncols = g.usize_in(1..16);
            let nrows = g.usize_in(0..40);
            let rows = g.vec_f64(ncols * nrows..ncols * nrows + 1, -100.0, 100.0);
            let x = g.vec_f64(ncols..ncols + 1, -10.0, 10.0);
            let mut out = vec![0.0; nrows];
            dot_rows_into(&rows, &x, &mut out).unwrap();
            for (r, o) in rows.chunks_exact(ncols).zip(&out) {
                let want: f64 = r.iter().zip(&x).map(|(a, b)| a * b).sum();
                assert_eq!(want.to_bits(), o.to_bits());
            }
        });
    }

    #[test]
    fn dot_rows_rejects_ragged_panels() {
        let mut out = vec![0.0; 2];
        assert!(dot_rows_into(&[1.0, 2.0, 3.0], &[1.0, 1.0], &mut out).is_err());
        assert!(dot_rows_into(&[1.0, 2.0], &[], &mut out).is_err());
    }
}
