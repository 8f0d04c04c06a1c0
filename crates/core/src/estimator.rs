//! The iterative model-estimation heuristic (Section III-D).
//!
//! The model's unknowns are the coefficient vector
//! `X = [β₀, β₁, ω₁..ω₆, β₂, β₃, ω_mem]` *and* the per-configuration
//! normalized voltages `V̄` — the driver does not expose voltages, and
//! because `X` multiplies powers of `V̄`, a single least-squares pass is
//! rank deficient. The paper's heuristic alternates:
//!
//! 1. **Bootstrap** — assume `V̄ ≡ 1` on the reference configuration plus
//!    two neighbouring configurations (one core step, one memory step) and
//!    solve the linear system for `X` (Eq. 11).
//! 2. **Voltage step** — with `X` fixed, fit `(V̄core, V̄mem)` per
//!    configuration by minimizing the squared power error (Eq. 12). The
//!    objective is a quartic polynomial in each voltage, so coordinate
//!    descent uses the *exact* stationary points (closed-form cubic
//!    roots). Both voltages are fitted per configuration, exactly as in
//!    Eq. 12 — the core voltage may therefore differ across memory
//!    frequencies, which the paper predicts on the GTX Titan X, and each
//!    voltage also absorbs the per-configuration residual left by using
//!    reference-configuration events. Each configuration's pair depends
//!    only on `X` and its own observations, so the configurations are
//!    solved one after another, in place. Monotonicity in each domain's
//!    own frequency is then enforced by weighted isotonic regression,
//!    with the reference pinned at 1.
//! 3. **Coefficient step** — with `V̄` fixed, re-solve for `X` over *all*
//!    configurations, by non-negative least squares (coefficients are
//!    physically non-negative; a plain ridge solve is available for the
//!    ablation study). Each solve starts from the previous iterate's
//!    support, which barely moves between iterations, and reaches the
//!    same coefficients as a cold solve.
//! 4. Iterate 2-3 until the training RMSE converges (the paper reports
//!    convergence in under 50 iterations).
//!
//! All scratch state lives in a [`FitWorkspace`]: the flattened
//! observations, a cached design panel at the current voltages, and the
//! solver workspaces. [`Estimator::fit_with`] takes the workspace (and an
//! optional warm-start model); a fit with a fresh workspace, a reused
//! workspace, or the plain [`Estimator::fit`] entry point produces
//! bit-identical models — the workspace only removes steady-state
//! allocations. The alternation runs on the calling thread, so the model
//! is the same at any `gpm-par` thread count.

use crate::workspace::FitWorkspace;
use crate::{
    DomainParams, MicrobenchSample, ModelError, PhaseTimings, PowerModel, TrainingSet, VoltageTable,
};
use gpm_json::impl_json;
use gpm_linalg::batch::{domain_residuals_into, dot_rows_into};
use gpm_linalg::{
    cubic_roots_into, isotonic_increasing_into, nnls_with, ridge_lstsq_with, spd_inverse_with,
    stats, LstsqWorkspace, Matrix, NnlsWorkspace,
};
use gpm_obs::SpanHandle;
use gpm_spec::{Component, FreqConfig};
use std::time::Instant;

/// Number of model coefficients: `[β₀, β₁, ω₁..ω₆, β₂, β₃, ω_mem]`.
pub(crate) const NUM_PARAMS: usize = 11;
/// Sane physical bounds for normalized voltages during the search.
pub(crate) const V_BOUNDS: (f64, f64) = (0.25, 3.0);
/// Weight that effectively pins the reference voltage at 1 in the
/// isotonic projection.
pub(crate) const PIN_WEIGHT: f64 = 1.0e9;
/// Tikhonov ridge of the coefficient solve when `nonnegative` is off
/// (handles the bootstrap rank deficiency).
const RIDGE: f64 = 1e-6;
/// Coordinate-descent sweeps inside each voltage step.
const VOLTAGE_SWEEPS: usize = 3;
/// Huber tuning constant in robust mode: residuals beyond `HUBER_K x
/// scale` get down-weighted (1.345 gives 95% efficiency under Gaussian
/// noise).
const HUBER_K: f64 = 1.345;
/// IRLS reweighting passes per coefficient solve in robust mode.
const ROBUST_ITERATIONS: usize = 3;

/// Tuning knobs for [`Estimator`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Maximum outer iterations (steps 2-3 alternations). Default 50,
    /// the paper's cap.
    pub max_iterations: usize,
    /// Relative RMSE change below which the fit is converged.
    pub tolerance: f64,
    /// Solve coefficient steps with non-negative least squares (default)
    /// instead of plain ridge regression.
    pub nonnegative: bool,
    /// Enforce the Eq. 12 voltage monotonicity constraint (default).
    pub enforce_monotonic_voltage: bool,
    /// Estimate per-configuration voltages (default). Disabling fixes
    /// `V̄ ≡ 1` — the constant-voltage ablation, equivalent to prior
    /// linear-in-frequency models.
    pub estimate_voltages: bool,
    /// Minimize *relative* (percentage) error instead of absolute watts:
    /// every observation's residual is divided by its measured power. The
    /// paper's Eq. 11/12 minimize absolute squared error, which weights
    /// high-power configurations more; the relative variant matches the
    /// MAPE evaluation metric more directly. Off by default (the paper's
    /// formulation).
    pub relative_error: bool,
    /// Robust-fit mode: every coefficient solve is followed by Huber
    /// IRLS reweighting, so corrupted observations (sensor spikes that
    /// survived quarantine) lose influence instead of dragging the whole
    /// model. Also enables auto-dropping of ω columns whose utilization
    /// is zero across the entire training set (permanently-unavailable
    /// counters zero-filled by the resilient profiler). Off by default.
    pub robust: bool,
    /// Convergence watchdog: the joint V̄/X iteration is declared
    /// divergent when the RMSE is non-finite or exceeds
    /// `divergence_factor x` the best RMSE seen so far.
    pub divergence_factor: f64,
    /// Damped restarts the watchdog may attempt before giving up
    /// (voltages pulled halfway back toward 1, coefficients re-solved).
    pub max_restarts: usize,
    /// Hard wall-clock cap on the alternation in seconds; `0.0` (the
    /// default) means unlimited. When the cap trips, the fit returns the
    /// best model so far with `converged = false`.
    pub max_fit_seconds: f64,
    /// Model components whose ω columns are excluded from the fit (their
    /// coefficients are pinned at zero and recorded in
    /// [`FitReport::degraded_components`]). The resilient profiler feeds
    /// its degradation list here.
    pub drop_components: Vec<Component>,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            max_iterations: 50,
            tolerance: 1e-5,
            nonnegative: true,
            enforce_monotonic_voltage: true,
            estimate_voltages: true,
            relative_error: false,
            robust: false,
            divergence_factor: 10.0,
            max_restarts: 2,
            max_fit_seconds: 0.0,
            drop_components: Vec::new(),
        }
    }
}

/// Diagnostics of one fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Outer iterations executed.
    pub iterations: usize,
    /// Whether the RMSE change dropped below tolerance before the cap.
    pub converged: bool,
    /// Training RMSE (watts) after each outer iteration.
    pub rmse_history: Vec<f64>,
    /// Mean absolute percentage error on the training set.
    pub training_mape: f64,
    /// Approximate standard error of each coefficient in
    /// `[β₀, β₁, ω₁..ω₆, β₂, β₃, ω_mem]` order, from `σ²·(AᵀA)⁻¹` at the
    /// final voltages (empty when the covariance is too ill-conditioned).
    /// A coefficient with a standard error comparable to its value was
    /// not pinned down by the training suite.
    pub coefficient_sigma: Vec<f64>,
    /// Wall-clock time per estimation phase (bootstrap, voltage step,
    /// coefficient step, diagnostics) — printed by the CLI's `--timings`
    /// flag.
    pub timings: PhaseTimings,
    /// Whether the fit ran in robust (Huber IRLS) mode.
    pub robust: bool,
    /// Damped restarts the convergence watchdog performed.
    pub watchdog_restarts: usize,
    /// Total Huber IRLS reweighting passes across all coefficient solves.
    pub robust_reweights: usize,
    /// Components whose ω columns were dropped from the fit — explicitly
    /// via [`EstimatorConfig::drop_components`] or auto-detected (robust
    /// mode, utilization identically zero). Their coefficients and
    /// standard errors are pinned at zero.
    pub degraded_components: Vec<Component>,
}

impl_json!(struct FitReport {
    iterations,
    converged,
    rmse_history,
    training_mape,
    coefficient_sigma,
    timings = PhaseTimings::default(),
    robust = false,
    watchdog_restarts = 0,
    robust_reweights = 0,
    degraded_components = Vec::new(),
});

/// Fits [`PowerModel`]s from [`TrainingSet`]s via the paper's iterative
/// heuristic.
///
/// # Example
///
/// ```no_run
/// use gpm_core::{Estimator, TrainingSet};
///
/// # fn get_training() -> TrainingSet { unimplemented!() }
/// let training: TrainingSet = get_training();
/// let (model, report) = Estimator::new().fit_with_report(&training)?;
/// assert!(report.iterations <= 50);
/// # Ok::<(), gpm_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    config: EstimatorConfig,
}

impl Estimator {
    /// Creates an estimator with the paper's default settings.
    pub fn new() -> Self {
        Estimator::default()
    }

    /// Creates an estimator with explicit settings (ablations).
    pub fn with_config(config: EstimatorConfig) -> Self {
        Estimator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Fits a power model, discarding diagnostics.
    ///
    /// # Errors
    ///
    /// See [`Estimator::fit_with`].
    pub fn fit(&self, training: &TrainingSet) -> Result<PowerModel, ModelError> {
        self.fit_with_report(training).map(|(m, _)| m)
    }

    /// Fits a power model cold, with a fresh workspace, and returns
    /// convergence diagnostics.
    ///
    /// # Errors
    ///
    /// See [`Estimator::fit_with`].
    pub fn fit_with_report(
        &self,
        training: &TrainingSet,
    ) -> Result<(PowerModel, FitReport), ModelError> {
        self.fit_with(training, None, &mut FitWorkspace::new())
    }

    /// Fits a power model through a caller-owned [`FitWorkspace`] and
    /// returns convergence diagnostics.
    ///
    /// With `warm: Some(previous)` the previous model's coefficient vector
    /// and voltage table seed the alternation instead of the Eq. 11
    /// bootstrap. This is the building block of the paper's real-time
    /// direction: periodic recalibration reuses the last model and
    /// converges in far fewer iterations.
    ///
    /// After the first (sizing) fit, repeated fits over same-shaped
    /// training sets perform zero steady-state heap allocations in the
    /// alternation loop. The result is bit-identical whether the
    /// workspace is fresh or reused.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientTraining`] for unusable training
    /// sets or a warm-start model with an unexpected coefficient layout,
    /// and [`ModelError::Numerical`] if a regression step fails (e.g.
    /// degenerate, utilization-free training data).
    pub fn fit_with(
        &self,
        training: &TrainingSet,
        warm: Option<&PowerModel>,
        ws: &mut FitWorkspace,
    ) -> Result<(PowerModel, FitReport), ModelError> {
        self.fit_inner(training, warm, None, None, ws)
    }

    /// Cross-validation fold fit: trains on the samples whose `kept`
    /// flag is set, sharing the untouched training set across folds
    /// instead of cloning it per fold, with the fit's trace span parented
    /// under `parent` (so per-fold fits nest under their fold span).
    pub(crate) fn fit_fold(
        &self,
        training: &TrainingSet,
        kept: &[bool],
        parent: Option<&SpanHandle>,
    ) -> Result<(PowerModel, FitReport), ModelError> {
        self.fit_inner(training, None, parent, Some(kept), &mut FitWorkspace::new())
    }

    fn fit_inner(
        &self,
        training: &TrainingSet,
        warm: Option<&PowerModel>,
        parent: Option<&SpanHandle>,
        kept: Option<&[bool]>,
        ws: &mut FitWorkspace,
    ) -> Result<(PowerModel, FitReport), ModelError> {
        match kept {
            Some(mask) => training.validate_subset(mask)?,
            None => training.validate()?,
        }
        let reference = training.reference;
        ws.prepare(training, kept);
        if ws.configs.len() < 2 {
            return Err(ModelError::InsufficientTraining(
                "need at least two frequency configurations",
            ));
        }
        let n_samples = kept.map_or(training.samples.len(), |m| {
            m.iter().filter(|&&keep| keep).count()
        });
        let fit_span = gpm_obs::span_under(parent, "estimator.fit", 0);
        if let Some(s) = fit_span.as_deref() {
            s.set_attr("samples", n_samples);
            s.set_attr("configs", ws.configs.len());
            s.set_attr("warm", warm.is_some());
        }

        // Graceful degradation: explicitly dropped ω columns plus (in
        // robust mode) components whose utilization is identically zero —
        // the signature a resilient campaign leaves when a counter is
        // permanently unavailable and its events were zero-filled.
        let keep_sample = |i: usize| kept.is_none_or(|m| m[i]);
        let mut dropped: Vec<Component> = self.config.drop_components.clone();
        if self.config.robust {
            let with_columns = Component::CORE.iter().chain([&Component::Dram]);
            for &component in with_columns {
                let all_zero = training
                    .samples
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| keep_sample(i))
                    .all(|(_, s)| s.utilizations.as_array()[component.index()] == 0.0);
                if all_zero && !dropped.contains(&component) {
                    dropped.push(component);
                }
            }
        }
        dropped.sort_by_key(|c| c.index());
        dropped.dedup();
        if !dropped.is_empty() {
            gpm_obs::counter_add("estimator.degraded_components", dropped.len() as u64);
        }
        ws.set_dropped_columns(dropped.iter().map(|&c| column_of(c)));
        let mut robust_reweights = 0usize;

        // Voltage state: V̄ = (V̄core, V̄mem) per configuration (Eq. 12),
        // indexed by config index, seeded from the previous model when
        // warm-starting. The design panel is (re)filled after *every*
        // voltage mutation and trusted in between.
        let ncfg = ws.configs.len();
        ws.vcore.clear();
        ws.vcore.resize(ncfg, 1.0);
        ws.vmem.clear();
        ws.vmem.resize(ncfg, 1.0);
        if let Some(m) = warm {
            for (g, &c) in ws.configs.iter().enumerate() {
                if let Ok((vc, vm)) = m.voltage_table().voltages(c) {
                    ws.vcore[g] = vc;
                    ws.vmem[g] = vm;
                }
            }
        }
        fill_panel(training, ws);

        let mut timings = PhaseTimings::default();

        // --- Step 1: bootstrap on {F1, F2, F3} with V̄ ≡ 1 (cold start),
        // or reuse the previous coefficients (warm start).
        let bootstrap_start = Instant::now();
        let bootstrap_span = gpm_obs::span_under(fit_span.as_deref(), "estimator.bootstrap", 0);
        let mut x = [0.0; NUM_PARAMS];
        match warm {
            Some(m) => {
                let core = m.core_params();
                let mem = m.mem_params();
                if core.omegas.len() + 5 != NUM_PARAMS {
                    return Err(ModelError::InsufficientTraining(
                        "warm-start model has an unexpected coefficient layout",
                    ));
                }
                x[0] = core.static_coef;
                x[1] = core.idle_dyn;
                x[2..8].copy_from_slice(&core.omegas);
                x[8] = mem.static_coef;
                x[9] = mem.idle_dyn;
                x[10] = mem.omegas[0];
            }
            None => {
                // Cold start seeds every voltage at 1, so the cached
                // panel rows already carry the Eq. 11 bootstrap
                // assumption V̄ ≡ 1.
                let bootstrap = bootstrap_configs(reference, &ws.configs);
                self.solve_coefficients_ws(ws, Some(&bootstrap), &mut robust_reweights, &mut x)?;
            }
        }
        drop(bootstrap_span);
        timings.record("bootstrap", bootstrap_start.elapsed());

        // --- Steps 2-4: alternate voltage and coefficient fits, under a
        // convergence watchdog: a diverging alternation (non-finite RMSE,
        // or RMSE exploding past `divergence_factor x` the best seen) gets
        // a damped restart — voltages pulled halfway back toward the
        // V̄ ≡ 1 bootstrap, coefficients re-solved — up to `max_restarts`
        // times before the fit gives up with `converged = false`.
        let fit_start = Instant::now();
        let mut rmse_history = Vec::with_capacity(self.config.max_iterations + 1);
        let mut converged = false;
        let mut iterations = 0;
        let mut watchdog_restarts = 0usize;
        let mut best_rmse = f64::INFINITY;
        ws.obs_weights.clear();
        ws.obs_weights.resize(ws.obs.len(), 1.0);
        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;
            let iter_span =
                gpm_obs::span_under(fit_span.as_deref(), "estimator.iteration", iter as u64);
            if self.config.robust {
                // Refresh the per-observation Huber weights from the
                // current iterate so *both* alternation steps — not just
                // the coefficient solve — stop chasing corrupted
                // observations.
                huber_weights_ws(&x, ws);
            }
            if self.config.estimate_voltages {
                let start = Instant::now();
                fit_voltages_ws(&self.config, reference, &x, training, ws);
                fill_panel(training, ws);
                timings.record("voltage_step", start.elapsed());
            }
            let start = Instant::now();
            self.solve_coefficients_ws(ws, None, &mut robust_reweights, &mut x)?;
            gpm_obs::counter_add("estimator.coefficient_solves", 1);
            timings.record("coefficient_step", start.elapsed());
            let rmse = rmse_of_ws(&x, ws);
            if let Some(s) = iter_span.as_deref() {
                s.set_attr("iteration", iter);
                s.set_attr("rmse", rmse);
            }
            gpm_obs::counter_add("estimator.iterations", 1);
            gpm_obs::histogram_record("estimator.rmse", rmse);

            let diverged =
                !rmse.is_finite() || rmse > self.config.divergence_factor * best_rmse.max(1e-12);
            if diverged {
                if watchdog_restarts < self.config.max_restarts {
                    watchdog_restarts += 1;
                    gpm_obs::counter_add("estimator.watchdog_restarts", 1);
                    for v in ws.vcore.iter_mut() {
                        *v = 0.5 * (*v + 1.0);
                    }
                    for v in ws.vmem.iter_mut() {
                        *v = 0.5 * (*v + 1.0);
                    }
                    fill_panel(training, ws);
                    self.solve_coefficients_ws(ws, None, &mut robust_reweights, &mut x)?;
                    continue; // the divergent RMSE is not recorded
                }
                break; // restarts exhausted: give up, converged stays false
            }
            best_rmse = best_rmse.min(rmse);

            let done = rmse_history.last().is_some_and(|prev: &f64| {
                (prev - rmse).abs() <= self.config.tolerance * prev.max(1e-12)
            });
            rmse_history.push(rmse);
            if done || !self.config.estimate_voltages {
                converged = true;
                break;
            }
            if self.config.max_fit_seconds > 0.0
                && fit_start.elapsed().as_secs_f64() > self.config.max_fit_seconds
            {
                break; // hard time cap: best-so-far model, converged false
            }
        }

        // --- Assemble the model.
        let voltages = VoltageTable::new(
            reference,
            ws.configs
                .iter()
                .enumerate()
                .map(|(g, &c)| (c, [ws.vcore[g], ws.vmem[g]])),
        );
        let residual_sigma = rmse_history.last().copied().unwrap_or(0.0);
        let model = PowerModel::new(
            training.device.clone(),
            DomainParams {
                static_coef: x[0],
                idle_dyn: x[1],
                omegas: x[2..8].to_vec(),
            },
            DomainParams {
                static_coef: x[8],
                idle_dyn: x[9],
                omegas: vec![x[10]],
            },
            voltages,
            training.l2_bytes_per_cycle,
        )
        .with_residual_sigma(residual_sigma);

        // Training MAPE and coefficient standard errors for the report.
        let diagnostics_start = Instant::now();
        let diagnostics_span = gpm_obs::span_under(
            fit_span.as_deref(),
            "estimator.diagnostics",
            self.config.max_iterations as u64,
        );
        let (training_mape, coefficient_sigma) = diagnostics_ws(ws, &x)?;
        drop(diagnostics_span);
        timings.record("diagnostics", diagnostics_start.elapsed());

        if let Some(s) = fit_span.as_deref() {
            s.set_attr("iterations", iterations);
            s.set_attr("converged", converged);
            s.set_attr("training_mape", training_mape);
            // Only attached in robust mode so clean golden traces are
            // unchanged by the robustness machinery's existence.
            if self.config.robust {
                s.set_attr("robust", true);
            }
            if watchdog_restarts > 0 {
                s.set_attr("watchdog_restarts", watchdog_restarts as u64);
            }
            if let Some(&rmse) = rmse_history.last() {
                s.set_attr("final_rmse", rmse);
            }
        }

        Ok((
            model,
            FitReport {
                iterations,
                converged,
                rmse_history,
                training_mape,
                coefficient_sigma,
                timings,
                robust: self.config.robust,
                watchdog_restarts,
                robust_reweights,
                degraded_components: dropped,
            },
        ))
    }

    /// Linear coefficient solve (steps 1 and 3), reading the cached
    /// design panel. `subset` restricts the observations to the bootstrap
    /// configurations (valid only while all voltages are 1, i.e. cold
    /// start — the panel rows then carry the Eq. 11 assumption); dropped
    /// columns are excluded from the solve and pinned at zero; in robust
    /// mode the solve is followed by Huber IRLS reweighting passes
    /// (counted in `reweights`).
    fn solve_coefficients_ws(
        &self,
        ws: &mut FitWorkspace,
        subset: Option<&[FreqConfig]>,
        reweights: &mut usize,
        x_out: &mut [f64; NUM_PARAMS],
    ) -> Result<(), ModelError> {
        let FitWorkspace {
            obs,
            panel,
            rows,
            y,
            wrows,
            wy,
            a,
            resid,
            abs,
            nnls,
            lstsq,
            keep_cols,
            ..
        } = ws;
        rows.clear();
        y.clear();
        for (i, o) in obs.iter().enumerate() {
            if let Some(keep) = subset {
                if !keep.contains(&o.config) {
                    continue;
                }
            }
            // Relative-error mode: scale each equation by 1/P, turning
            // the absolute least squares into a percentage least squares.
            let w = if self.config.relative_error {
                1.0 / o.watts.max(1e-6)
            } else {
                1.0
            };
            let prow = &panel[i * NUM_PARAMS..(i + 1) * NUM_PARAMS];
            rows.extend(prow.iter().map(|v| v * w));
            y.push(o.watts * w);
        }
        if y.len() < NUM_PARAMS {
            return Err(ModelError::InsufficientTraining(
                "fewer observations than model coefficients",
            ));
        }

        solve_reduced(
            keep_cols,
            rows,
            y,
            self.config.nonnegative,
            a,
            nnls,
            lstsq,
            x_out,
        )?;
        if self.config.robust && y.len() > NUM_PARAMS {
            // Huber IRLS: residuals beyond k x (MAD-based scale) get
            // weight k·scale/|r| < 1, shrinking the pull of corrupted
            // observations without discarding them outright. Residuals
            // use the full-width rows — dropped columns contribute +0.0
            // against their pinned-zero coefficients.
            for _ in 0..ROBUST_ITERATIONS {
                resid.clear();
                resid.resize(y.len(), 0.0);
                dot_rows_into(rows, &x_out[..], resid)
                    .expect("weighted rows panel is rectangular by construction");
                for (r, &yi) in resid.iter_mut().zip(y.iter()) {
                    *r -= yi;
                }
                abs.clear();
                abs.extend(resid.iter().map(|r| r.abs()));
                abs.sort_unstable_by(f64::total_cmp);
                let scale = (1.4826 * abs[abs.len() / 2]).max(1e-9);
                let cutoff = HUBER_K * scale;
                wrows.clear();
                wy.clear();
                for ((chunk, &yi), &rv) in rows
                    .chunks_exact(NUM_PARAMS)
                    .zip(y.iter())
                    .zip(resid.iter())
                {
                    let s = huber_weight(rv, cutoff).sqrt();
                    wrows.extend(chunk.iter().map(|v| v * s));
                    wy.push(yi * s);
                }
                solve_reduced(
                    keep_cols,
                    wrows,
                    wy,
                    self.config.nonnegative,
                    a,
                    nnls,
                    lstsq,
                    x_out,
                )?;
                *reweights += 1;
            }
            gpm_obs::counter_add("estimator.robust_reweights", ROBUST_ITERATIONS as u64);
        }
        Ok(())
    }
}

/// Solves the kept-column reduction of `rows·x ≈ y` into `x_out`,
/// re-expanding with zeros so the coefficient layout never changes.
/// Degraded columns only leave the system here — the stored rows stay
/// full width. The non-negative solve starts from the support of the
/// `x_out` it overwrites: empty at the cold bootstrap, the previous
/// model's on a warm refit, the last iterate's everywhere else.
#[allow(clippy::too_many_arguments)]
fn solve_reduced(
    keep: &[usize],
    rows: &[f64],
    y: &[f64],
    nonnegative: bool,
    a: &mut Matrix,
    nnls_ws: &mut NnlsWorkspace,
    lstsq_ws: &mut LstsqWorkspace,
    x_out: &mut [f64; NUM_PARAMS],
) -> Result<(), ModelError> {
    let k = keep.len();
    a.reshape(y.len(), k);
    let dst = a.as_mut_slice();
    for (r, chunk) in rows.chunks_exact(NUM_PARAMS).enumerate() {
        for (j, &col) in keep.iter().enumerate() {
            dst[r * k + j] = chunk[col];
        }
    }
    let xr = if nonnegative {
        let mut start = [0; NUM_PARAMS];
        let mut len = 0;
        for (j, &col) in keep.iter().enumerate() {
            if x_out[col] > 0.0 {
                start[len] = j;
                len += 1;
            }
        }
        nnls_with(a, y, &start[..len], nnls_ws)?
    } else {
        ridge_lstsq_with(a, y, RIDGE, lstsq_ws)?
    };
    x_out.fill(0.0);
    for (&i, &v) in keep.iter().zip(xr) {
        x_out[i] = v;
    }
    Ok(())
}

/// Voltage step (Eq. 12): coordinate descent with exact cubic stationary
/// points per configuration group, then isotonic projection along the
/// precomputed monotone chains. The observation weights carry the
/// robust-mode Huber weights (all ones otherwise). Groups solve one after
/// another, each writing its voltages in place: a group's solve reads
/// only its own two voltages, so the order cannot change the result.
fn fit_voltages_ws(
    cfg: &EstimatorConfig,
    reference: FreqConfig,
    x: &[f64; NUM_PARAMS],
    training: &TrainingSet,
    ws: &mut FitWorkspace,
) {
    let FitWorkspace {
        obs,
        configs,
        group_offsets,
        group_items,
        core_chain_offsets,
        core_chains,
        core_pins,
        mem_chain_offsets,
        mem_chains,
        mem_pins,
        vcore,
        vmem,
        obs_weights,
        act_a,
        act_b,
        group_scratch: s,
        chain_vals,
        chain_fit,
        iso,
        ..
    } = ws;

    // Per-sample activity terms: A_i = β₁ + Σ ωⱼuⱼ, B_i = β₃ + ω_mem·u_dram.
    act_a.clear();
    act_b.clear();
    for sample in &training.samples {
        let (a, b) = activity_terms(sample, &x[..]);
        act_a.push(a);
        act_b.push(b);
    }

    let relative = cfg.relative_error;
    for _ in 0..VOLTAGE_SWEEPS {
        let mut solved = 0u64;
        for (g, &config) in configs.iter().enumerate() {
            if config == reference {
                continue; // pinned at (1, 1) by normalization
            }
            let fc = config.core.as_f64() / 1000.0;
            let fm = config.mem.as_f64() / 1000.0;
            let idxs = &group_items[group_offsets[g]..group_offsets[g + 1]];
            s.a_acts.clear();
            s.b_acts.clear();
            s.watts.clear();
            s.weights.clear();
            for &i in idxs {
                let o = &obs[i];
                s.a_acts.push(act_a[o.sample]);
                s.b_acts.push(act_b[o.sample]);
                s.watts.push(o.watts);
                let base = if relative {
                    let p = o.watts.max(1e-6);
                    1.0 / (p * p)
                } else {
                    1.0
                };
                s.weights.push(base * obs_weights[i]);
            }
            // The Eq. 12 inner loop, batched: residuals against the
            // *other* domain's contribution come from one
            // `domain_residuals_into` pass over the group (same
            // association as the scalar expression, so the solve inputs
            // are bit-identical).
            s.resid.clear();
            s.resid.resize(idxs.len(), 0.0);
            // Core voltage given the current memory voltage.
            let vm_old = vmem[g];
            domain_residuals_into(x[8], fm, vm_old, &s.b_acts, &s.watts, &mut s.resid);
            s.coef.clear();
            s.coef.extend(s.a_acts.iter().map(|&a| a * fc));
            let vc =
                minimize_quartic_slices(x[0], &s.coef, &s.resid, &s.weights).unwrap_or(vcore[g]);
            // Memory voltage given the updated core voltage.
            domain_residuals_into(x[0], fc, vc, &s.a_acts, &s.watts, &mut s.resid);
            s.coef.clear();
            s.coef.extend(s.b_acts.iter().map(|&b| b * fm));
            let vm = minimize_quartic_slices(x[8], &s.coef, &s.resid, &s.weights).unwrap_or(vm_old);
            vcore[g] = vc;
            vmem[g] = vm;
            solved += 1;
        }
        gpm_obs::counter_add("estimator.voltage_solves", solved);
    }

    // Monotone projection (Eq. 12 constraint) along the chains `prepare`
    // precomputed: per memory level, `V̄core` non-decreasing in core
    // frequency; per core level, `V̄mem` non-decreasing in memory
    // frequency. Reference entries carry a huge weight, pinning them at 1.
    if cfg.enforce_monotonic_voltage {
        for w in core_chain_offsets.windows(2) {
            let chain = &core_chains[w[0]..w[1]];
            let pins = &core_pins[w[0]..w[1]];
            chain_vals.clear();
            chain_vals.extend(chain.iter().map(|&g| vcore[g]));
            isotonic_increasing_into(chain_vals, pins, iso, chain_fit);
            for (&g, &v) in chain.iter().zip(chain_fit.iter()) {
                vcore[g] = v;
            }
        }
        for w in mem_chain_offsets.windows(2) {
            let chain = &mem_chains[w[0]..w[1]];
            let pins = &mem_pins[w[0]..w[1]];
            chain_vals.clear();
            chain_vals.extend(chain.iter().map(|&g| vmem[g]));
            isotonic_increasing_into(chain_vals, pins, iso, chain_fit);
            for (&g, &v) in chain.iter().zip(chain_fit.iter()) {
                vmem[g] = v;
            }
        }
    }
}

/// (Re)fills the cached design panel: one Eq. 6/7 row per observation at
/// the current voltages. Called after every voltage mutation.
fn fill_panel(training: &TrainingSet, ws: &mut FitWorkspace) {
    let FitWorkspace {
        obs,
        obs_cfg,
        vcore,
        vmem,
        panel,
        ..
    } = ws;
    panel.clear();
    for (o, &g) in obs.iter().zip(obs_cfg.iter()) {
        panel.extend_from_slice(&design_row(
            &training.samples[o.sample].utilizations.as_array(),
            o.config,
            vcore[g],
            vmem[g],
        ));
    }
}

/// Chooses the bootstrap configurations `{F1, F2, F3}`: the reference,
/// its nearest core-frequency neighbour at the reference memory level,
/// and its nearest memory-frequency neighbour at the reference core level
/// (if the device has more than one memory level).
fn bootstrap_configs(reference: FreqConfig, configs: &[FreqConfig]) -> Vec<FreqConfig> {
    let mut chosen = vec![reference];
    let nearest = |candidates: Vec<FreqConfig>, key: fn(&FreqConfig) -> u32, pivot: u32| {
        candidates
            .into_iter()
            .min_by_key(|c| key(c).abs_diff(pivot))
    };
    let core_neighbors: Vec<FreqConfig> = configs
        .iter()
        .copied()
        .filter(|c| c.mem == reference.mem && c.core != reference.core)
        .collect();
    if let Some(f2) = nearest(core_neighbors, |c| c.core.as_u32(), reference.core.as_u32()) {
        chosen.push(f2);
    }
    let mem_neighbors: Vec<FreqConfig> = configs
        .iter()
        .copied()
        .filter(|c| c.core == reference.core && c.mem != reference.mem)
        .collect();
    if let Some(f3) = nearest(mem_neighbors, |c| c.mem.as_u32(), reference.mem.as_u32()) {
        chosen.push(f3);
    }
    chosen
}

/// The Eq. 6/7 design row for one observation (frequencies in GHz).
pub(crate) fn design_row(u: &[f64; 7], config: FreqConfig, vc: f64, vm: f64) -> [f64; NUM_PARAMS] {
    let fc = config.core.as_f64() / 1000.0;
    let fm = config.mem.as_f64() / 1000.0;
    let mut row = [0.0; NUM_PARAMS];
    row[0] = vc;
    row[1] = vc * vc * fc;
    for (j, comp) in Component::CORE.iter().enumerate() {
        row[2 + j] = vc * vc * fc * u[comp.index()];
    }
    row[8] = vm;
    row[9] = vm * vm * fm;
    row[10] = vm * vm * fm * u[Component::Dram.index()];
    row
}

/// Per-sample activity terms `(A, B)` with `A = β₁ + Σ ωⱼuⱼ` (core) and
/// `B = β₃ + ω_mem·u_dram` (memory).
fn activity_terms(sample: &MicrobenchSample, x: &[f64]) -> (f64, f64) {
    let u = sample.utilizations.as_array();
    let mut a = x[1];
    for (j, comp) in Component::CORE.iter().enumerate() {
        a += x[2 + j] * u[comp.index()];
    }
    let b = x[9] + x[10] * u[Component::Dram.index()];
    (a, b)
}

/// Minimizes `Σ wᵢ·(b·v + aᵢ·v² - rᵢ)²` over `v ∈ V_BOUNDS` exactly: the
/// derivative is a cubic whose real roots are closed form. The parallel
/// slices hold `aᵢ`, `rᵢ` and `wᵢ` (weights are 1 in the paper's
/// absolute-error mode, `1/P²` in relative-error mode, scaled by the
/// Huber weights in robust mode).
fn minimize_quartic_slices(b: f64, a: &[f64], r: &[f64], w: &[f64]) -> Option<f64> {
    if a.is_empty() {
        return None;
    }
    let (mut sw, mut sa2, mut sa, mut sar, mut sr) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..a.len() {
        let (ai, ri, wi) = (a[i], r[i], w[i]);
        sw += wi;
        sa2 += wi * ai * ai;
        sa += wi * ai;
        sar += wi * ai * ri;
        sr += wi * ri;
    }
    let c3 = 2.0 * sa2;
    let c2 = 3.0 * b * sa;
    let c1 = sw * b * b - 2.0 * sar;
    let c0 = -b * sr;
    let objective = |v: f64| -> f64 {
        let mut g = 0.0;
        for i in 0..a.len() {
            let e = b * v + a[i] * v * v - r[i];
            g += w[i] * e * e;
        }
        g
    };
    let mut best: Option<(f64, f64)> = None;
    let mut consider = |v: f64| {
        if v.is_finite() {
            let clamped = v.clamp(V_BOUNDS.0, V_BOUNDS.1);
            let g = objective(clamped);
            if best.is_none_or(|(_, bg)| g < bg) {
                best = Some((clamped, g));
            }
        }
    };
    let mut roots = [0.0; 3];
    let n = cubic_roots_into(c3, c2, c1, c0, &mut roots);
    for &root in &roots[..n] {
        consider(root);
    }
    consider(V_BOUNDS.0);
    consider(V_BOUNDS.1);
    best.map(|(v, _)| v)
}

/// Per-observation Huber weights under the current iterate (read off the
/// cached panel): 1 inside `HUBER_K x` the MAD-based residual scale,
/// shrinking as `HUBER_K·scale/|r|` beyond.
fn huber_weights_ws(x: &[f64; NUM_PARAMS], ws: &mut FitWorkspace) {
    let FitWorkspace {
        obs,
        panel,
        pred,
        resid,
        abs,
        obs_weights,
        ..
    } = ws;
    pred.clear();
    pred.resize(obs.len(), 0.0);
    dot_rows_into(panel, &x[..], pred).expect("design panel is rectangular by construction");
    resid.clear();
    resid.extend(pred.iter().zip(obs.iter()).map(|(p, o)| p - o.watts));
    abs.clear();
    abs.extend(resid.iter().map(|r| r.abs()));
    abs.sort_unstable_by(f64::total_cmp);
    let scale = (1.4826 * abs[abs.len() / 2]).max(1e-9);
    let cutoff = HUBER_K * scale;
    obs_weights.clear();
    obs_weights.extend(resid.iter().map(|r| huber_weight(*r, cutoff)));
}

/// One Huber weight, with a redescending tail: residuals beyond
/// `REDESCEND x` the Huber cutoff are gross outliers (sensor spikes, not
/// noise) and get zero weight instead of a soft `cutoff/|r|`.
fn huber_weight(residual: f64, cutoff: f64) -> f64 {
    const REDESCEND: f64 = 8.0;
    let a = residual.abs();
    if a <= cutoff {
        1.0
    } else if a > REDESCEND * cutoff {
        0.0
    } else {
        cutoff / a
    }
}

/// The design-row column a component's ω occupies.
fn column_of(component: Component) -> usize {
    match Component::CORE.iter().position(|&c| c == component) {
        Some(j) => 2 + j,
        None => 10, // Dram
    }
}

/// Training RMSE under the current parameters (read off the cached
/// panel), weighted by the observation weights (all ones outside robust
/// mode, where this reduces to the plain RMSE bit-for-bit). In robust
/// mode the weights keep quarantine survivors from dominating the
/// convergence test: without them the constant spike residuals swamp the
/// RMSE and the relative-change stopping rule fires while the good-data
/// fit is still improving.
fn rmse_of_ws(x: &[f64; NUM_PARAMS], ws: &mut FitWorkspace) -> f64 {
    let FitWorkspace {
        obs,
        panel,
        pred,
        obs_weights,
        ..
    } = ws;
    pred.clear();
    pred.resize(obs.len(), 0.0);
    dot_rows_into(panel, &x[..], pred).expect("design panel is rectangular by construction");
    let mut sse = 0.0;
    let mut denom = 0.0;
    for ((o, &w), &p) in obs.iter().zip(obs_weights.iter()).zip(pred.iter()) {
        let e = p - o.watts;
        sse += w * e * e;
        denom += w;
    }
    (sse / denom.max(1e-12)).sqrt()
}

/// Fit diagnostics off the cached panel at the final voltages: the
/// training MAPE and the per-coefficient standard errors from
/// `σ²·(AᵀA)⁻¹` (a diagnostic, not part of the model).
fn diagnostics_ws(
    ws: &mut FitWorkspace,
    x: &[f64; NUM_PARAMS],
) -> Result<(f64, Vec<f64>), ModelError> {
    let FitWorkspace {
        obs,
        panel,
        pred,
        meas,
        amat,
        at,
        ata,
        inv,
        spd,
        drop_cols,
        ..
    } = ws;
    pred.clear();
    pred.resize(obs.len(), 0.0);
    dot_rows_into(panel, &x[..], pred).expect("design panel is rectangular by construction");
    meas.clear();
    meas.extend(obs.iter().map(|o| o.watts));
    let training_mape = stats::mape(pred, meas)?;

    amat.copy_from_flat(obs.len(), NUM_PARAMS, panel);
    amat.transpose_into(at);
    at.matmul_into(amat, ata)
        .expect("inner dimensions agree by construction");
    // Tiny jitter keeps the inverse defined when NNLS zeroed a
    // coefficient (its column may be collinear at the optimum).
    let jitter = 1e-9 * ata.max_abs().max(1.0);
    for i in 0..NUM_PARAMS {
        ata[(i, i)] += jitter;
    }
    let dof = (obs.len().saturating_sub(NUM_PARAMS)).max(1) as f64;
    let sse: f64 = pred
        .iter()
        .zip(meas.iter())
        .map(|(p, m)| (p - m) * (p - m))
        .sum();
    let sigma2 = sse / dof;
    let coefficient_sigma = match spd_inverse_with(ata, inv, spd) {
        Ok(()) => (0..NUM_PARAMS)
            .map(|i| {
                if drop_cols.contains(&i) {
                    0.0 // pinned, not estimated
                } else {
                    (sigma2 * inv[(i, i)].max(0.0)).sqrt()
                }
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    Ok((training_mape, coefficient_sigma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Utilizations;
    use gpm_spec::{devices, DeviceSpec, Domain, Mhz};
    use std::collections::BTreeMap;

    /// Scalar design-row product — the hot paths all go through the
    /// batched panel pass, which must match this bit-for-bit; tests build
    /// ground truth with it.
    fn dot(row: &[f64; NUM_PARAMS], x: &[f64]) -> f64 {
        row.iter().zip(x).map(|(a, b)| a * b).sum()
    }

    /// Builds a synthetic, noise-free training set from a known
    /// Eq. 5-7 model with known (hidden) voltages.
    fn synthetic_training(spec: &DeviceSpec) -> (TrainingSet, Vec<f64>) {
        // Ground truth in model units (GHz frequencies).
        // X = [β₀, β₁, ω_int, ω_sp, ω_dp, ω_sf, ω_sh, ω_l2, β₂, β₃, ω_mem]
        let truth = vec![
            15.0, 21.0, 18.0, 24.0, 30.0, 22.0, 15.0, 17.0, 10.0, 11.0, 26.0,
        ];
        let reference = spec.default_config();
        let vbar = |c: FreqConfig| -> (f64, f64) {
            // Flat-then-linear core voltage; constant memory voltage.
            let f = c.core.as_f64();
            let fref = reference.core.as_f64();
            let v = |fr: f64| -> f64 {
                let brk = 810.0;
                if fr <= brk {
                    0.85
                } else {
                    0.85 + 0.00075 * (fr - brk)
                }
            };
            (v(f) / v(fref), 1.0)
        };
        // 24 kernels with diverse utilization mixes.
        let mut samples = Vec::new();
        for i in 0..24 {
            let t = i as f64 / 23.0;
            let u = Utilizations::from_values([
                0.1 + 0.5 * t,
                0.6 * (1.0 - t),
                if i % 5 == 0 { 0.4 } else { 0.0 },
                0.3 * ((i % 3) as f64) / 2.0,
                0.5 * ((i % 4) as f64) / 3.0,
                0.2 + 0.6 * t * (1.0 - t),
                (0.9 - 0.8 * t).max(0.05),
            ])
            .unwrap();
            let mut power_by_config = BTreeMap::new();
            for config in spec.vf_grid() {
                let (vc, vm) = vbar(config);
                let row = design_row(&u.as_array(), config, vc, vm);
                power_by_config.insert(config, dot(&row, &truth));
            }
            samples.push(MicrobenchSample {
                name: format!("synthetic_{i}"),
                utilizations: u,
                power_by_config,
            });
        }
        (
            TrainingSet {
                device: spec.clone(),
                reference,
                l2_bytes_per_cycle: 640.0,
                samples,
            },
            truth,
        )
    }

    #[test]
    fn recovers_synthetic_model_nearly_exactly() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let (model, report) = Estimator::new().fit_with_report(&training).unwrap();
        assert!(
            report.training_mape < 1.0,
            "training MAPE {}",
            report.training_mape
        );
        assert!(report.iterations <= 50);
        // Prediction accuracy on a held-out utilization mix.
        let u = Utilizations::from_values([0.3, 0.3, 0.1, 0.2, 0.25, 0.35, 0.45]).unwrap();
        for config in [
            FreqConfig::from_mhz(595, 810),
            FreqConfig::from_mhz(1164, 4005),
            spec.default_config(),
        ] {
            let p = model.predict(&u, config).unwrap();
            assert!(p > 20.0 && p < 400.0, "{config}: {p} W");
        }
    }

    #[test]
    fn recovers_the_two_regime_voltage_shape() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let model = Estimator::new().fit(&training).unwrap();
        let curve = model.voltage_table().core_curve(Mhz::new(3505));
        assert_eq!(curve.len(), 16);
        // Monotone non-decreasing.
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-9, "{curve:?}");
        }
        // Plateau at the low end, rise at the top (true ratio ≈ 1.145).
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        assert!(first < 0.95, "plateau V̄ {first}");
        assert!(last > 1.05, "top V̄ {last}");
    }

    #[test]
    fn memory_voltage_is_monotone_and_bounded() {
        // The paper observed no memory-voltage changes on real hardware;
        // the estimator's V̄mem is identifiable only jointly with the
        // memory-domain coefficients, so we require the Eq. 12 invariants
        // (monotone in memory frequency, physically bounded) rather than
        // exact flatness.
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let model = Estimator::new().fit(&training).unwrap();
        let core = spec.default_config().core;
        let mut prev = 0.0;
        let mut mems: Vec<_> = spec.mem_freqs().to_vec();
        mems.sort_unstable();
        for mem in mems {
            let v = model
                .voltage_table()
                .voltage(Domain::Memory, FreqConfig::new(core, mem))
                .unwrap();
            assert!((0.5..=1.5).contains(&v), "V̄mem({mem}) = {v}");
            assert!(v + 1e-9 >= prev, "V̄mem must be monotone in fmem");
            prev = v;
        }
    }

    #[test]
    fn nonnegative_mode_produces_nonnegative_coefficients() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let model = Estimator::new().fit(&training).unwrap();
        assert!(model.core_params().static_coef >= 0.0);
        assert!(model.core_params().idle_dyn >= 0.0);
        assert!(model.core_params().omegas.iter().all(|&w| w >= 0.0));
        assert!(model.mem_params().omegas[0] >= 0.0);
    }

    #[test]
    fn constant_voltage_ablation_is_worse_on_voltage_scaled_data() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let (_, full) = Estimator::new().fit_with_report(&training).unwrap();
        let ablated_cfg = EstimatorConfig {
            estimate_voltages: false,
            ..EstimatorConfig::default()
        };
        let (_, flat) = Estimator::with_config(ablated_cfg)
            .fit_with_report(&training)
            .unwrap();
        assert!(
            full.training_mape < flat.training_mape,
            "voltage-aware {} vs constant-voltage {}",
            full.training_mape,
            flat.training_mape
        );
    }

    #[test]
    fn works_on_single_memory_level_devices() {
        // Tesla K40c: one memory frequency, four core levels.
        let spec = devices::tesla_k40c();
        let (training, _) = synthetic_training(&spec);
        let (model, report) = Estimator::new().fit_with_report(&training).unwrap();
        assert!(report.training_mape < 2.0, "MAPE {}", report.training_mape);
        let u = Utilizations::from_values([0.2; 7]).unwrap();
        assert!(model.predict(&u, FreqConfig::from_mhz(666, 3004)).unwrap() > 0.0);
    }

    #[test]
    fn coefficient_sigmas_are_reported_and_scale_with_noise() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let (_, clean) = Estimator::new().fit_with_report(&training).unwrap();
        assert_eq!(clean.coefficient_sigma.len(), 11);
        assert!(clean
            .coefficient_sigma
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0));

        // Perturb the powers: sigmas must grow.
        let mut noisy = training.clone();
        for (i, s) in noisy.samples.iter_mut().enumerate() {
            for (j, w) in s.power_by_config.values_mut().enumerate() {
                // Deterministic +-2% ripple.
                *w *= 1.0 + 0.02 * (((i * 31 + j * 17) % 7) as f64 - 3.0) / 3.0;
            }
        }
        let (_, perturbed) = Estimator::new().fit_with_report(&noisy).unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&perturbed.coefficient_sigma) > mean(&clean.coefficient_sigma),
            "noise should widen the coefficient uncertainty"
        );
    }

    #[test]
    fn warm_start_converges_faster_than_cold() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let estimator = Estimator::new();
        let (model, cold) = estimator.fit_with_report(&training).unwrap();
        let (warm_model, warm) = estimator
            .fit_with(&training, Some(&model), &mut FitWorkspace::new())
            .unwrap();
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.training_mape <= cold.training_mape * 1.05);
        // The refit stays consistent with the original model.
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        let reference = spec.default_config();
        let a = model.predict(&u, reference).unwrap();
        let b = warm_model.predict(&u, reference).unwrap();
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let estimator = Estimator::new();
        let (fresh_model, fresh_report) = estimator.fit_with_report(&training).unwrap();

        let mut ws = FitWorkspace::new();
        let (first_model, first_report) = estimator.fit_with(&training, None, &mut ws).unwrap();
        // Second fit reuses grown (and now dirty) buffers.
        let (reused_model, reused_report) = estimator.fit_with(&training, None, &mut ws).unwrap();

        for (label, model, report) in [
            ("first", &first_model, &first_report),
            ("reused", &reused_model, &reused_report),
        ] {
            assert_eq!(
                model.to_json().unwrap(),
                fresh_model.to_json().unwrap(),
                "{label} workspace fit must match the fresh-workspace fit exactly"
            );
            assert_eq!(report.rmse_history, fresh_report.rmse_history, "{label}");
            assert_eq!(report.training_mape, fresh_report.training_mape, "{label}");
            assert_eq!(
                report.coefficient_sigma, fresh_report.coefficient_sigma,
                "{label}"
            );
        }

        // A warm refit through the reused workspace matches one through a
        // fresh workspace exactly.
        let (warm_a, _) = estimator
            .fit_with(&training, Some(&fresh_model), &mut FitWorkspace::new())
            .unwrap();
        let (warm_b, _) = estimator
            .fit_with(&training, Some(&fresh_model), &mut ws)
            .unwrap();
        assert_eq!(warm_a.to_json().unwrap(), warm_b.to_json().unwrap());
    }

    #[test]
    fn reports_record_every_phase_once_per_iteration() {
        /// `label:calls` of every recorded phase, sorted by label.
        fn calls(report: &FitReport) -> String {
            let entries = report.timings.entries().iter();
            let mut calls: Vec<String> = entries
                .map(|e| format!("{}:{}", e.label, e.calls))
                .collect();
            calls.sort_unstable();
            calls.join(" ")
        }
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let estimator = Estimator::new();
        let (model, cold) = estimator.fit_with_report(&training).unwrap();
        let (_, warm) = estimator
            .fit_with(&training, Some(&model), &mut FitWorkspace::new())
            .unwrap();
        for report in [&cold, &warm] {
            let n = report.iterations;
            assert_eq!(report.watchdog_restarts, 0);
            let want = format!("bootstrap:1 coefficient_step:{n} diagnostics:1 voltage_step:{n}");
            assert_eq!(calls(report), want);
        }

        let flat = Estimator::with_config(EstimatorConfig {
            estimate_voltages: false,
            ..EstimatorConfig::default()
        });
        let (_, report) = flat.fit_with_report(&training).unwrap();
        let n = report.iterations;
        let want = format!("bootstrap:1 coefficient_step:{n} diagnostics:1");
        assert_eq!(calls(&report), want);
    }

    #[test]
    fn rejects_insufficient_training() {
        let spec = devices::gtx_titan_x();
        let (mut training, _) = synthetic_training(&spec);
        training.samples.truncate(1);
        assert!(matches!(
            Estimator::new().fit(&training),
            Err(ModelError::InsufficientTraining(_))
        ));
    }

    #[test]
    fn report_history_is_nonincreasing_mostly() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let (_, report) = Estimator::new().fit_with_report(&training).unwrap();
        assert!(!report.rmse_history.is_empty());
        let first = report.rmse_history[0];
        let last = *report.rmse_history.last().unwrap();
        assert!(last <= first * 1.01, "RMSE went {first} -> {last}");
    }

    #[test]
    fn bootstrap_picks_nearest_neighbours() {
        let reference = FreqConfig::from_mhz(975, 3505);
        let configs = vec![
            FreqConfig::from_mhz(975, 3505),
            FreqConfig::from_mhz(937, 3505),
            FreqConfig::from_mhz(595, 3505),
            FreqConfig::from_mhz(975, 3300),
            FreqConfig::from_mhz(975, 810),
            FreqConfig::from_mhz(595, 810),
        ];
        let b = bootstrap_configs(reference, &configs);
        assert_eq!(
            b,
            vec![
                reference,
                FreqConfig::from_mhz(937, 3505),
                FreqConfig::from_mhz(975, 3300),
            ]
        );
    }

    #[test]
    fn minimize_quartic_finds_known_minimum() {
        // Single observation: minimize (b v + a v² - r)²; with b=1, a=1,
        // r=2 the residual vanishes at v=1.
        let v = minimize_quartic_slices(1.0, &[1.0], &[2.0], &[1.0]).unwrap();
        assert!((v - 1.0).abs() < 1e-9, "v = {v}");
        // Empty input yields nothing.
        assert_eq!(minimize_quartic_slices(1.0, &[], &[], &[]), None);
        // Unattainable negative target clamps at the lower bound.
        let v = minimize_quartic_slices(1.0, &[1.0], &[-100.0], &[1.0]).unwrap();
        assert_eq!(v, V_BOUNDS.0);
        // Weights shift the pooled optimum toward the heavy observation.
        let heavy_low =
            minimize_quartic_slices(1.0, &[1.0, 1.0], &[2.0, 6.0], &[10.0, 1.0]).unwrap();
        let heavy_high =
            minimize_quartic_slices(1.0, &[1.0, 1.0], &[2.0, 6.0], &[1.0, 10.0]).unwrap();
        assert!(heavy_low < heavy_high);
    }

    #[test]
    fn robust_fit_resists_corrupted_observations() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);

        // Corrupt ~2% of the observations with 4x spikes (deterministic
        // placement), the acceptance scenario's sensor-side fault.
        let mut corrupted = training.clone();
        let mut flat_index = 0usize;
        for s in corrupted.samples.iter_mut() {
            for w in s.power_by_config.values_mut() {
                if flat_index.is_multiple_of(47) {
                    *w *= 4.0;
                }
                flat_index += 1;
            }
        }

        let clean_model = Estimator::new().fit(&training).unwrap();
        let plain_model = Estimator::new().fit(&corrupted).unwrap();
        let robust_cfg = EstimatorConfig {
            robust: true,
            ..EstimatorConfig::default()
        };
        let (robust_model, report) = Estimator::with_config(robust_cfg)
            .fit_with_report(&corrupted)
            .unwrap();
        assert!(report.robust);
        assert!(report.robust_reweights > 0);

        // Judge each model against the *clean* measurements.
        let rmse_vs_clean = |model: &crate::PowerModel| -> f64 {
            let mut sse = 0.0;
            let mut n = 0usize;
            for s in &training.samples {
                for (&config, &watts) in &s.power_by_config {
                    let p = model.predict(&s.utilizations, config).unwrap();
                    sse += (p - watts) * (p - watts);
                    n += 1;
                }
            }
            (sse / n as f64).sqrt()
        };
        let clean = rmse_vs_clean(&clean_model);
        let plain = rmse_vs_clean(&plain_model);
        let robust = rmse_vs_clean(&robust_model);
        assert!(
            robust < plain,
            "Huber IRLS must beat plain LS on spiked data: robust {robust:.3} vs plain {plain:.3}"
        );
        assert!(
            robust <= (2.0 * clean).max(1.0),
            "robust fit under 2% spikes must stay within 2x the clean RMSE: \
             robust {robust:.3} vs clean {clean:.3}"
        );
    }

    #[test]
    fn explicit_component_drop_pins_its_coefficient_at_zero() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let cfg = EstimatorConfig {
            drop_components: vec![Component::Dp],
            ..EstimatorConfig::default()
        };
        let (model, report) = Estimator::with_config(cfg)
            .fit_with_report(&training)
            .unwrap();
        // Dp is CORE position 2 -> omegas[2].
        assert_eq!(model.core_params().omegas[2], 0.0);
        assert_eq!(report.degraded_components, vec![Component::Dp]);
        assert_eq!(
            report.coefficient_sigma[4], 0.0,
            "sigma pinned for Dp column"
        );
        // The reduced model still predicts finite, physical power.
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        let p = model.predict(&u, spec.default_config()).unwrap();
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn robust_mode_auto_drops_identically_zero_columns() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        // Zero the DRAM utilization everywhere: the signature a resilient
        // campaign leaves when the DRAM sector counters never existed.
        let mut degraded = training.clone();
        for s in degraded.samples.iter_mut() {
            let mut u = s.utilizations.as_array();
            u[Component::Dram.index()] = 0.0;
            s.utilizations = Utilizations::from_values(u).unwrap();
        }
        let cfg = EstimatorConfig {
            robust: true,
            ..EstimatorConfig::default()
        };
        let (model, report) = Estimator::with_config(cfg)
            .fit_with_report(&degraded)
            .unwrap();
        assert!(report.degraded_components.contains(&Component::Dram));
        assert_eq!(model.mem_params().omegas[0], 0.0);
        let u = Utilizations::from_values([0.2; 7]).unwrap();
        let p = model.predict(&u, FreqConfig::from_mhz(595, 810)).unwrap();
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn watchdog_restarts_then_gives_up_on_forced_divergence() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        // A pathological divergence threshold flags every iteration after
        // the first as divergent, forcing the watchdog through its damped
        // restarts and then a clean non-converged exit.
        let cfg = EstimatorConfig {
            divergence_factor: 1e-9,
            ..EstimatorConfig::default()
        };
        let (model, report) = Estimator::with_config(cfg.clone())
            .fit_with_report(&training)
            .unwrap();
        assert_eq!(report.watchdog_restarts, cfg.max_restarts);
        assert!(!report.converged);
        // Even a non-converged fit must hand back a usable model.
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        assert!(model
            .predict(&u, spec.default_config())
            .unwrap()
            .is_finite());
    }

    #[test]
    fn fit_time_cap_bounds_the_iteration_count() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let cfg = EstimatorConfig {
            max_fit_seconds: 1e-9,
            tolerance: 0.0, // never converge on tolerance
            ..EstimatorConfig::default()
        };
        let (_, report) = Estimator::with_config(cfg)
            .fit_with_report(&training)
            .unwrap();
        assert_eq!(
            report.iterations, 1,
            "the cap must trip after one iteration"
        );
        assert!(!report.converged);
    }

    #[test]
    fn relative_error_mode_fits_and_stays_accurate() {
        let spec = devices::gtx_titan_x();
        let (training, _) = synthetic_training(&spec);
        let cfg = EstimatorConfig {
            relative_error: true,
            ..EstimatorConfig::default()
        };
        let (_, report) = Estimator::with_config(cfg)
            .fit_with_report(&training)
            .unwrap();
        assert!(report.training_mape < 2.0, "MAPE {}", report.training_mape);
    }
}
