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
//! Utilizations are measured once, at the reference configuration
//! (Eqs. 8-10), so every Eq. 6/7 design row factors as `D(c) ⊙ z_k`:
//! `D(c) = [V̄c, V̄c²fc ×7, V̄m, V̄m²fm ×2]` depends only on the
//! configuration and its voltages, and `z_k = [1, u₁..u₆, u_dram]` only on
//! the kernel. Both steps therefore run on per-configuration moments of
//! the observations, built once per fit ([`FitWorkspace`]): the
//! coefficient step assembles the 11 × 11 Gram form `AᵀWA`, `AᵀWP` from
//! them at the current voltages and solves Lawson–Hanson on it, and each
//! configuration's quartic voltage objective is a quadratic form in them.
//! Neither step visits an observation; robust mode rebuilds the moments
//! whenever its Huber weights change.
//!
//! [`Estimator::fit_with`] takes the workspace (and an optional
//! warm-start model); a fit with a fresh workspace, a reused workspace,
//! or the plain [`Estimator::fit`] entry point produces bit-identical
//! models — the workspace only removes steady-state allocations. The
//! alternation runs on the calling thread, so the model is the same at
//! any `gpm-par` thread count.

use crate::workspace::{build_moments, FitWorkspace, Moments, Obs};
use crate::{DomainParams, ModelError, PhaseTimings, PowerModel, TrainingSet, VoltageTable};
use gpm_json::impl_json;
use gpm_linalg::batch::dot;
use gpm_linalg::{
    cubic_roots_into, isotonic_increasing_into, nnls_gram_with, spd_inverse_with, stats, Matrix,
};
use gpm_obs::SpanHandle;
use gpm_spec::{Component, FreqConfig};
use std::time::Instant;

/// Number of model coefficients: `[β₀, β₁, ω₁..ω₆, β₂, β₃, ω_mem]`.
pub const NUM_PARAMS: usize = 11;
/// Distinct entries of a kernel's design factor `z = [1, u₁..u₆, u_dram]`.
pub(crate) const NZ: usize = 8;
/// The `z` entry each design column multiplies: the static and idle
/// columns of both domains take the constant 1, the six core ω columns
/// their utilizations, and the memory ω column `u_dram`.
const ZMAP: [usize; NUM_PARAMS] = [0, 0, 1, 2, 3, 4, 5, 6, 0, 0, 7];
/// Sane physical bounds for normalized voltages during the search.
pub const V_BOUNDS: (f64, f64) = (0.25, 3.0);
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
        let relative = self.config.relative_error;
        self.build_base_moments(ws);

        // Voltage state: V̄ = (V̄core, V̄mem) per configuration (Eq. 12),
        // indexed by config index, seeded from the previous model when
        // warm-starting. Both steps read the voltages straight from here.
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
                // Cold start seeds every voltage at 1: the Eq. 11
                // bootstrap assumption V̄ ≡ 1.
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
                fit_voltages_ws(&self.config, reference, &x, ws);
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
        let (training_mape, coefficient_sigma) = diagnostics_ws(ws, &x, relative)?;
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

    /// Builds the per-configuration moments of the observations under
    /// their base weights, once per fit: both alternation steps read
    /// these instead of the observations.
    pub(crate) fn build_base_moments(&self, ws: &mut FitWorkspace) {
        let relative = self.config.relative_error;
        build_moments(
            &ws.obs,
            &ws.z,
            &ws.group_offsets,
            |_, o| base_weight(relative, o),
            &mut ws.moments,
        );
    }

    /// Linear coefficient solve (steps 1 and 3) on the Gram form of the
    /// weighted design at the current voltages, assembled from the
    /// per-configuration moments. `subset` restricts the observations to
    /// the bootstrap configurations (valid only while all voltages are 1,
    /// i.e. cold start — the design then carries the Eq. 11 assumption);
    /// dropped columns are excluded from the solve and pinned at zero; in
    /// robust mode the solve is followed by Huber IRLS reweighting passes
    /// (counted in `reweights`), each on moments rebuilt with its weights.
    pub(crate) fn solve_coefficients_ws(
        &self,
        ws: &mut FitWorkspace,
        subset: Option<&[FreqConfig]>,
        reweights: &mut usize,
        x_out: &mut [f64; NUM_PARAMS],
    ) -> Result<(), ModelError> {
        let in_subset = |config: &FreqConfig| subset.is_none_or(|s| s.contains(config));
        let n_obs: usize = ws
            .configs
            .iter()
            .zip(ws.group_offsets.windows(2))
            .filter(|(c, _)| in_subset(c))
            .map(|(_, g)| g[1] - g[0])
            .sum();
        if n_obs < NUM_PARAMS {
            return Err(ModelError::InsufficientTraining(
                "fewer observations than model coefficients",
            ));
        }
        let form = assemble_gram(ws, &ws.moments, subset, &ws.keep_cols);
        self.solve_gram(ws, &form, x_out)?;
        if self.config.robust && n_obs > NUM_PARAMS {
            // Huber IRLS: weighted residuals beyond k x (MAD-based scale)
            // get weight k·scale/|r| < 1, shrinking the pull of corrupted
            // observations without discarding them outright. Each pass
            // reweights the base moments afresh.
            let relative = self.config.relative_error;
            for _ in 0..ROBUST_ITERATIONS {
                predict_obs_ws(x_out, ws);
                let FitWorkspace {
                    obs,
                    z,
                    group_offsets,
                    configs,
                    pred,
                    resid,
                    abs,
                    reweighted,
                    ..
                } = &mut *ws;
                resid.clear();
                resid.extend(
                    obs.iter()
                        .zip(pred.iter())
                        .map(|(o, p)| row_scale(relative, o) * (p - o.watts)),
                );
                abs.clear();
                for (c, g) in configs.iter().zip(group_offsets.windows(2)) {
                    if in_subset(c) {
                        abs.extend(resid[g[0]..g[1]].iter().map(|r| r.abs()));
                    }
                }
                let cutoff = HUBER_K * mad_scale(abs);
                build_moments(
                    obs,
                    z,
                    group_offsets,
                    |i, o| base_weight(relative, o) * huber_weight(resid[i], cutoff),
                    reweighted,
                );
                let form = assemble_gram(ws, &ws.reweighted, subset, &ws.keep_cols);
                self.solve_gram(ws, &form, x_out)?;
                *reweights += 1;
            }
            gpm_obs::counter_add("estimator.robust_reweights", ROBUST_ITERATIONS as u64);
        }
        Ok(())
    }

    /// Solves the kept-column Gram form `form` into `x_out`, re-expanding
    /// with zeros so the coefficient layout never changes. The
    /// non-negative solve starts from the support of the `x_out` it
    /// overwrites: empty at the cold bootstrap, the previous model's on a
    /// warm refit, the last iterate's everywhere else. The ridge solve
    /// takes the normal equations `(AᵀWA + λI)·x = AᵀWP` of the
    /// ridge-augmented system.
    fn solve_gram(
        &self,
        ws: &mut FitWorkspace,
        form: &GramForm,
        x_out: &mut [f64; NUM_PARAMS],
    ) -> Result<(), ModelError> {
        let FitWorkspace {
            keep_cols: keep,
            gram,
            atb,
            nnls,
            inv,
            spd,
            ..
        } = ws;
        let k = keep.len();
        form.write_into(gram, atb);
        let mut xr = [0.0; NUM_PARAMS];
        if self.config.nonnegative {
            let mut start = [0; NUM_PARAMS];
            let mut len = 0;
            for (j, &col) in keep.iter().enumerate() {
                if x_out[col] > 0.0 {
                    start[len] = j;
                    len += 1;
                }
            }
            let x = nnls_gram_with(gram, atb, form.a_max, form.b_max, &start[..len], nnls)?;
            xr[..k].copy_from_slice(x);
        } else {
            for i in 0..k {
                gram[(i, i)] += RIDGE;
            }
            spd_inverse_with(gram, inv, spd)?;
            for (i, v) in xr[..k].iter_mut().enumerate() {
                *v = dot(inv.row(i), atb);
            }
        }
        x_out.fill(0.0);
        for (&i, &v) in keep.iter().zip(&xr[..k]) {
            x_out[i] = v;
        }
        Ok(())
    }
}

/// Each observation's least-squares row scale: 1 in the paper's
/// absolute-error mode, `1/P` in relative-error mode, which turns the
/// absolute least squares into a percentage least squares.
fn row_scale(relative: bool, o: &Obs) -> f64 {
    if relative {
        1.0 / o.watts.max(1e-6)
    } else {
        1.0
    }
}

/// Each observation's least-squares weight, the square of its
/// [`row_scale`].
fn base_weight(relative: bool, o: &Obs) -> f64 {
    let s = row_scale(relative, o);
    s * s
}

/// The per-configuration design scales `D(c)`: the Eq. 6/7 design row of
/// a kernel with factor `z` at `config` is `D(c)[j]·z[ZMAP[j]]`
/// (frequencies in GHz).
fn design_scales(config: FreqConfig, vc: f64, vm: f64) -> [f64; NUM_PARAMS] {
    let fc = config.core.as_f64() / 1000.0;
    let fm = config.mem.as_f64() / 1000.0;
    let core_dyn = vc * vc * fc;
    let mem_dyn = vm * vm * fm;
    [
        vc, core_dyn, core_dyn, core_dyn, core_dyn, core_dyn, core_dyn, core_dyn, vm, mem_dyn,
        mem_dyn,
    ]
}

/// A kernel's design factor `z = [1, u₁..u₆, u_dram]` (core components
/// in [`Component::CORE`] order).
pub(crate) fn kernel_factor(u: &[f64; 7]) -> [f64; NZ] {
    let mut z = [1.0; NZ];
    for (j, comp) in Component::CORE.iter().enumerate() {
        z[1 + j] = u[comp.index()];
    }
    z[NZ - 1] = u[Component::Dram.index()];
    z
}

/// The Gram form of a weighted design over `k` of its columns: `AᵀWA`
/// (row-major `k x k`) and `AᵀWP`, with the largest `|A|` entry over
/// those columns and the largest `|b|` entry of the weighted design it
/// stands for (the NNLS tolerance's scale).
struct GramForm {
    k: usize,
    g: [f64; NUM_PARAMS * NUM_PARAMS],
    h: [f64; NUM_PARAMS],
    a_max: f64,
    b_max: f64,
}

impl GramForm {
    fn write_into(&self, gram: &mut Matrix, atb: &mut Vec<f64>) {
        let k = self.k;
        gram.reshape(k, k);
        gram.as_mut_slice().copy_from_slice(&self.g[..k * k]);
        atb.clear();
        atb.extend_from_slice(&self.h[..k]);
    }
}

/// Assembles the Gram form of the coefficient step over the columns
/// `cols`: `AᵀWA = Σ_c (D(c)D(c)ᵀ) ⊙ Z_c` and `AᵀWP = Σ_c D(c) ⊙ m_c` at
/// the current voltages, summed over the configurations in `subset` (all
/// when `None`), from one [`Moments`] per configuration.
fn assemble_gram(
    ws: &FitWorkspace,
    moments: &[Moments],
    subset: Option<&[FreqConfig]>,
    cols: &[usize],
) -> GramForm {
    let k = cols.len();
    let mut form = GramForm {
        k,
        g: [0.0; NUM_PARAMS * NUM_PARAMS],
        h: [0.0; NUM_PARAMS],
        a_max: 0.0,
        b_max: 0.0,
    };
    for (i, m) in moments.iter().enumerate() {
        let config = ws.configs[i];
        if subset.is_some_and(|s| !s.contains(&config)) {
            continue;
        }
        let d = design_scales(config, ws.vcore[i], ws.vmem[i]);
        for (r, &ci) in cols.iter().enumerate() {
            let zr = &m.zz[ZMAP[ci] * NZ..(ZMAP[ci] + 1) * NZ];
            for (s, &cj) in cols.iter().enumerate().skip(r) {
                form.g[r * k + s] += d[ci] * d[cj] * zr[ZMAP[cj]];
            }
            form.h[r] += d[ci] * m.zp[ZMAP[ci]];
            form.a_max = form.a_max.max(d[ci].abs() * m.zmax[ZMAP[ci]]);
        }
        form.b_max = form.b_max.max(m.pmax);
    }
    for r in 1..k {
        for s in 0..r {
            form.g[r * k + s] = form.g[s * k + r];
        }
    }
    form
}

/// Predicted power of every observation at the current voltages and
/// `x`, into `ws.pred`: each configuration folds `D(c) ⊙ x` onto the
/// [`NZ`] kernel-factor entries, so a prediction is one dot product.
fn predict_obs_ws(x: &[f64; NUM_PARAMS], ws: &mut FitWorkspace) {
    let FitWorkspace {
        z,
        obs,
        group_offsets,
        configs,
        vcore,
        vmem,
        pred,
        ..
    } = ws;
    pred.clear();
    for (i, g) in group_offsets.windows(2).enumerate() {
        let d = design_scales(configs[i], vcore[i], vmem[i]);
        let mut y = [0.0; NZ];
        for j in 0..NUM_PARAMS {
            y[ZMAP[j]] += d[j] * x[j];
        }
        pred.extend(obs[g[0]..g[1]].iter().map(|o| dot(&y, &z[o.sample])));
    }
}

/// Weighted sums of one configuration's quartic voltage objective
/// `Σ wᵢ·(b·v + aᵢ·v² − rᵢ)²` (Eq. 12): `aᵢ` is an observation's
/// activity term times its domain frequency and `rᵢ` its power minus the
/// other domain's contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QuarticSums {
    /// `Σw`.
    w: f64,
    /// `Σw·a`.
    a: f64,
    /// `Σw·a²`.
    a2: f64,
    /// `Σw·a·r`.
    ar: f64,
    /// `Σw·r`.
    r: f64,
    /// `Σw·r²`.
    r2: f64,
}

impl QuarticSums {
    /// `Σ wᵢ·(b·v + aᵢ·v² − rᵢ)²`, expanded in the sums.
    fn objective(&self, b: f64, v: f64) -> f64 {
        let v2 = v * v;
        self.w * b * b * v2 + 2.0 * b * self.a * v2 * v + self.a2 * v2 * v2
            - 2.0 * (b * self.r * v + self.ar * v2)
            + self.r2
    }
}

/// One domain's activity coefficients `θ` (over `z`) folded into a
/// configuration's moments: `Σw·θ·z`, `θᵀZθ` and `θᵀm`.
#[derive(Debug, Clone, Copy)]
struct DomainForm {
    z0: f64,
    zz: f64,
    zp: f64,
}

/// A configuration's Eq. 12 objective as quadratic forms of its moments
/// in the core activity coefficients `α = (β₁, ω₁..ω₆)` and the memory
/// ones `γ = (β₃, ω_mem)`. With `X` fixed for the whole voltage step, the
/// forms are computed once per step, and every sweep's sums follow from
/// them in O(1).
#[derive(Debug, Clone, Copy)]
struct GroupForms {
    /// `Σw`.
    w: f64,
    /// `Σw·P`.
    p: f64,
    /// `Σw·P²`.
    pp: f64,
    core: DomainForm,
    mem: DomainForm,
    /// `αᵀZγ`.
    cross: f64,
}

impl GroupForms {
    fn new(m: &Moments, x: &[f64; NUM_PARAMS]) -> Self {
        // α over z = [1, u₁..u₆, u_dram]; γ has entries at 1 and u_dram.
        let mut alpha = [0.0; NZ];
        alpha[..7].copy_from_slice(&x[1..8]);
        let row = |e: usize| &m.zz[e * NZ..(e + 1) * NZ];
        let mut z_alpha = [0.0; NZ];
        for (e, v) in z_alpha.iter_mut().enumerate() {
            *v = dot(row(e), &alpha);
        }
        let z_gamma: [f64; NZ] =
            std::array::from_fn(|e| x[9] * m.zz[e * NZ] + x[10] * m.zz[e * NZ + NZ - 1]);
        GroupForms {
            w: m.zz[0],
            p: m.zp[0],
            pp: m.pp,
            core: DomainForm {
                z0: z_alpha[0],
                zz: dot(&alpha, &z_alpha),
                zp: dot(&alpha, &m.zp),
            },
            mem: DomainForm {
                z0: z_gamma[0],
                zz: x[9] * z_gamma[0] + x[10] * z_gamma[NZ - 1],
                zp: x[9] * m.zp[0] + x[10] * m.zp[NZ - 1],
            },
            cross: dot(&alpha, &z_gamma),
        }
    }

    /// The sums for one domain's voltage: `own` is that domain's form and
    /// `f` its frequency; the other domain contributes `p + q·(φ·z)` to
    /// every observation, `p` being its static term `β·v` and `q` its
    /// `v²f`.
    fn sums(&self, own: &DomainForm, other: &DomainForm, f: f64, p: f64, q: f64) -> QuarticSums {
        QuarticSums {
            w: self.w,
            a: f * own.z0,
            a2: f * f * own.zz,
            ar: f * (own.zp - (p * own.z0 + q * self.cross)),
            r: self.p - (p * self.w + q * other.z0),
            r2: self.pp - 2.0 * (p * self.p + q * other.zp)
                + (p * p * self.w + 2.0 * p * q * other.z0 + q * q * other.zz),
        }
    }
}

/// Voltage step (Eq. 12): coordinate descent with exact cubic stationary
/// points per configuration, on the configuration's moments, then
/// isotonic projection along the precomputed monotone chains. In robust
/// mode the moments are first rebuilt with the current Huber weights.
/// Configurations solve one after another, each writing its voltages in
/// place: a configuration's solve reads only its own two voltages, so
/// the order cannot change the result, and all sweeps of one
/// configuration run back to back.
fn fit_voltages_ws(
    cfg: &EstimatorConfig,
    reference: FreqConfig,
    x: &[f64; NUM_PARAMS],
    ws: &mut FitWorkspace,
) {
    if cfg.robust {
        let relative = cfg.relative_error;
        let FitWorkspace {
            obs,
            z,
            group_offsets,
            obs_weights,
            reweighted,
            ..
        } = &mut *ws;
        build_moments(
            obs,
            z,
            group_offsets,
            |i, o| base_weight(relative, o) * obs_weights[i],
            reweighted,
        );
    }
    let FitWorkspace {
        configs,
        moments,
        reweighted,
        vcore,
        vmem,
        ..
    } = &mut *ws;
    let moments = if cfg.robust { &*reweighted } else { &*moments };
    let mut solved = 0u64;
    for (g, &config) in configs.iter().enumerate() {
        if config == reference {
            continue; // pinned at (1, 1) by normalization
        }
        let fc = config.core.as_f64() / 1000.0;
        let fm = config.mem.as_f64() / 1000.0;
        let forms = GroupForms::new(&moments[g], x);
        let (mut vc, mut vm) = (vcore[g], vmem[g]);
        for _ in 0..VOLTAGE_SWEEPS {
            // Core voltage given the current memory voltage, then the
            // memory voltage given the updated core voltage.
            let core = forms.sums(&forms.core, &forms.mem, fc, x[8] * vm, fm * vm * vm);
            vc = minimize_quartic(x[0], &core);
            let mem = forms.sums(&forms.mem, &forms.core, fm, x[0] * vc, fc * vc * vc);
            vm = minimize_quartic(x[8], &mem);
        }
        vcore[g] = vc;
        vmem[g] = vm;
        solved += 1;
    }
    gpm_obs::counter_add("estimator.voltage_solves", VOLTAGE_SWEEPS as u64 * solved);
    if cfg.enforce_monotonic_voltage {
        project_monotone_ws(ws);
    }
}

/// Monotone projection (Eq. 12 constraint) along the chains `prepare`
/// precomputed: per memory level, `V̄core` non-decreasing in core
/// frequency; per core level, `V̄mem` non-decreasing in memory frequency.
/// Reference entries carry a huge weight, pinning them at 1.
fn project_monotone_ws(ws: &mut FitWorkspace) {
    let FitWorkspace {
        core_chain_offsets,
        core_chains,
        core_pins,
        mem_chain_offsets,
        mem_chains,
        mem_pins,
        vcore,
        vmem,
        chain_vals,
        chain_fit,
        iso,
        ..
    } = ws;
    for (offsets, chains, pins, v) in [
        (&*core_chain_offsets, &*core_chains, &*core_pins, vcore),
        (&*mem_chain_offsets, &*mem_chains, &*mem_pins, vmem),
    ] {
        for w in offsets.windows(2) {
            let chain = &chains[w[0]..w[1]];
            chain_vals.clear();
            chain_vals.extend(chain.iter().map(|&g| v[g]));
            isotonic_increasing_into(chain_vals, &pins[w[0]..w[1]], iso, chain_fit);
            for (&g, &fit) in chain.iter().zip(chain_fit.iter()) {
                v[g] = fit;
            }
        }
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
pub fn design_row(u: &[f64; 7], config: FreqConfig, vc: f64, vm: f64) -> [f64; NUM_PARAMS] {
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

/// Minimizes `Σ wᵢ·(b·v + aᵢ·v² − rᵢ)²` over `v ∈ V_BOUNDS` exactly: the
/// derivative is a cubic whose real roots are closed form, and the
/// objective at each candidate follows from the same sums.
fn minimize_quartic(b: f64, s: &QuarticSums) -> f64 {
    let c3 = 2.0 * s.a2;
    let c2 = 3.0 * b * s.a;
    let c1 = s.w * b * b - 2.0 * s.ar;
    let c0 = -b * s.r;
    let mut best: Option<(f64, f64)> = None;
    let mut consider = |v: f64| {
        if v.is_finite() {
            let clamped = v.clamp(V_BOUNDS.0, V_BOUNDS.1);
            let g = s.objective(b, clamped);
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
    best.map_or(V_BOUNDS.0, |(v, _)| v)
}

/// The MAD-based residual scale `1.4826·median(|r|)` of `abs` (the
/// absolute residuals, reordered in place), floored at 1e-9.
fn mad_scale(abs: &mut [f64]) -> f64 {
    let mid = abs.len() / 2;
    let (_, median, _) = abs.select_nth_unstable_by(mid, f64::total_cmp);
    (1.4826 * *median).max(1e-9)
}

/// Per-observation Huber weights under the current iterate: 1 inside
/// `HUBER_K x` the MAD-based residual scale, shrinking as
/// `HUBER_K·scale/|r|` beyond.
fn huber_weights_ws(x: &[f64; NUM_PARAMS], ws: &mut FitWorkspace) {
    predict_obs_ws(x, ws);
    let FitWorkspace {
        obs,
        pred,
        resid,
        abs,
        obs_weights,
        ..
    } = ws;
    resid.clear();
    resid.extend(pred.iter().zip(obs.iter()).map(|(p, o)| p - o.watts));
    abs.clear();
    abs.extend(resid.iter().map(|r| r.abs()));
    let cutoff = HUBER_K * mad_scale(abs);
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

/// Training RMSE under the current parameters, weighted by the
/// observation weights (all ones outside robust mode, where this reduces
/// to the plain RMSE). In robust mode the weights keep quarantine
/// survivors from dominating the convergence test: without them the
/// constant spike residuals swamp the RMSE and the relative-change
/// stopping rule fires while the good-data fit is still improving.
fn rmse_of_ws(x: &[f64; NUM_PARAMS], ws: &mut FitWorkspace) -> f64 {
    predict_obs_ws(x, ws);
    let mut sse = 0.0;
    let mut denom = 0.0;
    for ((o, &w), &p) in ws.obs.iter().zip(&ws.obs_weights).zip(&ws.pred) {
        let e = p - o.watts;
        sse += w * e * e;
        denom += w;
    }
    (sse / denom.max(1e-12)).sqrt()
}

/// Fit diagnostics at the final voltages: the training MAPE from one
/// prediction pass, and the per-coefficient standard errors from
/// `σ²·(AᵀA)⁻¹` (a diagnostic, not part of the model), with `AᵀA`
/// assembled from unweighted moments — the base moments themselves
/// unless relative-error mode weighted them.
fn diagnostics_ws(
    ws: &mut FitWorkspace,
    x: &[f64; NUM_PARAMS],
    relative: bool,
) -> Result<(f64, Vec<f64>), ModelError> {
    predict_obs_ws(x, ws);
    ws.meas.clear();
    ws.meas.extend(ws.obs.iter().map(|o| o.watts));
    let training_mape = stats::mape(&ws.pred, &ws.meas)?;

    const ALL_COLUMNS: [usize; NUM_PARAMS] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
    if relative {
        let FitWorkspace {
            obs,
            z,
            group_offsets,
            reweighted,
            ..
        } = &mut *ws;
        build_moments(obs, z, group_offsets, |_, _| 1.0, reweighted);
    }
    let unweighted = if relative {
        &ws.reweighted
    } else {
        &ws.moments
    };
    let form = assemble_gram(ws, unweighted, None, &ALL_COLUMNS);
    form.write_into(&mut ws.gram, &mut ws.atb);
    let FitWorkspace {
        obs,
        pred,
        meas,
        gram: ata,
        inv,
        spd,
        drop_cols,
        ..
    } = ws;
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
    use crate::{MicrobenchSample, Utilizations};
    use gpm_spec::{devices, DeviceSpec, Domain, Mhz};
    use std::collections::BTreeMap;

    /// Scalar design-row product: tests build ground truth and the
    /// explicit-design reference with it.
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

    /// The six quartic sums of per-observation slices `aᵢ`, `rᵢ`, `wᵢ`.
    fn sums_of(a: &[f64], r: &[f64], w: &[f64]) -> QuarticSums {
        let mut s = QuarticSums {
            w: 0.0,
            a: 0.0,
            a2: 0.0,
            ar: 0.0,
            r: 0.0,
            r2: 0.0,
        };
        for ((&ai, &ri), &wi) in a.iter().zip(r).zip(w) {
            s.w += wi;
            s.a += wi * ai;
            s.a2 += wi * ai * ai;
            s.ar += wi * ai * ri;
            s.r += wi * ri;
            s.r2 += wi * ri * ri;
        }
        s
    }

    #[test]
    fn minimize_quartic_finds_known_minimum() {
        // Single observation: minimize (b v + a v² - r)²; with b=1, a=1,
        // r=2 the residual vanishes at v=1.
        let v = minimize_quartic(1.0, &sums_of(&[1.0], &[2.0], &[1.0]));
        assert!((v - 1.0).abs() < 1e-9, "v = {v}");
        // The objective at the minimum is the (zero) residual.
        let s = sums_of(&[1.0], &[2.0], &[1.0]);
        assert!(s.objective(1.0, v).abs() < 1e-9);
        // Unattainable negative target clamps at the lower bound.
        let v = minimize_quartic(1.0, &sums_of(&[1.0], &[-100.0], &[1.0]));
        assert_eq!(v, V_BOUNDS.0);
        // Weights shift the pooled optimum toward the heavy observation.
        let heavy_low = minimize_quartic(1.0, &sums_of(&[1.0, 1.0], &[2.0, 6.0], &[10.0, 1.0]));
        let heavy_high = minimize_quartic(1.0, &sums_of(&[1.0, 1.0], &[2.0, 6.0], &[1.0, 10.0]));
        assert!(heavy_low < heavy_high);
    }

    /// A microbenchmark campaign on a simulated card, without the
    /// profiler: each kernel's true utilizations at the reference and its
    /// measured power at every grid configuration.
    fn simulated_training(spec: &DeviceSpec, seed: u64) -> TrainingSet {
        let mut gpu = gpm_sim::SimulatedGpu::new(spec.clone(), seed);
        let reference = spec.default_config();
        let grid = spec.vf_grid();
        let samples = gpm_workloads::microbenchmark_suite(spec)
            .iter()
            .map(|kernel| {
                gpu.set_clocks(reference).unwrap();
                let utilizations = Utilizations::from_values(gpu.execute(kernel).utilizations)
                    .expect("true utilizations are in range");
                let power_by_config = grid
                    .iter()
                    .map(|&c| {
                        gpu.set_clocks(c).unwrap();
                        (c, gpu.measure_power(kernel).unwrap().watts)
                    })
                    .collect();
                MicrobenchSample {
                    name: kernel.name().to_string(),
                    utilizations,
                    power_by_config,
                }
            })
            .collect();
        TrainingSet {
            device: spec.clone(),
            reference,
            l2_bytes_per_cycle: 640.0,
            samples,
        }
    }

    /// The three paper GPUs' simulated campaigns at two seeds each, built
    /// once for every test that reads them.
    fn paper_campaigns() -> &'static [(String, TrainingSet)] {
        static CAMPAIGNS: std::sync::OnceLock<Vec<(String, TrainingSet)>> =
            std::sync::OnceLock::new();
        CAMPAIGNS.get_or_init(|| {
            let mut out = Vec::new();
            for spec in [
                devices::gtx_titan_x(),
                devices::titan_xp(),
                devices::tesla_k40c(),
            ] {
                for seed in [42, 7] {
                    out.push((
                        format!("{} seed {seed}", spec.name()),
                        simulated_training(&spec, seed),
                    ));
                }
            }
            out
        })
    }

    /// Reference coefficient step on the explicit design, as the QR path
    /// solved it: one row per observation at the workspace's voltages,
    /// scaled by its row scale, kept columns only, `nnls_with` from the
    /// support of `x`; in robust mode followed by Huber IRLS passes on
    /// the rows rescaled by `√huber`.
    fn panel_coefficient_step(
        cfg: &EstimatorConfig,
        training: &TrainingSet,
        ws: &FitWorkspace,
        x: &mut [f64; NUM_PARAMS],
    ) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (g, bounds) in ws.group_offsets.windows(2).enumerate() {
            for o in &ws.obs[bounds[0]..bounds[1]] {
                let u = training.samples[o.sample].utilizations.as_array();
                let row = design_row(&u, ws.configs[g], ws.vcore[g], ws.vmem[g]);
                let s = row_scale(cfg.relative_error, o);
                rows.push(row.map(|v| v * s));
                y.push(o.watts * s);
            }
        }
        let solve = |rows: &[[f64; NUM_PARAMS]], y: &[f64], x: &mut [f64; NUM_PARAMS]| {
            let keep = &ws.keep_cols;
            let a = gpm_linalg::Matrix::from_fn(rows.len(), keep.len(), |i, j| rows[i][keep[j]]);
            let start: Vec<usize> = (0..keep.len()).filter(|&j| x[keep[j]] > 0.0).collect();
            let mut nnls_ws = gpm_linalg::NnlsWorkspace::new();
            let xr = gpm_linalg::nnls_with(&a, y, &start, &mut nnls_ws).unwrap();
            x.fill(0.0);
            for (&i, &v) in keep.iter().zip(xr) {
                x[i] = v;
            }
        };
        solve(&rows, &y, x);
        if cfg.robust {
            for _ in 0..ROBUST_ITERATIONS {
                let resid: Vec<f64> = rows
                    .iter()
                    .zip(&y)
                    .map(|(row, yi)| dot(row, &x[..]) - yi)
                    .collect();
                let mut abs: Vec<f64> = resid.iter().map(|r| r.abs()).collect();
                abs.sort_unstable_by(f64::total_cmp);
                let cutoff = HUBER_K * (1.4826 * abs[abs.len() / 2]).max(1e-9);
                let (wrows, wy): (Vec<_>, Vec<_>) = rows
                    .iter()
                    .zip(&y)
                    .zip(&resid)
                    .map(|((row, yi), r)| {
                        let s = huber_weight(*r, cutoff).sqrt();
                        (row.map(|v| v * s), yi * s)
                    })
                    .unzip();
                solve(&wrows, &wy, x);
            }
        }
    }

    #[test]
    fn moment_form_coefficient_step_matches_the_qr_path() {
        let cases = [
            ("absolute", EstimatorConfig::default()),
            (
                "relative",
                EstimatorConfig {
                    relative_error: true,
                    ..EstimatorConfig::default()
                },
            ),
            (
                "dropped Dp",
                EstimatorConfig {
                    drop_components: vec![Component::Dp],
                    ..EstimatorConfig::default()
                },
            ),
            (
                "robust",
                EstimatorConfig {
                    robust: true,
                    ..EstimatorConfig::default()
                },
            ),
        ];
        for (label, training) in paper_campaigns() {
            for (mode, cfg) in &cases {
                let estimator = Estimator::with_config(cfg.clone());
                let mut ws = FitWorkspace::new();
                estimator.fit_with(training, None, &mut ws).unwrap();
                // From the fitted voltages, both steps solve cold.
                let mut moment = [0.0; NUM_PARAMS];
                let mut reweights = 0;
                estimator
                    .solve_coefficients_ws(&mut ws, None, &mut reweights, &mut moment)
                    .unwrap();
                let mut panel = [0.0; NUM_PARAMS];
                panel_coefficient_step(cfg, training, &ws, &mut panel);
                let scale = panel.iter().fold(0.0f64, |s, v| s.max(v.abs()));
                for j in 0..NUM_PARAMS {
                    assert!(
                        (moment[j] - panel[j]).abs() <= 1e-9 * scale,
                        "{label}, {mode}: x[{j}] moment form {} vs QR path {}",
                        moment[j],
                        panel[j]
                    );
                }
                assert_eq!(reweights, if cfg.robust { ROBUST_ITERATIONS } else { 0 });
            }
        }
    }

    /// The per-observation quartic minimizer the moment form replaced:
    /// `Σ wᵢ·(b·v + aᵢ·v² − rᵢ)²` over `v ∈ V_BOUNDS`, its cubic from sums
    /// over the slices and each candidate's objective evaluated
    /// observation by observation.
    fn minimize_quartic_slices(b: f64, a: &[f64], r: &[f64], w: &[f64]) -> f64 {
        let s = sums_of(a, r, w);
        let objective = |v: f64| -> f64 {
            let mut g = 0.0;
            for i in 0..a.len() {
                let e = b * v + a[i] * v * v - r[i];
                g += w[i] * e * e;
            }
            g
        };
        let mut roots = [0.0; 3];
        let n = cubic_roots_into(
            2.0 * s.a2,
            3.0 * b * s.a,
            s.w * b * b - 2.0 * s.ar,
            -b * s.r,
            &mut roots,
        );
        let mut best: Option<(f64, f64)> = None;
        for v in roots[..n].iter().copied().chain([V_BOUNDS.0, V_BOUNDS.1]) {
            if v.is_finite() {
                let clamped = v.clamp(V_BOUNDS.0, V_BOUNDS.1);
                let g = objective(clamped);
                if best.is_none_or(|(_, bg)| g < bg) {
                    best = Some((clamped, g));
                }
            }
        }
        best.expect("the bounds are candidates").0
    }

    /// Reference voltage sweeps on per-observation slices, then the same
    /// monotone projection; returns the new `(V̄core, V̄mem)` and leaves
    /// the workspace's voltages as it found them.
    fn slice_voltage_step(
        cfg: &EstimatorConfig,
        training: &TrainingSet,
        x: &[f64; NUM_PARAMS],
        ws: &mut FitWorkspace,
    ) -> (Vec<f64>, Vec<f64>) {
        let start = (ws.vcore.clone(), ws.vmem.clone());
        let activity = |sample: usize| {
            let u = training.samples[sample].utilizations.as_array();
            let mut a = x[1];
            for (j, comp) in Component::CORE.iter().enumerate() {
                a += x[2 + j] * u[comp.index()];
            }
            (a, x[9] + x[10] * u[Component::Dram.index()])
        };
        for (g, &config) in ws.configs.clone().iter().enumerate() {
            if config == training.reference {
                continue;
            }
            let fc = config.core.as_f64() / 1000.0;
            let fm = config.mem.as_f64() / 1000.0;
            let group = &ws.obs[ws.group_offsets[g]..ws.group_offsets[g + 1]];
            let weights: Vec<f64> = group
                .iter()
                .enumerate()
                .map(|(k, o)| {
                    let robust = if cfg.robust {
                        ws.obs_weights[ws.group_offsets[g] + k]
                    } else {
                        1.0
                    };
                    base_weight(cfg.relative_error, o) * robust
                })
                .collect();
            let (mut vc, mut vm) = (ws.vcore[g], ws.vmem[g]);
            for _ in 0..VOLTAGE_SWEEPS {
                let (a, r): (Vec<f64>, Vec<f64>) = group
                    .iter()
                    .map(|o| {
                        let (ca, ma) = activity(o.sample);
                        (ca * fc, o.watts - (x[8] * vm + ma * fm * vm * vm))
                    })
                    .unzip();
                vc = minimize_quartic_slices(x[0], &a, &r, &weights);
                let (a, r): (Vec<f64>, Vec<f64>) = group
                    .iter()
                    .map(|o| {
                        let (ca, ma) = activity(o.sample);
                        (ma * fm, o.watts - (x[0] * vc + ca * fc * vc * vc))
                    })
                    .unzip();
                vm = minimize_quartic_slices(x[8], &a, &r, &weights);
            }
            ws.vcore[g] = vc;
            ws.vmem[g] = vm;
        }
        if cfg.enforce_monotonic_voltage {
            project_monotone_ws(ws);
        }
        let out = (ws.vcore.clone(), ws.vmem.clone());
        (ws.vcore, ws.vmem) = start;
        out
    }

    /// The fitted coefficient vector of a model.
    fn coefficients(model: &PowerModel) -> [f64; NUM_PARAMS] {
        let mut x = [0.0; NUM_PARAMS];
        x[0] = model.core_params().static_coef;
        x[1] = model.core_params().idle_dyn;
        x[2..8].copy_from_slice(&model.core_params().omegas);
        x[8] = model.mem_params().static_coef;
        x[9] = model.mem_params().idle_dyn;
        x[10] = model.mem_params().omegas[0];
        x
    }

    #[test]
    fn moment_form_voltage_step_matches_the_slice_step() {
        for (label, training) in paper_campaigns() {
            for robust in [false, true] {
                let cfg = EstimatorConfig {
                    robust,
                    relative_error: robust,
                    ..EstimatorConfig::default()
                };
                let mut ws = FitWorkspace::new();
                let (model, _) = Estimator::with_config(cfg.clone())
                    .fit_with(training, None, &mut ws)
                    .unwrap();
                let x = coefficients(&model);
                if robust {
                    huber_weights_ws(&x, &mut ws);
                    assert!(ws.obs_weights.iter().any(|&w| w < 1.0), "{label}");
                }
                let (vc_ref, vm_ref) = slice_voltage_step(&cfg, training, &x, &mut ws);
                fit_voltages_ws(&cfg, training.reference, &x, &mut ws);
                for (g, config) in ws.configs.iter().enumerate() {
                    for (got, want) in [(ws.vcore[g], vc_ref[g]), (ws.vmem[g], vm_ref[g])] {
                        assert!(
                            (got - want).abs() <= 1e-12,
                            "{label}, robust {robust}, {config}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_forms_reproduce_the_per_observation_sums() {
        let spec = devices::gtx_titan_x();
        let training = simulated_training(&spec, 42);
        let mut ws = FitWorkspace::new();
        let (model, _) = Estimator::new().fit_with(&training, None, &mut ws).unwrap();
        let x = coefficients(&model);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * got.abs().max(want.abs());
        for (g, &config) in ws.configs.iter().enumerate() {
            let fc = config.core.as_f64() / 1000.0;
            let fm = config.mem.as_f64() / 1000.0;
            let (vc, vm) = (ws.vcore[g], ws.vmem[g]);
            let group = &ws.obs[ws.group_offsets[g]..ws.group_offsets[g + 1]];
            let z = |o: &Obs| ws.z[o.sample];
            let alpha = |o: &Obs| gpm_linalg::batch::dot(&x[1..8], &z(o)[..7]);
            let gamma = |o: &Obs| x[9] + x[10] * z(o)[NZ - 1];
            let core: (Vec<f64>, Vec<f64>) = group
                .iter()
                .map(|o| {
                    (
                        alpha(o) * fc,
                        o.watts - (x[8] * vm + gamma(o) * fm * vm * vm),
                    )
                })
                .unzip();
            let mem: (Vec<f64>, Vec<f64>) = group
                .iter()
                .map(|o| {
                    (
                        gamma(o) * fm,
                        o.watts - (x[0] * vc + alpha(o) * fc * vc * vc),
                    )
                })
                .unzip();
            let forms = GroupForms::new(&ws.moments[g], &x);
            let steps = [
                (
                    x[0],
                    core,
                    forms.sums(&forms.core, &forms.mem, fc, x[8] * vm, fm * vm * vm),
                ),
                (
                    x[8],
                    mem,
                    forms.sums(&forms.mem, &forms.core, fm, x[0] * vc, fc * vc * vc),
                ),
            ];
            for (b, (a, r), got) in steps {
                let want = sums_of(&a, &r, &vec![1.0; a.len()]);
                let fields = |s: QuarticSums| [s.w, s.a, s.a2, s.ar, s.r, s.r2];
                for (k, (gv, wv)) in fields(got).into_iter().zip(fields(want)).enumerate() {
                    assert!(close(gv, wv), "{config}: sum {k}: {gv} vs {wv}");
                }
                // The objective from the sums is the group's squared error.
                for v in [0.5, 1.0, 1.5] {
                    let direct: f64 = a
                        .iter()
                        .zip(&r)
                        .map(|(ai, ri)| (b * v + ai * v * v - ri).powi(2))
                        .sum();
                    let from_sums = got.objective(b, v);
                    assert!(
                        (from_sums - direct).abs() <= 1e-9 * direct.max(1.0),
                        "{config}: objective at {v}: {from_sums} vs {direct}"
                    );
                }
            }
        }
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
