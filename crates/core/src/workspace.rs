//! Reusable fit-path scratch: one [`FitWorkspace`] owns every buffer
//! the iterative estimator needs, so repeated fits — periodic warm
//! recalibration, cross-validation folds, benchmark loops — stop
//! allocating once the buffers have grown to the problem size.
//!
//! The workspace never changes *what* the estimator computes: every
//! helper that routes through it performs the same floating-point
//! operations in the same order as the original allocating code, so a
//! fit with a fresh workspace, a reused workspace, or the plain
//! [`crate::Estimator::fit`] entry point produces bit-identical models.

use crate::estimator::{NUM_PARAMS, PIN_WEIGHT};
use crate::TrainingSet;
use gpm_linalg::{IsotonicWorkspace, LstsqWorkspace, Matrix, NnlsWorkspace, SpdInverseWorkspace};
use gpm_spec::{FreqConfig, Mhz};

/// Flattened observation: one `(microbenchmark, configuration)` power
/// measurement. `sample` indexes into the *original* training set, so a
/// masked (cross-validation fold) fit shares the owning set untouched.
#[derive(Debug)]
pub(crate) struct Obs {
    pub(crate) sample: usize,
    pub(crate) config: FreqConfig,
    pub(crate) watts: f64,
}

/// Scratch for the Eq. 12 voltage solves: one configuration group's
/// gathered slices and quartic-minimizer inputs, reused across groups,
/// sweeps and iterations.
#[derive(Debug, Default)]
pub(crate) struct GroupScratch {
    /// Core activity terms `A_i` for the group's observations.
    pub(crate) a_acts: Vec<f64>,
    /// Memory activity terms `B_i`.
    pub(crate) b_acts: Vec<f64>,
    /// Measured powers.
    pub(crate) watts: Vec<f64>,
    /// Observation weights (relative-error base x Huber weight).
    pub(crate) weights: Vec<f64>,
    /// Cross-domain residuals from `domain_residuals_into`.
    pub(crate) resid: Vec<f64>,
    /// Quadratic coefficients `aᵢ` handed to the quartic minimizer.
    pub(crate) coef: Vec<f64>,
}

/// Reusable solver state for [`crate::Estimator`] fits.
///
/// Create one with [`FitWorkspace::new`] and pass it to
/// [`crate::Estimator::fit_with`], cold or warm. The first fit sizes
/// every buffer ("warm-up"); subsequent fits over same-shaped training
/// sets perform zero steady-state heap allocations in the alternation
/// loop, at any `gpm-par` thread count: the loop runs on the calling
/// thread. Results are bit-identical to a fit through a fresh workspace.
#[derive(Debug, Default)]
pub struct FitWorkspace {
    // --- per-fit problem layout (rebuilt by `prepare`) ---
    pub(crate) obs: Vec<Obs>,
    /// Config index (into `configs`) per observation.
    pub(crate) obs_cfg: Vec<usize>,
    /// Covered configurations, ascending — the same list
    /// `TrainingSet::configs()` yields for the (masked) sample set.
    pub(crate) configs: Vec<FreqConfig>,
    /// CSR observation groups, one per configuration, observation
    /// indices in flatten order.
    pub(crate) group_offsets: Vec<usize>,
    pub(crate) group_items: Vec<usize>,
    pub(crate) group_cursor: Vec<usize>,
    /// Monotone-projection chains: per memory level, the config indices
    /// ascending in core frequency (for `V̄core`), and per core level
    /// ascending in memory frequency (for `V̄mem`), with the isotonic
    /// pin weights aligned element-for-element.
    pub(crate) mems: Vec<Mhz>,
    pub(crate) cores: Vec<Mhz>,
    pub(crate) core_chain_offsets: Vec<usize>,
    pub(crate) core_chains: Vec<usize>,
    pub(crate) core_pins: Vec<f64>,
    pub(crate) mem_chain_offsets: Vec<usize>,
    pub(crate) mem_chains: Vec<usize>,
    pub(crate) mem_pins: Vec<f64>,
    /// Dropped / kept design columns for degraded-component fits.
    pub(crate) drop_cols: Vec<usize>,
    pub(crate) keep_cols: Vec<usize>,

    // --- voltage state, indexed by config index ---
    pub(crate) vcore: Vec<f64>,
    pub(crate) vmem: Vec<f64>,

    // --- the design panel: one Eq. 6/7 row per observation at the
    // current voltages. Refilled after every voltage mutation (seeding,
    // each voltage step, watchdog damping) and trusted in between by
    // the coefficient solve, the RMSE/Huber passes and diagnostics. ---
    pub(crate) panel: Vec<f64>,

    // --- coefficient-solve scratch ---
    /// Weighted design rows (full `NUM_PARAMS` width) and targets.
    pub(crate) rows: Vec<f64>,
    pub(crate) y: Vec<f64>,
    /// Huber-reweighted copies (IRLS always rescales the originals).
    pub(crate) wrows: Vec<f64>,
    pub(crate) wy: Vec<f64>,
    pub(crate) a: Matrix,
    pub(crate) nnls: NnlsWorkspace,
    pub(crate) lstsq: LstsqWorkspace,

    // --- per-iteration scratch ---
    pub(crate) obs_weights: Vec<f64>,
    pub(crate) pred: Vec<f64>,
    pub(crate) resid: Vec<f64>,
    pub(crate) abs: Vec<f64>,
    /// Per-sample activity terms `(A, B)`, indexed by original sample.
    pub(crate) act_a: Vec<f64>,
    pub(crate) act_b: Vec<f64>,
    pub(crate) group_scratch: GroupScratch,
    /// Monotone-projection gather/output buffers.
    pub(crate) chain_vals: Vec<f64>,
    pub(crate) chain_fit: Vec<f64>,
    pub(crate) iso: IsotonicWorkspace,

    // --- diagnostics scratch ---
    pub(crate) meas: Vec<f64>,
    pub(crate) amat: Matrix,
    pub(crate) at: Matrix,
    pub(crate) ata: Matrix,
    pub(crate) inv: Matrix,
    pub(crate) spd: SpdInverseWorkspace,
}

impl FitWorkspace {
    /// Creates an empty workspace; every buffer grows on first use.
    pub fn new() -> Self {
        FitWorkspace::default()
    }

    /// Rebuilds the per-fit problem layout: flattened observations
    /// (honoring the optional sample mask), the sorted configuration
    /// list, CSR observation groups and the monotone-projection chains.
    /// Only reads the buffers it overwrites, so a reused workspace sees
    /// no stale state.
    pub(crate) fn prepare(&mut self, training: &TrainingSet, kept: Option<&[bool]>) {
        let reference = training.reference;
        self.obs.clear();
        for (i, s) in training.samples.iter().enumerate() {
            if let Some(mask) = kept {
                if !mask[i] {
                    continue;
                }
            }
            for (&config, &watts) in &s.power_by_config {
                self.obs.push(Obs {
                    sample: i,
                    config,
                    watts,
                });
            }
        }

        // Same list `TrainingSet::configs()` computes for the kept
        // samples: sorted ascending, deduplicated.
        self.configs.clear();
        self.configs.extend(self.obs.iter().map(|o| o.config));
        self.configs.sort_unstable();
        self.configs.dedup();

        self.obs_cfg.clear();
        for o in &self.obs {
            let g = self
                .configs
                .binary_search(&o.config)
                .expect("every observation's config is in the sorted list");
            self.obs_cfg.push(g);
        }

        // CSR groups in (config ascending, observation order) — exactly
        // the iteration order of the former per-call
        // `BTreeMap<FreqConfig, Vec<usize>>` grouping.
        let ncfg = self.configs.len();
        self.group_offsets.clear();
        self.group_offsets.resize(ncfg + 1, 0);
        for &g in &self.obs_cfg {
            self.group_offsets[g + 1] += 1;
        }
        for i in 0..ncfg {
            self.group_offsets[i + 1] += self.group_offsets[i];
        }
        self.group_items.clear();
        self.group_items.resize(self.obs.len(), 0);
        self.group_cursor.clear();
        self.group_cursor
            .extend_from_slice(&self.group_offsets[..ncfg]);
        for (i, &g) in self.obs_cfg.iter().enumerate() {
            self.group_items[self.group_cursor[g]] = i;
            self.group_cursor[g] += 1;
        }

        // Monotone-projection chains: fixed per fit, so the per-call key
        // collection/sort the old projection did is hoisted here.
        self.mems.clear();
        self.mems.extend(self.configs.iter().map(|c| c.mem));
        self.mems.sort_unstable();
        self.mems.dedup();
        self.cores.clear();
        self.cores.extend(self.configs.iter().map(|c| c.core));
        self.cores.sort_unstable();
        self.cores.dedup();

        self.core_chain_offsets.clear();
        self.core_chain_offsets.push(0);
        self.core_chains.clear();
        self.core_pins.clear();
        for &mem in &self.mems {
            let start = self.core_chains.len();
            for (g, c) in self.configs.iter().enumerate() {
                if c.mem == mem {
                    self.core_chains.push(g);
                }
            }
            self.core_chains[start..].sort_unstable_by_key(|&g| self.configs[g].core);
            for &g in &self.core_chains[start..] {
                self.core_pins.push(if self.configs[g] == reference {
                    PIN_WEIGHT
                } else {
                    1.0
                });
            }
            self.core_chain_offsets.push(self.core_chains.len());
        }

        self.mem_chain_offsets.clear();
        self.mem_chain_offsets.push(0);
        self.mem_chains.clear();
        self.mem_pins.clear();
        for &core in &self.cores {
            let start = self.mem_chains.len();
            for (g, c) in self.configs.iter().enumerate() {
                if c.core == core {
                    self.mem_chains.push(g);
                }
            }
            self.mem_chains[start..].sort_unstable_by_key(|&g| self.configs[g].mem);
            for &g in &self.mem_chains[start..] {
                self.mem_pins.push(if self.configs[g] == reference {
                    PIN_WEIGHT
                } else {
                    1.0
                });
            }
            self.mem_chain_offsets.push(self.mem_chains.len());
        }
    }

    /// Kept-column bookkeeping for degraded-component solves.
    pub(crate) fn set_dropped_columns(&mut self, drop_cols: impl Iterator<Item = usize>) {
        self.drop_cols.clear();
        self.drop_cols.extend(drop_cols);
        self.keep_cols.clear();
        for i in 0..NUM_PARAMS {
            if !self.drop_cols.contains(&i) {
                self.keep_cols.push(i);
            }
        }
    }
}
