//! Reusable fit-path scratch: one [`FitWorkspace`] owns every buffer
//! the iterative estimator needs, so repeated fits — periodic warm
//! recalibration, cross-validation folds, benchmark loops — stop
//! allocating once the buffers have grown to the problem size.
//!
//! The paper measures utilizations once, at the reference configuration,
//! so every Eq. 6/7 design row factors as `D(c) ⊙ z_k`: `D(c)` depends
//! only on the configuration and its voltages, and `z_k` only on the
//! kernel, with `NZ` distinct entries `[1, u₁..u₆, u_dram]`. The
//! workspace therefore keeps, per configuration, the weighted moments of
//! its observations ([`Moments`]), and both alternation steps read those
//! instead of a kernels × configurations design.
//!
//! The workspace never changes *what* the estimator computes: a fit with
//! a fresh workspace, a reused workspace, or the plain
//! [`crate::Estimator::fit`] entry point produces bit-identical models.

use crate::estimator::{kernel_factor, NUM_PARAMS, NZ, PIN_WEIGHT};
use crate::TrainingSet;
use gpm_linalg::{IsotonicWorkspace, Matrix, NnlsGramWorkspace, SpdInverseWorkspace};
use gpm_spec::{FreqConfig, Mhz};

/// One `(microbenchmark, configuration)` power measurement.
#[derive(Debug)]
pub(crate) struct Obs {
    /// Index into the training set's samples (and [`FitWorkspace::z`]),
    /// so a masked (cross-validation fold) fit shares the owning set
    /// untouched.
    pub(crate) sample: usize,
    pub(crate) watts: f64,
}

/// Weighted moments of one configuration's observations, `w` being each
/// observation's least-squares weight.
#[derive(Debug)]
pub(crate) struct Moments {
    /// `Σ w·z zᵀ`, row-major and symmetric.
    pub(crate) zz: [f64; NZ * NZ],
    /// `Σ w·z·P`.
    pub(crate) zp: [f64; NZ],
    /// `Σ w·P²`.
    pub(crate) pp: f64,
    /// `max √w·|z_e|` per entry: with `D(c)`, the largest weighted design
    /// entry of each column, for the NNLS tolerance.
    pub(crate) zmax: [f64; NZ],
    /// `max √w·|P|`, the largest weighted target.
    pub(crate) pmax: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Moments {
            zz: [0.0; NZ * NZ],
            zp: [0.0; NZ],
            pp: 0.0,
            zmax: [0.0; NZ],
            pmax: 0.0,
        }
    }
}

/// Fills `out` with one [`Moments`] per configuration group, weighting
/// observation `i` (an index into `obs`) by `weight(i, &obs[i])`.
pub(crate) fn build_moments(
    obs: &[Obs],
    z: &[[f64; NZ]],
    group_offsets: &[usize],
    mut weight: impl FnMut(usize, &Obs) -> f64,
    out: &mut Vec<Moments>,
) {
    out.clear();
    for g in group_offsets.windows(2) {
        let mut m = Moments::default();
        for (i, o) in (g[0]..).zip(&obs[g[0]..g[1]]) {
            let w = weight(i, o);
            let zk = &z[o.sample];
            let sw = w.sqrt();
            for (a, &za) in zk.iter().enumerate() {
                let wz = w * za;
                let row = &mut m.zz[a * NZ..(a + 1) * NZ];
                for (cell, &zb) in row[a..].iter_mut().zip(&zk[a..]) {
                    *cell += wz * zb;
                }
                m.zp[a] += wz * o.watts;
                m.zmax[a] = m.zmax[a].max(sw * za.abs());
            }
            m.pp += w * o.watts * o.watts;
            m.pmax = m.pmax.max(sw * o.watts.abs());
        }
        for a in 1..NZ {
            for b in 0..a {
                m.zz[a * NZ + b] = m.zz[b * NZ + a];
            }
        }
        out.push(m);
    }
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
    /// Design factor `z` per training sample.
    pub(crate) z: Vec<[f64; NZ]>,
    /// Observations grouped by configuration: group `g`'s are
    /// `obs[group_offsets[g]..group_offsets[g + 1]]`, in sample order.
    pub(crate) obs: Vec<Obs>,
    pub(crate) group_offsets: Vec<usize>,
    /// Covered configurations, ascending — the same list
    /// `TrainingSet::configs()` yields for the (masked) sample set.
    pub(crate) configs: Vec<FreqConfig>,
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

    // --- per-configuration moments ---
    /// Weighted by each observation's base weight (1, or `1/P²` in
    /// relative-error mode); built once per fit.
    pub(crate) moments: Vec<Moments>,
    /// Robust mode's Huber-reweighted moments (IRLS passes and the
    /// voltage step), and the unweighted moments of the diagnostics when
    /// the base weights are not all 1.
    pub(crate) reweighted: Vec<Moments>,

    // --- coefficient-solve scratch: the kept-column Gram form ---
    pub(crate) gram: Matrix,
    pub(crate) atb: Vec<f64>,
    pub(crate) nnls: NnlsGramWorkspace,

    // --- per-iteration scratch ---
    pub(crate) obs_weights: Vec<f64>,
    pub(crate) pred: Vec<f64>,
    pub(crate) resid: Vec<f64>,
    pub(crate) abs: Vec<f64>,
    /// Monotone-projection gather/output buffers.
    pub(crate) chain_vals: Vec<f64>,
    pub(crate) chain_fit: Vec<f64>,
    pub(crate) iso: IsotonicWorkspace,

    // --- diagnostics scratch ---
    pub(crate) meas: Vec<f64>,
    pub(crate) inv: Matrix,
    pub(crate) spd: SpdInverseWorkspace,
}

impl FitWorkspace {
    /// Creates an empty workspace; every buffer grows on first use.
    pub fn new() -> Self {
        FitWorkspace::default()
    }

    /// Rebuilds the per-fit problem layout: the design factors, the
    /// observations grouped by configuration (honoring the optional
    /// sample mask), the sorted configuration list and the
    /// monotone-projection chains. Only reads the buffers it overwrites,
    /// so a reused workspace sees no stale state.
    pub(crate) fn prepare(&mut self, training: &TrainingSet, kept: Option<&[bool]>) {
        let reference = training.reference;
        self.z.clear();
        self.z.extend(
            training
                .samples
                .iter()
                .map(|s| kernel_factor(&s.utilizations.as_array())),
        );
        let keep_sample = |i: usize| kept.is_none_or(|m| m[i]);

        // Same list `TrainingSet::configs()` computes for the kept
        // samples: sorted ascending, deduplicated.
        self.configs.clear();
        for (i, s) in training.samples.iter().enumerate() {
            if keep_sample(i) {
                self.configs.extend(s.power_by_config.keys().copied());
            }
        }
        self.configs.sort_unstable();
        self.configs.dedup();

        // The observations grouped by configuration, each group in
        // sample order.
        self.obs.clear();
        self.group_offsets.clear();
        self.group_offsets.push(0);
        for config in &self.configs {
            for (i, s) in training.samples.iter().enumerate() {
                if let (true, Some(&watts)) = (keep_sample(i), s.power_by_config.get(config)) {
                    self.obs.push(Obs { sample: i, watts });
                }
            }
            self.group_offsets.push(self.obs.len());
        }

        // Monotone-projection chains: fixed per fit.
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
