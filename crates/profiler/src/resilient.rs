//! Fault-tolerant measurement campaigns: bounded retry with
//! deterministic backoff, sample quarantine, graceful degradation and
//! checkpoint/resume.
//!
//! The plain [`Profiler`](crate::Profiler) assumes clean hardware: the
//! first counter failure or NaN reading aborts the whole campaign. The
//! [`ResilientProfiler`] runs the same Section V-A protocol cell by cell
//! (one cell = one kernel at one configuration) with recovery machinery
//! around every hardware interaction:
//!
//! - **Bounded retry + deterministic backoff** — each cell gets a
//!   [`RetryPolicy`] attempt budget; backoff delays follow an
//!   exponential schedule with seeded jitter ([`RetryPolicy::backoff_schedule_ms`]),
//!   *recorded* rather than slept (the simulated sensor has no wall
//!   clock), so campaigns stay fast and replayable.
//! - **Quarantine with typed reasons** — corrupted samples (NaN,
//!   negative, dropout, throttled window, MAD-outlier spike) are recorded
//!   as [`QuarantineRecord`]s instead of poisoning the median.
//! - **Graceful degradation** — metrics whose raw events never appear
//!   are zero-filled and the affected model components recorded, so the
//!   estimator can drop the matching ω columns instead of failing.
//! - **Checkpoint/resume** — all campaign state lives in a
//!   [`CampaignCheckpoint`] (JSON round-trippable via `gpm-json`).
//!   Every cell starts by re-deriving the device's noise stream from a
//!   label that hashes the cell identity, so a run interrupted after any
//!   cell and resumed from its checkpoint is **byte-identical** to an
//!   uninterrupted run.
//!
//! Recovery actions are mirrored into `gpm-obs` metrics
//! (`profiler.retries`, `profiler.quarantined`, ...) only when they
//! occur, keeping clean golden traces untouched.

use crate::{median, ProfileError};
use gpm_core::events::EventSet;
use gpm_core::{l2_peak_from_profiles, MicrobenchSample, ModelError, TrainingSet, Utilizations};
use gpm_json::{impl_json, JsonError};
use gpm_sim::{GpuDevice, SimError, SimRng};
use gpm_spec::{Component, EventTable, FreqConfig, Metric};
use gpm_workloads::{Category, KernelDesc};
use std::collections::BTreeMap;

/// Per-cell retry budget and backoff shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum *extra* attempts per cell beyond the planned repeats (and
    /// the maximum attempts for a single counter read or clock request).
    pub max_attempts: u32,
    /// First backoff delay in milliseconds.
    pub base_backoff_ms: f64,
    /// Backoff cap in milliseconds (before jitter).
    pub max_backoff_ms: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by
    /// `1 + jitter * u` with `u` drawn from the seeded stream.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 10.0,
            max_backoff_ms: 1_000.0,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff schedule for a cell: the delay (ms)
    /// recorded after retry 1, 2, ... (`max_attempts - 1` entries).
    ///
    /// The schedule is a pure function of `(policy, seed)`: exponential
    /// doubling from `base_backoff_ms` capped at `max_backoff_ms`,
    /// jittered by the seeded stream, then clamped non-decreasing. It is
    /// therefore monotone, bounded by `max_backoff_ms * (1 + jitter)`,
    /// and bit-identical across runs and platforms.
    pub fn backoff_schedule_ms(&self, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed).derive(0xBACC_0FF5);
        let steps = self.max_attempts.saturating_sub(1) as usize;
        let mut out = Vec::with_capacity(steps);
        let mut prev = 0.0f64;
        for k in 0..steps {
            let raw = (self.base_backoff_ms * 2f64.powi(k.min(62) as i32)).min(self.max_backoff_ms);
            let delay = (raw * (1.0 + self.jitter * rng.next_f64())).max(prev);
            out.push(delay);
            prev = delay;
        }
        out
    }
}

/// Why a sample (or interaction) was quarantined instead of used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineReason {
    /// The sensor reported NaN or another non-finite reading.
    NanSample,
    /// The sensor reported a negative reading.
    NegativeSample,
    /// The sensor returned no reading for the window.
    SensorDropout,
    /// The reading survived the sensor but is a MAD outlier against the
    /// cell's other readings (silent spike).
    SpikeOutlier,
    /// The window ran at reduced clocks (thermal throttling).
    ThrottledWindow,
    /// A transient performance-counter read failure.
    CounterFailure,
    /// A clock request was ACKed but not applied.
    StuckClocks,
}

impl_json!(
    enum QuarantineReason {
        NanSample,
        NegativeSample,
        SensorDropout,
        SpikeOutlier,
        ThrottledWindow,
        CounterFailure,
        StuckClocks,
    }
);

/// One quarantined sample/interaction, with enough context to audit the
/// campaign afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Kernel the cell belongs to (`"<clocks>"`/`"<restore>"` for
    /// campaign-level clock operations).
    pub kernel: String,
    /// Configuration the cell targets.
    pub config: FreqConfig,
    /// Typed reason.
    pub reason: QuarantineReason,
    /// Zero-based attempt index within the cell when it happened.
    pub attempt: u32,
}

impl_json!(struct QuarantineRecord { kernel, config, reason, attempt });

/// The complete, serializable state of a resilient campaign.
///
/// Serialized via `gpm-json`; [`CampaignCheckpoint::to_json_string`] is
/// canonical (BTreeMap-ordered keys, declared field order), so two
/// checkpoints describing the same campaign state are byte-identical —
/// the property the resume acceptance test pins.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Device name the campaign runs on (guards against resuming a
    /// checkpoint on the wrong device).
    pub device: String,
    /// Reference configuration events are collected at.
    pub reference: FreqConfig,
    /// Planned good readings per cell.
    pub repeats: u32,
    /// Whether the events/utilizations phase completed.
    pub events_done: bool,
    /// Discovered L2 peak bandwidth (bytes per core cycle).
    pub l2_bytes_per_cycle: f64,
    /// Per-kernel utilizations from the reference events.
    pub utilizations: BTreeMap<String, Utilizations>,
    /// Components whose events are permanently unavailable.
    pub degraded: Vec<Component>,
    /// Committed median power per kernel per configuration.
    pub power: BTreeMap<String, BTreeMap<FreqConfig, f64>>,
    /// Every quarantined sample, in campaign order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Total retries across the campaign.
    pub retries: u64,
    /// Total recorded backoff in milliseconds.
    pub backoff_ms: f64,
}

impl_json!(struct CampaignCheckpoint {
    device,
    reference,
    repeats,
    events_done = false,
    l2_bytes_per_cycle = 0.0,
    utilizations = BTreeMap::new(),
    degraded = Vec::new(),
    power = BTreeMap::new(),
    quarantined = Vec::new(),
    retries = 0,
    backoff_ms = 0.0,
});

impl CampaignCheckpoint {
    /// Serializes the checkpoint to canonical JSON.
    pub fn to_json_string(&self) -> String {
        gpm_json::write(&gpm_json::ToJson::to_json(self))
    }

    /// Parses a checkpoint back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed or mismatched JSON.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        gpm_json::from_str(text)
    }

    /// Number of committed power cells.
    pub fn completed_cells(&self) -> usize {
        self.power.values().map(BTreeMap::len).sum()
    }
}

/// Result of one [`ResilientProfiler::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// The campaign finished; the checkpoint holds the final state.
    Complete(TrainingSet),
    /// The per-run cell budget ran out; resume later from the
    /// checkpoint.
    Suspended {
        /// Power cells committed so far (across all runs).
        completed_cells: usize,
        /// Total power cells in the campaign.
        total_cells: usize,
    },
}

/// Per-cell recovery bookkeeping, committed to the checkpoint only when
/// the cell completes — an interrupted cell leaves no trace, which is
/// what makes resumed campaigns byte-identical.
#[derive(Debug, Default)]
struct CellStats {
    retries: u64,
    backoff_ms: f64,
    quarantined: Vec<QuarantineRecord>,
}

impl CellStats {
    fn quarantine(
        &mut self,
        kernel: &str,
        config: FreqConfig,
        reason: QuarantineReason,
        attempt: u32,
    ) {
        self.quarantined.push(QuarantineRecord {
            kernel: kernel.to_string(),
            config,
            reason,
            attempt,
        });
    }
}

/// FNV-1a over the cell identity: the label every cell derives its
/// noise/fault/backoff streams from.
fn cell_label(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff; // separator so ("ab","c") != ("a","bc")
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn config_label(kernel: &str, config: FreqConfig) -> u64 {
    let core = format!("{}", config.core.as_f64());
    let mem = format!("{}", config.mem.as_f64());
    cell_label(&[kernel, &core, &mem])
}

/// The model components a missing metric degrades. `None` marks
/// `ActiveCycles`, without which nothing can be computed at all.
fn degraded_components(metric: Metric) -> Option<&'static [Component]> {
    match metric {
        Metric::ActiveCycles => None,
        Metric::L2ReadSectors | Metric::L2WriteSectors => Some(&[Component::L2Cache]),
        Metric::SharedLoadTrans | Metric::SharedStoreTrans => Some(&[Component::SharedMem]),
        Metric::DramReadSectors | Metric::DramWriteSectors => Some(&[Component::Dram]),
        // The INT/SP split needs the warp count and both instruction
        // counters; losing any of them degrades both components.
        Metric::WarpsIntSp | Metric::InstInt | Metric::InstSp => {
            Some(&[Component::Int, Component::Sp])
        }
        Metric::WarpsDp => Some(&[Component::Dp]),
        Metric::WarpsSf => Some(&[Component::Sf]),
    }
}

/// Drives the Section V-A campaign with fault recovery.
///
/// Unlike [`Profiler`](crate::Profiler), every hardware interaction is
/// wrapped in bounded retry, every sample can be quarantined, and all
/// state lives in an external [`CampaignCheckpoint`] so the campaign can
/// stop and resume at any cell boundary.
#[derive(Debug)]
pub struct ResilientProfiler<'g, G: GpuDevice> {
    gpu: &'g mut G,
    repeats: u32,
    policy: RetryPolicy,
    reference: Option<FreqConfig>,
}

impl<'g, G: GpuDevice> ResilientProfiler<'g, G> {
    /// Creates a resilient profiler with the paper's 10 repeats and the
    /// default retry policy.
    pub fn new(gpu: &'g mut G) -> Self {
        ResilientProfiler {
            gpu,
            repeats: 10,
            policy: RetryPolicy::default(),
            reference: None,
        }
    }

    /// Overrides the per-cell repeat count.
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    pub fn with_repeats(mut self, repeats: u32) -> Self {
        assert!(repeats > 0, "at least one measurement repeat is required");
        self.repeats = repeats;
        self
    }

    /// Overrides the retry policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy allows zero attempts.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts > 0, "at least one attempt is required");
        self.policy = policy;
        self
    }

    /// Overrides the reference configuration.
    ///
    /// # Errors
    ///
    /// Rejects configurations outside the device's frequency tables.
    pub fn set_reference(&mut self, config: FreqConfig) -> Result<(), ProfileError> {
        self.gpu
            .spec()
            .check_config(config)
            .map_err(|_| ProfileError::Hardware(SimError::UnsupportedClocks(config)))?;
        self.reference = Some(config);
        Ok(())
    }

    /// The reference configuration in effect.
    pub fn reference(&self) -> FreqConfig {
        self.reference
            .unwrap_or_else(|| self.gpu.spec().default_config())
    }

    /// A fresh checkpoint matching this profiler's campaign parameters.
    pub fn new_checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            device: self.gpu.spec().name().to_string(),
            reference: self.reference(),
            repeats: self.repeats,
            events_done: false,
            l2_bytes_per_cycle: 0.0,
            utilizations: BTreeMap::new(),
            degraded: Vec::new(),
            power: BTreeMap::new(),
            quarantined: Vec::new(),
            retries: 0,
            backoff_ms: 0.0,
        }
    }

    /// Runs (or resumes) the campaign over `suite`, committing progress
    /// into `checkpoint`. `cell_budget` caps how many *new* power cells
    /// this call measures; `None` runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Campaign`] when the checkpoint does not
    /// match this profiler's parameters or a cell exhausts its attempt
    /// budget; hardware/aggregation failures propagate as usual.
    pub fn run(
        &mut self,
        suite: &[KernelDesc],
        checkpoint: &mut CampaignCheckpoint,
        cell_budget: Option<usize>,
    ) -> Result<CampaignOutcome, ProfileError> {
        let spec = self.gpu.spec().clone();
        let reference = self.reference();
        if checkpoint.device != spec.name() {
            return Err(ProfileError::Campaign(format!(
                "checkpoint is for device {} but the campaign targets {}",
                checkpoint.device,
                spec.name()
            )));
        }
        if checkpoint.reference != reference || checkpoint.repeats != self.repeats {
            return Err(ProfileError::Campaign(
                "checkpoint reference/repeats do not match the campaign parameters".to_string(),
            ));
        }

        let campaign_span = gpm_obs::span("profiler.resilient_campaign", 0);
        if let Some(s) = campaign_span.as_deref() {
            s.set_attr("kernels", suite.len() as u64);
            s.set_attr("configs", spec.vf_grid().len() as u64);
            s.set_attr("resumed_cells", checkpoint.completed_cells() as u64);
        }

        if !checkpoint.events_done {
            self.run_events_phase(suite, checkpoint, &spec)?;
        }

        // Power phase, cell by cell in (configuration, kernel) order.
        let grid = spec.vf_grid();
        let total_cells = suite.len() * grid.len();
        let mut budget = cell_budget;
        for config in &grid {
            for kernel in suite {
                let name = kernel.name();
                let done = checkpoint
                    .power
                    .get(name)
                    .is_some_and(|m| m.contains_key(config));
                if done {
                    continue;
                }
                if budget == Some(0) {
                    return Ok(CampaignOutcome::Suspended {
                        completed_cells: checkpoint.completed_cells(),
                        total_cells,
                    });
                }
                self.measure_cell(kernel, *config, checkpoint)?;
                if let Some(b) = budget.as_mut() {
                    *b -= 1;
                }
            }
        }

        // Deterministic clock restore (reseeded like any cell, so the
        // uninterrupted and resumed runs agree on its fault draws).
        let restore_label = cell_label(&["<restore>"]);
        self.gpu.reseed_measurements(restore_label);
        let schedule = self.policy.backoff_schedule_ms(restore_label);
        let mut cell = CellStats::default();
        self.set_clocks_verified(reference, "<restore>", &mut cell, &schedule)?;
        self.commit(checkpoint, cell);

        Ok(CampaignOutcome::Complete(
            self.assemble(suite, checkpoint, spec, reference)?,
        ))
    }

    /// Phase 1: events at the reference configuration, degradation
    /// analysis, L2 peak discovery, utilizations. Atomic — it either
    /// completes and sets `events_done` or leaves the checkpoint
    /// untouched.
    fn run_events_phase(
        &mut self,
        suite: &[KernelDesc],
        checkpoint: &mut CampaignCheckpoint,
        spec: &gpm_spec::DeviceSpec,
    ) -> Result<(), ProfileError> {
        let reference = self.reference();
        let mut event_sets: Vec<EventSet> = Vec::with_capacity(suite.len());
        let mut phase_stats = CellStats::default();

        for kernel in suite {
            let label = cell_label(&["events", kernel.name()]);
            let schedule = self.policy.backoff_schedule_ms(label);
            self.gpu.reseed_measurements(label);
            self.set_clocks_verified(reference, kernel.name(), &mut phase_stats, &schedule)?;

            let mut record = None;
            for attempt in 0..self.policy.max_attempts {
                match self.gpu.collect_events(kernel) {
                    Ok(r) => {
                        record = Some(r);
                        break;
                    }
                    Err(SimError::CounterReadFailed { .. }) => {
                        phase_stats.retries += 1;
                        phase_stats.quarantine(
                            kernel.name(),
                            reference,
                            QuarantineReason::CounterFailure,
                            attempt,
                        );
                        phase_stats.backoff_ms += backoff_at(&schedule, attempt);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            let record = record.ok_or_else(|| {
                ProfileError::Campaign(format!(
                    "counter reads for kernel {} failed {} consecutive times",
                    kernel.name(),
                    self.policy.max_attempts
                ))
            })?;
            event_sets.push(EventSet::new(record.config, record.counts));
        }

        // Degradation: metrics whose events never came back are
        // zero-filled; the affected ω components are recorded so the
        // estimator can drop their columns.
        let table = EventTable::for_architecture(spec.architecture());
        let mut degraded: Vec<Component> = Vec::new();
        for set in &mut event_sets {
            for metric in Metric::ALL {
                let missing = table
                    .events(metric)
                    .iter()
                    .any(|e| !set.counts.contains_key(e));
                if !missing {
                    continue;
                }
                let components = degraded_components(metric)
                    .ok_or(ProfileError::Model(ModelError::MissingEvents(metric)))?;
                for &c in components {
                    if !degraded.contains(&c) {
                        degraded.push(c);
                    }
                }
                for &event in table.events(metric) {
                    set.counts.entry(event).or_insert(0);
                }
            }
        }
        degraded.sort_by_key(|c| c.index());

        // L2 peak discovery, skipped (placeholder 1.0) when the L2
        // counters themselves are gone — the L2 column is dropped from
        // the fit anyway, so the placeholder never reaches a prediction.
        let l2_bpc = if degraded.contains(&Component::L2Cache) {
            1.0
        } else {
            let l2_profiles: Vec<EventSet> = suite
                .iter()
                .zip(&event_sets)
                .filter(|(k, _)| k.category() == Category::L2)
                .map(|(_, e)| e.clone())
                .collect();
            if l2_profiles.is_empty() {
                l2_peak_from_profiles(spec, &event_sets)?
            } else {
                l2_peak_from_profiles(spec, &l2_profiles)?
            }
        };

        for (kernel, set) in suite.iter().zip(&event_sets) {
            let utilizations = Utilizations::from_events(spec, set, l2_bpc)?;
            checkpoint
                .utilizations
                .insert(kernel.name().to_string(), utilizations);
        }
        checkpoint.l2_bytes_per_cycle = l2_bpc;
        checkpoint.degraded = degraded;
        checkpoint.events_done = true;
        if !checkpoint.degraded.is_empty() {
            gpm_obs::counter_add(
                "profiler.degraded_components",
                checkpoint.degraded.len() as u64,
            );
        }
        self.commit(checkpoint, phase_stats);
        Ok(())
    }

    /// Measures one (kernel, configuration) cell: deterministic reseed,
    /// verified clocks, quarantine-aware reading collection, MAD spike
    /// rejection, median commit.
    ///
    /// Readings are taken one `measure_power` per window, not through
    /// `measure_power_repeated`: each window's effective clocks are
    /// checked, and retries, quarantine and fault placement act per
    /// window.
    fn measure_cell(
        &mut self,
        kernel: &KernelDesc,
        config: FreqConfig,
        checkpoint: &mut CampaignCheckpoint,
    ) -> Result<(), ProfileError> {
        let name = kernel.name();
        let label = config_label(name, config);
        let schedule = self.policy.backoff_schedule_ms(label);
        self.gpu.reseed_measurements(label);
        let mut cell = CellStats::default();
        self.set_clocks_verified(config, name, &mut cell, &schedule)?;

        let needed = self.repeats;
        let max_total = needed + self.policy.max_attempts;
        let mut good: Vec<f64> = Vec::with_capacity(needed as usize);
        let mut attempt: u32 = 0;
        while (good.len() as u32) < needed {
            if attempt >= max_total {
                return Err(ProfileError::Campaign(format!(
                    "attempt budget exhausted for {name} at {config}: \
                     {} good readings of {needed} after {attempt} attempts",
                    good.len()
                )));
            }
            let retry_index = attempt.saturating_sub(good.len() as u32);
            attempt += 1;
            match self.gpu.measure_power(kernel) {
                Ok(m) if m.effective_clocks != config => {
                    cell.retries += 1;
                    cell.quarantine(name, config, QuarantineReason::ThrottledWindow, attempt - 1);
                    cell.backoff_ms += backoff_at(&schedule, retry_index);
                }
                Ok(m) => good.push(m.watts),
                Err(SimError::SensorDropout) => {
                    cell.retries += 1;
                    cell.quarantine(name, config, QuarantineReason::SensorDropout, attempt - 1);
                    cell.backoff_ms += backoff_at(&schedule, retry_index);
                }
                Err(SimError::InvalidPowerSample { watts }) => {
                    let reason = if watts < 0.0 {
                        QuarantineReason::NegativeSample
                    } else {
                        QuarantineReason::NanSample
                    };
                    cell.retries += 1;
                    cell.quarantine(name, config, reason, attempt - 1);
                    cell.backoff_ms += backoff_at(&schedule, retry_index);
                }
                Err(e) => return Err(e.into()),
            }
        }

        // MAD outlier rejection: silent spikes survive the sensor but
        // not a robust scale test against the cell's own readings.
        let mut kept = good.clone();
        if good.len() >= 4 {
            let mut sorted = good.clone();
            let center = median(&mut sorted);
            let mut deviations: Vec<f64> = good.iter().map(|x| (x - center).abs()).collect();
            let mad = median(&mut deviations);
            // Floor the scale at 0.5% of the median so a run of nearly
            // identical readings doesn't flag ordinary noise.
            let scale = (1.4826 * mad).max(center.abs() * 0.005).max(1e-9);
            let survivors: Vec<f64> = good
                .iter()
                .copied()
                .filter(|x| (x - center).abs() <= 6.0 * scale)
                .collect();
            if !survivors.is_empty() && survivors.len() < good.len() {
                let dropped = good.len() - survivors.len();
                for _ in 0..dropped {
                    cell.quarantine(name, config, QuarantineReason::SpikeOutlier, attempt);
                }
                kept = survivors;
            }
        }

        let watts = median(&mut kept);
        gpm_obs::counter_add("profiler.power_measurements", u64::from(needed));
        checkpoint
            .power
            .entry(name.to_string())
            .or_default()
            .insert(config, watts);
        self.commit(checkpoint, cell);
        Ok(())
    }

    /// Applies clocks and verifies they took effect, retrying around a
    /// stuck driver.
    fn set_clocks_verified(
        &mut self,
        config: FreqConfig,
        kernel: &str,
        cell: &mut CellStats,
        schedule: &[f64],
    ) -> Result<(), ProfileError> {
        for attempt in 0..self.policy.max_attempts {
            self.gpu.set_clocks(config)?;
            if self.gpu.clocks() == config {
                return Ok(());
            }
            cell.retries += 1;
            cell.quarantine(kernel, config, QuarantineReason::StuckClocks, attempt);
            cell.backoff_ms += backoff_at(schedule, attempt);
        }
        Err(ProfileError::Campaign(format!(
            "clocks stuck: {config} not applied after {} attempts",
            self.policy.max_attempts
        )))
    }

    /// Commits a completed cell's recovery bookkeeping to the checkpoint
    /// and mirrors it into observability counters (only when nonzero, so
    /// clean traces keep their metric name set).
    fn commit(&self, checkpoint: &mut CampaignCheckpoint, cell: CellStats) {
        if cell.retries > 0 {
            gpm_obs::counter_add("profiler.retries", cell.retries);
            gpm_obs::histogram_record("profiler.backoff_ms", cell.backoff_ms);
        }
        if !cell.quarantined.is_empty() {
            gpm_obs::counter_add("profiler.quarantined", cell.quarantined.len() as u64);
        }
        checkpoint.retries += cell.retries;
        checkpoint.backoff_ms += cell.backoff_ms;
        checkpoint.quarantined.extend(cell.quarantined);
    }

    /// Assembles the final `TrainingSet` from a complete checkpoint.
    fn assemble(
        &self,
        suite: &[KernelDesc],
        checkpoint: &CampaignCheckpoint,
        spec: gpm_spec::DeviceSpec,
        reference: FreqConfig,
    ) -> Result<TrainingSet, ProfileError> {
        let mut samples = Vec::with_capacity(suite.len());
        for kernel in suite {
            let name = kernel.name();
            let utilizations = checkpoint.utilizations.get(name).cloned().ok_or_else(|| {
                ProfileError::Campaign(format!("checkpoint has no utilizations for {name}"))
            })?;
            let power_by_config = checkpoint.power.get(name).cloned().ok_or_else(|| {
                ProfileError::Campaign(format!("checkpoint has no power grid for {name}"))
            })?;
            samples.push(MicrobenchSample {
                name: name.to_string(),
                utilizations,
                power_by_config,
            });
        }
        Ok(TrainingSet {
            device: spec,
            reference,
            l2_bytes_per_cycle: checkpoint.l2_bytes_per_cycle,
            samples,
        })
    }
}

fn backoff_at(schedule: &[f64], index: u32) -> f64 {
    match schedule.last() {
        None => 0.0,
        Some(&last) => schedule.get(index as usize).copied().unwrap_or(last),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_sim::{EventRecord, Execution, PowerMeasurement, SimulatedGpu};
    use gpm_spec::{devices, DeviceSpec};
    use gpm_workloads::microbenchmark_suite;

    /// A flaky device test double: deterministic fault injection without
    /// depending on gpm-faults (which depends on gpm-sim only, but the
    /// profiler should stay decoupled from the fault crate).
    struct FlakyGpu {
        inner: SimulatedGpu,
        rng: SimRng,
        seed: u64,
        dropout: f64,
        counter_fail: f64,
        spike: f64,
    }

    impl FlakyGpu {
        fn new(spec: DeviceSpec, seed: u64, dropout: f64, counter_fail: f64, spike: f64) -> Self {
            FlakyGpu {
                inner: SimulatedGpu::new(spec, seed),
                rng: SimRng::seed_from_u64(seed ^ 0xF1A4),
                seed,
                dropout,
                counter_fail,
                spike,
            }
        }
    }

    impl GpuDevice for FlakyGpu {
        fn spec(&self) -> &DeviceSpec {
            self.inner.spec()
        }
        fn clocks(&self) -> FreqConfig {
            GpuDevice::clocks(&self.inner)
        }
        fn set_clocks(&mut self, config: FreqConfig) -> Result<(), SimError> {
            GpuDevice::set_clocks(&mut self.inner, config)
        }
        fn measure_power(&mut self, kernel: &KernelDesc) -> Result<PowerMeasurement, SimError> {
            if self.dropout > 0.0 && self.rng.next_f64() < self.dropout {
                return Err(SimError::SensorDropout);
            }
            let spiked = self.spike > 0.0 && self.rng.next_f64() < self.spike;
            let mut m = GpuDevice::measure_power(&mut self.inner, kernel)?;
            if spiked {
                m.watts *= 5.0;
            }
            Ok(m)
        }
        fn collect_events(&mut self, kernel: &KernelDesc) -> Result<EventRecord, SimError> {
            if self.counter_fail > 0.0 && self.rng.next_f64() < self.counter_fail {
                return Err(SimError::CounterReadFailed {
                    kernel: kernel.name().to_string(),
                });
            }
            GpuDevice::collect_events(&mut self.inner, kernel)
        }
        fn execute(&self, kernel: &KernelDesc) -> Execution {
            GpuDevice::execute(&self.inner, kernel)
        }
        fn reseed_measurements(&mut self, label: u64) {
            self.inner.reseed_measurements(label);
            self.rng = SimRng::seed_from_u64(self.seed ^ 0xF1A4).derive(label);
        }
    }

    #[test]
    fn backoff_schedule_is_monotone_bounded_and_reproducible() {
        let policy = RetryPolicy::default();
        let a = policy.backoff_schedule_ms(123);
        let b = policy.backoff_schedule_ms(123);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), (policy.max_attempts - 1) as usize);
        let bound = policy.max_backoff_ms * (1.0 + policy.jitter);
        for pair in a.windows(2) {
            assert!(pair[0] <= pair[1], "schedule must be non-decreasing: {a:?}");
        }
        for &d in &a {
            assert!(d > 0.0 && d <= bound, "delay {d} out of (0, {bound}]");
        }
        // Different seeds jitter differently.
        assert_ne!(a, policy.backoff_schedule_ms(124));
    }

    #[test]
    fn clean_campaign_matches_plain_profiler_shape() {
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let mut gpu = SimulatedGpu::new(spec, 9);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(2);
        let mut ckpt = profiler.new_checkpoint();
        let outcome = profiler.run(&suite, &mut ckpt, None).unwrap();
        let training = match outcome {
            CampaignOutcome::Complete(t) => t,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(training.samples.len(), 83);
        assert!(training.validate().is_ok());
        assert_eq!(ckpt.retries, 0);
        assert!(ckpt.quarantined.is_empty());
        assert!(ckpt.degraded.is_empty());
        for s in &training.samples {
            assert_eq!(s.power_by_config.len(), 4, "{}", s.name);
        }
    }

    #[test]
    fn faults_are_retried_and_quarantined_not_fatal() {
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let mut gpu = FlakyGpu::new(spec, 9, 0.10, 0.10, 0.05);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(3);
        let mut ckpt = profiler.new_checkpoint();
        let outcome = profiler.run(&suite, &mut ckpt, None).unwrap();
        assert!(matches!(outcome, CampaignOutcome::Complete(_)));
        assert!(ckpt.retries > 0, "10% dropouts must trigger retries");
        assert!(
            ckpt.quarantined
                .iter()
                .any(|q| q.reason == QuarantineReason::SensorDropout),
            "dropouts must be quarantined with their typed reason"
        );
        assert!(ckpt.backoff_ms > 0.0);
    }

    #[test]
    fn suspended_and_resumed_campaign_is_byte_identical_to_uninterrupted() {
        let spec = devices::tesla_k40c();
        let suite: Vec<KernelDesc> = microbenchmark_suite(&spec)[..10].to_vec();

        // Uninterrupted run.
        let mut gpu = FlakyGpu::new(spec.clone(), 4, 0.08, 0.08, 0.03);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(2);
        let mut straight = profiler.new_checkpoint();
        let outcome = profiler.run(&suite, &mut straight, None).unwrap();
        let CampaignOutcome::Complete(training_straight) = outcome else {
            panic!("uninterrupted run must complete");
        };

        // Interrupted run: budget of 7 cells, checkpoint serialized,
        // fresh device, resumed to completion.
        let mut gpu = FlakyGpu::new(spec.clone(), 4, 0.08, 0.08, 0.03);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(2);
        let mut ckpt = profiler.new_checkpoint();
        let outcome = profiler.run(&suite, &mut ckpt, Some(7)).unwrap();
        assert!(
            matches!(
                outcome,
                CampaignOutcome::Suspended {
                    completed_cells: 7,
                    ..
                }
            ),
            "got {outcome:?}"
        );
        let serialized = ckpt.to_json_string();
        let mut resumed = CampaignCheckpoint::from_json_str(&serialized).unwrap();
        let mut gpu = FlakyGpu::new(spec, 4, 0.08, 0.08, 0.03);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(2);
        let outcome = profiler.run(&suite, &mut resumed, None).unwrap();
        let CampaignOutcome::Complete(training_resumed) = outcome else {
            panic!("resumed run must complete");
        };

        assert_eq!(
            straight.to_json_string(),
            resumed.to_json_string(),
            "resumed checkpoint must be byte-identical to the uninterrupted one"
        );
        assert_eq!(training_straight, training_resumed);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let mut gpu = SimulatedGpu::new(spec, 1);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(2);
        let mut ckpt = profiler.new_checkpoint();
        ckpt.device = "some other device".to_string();
        let err = profiler.run(&suite[..2], &mut ckpt, None).unwrap_err();
        assert!(matches!(err, ProfileError::Campaign(_)));
        let mut ckpt = profiler.new_checkpoint();
        ckpt.repeats = 99;
        let err = profiler.run(&suite[..2], &mut ckpt, None).unwrap_err();
        assert!(matches!(err, ProfileError::Campaign(_)));
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let mut gpu = FlakyGpu::new(spec, 2, 0.1, 0.1, 0.0);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(2);
        let mut ckpt = profiler.new_checkpoint();
        let _ = profiler.run(&suite[..6], &mut ckpt, Some(10)).unwrap();
        let text = ckpt.to_json_string();
        let back = CampaignCheckpoint::from_json_str(&text).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn spikes_are_filtered_by_mad_when_repeats_allow() {
        // 12% spike rate with 8 repeats: many cells see a spike, but a
        // clean majority remains, so the MAD filter must quarantine the
        // spikes and keep medians in the physical range. (At rates where
        // spikes form the majority of a cell the filter cannot help —
        // nothing can, without a prior on the true power.)
        let spec = devices::tesla_k40c();
        let suite: Vec<KernelDesc> = microbenchmark_suite(&spec)[..4].to_vec();
        let mut gpu = FlakyGpu::new(spec, 3, 0.0, 0.0, 0.12);
        let mut profiler = ResilientProfiler::new(&mut gpu).with_repeats(8);
        let mut ckpt = profiler.new_checkpoint();
        let outcome = profiler.run(&suite, &mut ckpt, None).unwrap();
        let CampaignOutcome::Complete(training) = outcome else {
            panic!("expected completion");
        };
        assert!(
            ckpt.quarantined
                .iter()
                .any(|q| q.reason == QuarantineReason::SpikeOutlier),
            "12% spikes over 32 cells must trip the MAD filter"
        );
        for s in &training.samples {
            for (&config, &w) in &s.power_by_config {
                assert!(
                    w > 20.0 && w < 300.0,
                    "{} at {config}: {w} W is outside the physical range",
                    s.name
                );
            }
        }
    }
}
