//! The persistent model registry: fit once, version it, serve it —
//! crash-safely.
//!
//! Layout under the registry root:
//!
//! ```text
//! <root>/models/<name>/v<version>.json   one RegistryEntry per version
//! <root>/ACTIVE                          generation-numbered pointer
//! ```
//!
//! Entries carry a `schema` version; loading an entry written by a newer
//! schema fails with [`ServeError::SchemaIncompatible`] instead of
//! silently mis-parsing. Writes go through the checked JSON writer, so a
//! degraded fit with non-finite coefficients is refused with
//! [`ServeError::NonFinite`] rather than persisted as `null`s that
//! would not round-trip.
//!
//! # Crash safety
//!
//! Every mutation is a temp-file write + `fsync` + atomic rename +
//! directory `fsync`, so a crash at any point leaves either the old
//! state or the new state on disk, never a torn file under a live name.
//! Each persisted artifact (entry and ACTIVE pointer alike) carries a
//! [`gpm_json::integrity`] trailer — length plus CRC-32 over the
//! canonical JSON — verified on every read; files written before the
//! trailer existed still load as legacy. The ACTIVE pointer is
//! generation-numbered and embeds the previously active target, so
//! [`ModelRegistry::load_active`] can fall back to the last good model
//! when the current target is missing or quarantined.
//!
//! [`ModelRegistry::open`] runs recovery before anything is served:
//! leftover temp files are removed and entries that fail the integrity
//! or parse check are moved aside to `*.quarantined` — a corrupt version
//! is never silently served, and [`ModelRegistry::fsck`] reports
//! per-version health for the CLI.
//!
//! All filesystem access goes through [`gpm_faults::Vfs`], which is how
//! the crash-matrix test (`tests/registry_crash.rs`) kills a publish or
//! activate at every single filesystem operation and proves recovery.

use crate::ServeError;
use gpm_core::{FitReport, PowerModel};
use gpm_faults::vfs::{RealFs, Vfs};
use gpm_json::integrity;
use gpm_json::{impl_json, FromJson};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Highest registry-entry schema version this build reads and writes.
pub const REGISTRY_SCHEMA_VERSION: u32 = 1;

/// Suffix given to artifacts moved aside by corruption quarantine.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";

/// One persisted model version: the fitted model plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryEntry {
    /// Entry schema version (see [`REGISTRY_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Registry name the model was published under.
    pub name: String,
    /// Monotonic version within the name.
    pub version: u32,
    /// Device the model was fitted for (display name).
    pub device: String,
    /// The fitted DVFS-aware power model.
    pub model: PowerModel,
    /// Estimator diagnostics captured at publish time, if any.
    pub report: Option<FitReport>,
}

impl_json!(struct RegistryEntry {
    schema,
    name,
    version,
    device,
    model,
    report = None,
});

impl RegistryEntry {
    /// The `name@vN` identity string used as the engine's model version.
    pub fn identity(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }
}

/// A name's published versions and whether one is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Published versions, ascending.
    pub versions: Vec<u32>,
    /// The active version, if the ACTIVE pointer targets this name.
    pub active: Option<u32>,
}

#[derive(Debug, Clone, PartialEq)]
struct ActivePointer {
    name: String,
    version: u32,
    /// Monotonic pointer generation; 0 for pointers written before
    /// generations existed.
    generation: u64,
    /// The previously active target, kept as the last-good fallback.
    prev_name: Option<String>,
    prev_version: Option<u32>,
}

impl_json!(struct ActivePointer {
    name,
    version,
    generation = 0,
    prev_name = None,
    prev_version = None,
});

/// Integrity status of one persisted registry artifact, as reported by
/// [`ModelRegistry::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryHealth {
    /// Trailer present and verified; entry parses.
    Sealed,
    /// No integrity trailer (written before sealing existed) but the
    /// entry parses.
    Legacy,
    /// Written by a newer schema: unreadable by this build, but not
    /// corrupt.
    FutureSchema(u32),
    /// Failed the integrity or parse check; carries the reason.
    Corrupt(String),
}

impl EntryHealth {
    /// Short status label for CLI output (`ok`, `legacy`, `schema-vN`,
    /// `CORRUPT`).
    pub fn label(&self) -> String {
        match self {
            EntryHealth::Sealed => "ok".to_string(),
            EntryHealth::Legacy => "legacy".to_string(),
            EntryHealth::FutureSchema(v) => format!("schema-v{v}"),
            EntryHealth::Corrupt(_) => "CORRUPT".to_string(),
        }
    }

    /// Whether this artifact is damaged (as opposed to merely old or
    /// from the future).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, EntryHealth::Corrupt(_))
    }
}

/// Per-version health of one entry, from [`ModelRegistry::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckEntry {
    /// Registry name.
    pub name: String,
    /// Entry version.
    pub version: u32,
    /// Integrity status.
    pub health: EntryHealth,
}

/// Full integrity report over a registry, from [`ModelRegistry::fsck`].
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Health of every live entry, sorted by (name, version).
    pub entries: Vec<FsckEntry>,
    /// Artifacts previously moved aside by quarantine (paths relative
    /// to the registry root).
    pub quarantined: Vec<String>,
    /// The active target, if a pointer is set and readable.
    pub active: Option<(String, u32)>,
    /// Free-form problems that are not per-entry (e.g. a corrupt ACTIVE
    /// pointer, an active target that does not resolve).
    pub problems: Vec<String>,
}

impl FsckReport {
    /// True when nothing is corrupt, quarantined, or dangling.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty()
            && self.problems.is_empty()
            && self.entries.iter().all(|e| !e.health.is_corrupt())
    }
}

/// What [`ModelRegistry::open`] cleaned up before serving.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Leftover temp files removed (interrupted writes that never
    /// committed).
    pub removed_tmp: usize,
    /// Artifacts moved aside because they failed the integrity or parse
    /// check (paths relative to the registry root).
    pub quarantined: Vec<String>,
}

/// A directory-backed registry of fitted [`PowerModel`]s with atomic,
/// integrity-checked persistence.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    root: PathBuf,
    fs: Arc<dyn Vfs>,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry rooted at `root`, running
    /// crash recovery: leftover temp files are removed and corrupt
    /// artifacts are quarantined before anything can be served.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the directory cannot be created
    /// or the recovery sweep cannot read it.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ServeError> {
        Self::open_with_fs(root, Arc::new(RealFs))
    }

    /// [`ModelRegistry::open`] over an injected filesystem — the hook
    /// the crash-matrix tests use to interpose a
    /// [`gpm_faults::FaultyFs`].
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::open`].
    pub fn open_with_fs(root: impl Into<PathBuf>, fs: Arc<dyn Vfs>) -> Result<Self, ServeError> {
        let root = root.into();
        fs.create_dir_all(&root.join("models"))?;
        let registry = ModelRegistry { root, fs };
        let report = registry.recover()?;
        if report.removed_tmp > 0 {
            gpm_obs::counter_add("registry.recovered_tmp", report.removed_tmp as u64);
        }
        if !report.quarantined.is_empty() {
            gpm_obs::counter_add("registry.quarantined", report.quarantined.len() as u64);
        }
        Ok(registry)
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn model_dir(&self, name: &str) -> PathBuf {
        self.root.join("models").join(name)
    }

    fn entry_path(&self, name: &str, version: u32) -> PathBuf {
        self.model_dir(name).join(format!("v{version}.json"))
    }

    fn active_path(&self) -> PathBuf {
        self.root.join("ACTIVE")
    }

    fn check_name(name: &str) -> Result<(), ServeError> {
        let valid = !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if valid {
            Ok(())
        } else {
            Err(ServeError::InvalidName(name.to_string()))
        }
    }

    /// Published versions of `name`, ascending (empty if unknown).
    ///
    /// Only a missing directory maps to "no versions"; any other read
    /// failure propagates. Treating a transient `EIO` as emptiness
    /// would make the next publish renumber from v1 and overwrite
    /// history.
    fn versions_of(&self, name: &str) -> Result<Vec<u32>, ServeError> {
        let mut versions = Vec::new();
        let files = match self.fs.read_dir(&self.model_dir(name)) {
            Ok(files) => files,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(versions),
            Err(e) => return Err(e.into()),
        };
        for file in files {
            if let Some(v) = parse_version_file(&file) {
                versions.push(v);
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// Commits `bytes` under `path` atomically and durably: temp file in
    /// the same directory, file fsync, rename over the final name,
    /// directory fsync. A crash at any point leaves either the old file
    /// or the new file, never a torn one.
    fn commit_file(&self, path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
        let dir = path
            .parent()
            .ok_or_else(|| ServeError::InvalidName(path.display().to_string()))?;
        let file_name = path
            .file_name()
            .ok_or_else(|| ServeError::InvalidName(path.display().to_string()))?
            .to_string_lossy();
        let tmp = dir.join(format!(".{file_name}.tmp"));
        self.fs.write(&tmp, bytes)?;
        self.fs.fsync_file(&tmp)?;
        self.fs.rename(&tmp, path)?;
        self.fs.fsync_dir(dir)?;
        Ok(())
    }

    /// Persists a model (and optionally its fit report) as the next
    /// version of `name`, returning that version. The first publish into
    /// an empty registry also becomes the active model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NonFinite`] when the model contains
    /// non-finite parameters, [`ServeError::InvalidName`] for names that
    /// cannot be file names, and [`ServeError::Io`] on write failure.
    pub fn publish(
        &self,
        name: &str,
        model: &PowerModel,
        report: Option<&FitReport>,
    ) -> Result<u32, ServeError> {
        Self::check_name(name)?;
        let version = self.versions_of(name)?.last().copied().unwrap_or(0) + 1;
        let entry = RegistryEntry {
            schema: REGISTRY_SCHEMA_VERSION,
            name: name.to_string(),
            version,
            device: model.spec().name().to_string(),
            model: model.clone(),
            report: report.cloned(),
        };
        let text = gpm_json::to_string_checked(&entry).map_err(ServeError::NonFinite)?;
        let sealed = integrity::seal(&text)?;
        let dir = self.model_dir(name);
        self.fs.create_dir_all(&dir)?;
        // Make the (possibly new) model directory itself durable before
        // committing anything into it.
        self.fs.fsync_dir(&self.root.join("models"))?;
        self.commit_file(&self.entry_path(name, version), sealed.as_bytes())?;
        gpm_obs::counter_add("registry.published", 1);
        if self.read_pointer()?.is_none() {
            self.activate(name, version)?;
        }
        Ok(version)
    }

    /// Loads one entry; `version: None` means the latest.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`]/[`ServeError::UnknownVersion`]
    /// for missing entries, [`ServeError::SchemaIncompatible`] for
    /// entries written by a newer schema, [`ServeError::Corrupt`] when
    /// the integrity trailer does not match the payload, and
    /// [`ServeError::Json`] for unparseable legacy files.
    pub fn load(&self, name: &str, version: Option<u32>) -> Result<RegistryEntry, ServeError> {
        Self::check_name(name)?;
        let versions = self.versions_of(name)?;
        let version = match version {
            Some(v) => {
                if !versions.contains(&v) {
                    return Err(if versions.is_empty() {
                        ServeError::UnknownModel(name.to_string())
                    } else {
                        ServeError::UnknownVersion {
                            name: name.to_string(),
                            version: v,
                        }
                    });
                }
                v
            }
            None => *versions
                .last()
                .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?,
        };
        let text = self.fs.read_to_string(&self.entry_path(name, version))?;
        let payload = integrity::unseal(&text)
            .map_err(|e| ServeError::Corrupt {
                what: format!("{name}@v{version}"),
                reason: e.to_string(),
            })?
            .payload()
            .to_string();
        let json = gpm_json::parse(&payload)?;
        // Schema gate before field-level conversion: a future schema may
        // not even have today's fields, and "missing field" would be the
        // wrong diagnosis.
        let found = json
            .get("schema")
            .map(u32::from_json)
            .transpose()?
            .unwrap_or(0);
        if found > REGISTRY_SCHEMA_VERSION {
            return Err(ServeError::SchemaIncompatible {
                found,
                supported: REGISTRY_SCHEMA_VERSION,
            });
        }
        Ok(RegistryEntry::from_json(&json)?)
    }

    /// All names with their versions and active marker, sorted by name.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the registry tree is unreadable.
    pub fn list(&self) -> Result<Vec<ModelInfo>, ServeError> {
        let active = self.active()?;
        let mut infos = Vec::new();
        for name in self.fs.read_dir(&self.root.join("models"))? {
            let versions = self.versions_of(&name)?;
            if versions.is_empty() {
                continue;
            }
            let active_version = active.as_ref().filter(|(n, _)| *n == name).map(|&(_, v)| v);
            infos.push(ModelInfo {
                name,
                versions,
                active: active_version,
            });
        }
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(infos)
    }

    /// Marks `name@vversion` as the model [`ModelRegistry::load_active`]
    /// returns. The pointer is generation-numbered and keeps the
    /// previously active target as its last-good fallback.
    ///
    /// # Errors
    ///
    /// Fails with [`ServeError::UnknownModel`]/[`ServeError::UnknownVersion`]
    /// when the target does not exist.
    pub fn activate(&self, name: &str, version: u32) -> Result<(), ServeError> {
        Self::check_name(name)?;
        let versions = self.versions_of(name)?;
        if versions.is_empty() {
            return Err(ServeError::UnknownModel(name.to_string()));
        }
        if !versions.contains(&version) {
            return Err(ServeError::UnknownVersion {
                name: name.to_string(),
                version,
            });
        }
        let current = self.read_pointer()?;
        let pointer = ActivePointer {
            name: name.to_string(),
            version,
            generation: current.as_ref().map(|p| p.generation + 1).unwrap_or(1),
            prev_name: current.as_ref().map(|p| p.name.clone()),
            prev_version: current.as_ref().map(|p| p.version),
        };
        let sealed = integrity::seal(&gpm_json::to_string(&pointer)?)?;
        self.commit_file(&self.active_path(), sealed.as_bytes())?;
        gpm_obs::counter_add("registry.activated", 1);
        Ok(())
    }

    /// Reads and verifies the ACTIVE pointer, if present.
    fn read_pointer(&self) -> Result<Option<ActivePointer>, ServeError> {
        match self.fs.read_to_string(&self.active_path()) {
            Ok(text) => {
                let payload = integrity::unseal(&text)
                    .map_err(|e| ServeError::Corrupt {
                        what: "ACTIVE".to_string(),
                        reason: e.to_string(),
                    })?
                    .payload()
                    .to_string();
                Ok(Some(gpm_json::from_str(&payload)?))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ServeError::Io(e)),
        }
    }

    /// The active `(name, version)`, if one has been set.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`]/[`ServeError::Json`] for a
    /// damaged ACTIVE pointer.
    pub fn active(&self) -> Result<Option<(String, u32)>, ServeError> {
        Ok(self.read_pointer()?.map(|p| (p.name, p.version)))
    }

    /// Loads the active entry, falling back to the pointer's last-good
    /// target when the current one is missing or quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoActiveModel`] when no pointer is set,
    /// plus the primary [`ModelRegistry::load`] failure when the
    /// fallback also cannot be loaded (or none is recorded).
    pub fn load_active(&self) -> Result<RegistryEntry, ServeError> {
        let pointer = self.read_pointer()?.ok_or(ServeError::NoActiveModel)?;
        match self.load(&pointer.name, Some(pointer.version)) {
            Ok(entry) => Ok(entry),
            Err(primary) => {
                if let (Some(prev_name), Some(prev_version)) =
                    (&pointer.prev_name, pointer.prev_version)
                {
                    if let Ok(entry) = self.load(prev_name, Some(prev_version)) {
                        gpm_obs::counter_add("registry.active_fallback", 1);
                        return Ok(entry);
                    }
                }
                Err(primary)
            }
        }
    }

    /// Resolves a `name[@vN]` reference (e.g. `gtx@v2`), or the active
    /// model when `reference` is `None`.
    ///
    /// # Errors
    ///
    /// Propagates the corresponding load failure; malformed references
    /// fail as [`ServeError::InvalidName`].
    pub fn resolve(&self, reference: Option<&str>) -> Result<RegistryEntry, ServeError> {
        match reference {
            None => self.load_active(),
            Some(r) => match r.split_once("@v") {
                None => self.load(r, None),
                Some((name, v)) => {
                    let version = v
                        .parse::<u32>()
                        .map_err(|_| ServeError::InvalidName(r.to_string()))?;
                    self.load(name, Some(version))
                }
            },
        }
    }

    /// Integrity classification of one entry's on-disk text.
    fn entry_health(&self, text: &str) -> EntryHealth {
        let unsealed = match integrity::unseal(text) {
            Ok(u) => u,
            Err(e) => return EntryHealth::Corrupt(e.to_string()),
        };
        let sealed = unsealed.is_sealed();
        let json = match gpm_json::parse(unsealed.payload()) {
            Ok(j) => j,
            Err(e) => return EntryHealth::Corrupt(e.to_string()),
        };
        let found = match json.get("schema").map(u32::from_json).transpose() {
            Ok(v) => v.unwrap_or(0),
            Err(e) => return EntryHealth::Corrupt(e.to_string()),
        };
        if found > REGISTRY_SCHEMA_VERSION {
            return EntryHealth::FutureSchema(found);
        }
        if let Err(e) = RegistryEntry::from_json(&json) {
            return EntryHealth::Corrupt(e.to_string());
        }
        if sealed {
            EntryHealth::Sealed
        } else {
            EntryHealth::Legacy
        }
    }

    /// Removes interrupted temp files and quarantines corrupt artifacts.
    /// Idempotent; [`ModelRegistry::open`] runs it before serving.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the sweep cannot read or rename.
    pub fn recover(&self) -> Result<RecoveryReport, ServeError> {
        let mut report = RecoveryReport::default();
        // Root level: leftover ACTIVE temp file, corrupt ACTIVE pointer.
        for file in self.fs.read_dir(&self.root)? {
            let path = self.root.join(&file);
            if file.ends_with(".tmp") {
                self.fs.remove_file(&path)?;
                report.removed_tmp += 1;
            } else if file == "ACTIVE" {
                match self.read_pointer() {
                    Ok(_) => {}
                    // Only content damage quarantines; a transient read
                    // failure must not throw away a healthy pointer.
                    Err(ServeError::Corrupt { .. } | ServeError::Json(_)) => {
                        self.quarantine(&path, &file, &mut report)?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        // Model level: per-entry temp files and corrupt versions.
        let models = self.root.join("models");
        for name in self.fs.read_dir(&models)? {
            let dir = models.join(&name);
            let Ok(files) = self.fs.read_dir(&dir) else {
                continue;
            };
            for file in files {
                let path = dir.join(&file);
                if file.ends_with(".tmp") {
                    self.fs.remove_file(&path)?;
                    report.removed_tmp += 1;
                } else if parse_version_file(&file).is_some() {
                    let health = match self.fs.read_to_string(&path) {
                        Ok(text) => self.entry_health(&text),
                        Err(e) => EntryHealth::Corrupt(e.to_string()),
                    };
                    if health.is_corrupt() {
                        let rel = format!("models/{name}/{file}");
                        self.quarantine(&path, &rel, &mut report)?;
                    }
                }
            }
        }
        Ok(report)
    }

    fn quarantine(
        &self,
        path: &Path,
        rel: &str,
        report: &mut RecoveryReport,
    ) -> Result<(), ServeError> {
        let aside = PathBuf::from(format!("{}{QUARANTINE_SUFFIX}", path.display()));
        self.fs.rename(path, &aside)?;
        report.quarantined.push(format!("{rel}{QUARANTINE_SUFFIX}"));
        Ok(())
    }

    /// Audits every artifact without modifying anything: per-version
    /// integrity status, previously quarantined files, and whether the
    /// ACTIVE pointer resolves.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the registry tree is unreadable.
    pub fn fsck(&self) -> Result<FsckReport, ServeError> {
        let mut report = FsckReport::default();
        for file in self.fs.read_dir(&self.root)? {
            if file.ends_with(QUARANTINE_SUFFIX) {
                report.quarantined.push(file);
            }
        }
        let models = self.root.join("models");
        for name in self.fs.read_dir(&models)? {
            let dir = models.join(&name);
            let Ok(files) = self.fs.read_dir(&dir) else {
                continue;
            };
            for file in files {
                if file.ends_with(QUARANTINE_SUFFIX) {
                    report.quarantined.push(format!("models/{name}/{file}"));
                    continue;
                }
                let Some(version) = parse_version_file(&file) else {
                    continue;
                };
                let health = match self.fs.read_to_string(&dir.join(&file)) {
                    Ok(text) => self.entry_health(&text),
                    Err(e) => EntryHealth::Corrupt(e.to_string()),
                };
                report.entries.push(FsckEntry {
                    name: name.clone(),
                    version,
                    health,
                });
            }
        }
        report
            .entries
            .sort_by(|a, b| (&a.name, a.version).cmp(&(&b.name, b.version)));
        match self.read_pointer() {
            Ok(Some(pointer)) => {
                let resolves = report.entries.iter().any(|e| {
                    e.name == pointer.name && e.version == pointer.version && !e.health.is_corrupt()
                });
                if !resolves {
                    report.problems.push(format!(
                        "ACTIVE points at {}@v{}, which is missing or corrupt",
                        pointer.name, pointer.version
                    ));
                }
                report.active = Some((pointer.name, pointer.version));
            }
            Ok(None) => {}
            Err(e) => report.problems.push(format!("ACTIVE pointer: {e}")),
        }
        Ok(report)
    }
}

/// Parses `v<digits>.json` into the version number.
fn parse_version_file(file: &str) -> Option<u32> {
    file.strip_prefix('v')
        .and_then(|s| s.strip_suffix(".json"))
        .and_then(|s| s.parse::<u32>().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::{DomainParams, VoltageTable};
    use gpm_spec::devices;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("gpm-serve-registry-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A tiny, finite, fit-free model: registry tests exercise
    /// persistence, not prediction quality.
    fn tiny_model() -> PowerModel {
        let spec = devices::gtx_titan_x();
        let reference = spec.default_config();
        PowerModel::new(
            spec,
            DomainParams {
                static_coef: 30.0,
                idle_dyn: 20.0,
                omegas: vec![1.0; 6],
            },
            DomainParams {
                static_coef: 10.0,
                idle_dyn: 11.0,
                omegas: vec![1.0],
            },
            VoltageTable::new(reference, []),
            600.0,
        )
    }

    #[test]
    fn names_are_validated() {
        let reg = ModelRegistry::open(tmp("names")).unwrap();
        for bad in ["", "../etc", "a/b", ".hidden", "sp ace"] {
            assert!(
                matches!(reg.load(bad, None), Err(ServeError::InvalidName(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn missing_models_are_typed_errors() {
        let reg = ModelRegistry::open(tmp("missing")).unwrap();
        assert!(matches!(
            reg.load("ghost", None),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(reg.load_active(), Err(ServeError::NoActiveModel)));
        assert!(matches!(
            reg.activate("ghost", 1),
            Err(ServeError::UnknownModel(_))
        ));
        assert_eq!(reg.list().unwrap(), Vec::new());
    }

    #[test]
    fn newer_schema_entries_are_refused() {
        let reg = ModelRegistry::open(tmp("schema")).unwrap();
        let dir = reg.model_dir("future");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("v1.json"),
            format!(
                r#"{{"schema":{},"name":"future","version":1}}"#,
                REGISTRY_SCHEMA_VERSION + 1
            ),
        )
        .unwrap();
        assert!(matches!(
            reg.load("future", None),
            Err(ServeError::SchemaIncompatible { .. })
        ));
    }

    #[test]
    fn published_entries_are_sealed_and_verified() {
        let reg = ModelRegistry::open(tmp("sealed")).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap();
        let text = fs::read_to_string(reg.entry_path("m", 1)).unwrap();
        assert!(
            gpm_json::integrity::unseal(&text).unwrap().is_sealed(),
            "published entries carry a verified integrity trailer"
        );
        let report = reg.fsck().unwrap();
        assert!(report.is_healthy(), "{report:?}");
        assert_eq!(report.entries[0].health, EntryHealth::Sealed);
    }

    #[test]
    fn legacy_trailerless_entries_still_load() {
        let root = tmp("legacy");
        let reg = ModelRegistry::open(&root).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap();
        // Strip the trailer, simulating a file from before sealing.
        let path = reg.entry_path("m", 1);
        let text = fs::read_to_string(&path).unwrap();
        let payload = text.split_once('\n').unwrap().0.to_string();
        fs::write(&path, &payload).unwrap();
        // And a legacy ACTIVE pointer without generation fields.
        fs::write(root.join("ACTIVE"), r#"{"name":"m","version":1}"#).unwrap();

        let reg = ModelRegistry::open(&root).unwrap();
        assert_eq!(reg.load("m", None).unwrap().version, 1);
        assert_eq!(reg.active().unwrap(), Some(("m".to_string(), 1)));
        let report = reg.fsck().unwrap();
        assert_eq!(report.entries[0].health, EntryHealth::Legacy);
        assert!(report.is_healthy(), "{report:?}");
    }

    #[test]
    fn corrupt_entries_are_quarantined_on_open() {
        let root = tmp("quarantine");
        let reg = ModelRegistry::open(&root).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap();
        // Flip bytes inside v2: the CRC must catch it on reopen.
        let path = reg.entry_path("m", 2);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let reg = ModelRegistry::open(&root).unwrap();
        assert!(!reg.fs.exists(&path), "corrupt v2 was moved aside");
        assert!(PathBuf::from(format!("{}{QUARANTINE_SUFFIX}", path.display())).exists());
        // The corrupt version is never served.
        assert!(matches!(
            reg.load("m", Some(2)),
            Err(ServeError::UnknownVersion { .. })
        ));
        assert_eq!(reg.list().unwrap()[0].versions, vec![1]);
        let report = reg.fsck().unwrap();
        assert!(!report.is_healthy());
        assert_eq!(report.quarantined.len(), 1);
    }

    #[test]
    fn active_pointer_falls_back_to_last_good_target() {
        let root = tmp("fallback");
        let reg = ModelRegistry::open(&root).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap(); // v1, auto-active
        reg.publish("m", &tiny_model(), None).unwrap(); // v2
        reg.activate("m", 2).unwrap(); // prev = v1
                                       // Corrupt the active target; reopen quarantines it.
        let path = reg.entry_path("m", 2);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let reg = ModelRegistry::open(&root).unwrap();

        // ACTIVE still names v2, but serving falls back to v1.
        assert_eq!(reg.active().unwrap(), Some(("m".to_string(), 2)));
        assert_eq!(reg.load_active().unwrap().version, 1);
        let report = reg.fsck().unwrap();
        assert!(!report.is_healthy());
        assert!(
            report.problems.iter().any(|p| p.contains("m@v2")),
            "{report:?}"
        );
    }

    #[test]
    fn interrupted_temp_files_are_swept_on_open() {
        let root = tmp("sweep");
        let reg = ModelRegistry::open(&root).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap();
        let stray_entry = reg.model_dir("m").join(".v2.json.tmp");
        let stray_active = root.join(".ACTIVE.tmp");
        fs::write(&stray_entry, "torn").unwrap();
        fs::write(&stray_active, "torn").unwrap();

        let reg = ModelRegistry::open(&root).unwrap();
        assert!(!stray_entry.exists());
        assert!(!stray_active.exists());
        assert_eq!(reg.list().unwrap()[0].versions, vec![1]);
        assert!(reg.fsck().unwrap().is_healthy());
    }

    #[test]
    fn activation_generations_increase_and_keep_prev() {
        let root = tmp("generations");
        let reg = ModelRegistry::open(&root).unwrap();
        reg.publish("a", &tiny_model(), None).unwrap(); // gen 1 (auto)
        reg.publish("b", &tiny_model(), None).unwrap();
        reg.activate("b", 1).unwrap(); // gen 2, prev a@v1
        let pointer = reg.read_pointer().unwrap().unwrap();
        assert_eq!(pointer.generation, 2);
        assert_eq!(pointer.prev_name.as_deref(), Some("a"));
        assert_eq!(pointer.prev_version, Some(1));
    }

    #[test]
    fn corrupt_active_pointer_is_quarantined_not_served() {
        let root = tmp("bad-active");
        let reg = ModelRegistry::open(&root).unwrap();
        reg.publish("m", &tiny_model(), None).unwrap();
        fs::write(
            root.join("ACTIVE"),
            "{\"name\":\"m\"\n#gpm-integrity v1 len=1 crc32=00000000",
        )
        .unwrap();

        let reg = ModelRegistry::open(&root).unwrap();
        assert_eq!(reg.active().unwrap(), None, "corrupt pointer moved aside");
        assert!(root.join(format!("ACTIVE{QUARANTINE_SUFFIX}")).exists());
        assert!(matches!(reg.load_active(), Err(ServeError::NoActiveModel)));
    }
}
