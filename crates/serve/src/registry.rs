//! Multi-model registry: versioned artifacts, hot load/unload, and
//! quarantine.
//!
//! The daemon hosts many `.ppmodel` artifacts at once. Each *name* in
//! the registry owns a list of monotonically numbered *versions*;
//! `load` appends a fresh version from disk, `reload` re-reads an
//! existing version's path in place, and routing resolves either a
//! bare name (newest healthy version) or a pinned `name@version`.
//!
//! Failure policy, which is the point of this module:
//!
//! * **Transient load failures retry with bounded backoff.** An
//!   [`fault::Error::Io`] from [`mlmodels::ModelArtifact::load`] is
//!   retried up to [`RegistryConfig::load_retries`] times, sleeping
//!   `backoff_ms · 2^attempt` (capped) between attempts — the file may
//!   be mid-copy by the exporter.
//! * **A corrupt artifact quarantines that version, never the
//!   process.** A typed [`fault::Error::Artifact`] (bad checksum,
//!   truncation, version mismatch) is *not* retried: the version
//!   transitions to [`Quarantined`](VersionState) with the reason
//!   recorded, and — crucially — keeps whatever surrogate cache it had
//!   accumulated, so the daemon's fail-closed degraded mode can still
//!   answer cache hits for the dark route.
//! * **Routing falls back.** A bare-name route skips quarantined
//!   versions and serves the newest healthy one; only when *no*
//!   healthy version exists does the route go degraded. A pinned
//!   `name@version` route never falls back — pinning means the caller
//!   wants exactly that version or a typed error.

use crate::cache::LruCache;
use crate::compiled::{compile_with, CompiledModel, Precision};
use fault::{Error, Result};
use mlmodels::artifact::TableSchema;
use mlmodels::ModelArtifact;
use std::collections::BTreeMap;
use telemetry::json::JsonObject;

/// A loaded, compiled artifact plus its per-model surrogate cache.
pub struct ServingModel {
    /// The artifact served on this route, compiled into its
    /// topology-specialized predictor at load time.
    pub compiled: CompiledModel,
    /// LRU cache keyed on canonicalized configuration vectors.
    pub cache: LruCache<Vec<u64>, f64>,
}

impl ServingModel {
    /// The artifact behind the compiled predictor.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.compiled.artifact
    }
}

/// Health of one registered version.
pub(crate) enum VersionState {
    /// Loaded and serving.
    Ready(Box<ServingModel>),
    /// Dark: the artifact failed to (re)load. The salvaged cache keeps
    /// serving hits in degraded mode; `reason` is surfaced in every
    /// typed rejection and in `status`.
    Quarantined {
        /// Why the version went dark (the typed load error, rendered).
        reason: String,
        /// Cache salvaged from the version's serving life, if any.
        cache: LruCache<Vec<u64>, f64>,
        /// Schema salvaged alongside the cache — without it requests
        /// cannot be canonicalized, so a quarantined version that never
        /// served (fresh load failure) cannot answer even cache hits.
        schema: Option<TableSchema>,
    },
}

struct Version {
    version: u64,
    path: String,
    state: VersionState,
}

struct ModelEntry {
    versions: Vec<Version>, // ascending by version number
    next_version: u64,
}

/// Registry tuning knobs.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Per-model surrogate-cache capacity (0 disables caching, which
    /// also disables degraded-mode hit serving).
    pub cache_cap: usize,
    /// Retry attempts for *transient* (I/O) load failures.
    pub load_retries: u32,
    /// Base backoff between retries; doubles per attempt, capped at
    /// 32× the base.
    pub backoff_ms: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            cache_cap: 4096,
            load_retries: 2,
            backoff_ms: 10,
        }
    }
}

/// Counters the registry reports through `status` and the daemon's
/// final stats line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Successful version loads (including reloads).
    pub loads: u64,
    /// Transient load attempts that were retried.
    pub retries: u64,
    /// Versions quarantined by corrupt artifacts.
    pub quarantines: u64,
    /// Versions or whole names unloaded.
    pub unloads: u64,
}

/// What a route resolves to (see module docs for the fallback rules).
pub enum Route<'a> {
    /// A healthy version: full service.
    Ready {
        /// Resolved `name@version` label.
        label: String,
        /// The model and its cache.
        model: &'a mut ServingModel,
    },
    /// Every candidate version is quarantined: degraded, cache-only
    /// service against the newest quarantined version's salvaged cache.
    Quarantined {
        /// Resolved `name@version` label of the newest dark version.
        label: String,
        /// Why it is dark.
        reason: String,
        /// Salvaged cache (may be empty).
        cache: &'a mut LruCache<Vec<u64>, f64>,
        /// Salvaged schema; `None` means the version never served and
        /// no request can even be canonicalized against it.
        schema: Option<&'a TableSchema>,
    },
}

impl std::fmt::Debug for Route<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Route::Ready { label, .. } => write!(f, "Route::Ready({label})"),
            Route::Quarantined { label, reason, .. } => {
                write!(f, "Route::Quarantined({label}: {reason})")
            }
        }
    }
}

/// The daemon's model host (see module docs).
pub struct Registry {
    models: BTreeMap<String, ModelEntry>,
    config: RegistryConfig,
    stats: RegistryStats,
}

/// Split a route into `(name, pinned version)`.
fn parse_route(route: &str) -> Result<(&str, Option<u64>)> {
    match route.split_once('@') {
        None => Ok((route, None)),
        Some((name, v)) => {
            let version: u64 = v.parse().map_err(|_| {
                Error::invalid(format!(
                    "route '{route}': version after '@' must be a number"
                ))
            })?;
            Ok((name, Some(version)))
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Registry {
        Registry {
            models: BTreeMap::new(),
            config,
            stats: RegistryStats::default(),
        }
    }

    /// Load `path` with bounded-backoff retry on transient I/O errors.
    /// Corrupt artifacts fail immediately — retrying a bad checksum
    /// cannot help.
    fn load_with_retry(&mut self, path: &str) -> Result<ModelArtifact> {
        let mut backoff = self.config.backoff_ms;
        let mut attempt = 0u32;
        loop {
            match ModelArtifact::load(path) {
                Ok(a) => return Ok(a),
                Err(e @ Error::Io { .. }) if attempt < self.config.load_retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    telemetry::counter_add("serve/registry_load_retries", 1);
                    telemetry::emit_point(
                        "serve/registry_retry",
                        &[("path", path.to_string()), ("error", e.to_string())],
                    );
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                    backoff = (backoff * 2).min(self.config.backoff_ms.saturating_mul(32));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Register a new version of `name` from `path`. On success the new
    /// version becomes the newest healthy route target. On a corrupt
    /// artifact — or one that fails to compile (malformed plan) — the
    /// new version is registered *quarantined* (with the reason) and the
    /// error is returned; previously healthy versions keep serving
    /// untouched.
    pub fn load(&mut self, name: &str, path: &str) -> Result<u64> {
        if name.is_empty() || name.contains('@') {
            return Err(Error::invalid(format!(
                "model name '{name}' must be non-empty and must not contain '@'"
            )));
        }
        let loaded = self
            .load_with_retry(path)
            .and_then(|a| compile_with(a, Precision::F64));
        let entry = self.models.entry(name.to_string()).or_insert(ModelEntry {
            versions: Vec::new(),
            next_version: 1,
        });
        let version = entry.next_version;
        entry.next_version += 1;
        match loaded {
            Ok(compiled) => {
                entry.versions.push(Version {
                    version,
                    path: path.to_string(),
                    state: VersionState::Ready(Box::new(ServingModel {
                        compiled,
                        cache: LruCache::new(self.config.cache_cap),
                    })),
                });
                self.stats.loads += 1;
                telemetry::counter_add("serve/registry_loads", 1);
                Ok(version)
            }
            Err(e) => {
                entry.versions.push(Version {
                    version,
                    path: path.to_string(),
                    state: VersionState::Quarantined {
                        reason: e.to_string(),
                        cache: LruCache::new(0),
                        schema: None,
                    },
                });
                self.stats.quarantines += 1;
                telemetry::counter_add("serve/registry_quarantines", 1);
                Err(e)
            }
        }
    }

    /// Re-read a version's artifact from its recorded path, in place.
    /// `route` is a name (newest version) or `name@version`. On a
    /// corrupt artifact the version transitions Ready → Quarantined but
    /// *keeps its accumulated cache*, enabling degraded hit-serving.
    pub(crate) fn reload(&mut self, route: &str) -> Result<u64> {
        let (name, pinned) = parse_route(route)?;
        // Resolve the target version number first (immutably), then
        // load outside the borrow so retry/backoff does not hold the
        // entry.
        let (version, path) = {
            let entry = self
                .models
                .get(name)
                .ok_or_else(|| Error::invalid(format!("unknown model '{name}'")))?;
            let v = match pinned {
                Some(p) => entry
                    .versions
                    .iter()
                    .find(|v| v.version == p)
                    .ok_or_else(|| Error::invalid(format!("unknown version '{route}'")))?,
                None => entry
                    .versions
                    .last()
                    .ok_or_else(|| Error::invalid(format!("model '{name}' has no versions")))?,
            };
            (v.version, v.path.clone())
        };
        let loaded = self
            .load_with_retry(&path)
            .and_then(|a| compile_with(a, Precision::F64));
        let entry = self.models.get_mut(name).unwrap_or_else(|| {
            unreachable!("entry '{name}' existed above and reload holds &mut self")
        });
        let slot = entry
            .versions
            .iter_mut()
            .find(|v| v.version == version)
            .unwrap_or_else(|| unreachable!("version {version} existed above"));
        let placeholder = VersionState::Quarantined {
            reason: String::new(),
            cache: LruCache::new(0),
            schema: None,
        };
        match loaded {
            Ok(compiled) => {
                let cache = match std::mem::replace(&mut slot.state, placeholder) {
                    VersionState::Ready(m) => m.cache,
                    VersionState::Quarantined { .. } => LruCache::new(self.config.cache_cap),
                };
                slot.state = VersionState::Ready(Box::new(ServingModel { compiled, cache }));
                self.stats.loads += 1;
                telemetry::counter_add("serve/registry_loads", 1);
                Ok(version)
            }
            Err(e) => {
                // Salvage the serving cache and schema for degraded mode.
                let (cache, schema) = match std::mem::replace(&mut slot.state, placeholder) {
                    VersionState::Ready(m) => {
                        let m = *m;
                        (m.cache, Some(m.compiled.artifact.schema))
                    }
                    VersionState::Quarantined { cache, schema, .. } => (cache, schema),
                };
                slot.state = VersionState::Quarantined {
                    reason: e.to_string(),
                    cache,
                    schema,
                };
                self.stats.quarantines += 1;
                telemetry::counter_add("serve/registry_quarantines", 1);
                Err(e)
            }
        }
    }

    /// Remove a version (`name@version`) or every version of a name.
    pub(crate) fn unload(&mut self, route: &str) -> Result<()> {
        let (name, pinned) = parse_route(route)?;
        let entry = self
            .models
            .get_mut(name)
            .ok_or_else(|| Error::invalid(format!("unknown model '{name}'")))?;
        match pinned {
            None => {
                self.stats.unloads += entry.versions.len() as u64;
                self.models.remove(name);
            }
            Some(p) => {
                let before = entry.versions.len();
                entry.versions.retain(|v| v.version != p);
                if entry.versions.len() == before {
                    return Err(Error::invalid(format!("unknown version '{route}'")));
                }
                self.stats.unloads += 1;
                if entry.versions.is_empty() {
                    self.models.remove(name);
                }
            }
        }
        telemetry::counter_add("serve/registry_unloads", 1);
        Ok(())
    }

    /// Resolve a route for serving (see module docs for fallback).
    pub fn resolve(&mut self, route: &str) -> Result<Route<'_>> {
        let (name, pinned) = parse_route(route)?;
        let entry = self
            .models
            .get_mut(name)
            .ok_or_else(|| Error::invalid(format!("unknown model '{name}'")))?;
        // Candidate versions, newest first; a pinned route considers
        // exactly one.
        let mut candidates: Vec<&mut Version> = entry
            .versions
            .iter_mut()
            .filter(|v| pinned.is_none_or(|p| v.version == p))
            .collect();
        if candidates.is_empty() {
            return Err(Error::invalid(format!("unknown version '{route}'")));
        }
        candidates.sort_by_key(|v| std::cmp::Reverse(v.version));
        // Newest healthy version wins; otherwise the newest quarantined
        // version's salvaged cache serves degraded hits.
        let ready_pos = candidates
            .iter()
            .position(|v| matches!(v.state, VersionState::Ready(_)));
        let chosen = match ready_pos {
            Some(pos) => candidates.swap_remove(pos),
            None => candidates.swap_remove(0),
        };
        let label = format!("{name}@{}", chosen.version);
        match &mut chosen.state {
            VersionState::Ready(model) => Ok(Route::Ready { label, model }),
            VersionState::Quarantined {
                reason,
                cache,
                schema,
            } => Ok(Route::Quarantined {
                label,
                reason: reason.clone(),
                cache,
                schema: schema.as_ref(),
            }),
        }
    }

    /// Whether at least one healthy version exists anywhere.
    pub(crate) fn has_ready(&self) -> bool {
        self.models.values().any(|e| {
            e.versions
                .iter()
                .any(|v| matches!(v.state, VersionState::Ready(_)))
        })
    }

    /// Fail-closed check: true when the registry has models but every
    /// single version is quarantined — the daemon's termination
    /// condition (exit code 8).
    pub(crate) fn all_quarantined(&self) -> bool {
        !self.models.is_empty() && !self.has_ready()
    }

    /// The single registered name, when exactly one model is hosted —
    /// the daemon's implicit route for frames that omit `"model"`.
    pub(crate) fn sole_name(&self) -> Option<&str> {
        let mut names = self.models.keys();
        match (names.next(), names.next()) {
            (Some(name), None) => Some(name.as_str()),
            _ => None,
        }
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Registry counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// One JSON object per version, sorted by name then version — the
    /// body of the `status` op. Deterministic: `models` is a B-tree and
    /// versions are kept ascending.
    pub(crate) fn status_json(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, entry) in &self.models {
            for v in &entry.versions {
                let obj = JsonObject::new()
                    .str("model", name)
                    .uint("version", v.version)
                    .str("path", &v.path);
                let obj = match &v.state {
                    VersionState::Ready(m) => obj
                        .str("state", "ready")
                        .str("kind", m.compiled.artifact.model.kind.abbrev())
                        .usize("cache_entries", m.cache.len()),
                    VersionState::Quarantined { reason, cache, .. } => obj
                        .str("state", "quarantined")
                        .str("reason", reason)
                        .usize("cache_entries", cache.len()),
                };
                out.push(obj.finish());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmodels::{try_train, ModelKind, Table};

    fn write_artifact(dir: &std::path::Path, file: &str) -> String {
        let n = 32;
        let xs: Vec<f64> = (0..n).map(|i| 100.0 + (i % 4) as f64 * 10.0).collect();
        let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let mut t = Table::new();
        t.add_numeric("x", xs).set_target(y);
        let art =
            ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 3).expect("train"), &t);
        let path = dir.join(file).to_string_lossy().into_owned();
        art.save(&path).expect("save artifact");
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfpredict-registry-{tag}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn cfg() -> RegistryConfig {
        RegistryConfig {
            cache_cap: 16,
            load_retries: 1,
            backoff_ms: 1,
        }
    }

    #[test]
    fn load_resolve_and_version_routing() {
        let dir = tmpdir("route");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(cfg());
        assert_eq!(reg.load("mcf", &path).expect("load v1"), 1);
        assert_eq!(reg.load("mcf", &path).expect("load v2"), 2);
        match reg.resolve("mcf").expect("bare name") {
            Route::Ready { label, .. } => assert_eq!(label, "mcf@2", "newest wins"),
            Route::Quarantined { .. } => panic!("healthy model resolved quarantined"),
        }
        match reg.resolve("mcf@1").expect("pinned") {
            Route::Ready { label, .. } => assert_eq!(label, "mcf@1"),
            Route::Quarantined { .. } => panic!("pinned healthy version"),
        }
        assert_eq!(reg.resolve("nope").expect_err("unknown").kind(), "invalid");
        assert_eq!(
            reg.resolve("mcf@9").expect_err("unknown version").kind(),
            "invalid"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_load_quarantines_new_version_and_falls_back() {
        let dir = tmpdir("corrupt");
        let good = write_artifact(&dir, "good.ppmodel");
        let bad = dir.join("bad.ppmodel").to_string_lossy().into_owned();
        std::fs::write(&bad, "not an artifact").expect("write corrupt");
        let mut reg = Registry::new(cfg());
        reg.load("mcf", &good).expect("v1 healthy");
        let err = reg.load("mcf", &bad).expect_err("corrupt");
        assert_eq!(err.kind(), "artifact");
        // v2 is quarantined, but the bare route falls back to v1.
        match reg.resolve("mcf").expect("fallback") {
            Route::Ready { label, .. } => assert_eq!(label, "mcf@1"),
            Route::Quarantined { .. } => panic!("fallback should find v1"),
        }
        // The pinned route reports the quarantine, never falls back.
        match reg.resolve("mcf@2").expect("pinned resolves") {
            Route::Quarantined { label, reason, .. } => {
                assert_eq!(label, "mcf@2");
                assert!(!reason.is_empty());
            }
            Route::Ready { .. } => panic!("pinned quarantined version must not serve"),
        }
        assert!(!reg.all_quarantined(), "v1 still healthy");
        assert_eq!(reg.stats().quarantines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_reload_keeps_cache_for_degraded_mode() {
        let dir = tmpdir("reload");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(cfg());
        reg.load("mcf", &path).expect("v1");
        // Warm the serving cache.
        match reg.resolve("mcf").expect("ready") {
            Route::Ready { model, .. } => model.cache.put(vec![42], 7.5),
            Route::Quarantined { .. } => panic!("fresh model is ready"),
        }
        // Corrupt the on-disk artifact, then reload in place.
        std::fs::write(&path, "garbage").expect("corrupt file");
        let err = reg.reload("mcf").expect_err("reload of corrupt file");
        assert_eq!(err.kind(), "artifact");
        assert!(reg.all_quarantined(), "only version is dark");
        match reg.resolve("mcf").expect("degraded route") {
            Route::Quarantined { cache, .. } => {
                assert_eq!(
                    cache.get(&vec![42]),
                    Some(7.5),
                    "salvaged cache serves hits"
                );
            }
            Route::Ready { .. } => panic!("quarantined model resolved ready"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_io_failure_retries_with_bounded_backoff() {
        let mut reg = Registry::new(RegistryConfig {
            load_retries: 2,
            backoff_ms: 1,
            ..cfg()
        });
        let err = reg
            .load("mcf", "/nonexistent/never.ppmodel")
            .expect_err("io");
        assert_eq!(err.kind(), "io");
        assert_eq!(reg.stats().retries, 2, "both retries consumed");
        // The failed load still registered a quarantined version.
        assert!(reg.all_quarantined());
        let _ = reg;
    }

    #[test]
    fn unload_and_status_are_deterministic() {
        let dir = tmpdir("status");
        let path = write_artifact(&dir, "m.ppmodel");
        let mut reg = Registry::new(cfg());
        reg.load("alpha", &path).expect("alpha");
        reg.load("beta", &path).expect("beta v1");
        reg.load("beta", &path).expect("beta v2");
        let status = reg.status_json();
        assert_eq!(status.len(), 3);
        assert!(status[0].contains("\"model\":\"alpha\""), "{}", status[0]);
        assert!(status[1].contains("\"version\":1"), "{}", status[1]);
        assert!(status[2].contains("\"version\":2"), "{}", status[2]);
        reg.unload("beta@1").expect("drop one version");
        assert_eq!(reg.status_json().len(), 2);
        reg.unload("beta").expect("drop the rest");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.unload("beta").expect_err("gone").kind(), "invalid");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
