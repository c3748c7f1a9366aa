//! Named model registry: the serving engine's source of truth for which
//! models exist and what inputs they accept.
//!
//! Two load paths converge on the same [`ModelEntry`]:
//!
//! * [`ModelRegistry::load_model`] reads a single-file `.fnc` model
//!   (config + weights) written by `Fno::save`;
//! * [`ModelRegistry::load_checkpoint`] reads a full training checkpoint
//!   (`.ftc`). The checkpoint's embedded [`ModelMeta`] is **validated
//!   before any weights are instantiated** — the architecture is rebuilt
//!   from the metadata, `Checkpoint::validate_meta` cross-checks the
//!   recorded parameter count against that architecture, and only then
//!   are the parameters restored. A legacy v1 checkpoint (no metadata)
//!   is a typed [`CheckpointError::MetaMissing`] error: serving refuses
//!   to guess an architecture.
//!
//! Entries are immutable once registered and shared via `Arc`, so the
//! dispatcher and every session hold cheap references.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use fno_core::checkpoint::CheckpointError;
use fno_core::{Checkpoint, Fno, FnoConfig, FnoKind, ForecastModel, ModelMeta};

/// Why a model failed to register.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem or format failure loading a `.fnc` model file.
    Io(io::Error),
    /// Checkpoint-specific failure (corruption, missing or mismatched
    /// metadata) loading a `.ftc` file.
    Checkpoint(CheckpointError),
    /// A model with this name is already registered.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "model load failed: {e}"),
            RegistryError::Checkpoint(e) => write!(f, "checkpoint load failed: {e}"),
            RegistryError::Duplicate(name) => write!(f, "model `{name}` already registered"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Checkpoint(e) => Some(e),
            RegistryError::Duplicate(_) => None,
        }
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<CheckpointError> for RegistryError {
    fn from(e: CheckpointError) -> Self {
        RegistryError::Checkpoint(e)
    }
}

/// One registered model: the name clients address it by, the loaded
/// network, and (when loaded from a checkpoint) its validated metadata.
pub struct ModelEntry {
    /// Registry name, used as the micro-batching key.
    pub name: String,
    /// The loaded network. Immutable — inference only.
    pub model: Box<dyn ForecastModel + Send + Sync>,
    /// Metadata the model was validated against, when known.
    pub meta: Option<ModelMeta>,
    config: FnoConfig,
}

impl ModelEntry {
    /// The model's configuration: the input contract requests are
    /// validated against.
    pub fn config(&self) -> &FnoConfig {
        &self.config
    }

    /// The input shape (excluding the batch axis) this model accepts from
    /// the serving layer: `[C_in, H, W]` for the 2D temporal-channel
    /// variant, `[T, H, W]` for the 3D variant (`T = C_in` frames).
    pub fn input_rank_hint(&self) -> &'static str {
        match self.config().kind {
            FnoKind::TwoDChannels => "[C_in, H, W]",
            FnoKind::ThreeD => "[T, H, W]",
        }
    }
}

/// A name → [`ModelEntry`] map. Construction is single-threaded (server
/// startup); lookups after that are lock-free via `Arc` clones.
#[derive(Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<ModelEntry>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an already-constructed model under `name`.
    pub fn insert(&mut self, name: &str, model: Fno) -> Result<(), RegistryError> {
        self.insert_entry(name, model, None)
    }

    /// Registers any forecasting model under `name`; `config` is the input
    /// contract (layout, channels, retained modes) requests are validated
    /// against.
    pub fn insert_model(
        &mut self,
        name: &str,
        config: FnoConfig,
        model: Box<dyn ForecastModel + Send + Sync>,
    ) -> Result<(), RegistryError> {
        self.add(ModelEntry { name: name.to_string(), model, meta: None, config })
    }

    fn insert_entry(
        &mut self,
        name: &str,
        model: Fno,
        meta: Option<ModelMeta>,
    ) -> Result<(), RegistryError> {
        let config = model.config().clone();
        self.add(ModelEntry { name: name.to_string(), model: Box::new(model), meta, config })
    }

    fn add(&mut self, entry: ModelEntry) -> Result<(), RegistryError> {
        if self.models.contains_key(&entry.name) {
            return Err(RegistryError::Duplicate(entry.name));
        }
        self.models.insert(entry.name.clone(), Arc::new(entry));
        Ok(())
    }

    /// Loads a `.fnc` single-file model (config + weights) as `name`.
    pub fn load_model(&mut self, name: &str, path: impl AsRef<Path>) -> Result<(), RegistryError> {
        let model = Fno::load(path)?;
        self.insert_entry(name, model, None)
    }

    /// Loads a `.ftc` training checkpoint as `name`, validating its
    /// embedded metadata before restoring any weights.
    ///
    /// The returned errors are typed: a v1 checkpoint without metadata is
    /// [`CheckpointError::MetaMissing`]; a checkpoint whose recorded
    /// parameter count disagrees with the architecture its own metadata
    /// describes is [`CheckpointError::MetaMismatch`].
    pub fn load_checkpoint(
        &mut self,
        name: &str,
        path: impl AsRef<Path>,
    ) -> Result<(), RegistryError> {
        let ck = Checkpoint::load_typed(path)?;
        let meta = ck.meta.clone().ok_or(CheckpointError::MetaMissing)?;
        let cfg = meta.to_config();
        // Cross-checks the stored parameter count against the architecture
        // described by the metadata itself — catches truncated or spliced
        // parameter sections before restore_params can panic.
        ck.validate_meta(&cfg)?;
        let mut model = Fno::new(cfg, 0);
        ft_nn::restore_params(&mut model, &ck.params);
        self.insert_entry(name, model, Some(meta))
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models.get(name).cloned()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.models.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FnoConfig {
        FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 4,
            out_channels: 2,
            lifting_channels: 3,
            projection_channels: 3,
            norm: false,
        }
    }

    #[test]
    fn fnc_file_roundtrips_through_registry() {
        let dir = std::env::temp_dir().join("ft_serve_registry_fnc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.fnc");
        let mut model = Fno::new(tiny_cfg(), 9);
        model.save(&path).unwrap();
        let x = ft_tensor::Tensor::from_fn(&[1, 4, 8, 8], |i| (i[2] + i[3]) as f64 * 0.01);
        let want = model.infer(&x);

        let mut reg = ModelRegistry::new();
        reg.load_model("m", &path).unwrap();
        let entry = reg.get("m").unwrap();
        assert!(entry.meta.is_none());
        assert!(entry.model.infer(&x).allclose(&want, 1e-12));
        assert_eq!(reg.names(), vec!["m".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let mut reg = ModelRegistry::new();
        reg.insert("m", Fno::new(tiny_cfg(), 1)).unwrap();
        let err = reg.insert("m", Fno::new(tiny_cfg(), 2)).unwrap_err();
        assert!(matches!(err, RegistryError::Duplicate(_)));
        assert_eq!(reg.len(), 1);
    }
}
