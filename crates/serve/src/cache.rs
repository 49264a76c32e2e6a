//! An LRU cache of compiled models keyed by request-content hash.
//!
//! Jobs that submit the same module source with the same simulation
//! settings share one [`CompiledModel`] — compilation (parse, lower,
//! symbolic factorization) happens at most once per key, which
//! `tests/streaming.rs` pins by asserting `serve.cache.misses` stays at
//! one across a resubmit. Compilation runs **under the cache lock**:
//! that serializes concurrent first-compiles of different keys, but it
//! is what guarantees the at-most-once property without a per-key
//! in-flight map, and compiles are short relative to jobs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use amsim::CompiledModel;
use obs::Obs;

struct Entry {
    model: Arc<CompiledModel>,
    last_used: u64,
}

/// A bounded least-recently-used model cache.
pub struct ModelCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

impl ModelCache {
    /// A cache holding at most `capacity` compiled models (minimum 1).
    pub fn new(capacity: usize) -> ModelCache {
        ModelCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the model for `key`, compiling it with `compile` on a
    /// miss. The boolean is `true` on a cache hit. Counters
    /// `serve.cache.{hits,misses,evictions}` are recorded on `obs`.
    pub fn get_or_compile<E>(
        &self,
        key: u64,
        obs: &Obs,
        compile: impl FnOnce() -> Result<Arc<CompiledModel>, E>,
    ) -> Result<(Arc<CompiledModel>, bool), E> {
        // A poisoned lock only means another compile panicked mid-insert;
        // the map itself is always left consistent, so keep serving.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.entries.get_mut(&key) {
            e.last_used = tick;
            obs.add("serve.cache.hits", 1);
            return Ok((Arc::clone(&e.model), true));
        }
        obs.add("serve.cache.misses", 1);
        let model = compile()?;
        if inner.entries.len() >= self.capacity {
            if let Some((&lru, _)) = inner.entries.iter().min_by_key(|(_, e)| e.last_used) {
                inner.entries.remove(&lru);
                obs.add("serve.cache.evictions", 1);
            }
        }
        inner.entries.insert(
            key,
            Entry {
                model: Arc::clone(&model),
                last_used: tick,
            },
        );
        Ok((model, false))
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
