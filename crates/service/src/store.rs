//! The model store: one home per canonical program shape.
//!
//! Every request that needs a model funnels through [`ModelStore`]: a
//! sharded in-memory LRU keyed by the canonical structural hash, then the
//! persistent [`DiskCache`] tier, then a full [`MissModel::build`] that is
//! persisted for the next process. An [`Entry`] holds the canonical
//! program, its model and — once a `revise` has touched the shape — its
//! [`ModelDag`] revise session behind the entry's own mutex. A revise session
//! is therefore part of a resident shape: it lives exactly as long as the
//! shape stays in the store and is dropped when the shape is evicted.
//!
//! Keys are `(hash, canonical Program)`; the full program comparison makes
//! hash collisions harmless. A shard is chosen by hash and the model is
//! built *outside* the shard lock, so one slow build never blocks lookups
//! of other shapes. Two threads racing to build the same shape may both
//! build; the loser's model is dropped (double-build is correct, just
//! wasted work — the standard memoization trade).
//!
//! Lock order: shard, then entry session. Nothing takes a shard lock while
//! holding a session lock.

use crate::diskcache::{DiskCache, DiskOutcome};
use crate::metrics::Metrics;
use sdlo_core::{MissModel, ModelDag};
use sdlo_ir::canon::{canonicalize, Canonical};
use sdlo_trace::AttrValue;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Shards of the in-memory tier; the capacity is split evenly across them.
pub const SHARDS: usize = 8;

const SHARD_POISONED: &str = "a thread panicked holding a store shard lock";
const SESSION_POISONED: &str = "a thread panicked holding a revise session lock";

/// One resident shape: its canonicalization (for name translation), the
/// built model and the optional live revise session.
pub struct Entry {
    pub canonical: Arc<Canonical>,
    pub model: MissModel,
    session: Mutex<Session>,
}

#[derive(Default)]
struct Session {
    revise: Option<ModelDag>,
    /// Set when the shape leaves the store; a late install is not kept.
    evicted: bool,
}

impl Entry {
    fn new(canonical: Arc<Canonical>, model: MissModel) -> Self {
        Entry {
            canonical,
            model,
            session: Mutex::default(),
        }
    }

    /// Run `f` on the shape's revise session under the entry's lock, if the
    /// shape has one.
    pub fn with_session<R>(&self, f: impl FnOnce(&mut ModelDag) -> R) -> Option<R> {
        self.session
            .lock()
            .expect(SESSION_POISONED)
            .revise
            .as_mut()
            .map(f)
    }
}

struct Slot {
    hash: u64,
    entry: Arc<Entry>,
    last_used: u64,
}

/// Canonical hash → model (+ revise session), memory then disk then build.
pub struct ModelStore {
    shards: Vec<Mutex<Vec<Slot>>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    disk: Option<DiskCache>,
    metrics: Arc<Metrics>,
}

impl ModelStore {
    /// A store of `capacity` shapes in total over [`SHARDS`] shards, backed
    /// by `cache_dir` when set. Lookups, builds, disk traffic and the
    /// revise-session gauge are counted in `metrics`.
    pub fn new(capacity: usize, cache_dir: Option<PathBuf>, metrics: Arc<Metrics>) -> Self {
        Self::with_shards(SHARDS, capacity, cache_dir, metrics)
    }

    fn with_shards(
        shards: usize,
        capacity: usize,
        cache_dir: Option<PathBuf>,
        metrics: Arc<Metrics>,
    ) -> Self {
        ModelStore {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            per_shard_capacity: capacity.div_ceil(shards).max(1),
            tick: AtomicU64::new(0),
            disk: cache_dir.map(DiskCache::new),
            metrics,
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Vec<Slot>> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// The resident entry bearing `hash` that satisfies `matches`, touched
    /// for LRU.
    fn find(&self, hash: u64, matches: impl Fn(&Entry) -> bool) -> Option<Arc<Entry>> {
        let mut shard = self.shard(hash).lock().expect(SHARD_POISONED);
        let now = self.tick.fetch_add(1, Relaxed);
        shard
            .iter_mut()
            .find(|s| s.hash == hash && matches(&s.entry))
            .map(|s| {
                s.last_used = now;
                Arc::clone(&s.entry)
            })
    }

    /// Insert `entry` unless an equal shape got there first (then that one
    /// wins, so all callers share it), evicting the shard's least recently
    /// used shape at capacity. Returns the resident entry and whether it
    /// was already there.
    fn insert(&self, entry: Entry) -> (Arc<Entry>, bool) {
        let hash = entry.canonical.hash;
        let mut shard = self.shard(hash).lock().expect(SHARD_POISONED);
        let now = self.tick.fetch_add(1, Relaxed);
        if let Some(s) = shard
            .iter_mut()
            .find(|s| s.hash == hash && s.entry.canonical.program == entry.canonical.program)
        {
            s.last_used = now;
            return (Arc::clone(&s.entry), true);
        }
        if shard.len() >= self.per_shard_capacity {
            let lru = (0..shard.len())
                .min_by_key(|&i| shard[i].last_used)
                .expect("non-empty shard");
            self.retire(&shard.swap_remove(lru).entry);
        }
        let entry = Arc::new(entry);
        shard.push(Slot {
            hash,
            entry: Arc::clone(&entry),
            last_used: now,
        });
        (entry, false)
    }

    /// An evicted shape drops its revise session with it.
    fn retire(&self, entry: &Entry) {
        let mut session = entry.session.lock().expect(SESSION_POISONED);
        session.evicted = true;
        if session.revise.take().is_some() {
            self.metrics.revise_sessions.fetch_sub(1, Relaxed);
        }
    }

    /// The model for `canonical` — memory, then disk, then build and
    /// persist. Returns the entry and whether memory already held it, and
    /// counts one model-cache hit or miss. This is the expensive middle
    /// every model-backed request funnels through.
    pub fn get(&self, canonical: &Arc<Canonical>) -> (Arc<Entry>, bool) {
        let resident = self.find(canonical.hash, |e| e.canonical.program == canonical.program);
        let (entry, hit) = match resident {
            Some(entry) => (entry, true),
            None => {
                let model = self.load_or_build(canonical);
                self.insert(Entry::new(Arc::clone(canonical), model))
            }
        };
        let counter = if hit {
            &self.metrics.cache_hits
        } else {
            &self.metrics.cache_misses
        };
        counter.fetch_add(1, Relaxed);
        (entry, hit)
    }

    /// The resident entry bearing `hash`, by hash alone and touched for
    /// LRU; counts nothing. The hash is the entry's *name* rather than its
    /// full key, so this serves whichever resident program bears it —
    /// acceptable because a client can only learn a hash from a reply
    /// about that very program.
    pub fn resident(&self, hash: u64) -> Option<Arc<Entry>> {
        self.find(hash, |_| true)
    }

    /// The entry bearing `hash`: memory, then the self-authenticating disk
    /// tier ([`DiskCache::load_by_hash`]), whose hit is installed so later
    /// requests for the shape reuse it. Counts a model-cache hit or a disk
    /// hit. Nothing is built here: a hash names a shape only after some
    /// request has built it.
    pub fn by_hash(&self, hash: u64) -> Option<Arc<Entry>> {
        if let Some(entry) = self.resident(hash) {
            self.metrics.cache_hits.fetch_add(1, Relaxed);
            return Some(entry);
        }
        let (program, model) = self.disk.as_ref()?.load_by_hash(hash)?;
        self.metrics.disk_hits.fetch_add(1, Relaxed);
        // The stored program is already canonical (verified by
        // `load_by_hash`); re-canonicalizing just rebuilds the `Canonical`
        // wrapper the entry wants.
        let canonical = Arc::new(canonicalize(&program));
        Some(self.insert(Entry::new(canonical, model)).0)
    }

    /// Make `revise` the revise session of `entry`, replacing any previous
    /// one, and return the number of live sessions. A shape evicted in the
    /// meantime keeps no session.
    pub fn install(&self, entry: &Entry, revise: ModelDag) -> u64 {
        let mut session = entry.session.lock().expect(SESSION_POISONED);
        if !session.evicted && session.revise.replace(revise).is_none() {
            self.metrics.revise_sessions.fetch_add(1, Relaxed);
        }
        self.metrics.revise_sessions.load(Relaxed)
    }

    /// Resident shapes across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect(SHARD_POISONED).len())
            .sum()
    }

    /// In-memory miss: consult the persisted tier first; only build — and
    /// persist — when disk has no trustworthy entry. Disk failures are
    /// strictly non-fatal: the worst case is a rebuild.
    fn load_or_build(&self, canonical: &Canonical) -> MissModel {
        let hash = canonical.hash;
        let warn = |event: &str, key: &str, why: String| {
            self.metrics.disk_errors.fetch_add(1, Relaxed);
            sdlo_trace::log::warn(
                "service",
                event,
                &[
                    ("canon_hash", AttrValue::Str(format!("{hash:016x}"))),
                    (key, AttrValue::Str(why)),
                ],
            );
        };
        if let Some(disk) = &self.disk {
            match disk.load(hash, &canonical.program) {
                DiskOutcome::Hit(model) => {
                    self.metrics.disk_hits.fetch_add(1, Relaxed);
                    return model;
                }
                DiskOutcome::Rejected(reason) => {
                    warn("disk_cache.rejected", "reason", reason.to_string())
                }
                DiskOutcome::Miss => {}
            }
        }
        self.metrics.models_built.fetch_add(1, Relaxed);
        let model = MissModel::build(&canonical.program);
        if let Some(disk) = &self.disk {
            match disk.store(hash, &canonical.program, &model) {
                Ok(()) => {
                    self.metrics.disk_writes.fetch_add(1, Relaxed);
                }
                Err(e) => warn("disk_cache.write_failed", "error", e.to_string()),
            }
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use sdlo_ir::programs;
    use sdlo_ir::Program;
    use sdlo_wire::Value;

    fn store(shards: usize, capacity: usize) -> ModelStore {
        ModelStore::with_shards(shards, capacity, None, Arc::default())
    }

    fn shape(p: &Program) -> Arc<Canonical> {
        Arc::new(canonicalize(p))
    }

    #[test]
    fn second_lookup_hits() {
        let store = store(4, 8);
        let c = shape(&programs::matmul());
        let (e1, hit1) = store.get(&c);
        let (e2, hit2) = store.get(&c);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.metrics.models_built.load(Relaxed), 1);
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let store = store(2, 8);
        let (a, _) = store.get(&shape(&programs::matmul()));
        let (b, hit) = store.get(&shape(&programs::tiled_matmul()));
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.canonical.hash, shape(&programs::tiled_matmul()).hash);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        // Single shard, capacity 2: inserting a third shape evicts the
        // least recently used one.
        let store = store(1, 2);
        let shapes: Vec<Arc<Canonical>> = [
            programs::matmul(),
            programs::tiled_matmul(),
            programs::two_index_fused(),
        ]
        .iter()
        .map(shape)
        .collect();
        store.get(&shapes[0]);
        store.get(&shapes[1]);
        // Touch shape 0 so shape 1 is the LRU.
        assert!(store.resident(shapes[0].hash).is_some());
        store.get(&shapes[2]);
        assert_eq!(store.len(), 2);
        assert!(store.resident(shapes[0].hash).is_some());
        assert!(
            store.resident(shapes[1].hash).is_none(),
            "LRU entry evicted"
        );
        assert!(store.resident(shapes[2].hash).is_some());
    }

    #[test]
    fn concurrent_builds_converge() {
        let store = store(4, 8);
        let c = shape(&programs::tiled_matmul());
        let results: Vec<Arc<Entry>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| store.get(&c).0)).collect();
            handles.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // All callers share the one stored entry.
        assert_eq!(store.len(), 1);
        let stored = store.resident(c.hash).unwrap();
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &stored)));
    }

    // -- revise sessions as store entries ------------------------------------

    /// An engine whose store is one exact LRU of `capacity` shapes.
    fn engine(capacity: usize, cache_dir: Option<PathBuf>) -> Engine {
        let mut e = Engine::new(EngineConfig {
            cache_dir: cache_dir.clone(),
            ..EngineConfig::default()
        });
        e.store = ModelStore::with_shards(1, capacity, cache_dir, e.metrics());
        e
    }

    fn call(e: &Engine, line: &str) -> Value {
        let v = sdlo_wire::parse(&e.handle_line(line)).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        v
    }

    fn base(name: &str) -> String {
        format!("{:016x}", shape(&programs::builtin(name).unwrap()).hash)
    }

    const TMM_BINDINGS: &str = r#"{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64}"#;

    fn establish(e: &Engine) -> Value {
        call(
            e,
            &format!(
                r#"{{"op":"revise","base":"{}","program":"tiled_matmul",
                    "delta":{{"bindings":{TMM_BINDINGS},"cache_sizes":[8192]}}}}"#,
                base("tiled_matmul")
            ),
        )
    }

    fn warm(e: &Engine) -> Value {
        let b = base("tiled_matmul");
        call(
            e,
            &format!(
                r#"{{"op":"revise","base":"{b}","program":"tiled_matmul","delta":{{"bindings":{{"Ti":32}}}}}}"#
            ),
        )
    }

    fn analyze(e: &Engine, name: &str) {
        call(e, &format!(r#"{{"op":"analyze","program":"{name}"}}"#));
    }

    fn sessions(e: &Engine) -> Option<u64> {
        call(e, r#"{"op":"stats"}"#)
            .path(&["stats", "revise", "sessions"])
            .and_then(Value::as_u64)
    }

    #[test]
    fn revise_session_survives_up_to_capacity() {
        let e = engine(4, None);
        assert_eq!(establish(&e).get("revised").unwrap().as_bool(), Some(false));
        // Three more shapes fill the store to capacity without evicting.
        for name in ["matmul", "two_index_fused", "two_index_unfused"] {
            analyze(&e, name);
        }
        assert_eq!(e.store.len(), 4);
        let hits = e.metrics.cache_hits.load(Relaxed);
        let reply = warm(&e);
        assert_eq!(reply.get("revised").unwrap().as_bool(), Some(true));
        assert_eq!(
            reply.path(&["revise", "sessions"]).unwrap().as_u64(),
            Some(1)
        );
        // A warm revise is not a model-cache lookup.
        assert_eq!(e.metrics.cache_hits.load(Relaxed), hits);
        assert_eq!(sessions(&e), Some(1));
    }

    #[test]
    fn evicting_a_shape_drops_its_session() {
        let e = engine(4, None);
        establish(&e);
        assert_eq!(sessions(&e), Some(1));
        // Four other shapes push tiled_matmul, the least recently used,
        // out of the store — and its session with it.
        for name in [
            "matmul",
            "two_index_fused",
            "two_index_unfused",
            "tiled_two_index",
        ] {
            analyze(&e, name);
        }
        assert!(e
            .store
            .resident(shape(&programs::tiled_matmul()).hash)
            .is_none());
        assert_eq!(sessions(&e), Some(0));
        // The same full revise that established the session is cold again.
        let reply = establish(&e);
        assert_eq!(reply.get("revised").unwrap().as_bool(), Some(false));
        assert_eq!(sessions(&e), Some(1));
    }

    #[test]
    fn by_hash_disk_hit_installs_the_model_for_later_requests() {
        let dir = std::env::temp_dir().join(format!("sdlo-store-byhash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let predict = format!(
            r#"{{"op":"predict","program":"tiled_matmul","bindings":{TMM_BINDINGS},"cache":8192}}"#
        );
        let first = call(&engine(4, Some(dir.clone())), &predict);

        // A restarted engine on the same directory: revise by hash alone.
        let e = engine(4, Some(dir.clone()));
        let reply = call(
            &e,
            &format!(
                r#"{{"op":"revise","base":"{}","delta":{{"bindings":{TMM_BINDINGS},"cache_sizes":[8192]}}}}"#,
                base("tiled_matmul")
            ),
        );
        assert_eq!(reply.get("revised").unwrap().as_bool(), Some(false));
        assert_eq!(
            reply.path(&["misses", "8192"]).unwrap().as_u64(),
            first.get("misses").unwrap().as_u64()
        );
        let again = call(&e, &predict);
        assert_eq!(again.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(e.metrics.models_built.load(Relaxed), 0);
        assert_eq!(e.metrics.disk_hits.load(Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
