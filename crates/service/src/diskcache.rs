//! Disk-backed model-cache tier: canon-hash-keyed files under one
//! directory, written via `sdlo-wire`, so a restarted backend warm-starts
//! without rebuilding any model.
//!
//! ## File format
//!
//! One file per canonical shape, named `<canon-hash:016x>.model.json`, one
//! JSON document per file:
//!
//! ```text
//! {"magic":"sdlo-model-cache","format":1,
//!  "model_rev":1,"protocol_rev":1,
//!  "canon_hash":"<016x>","crc":"<016x>",
//!  "payload":{"program":{…},"components":[…]}}
//! ```
//!
//! `model_rev` stamps the *model semantics* ([`sdlo_core::MODEL_REVISION`]):
//! a file built by a different partitioning/stack-distance algorithm is
//! stale. `protocol_rev` stamps the wire protocol the payload codecs belong
//! to ([`crate::api::PROTOCOL_VERSION`]). `crc` is a stable FNV-1a 64 hash
//! of the rendered payload, so truncation and bit rot are caught before any
//! decoding is trusted.
//!
//! ## Trust policy
//!
//! A cached file is **never trusted**: it is an optimization, not a source
//! of truth. [`DiskCache::load`] re-verifies, in order, the envelope magic
//! and format, both revision stamps, the key hash, the payload checksum,
//! that the decoded program validates, *and* that it is byte-for-byte the
//! canonical program the caller asked about (canon-hash collisions are
//! harmless). Any failure — truncated file, corrupt JSON, flipped bit,
//! version bump, hash mismatch — yields [`DiskOutcome::Rejected`] and the
//! caller rebuilds from scratch, overwriting the bad file. Missing files
//! are an ordinary [`DiskOutcome::Miss`].
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic rename, so concurrent backends sharing one cache directory never
//! observe half-written entries.

use sdlo_core::MissModel;
use sdlo_ir::canon::fnv1a64;
use sdlo_ir::Program;
use sdlo_wire::{
    program_from_value, program_to_value, stored_component_from_value, stored_component_to_value,
    Value,
};
use std::path::PathBuf;

/// Format of the on-disk envelope itself (field layout). Distinct from the
/// model/protocol revisions, which stamp the *content*.
pub const FORMAT: u64 = 1;

const MAGIC: &str = "sdlo-model-cache";

/// Result of a disk lookup.
pub enum DiskOutcome {
    /// A verified entry for exactly this canonical program.
    Hit(MissModel),
    /// No file for this hash — the ordinary cold-start case.
    Miss,
    /// A file exists but failed verification (truncated, corrupt, stale
    /// revision, wrong shape). The caller must rebuild; the reason is for
    /// metrics/logging only.
    Rejected(&'static str),
}

/// One model-cache directory. Cheap to clone; all state is the path.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `dir`. The directory is created lazily on first
    /// store; a missing or unreadable directory makes every load a miss.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache { dir: dir.into() }
    }

    /// The file that does (or would) hold the entry for `hash`.
    pub fn path_for(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.model.json"))
    }

    /// Encode one entry as the on-disk document. Public so durability tests
    /// can pin the golden format.
    pub fn encode(hash: u64, program: &Program, model: &MissModel) -> Value {
        let payload = Value::obj(vec![
            ("program", program_to_value(program)),
            (
                "components",
                Value::Array(
                    model
                        .components()
                        .iter()
                        .map(stored_component_to_value)
                        .collect(),
                ),
            ),
        ]);
        let crc = fnv1a64(payload.render().as_bytes());
        Value::obj(vec![
            ("magic", Value::from(MAGIC)),
            ("format", Value::from(FORMAT)),
            (
                "model_rev",
                Value::from(u64::from(sdlo_core::MODEL_REVISION)),
            ),
            ("protocol_rev", Value::from(crate::api::PROTOCOL_VERSION)),
            ("canon_hash", Value::from(format!("{hash:016x}"))),
            ("crc", Value::from(format!("{crc:016x}"))),
            ("payload", payload),
        ])
    }

    /// Decode and verify one on-disk document against the `(hash, program)`
    /// the caller is asking about. Every rejection reason is a distinct
    /// static string (asserted by the durability tests).
    pub fn decode(text: &str, hash: u64, program: &Program) -> Result<MissModel, &'static str> {
        let v = sdlo_wire::parse(text).map_err(|_| "corrupt json")?;
        if v.get("magic").and_then(Value::as_str) != Some(MAGIC) {
            return Err("bad magic");
        }
        if v.get("format").and_then(Value::as_u64) != Some(FORMAT) {
            return Err("format mismatch");
        }
        if v.get("model_rev").and_then(Value::as_u64) != Some(u64::from(sdlo_core::MODEL_REVISION))
        {
            return Err("model revision mismatch");
        }
        if v.get("protocol_rev").and_then(Value::as_u64) != Some(crate::api::PROTOCOL_VERSION) {
            return Err("protocol revision mismatch");
        }
        if v.get("canon_hash").and_then(Value::as_str) != Some(format!("{hash:016x}").as_str()) {
            return Err("key hash mismatch");
        }
        let payload = v.get("payload").ok_or("missing payload")?;
        let crc = u64::from_str_radix(
            v.get("crc").and_then(Value::as_str).ok_or("missing crc")?,
            16,
        )
        .map_err(|_| "unparseable crc")?;
        if fnv1a64(payload.render().as_bytes()) != crc {
            return Err("checksum mismatch");
        }
        let stored_program = program_from_value(payload.get("program").ok_or("missing program")?)
            .map_err(|_| "undecodable program")?;
        // The canonical program is the real key; the hash only names the
        // file. A collision (or a re-keyed file) must read as a rejection,
        // not serve a model for the wrong shape.
        if &stored_program != program {
            return Err("program mismatch");
        }
        let components = payload
            .get("components")
            .and_then(Value::as_array)
            .ok_or("missing components")?
            .iter()
            .map(stored_component_from_value)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| "undecodable component")?;
        Ok(MissModel::from_components(components))
    }

    /// Look up the entry for `(hash, program)`.
    pub fn load(&self, hash: u64, program: &Program) -> DiskOutcome {
        let span = sdlo_trace::span("cache.disk_load");
        let path = self.path_for(hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskOutcome::Miss,
            Err(_) => return DiskOutcome::Rejected("unreadable file"),
        };
        match Self::decode(&text, hash, program) {
            Ok(model) => {
                span.attr("outcome", "hit");
                DiskOutcome::Hit(model)
            }
            Err(why) => {
                span.attr("outcome", why);
                DiskOutcome::Rejected(why)
            }
        }
    }

    /// Look up an entry by canonical hash alone, returning the stored
    /// canonical program alongside the model. Used by the `revise` op,
    /// whose base is a hash with no program attached; the entry is
    /// **self-authenticating** instead of caller-verified — the stored
    /// program must canonicalize back to the hash that names the file, so
    /// a re-keyed or colliding file can never establish a session for the
    /// wrong shape.
    pub fn load_by_hash(&self, hash: u64) -> Option<(Program, MissModel)> {
        let span = sdlo_trace::span("cache.disk_load");
        let text = match std::fs::read_to_string(self.path_for(hash)) {
            Ok(t) => t,
            Err(_) => return None,
        };
        let v = sdlo_wire::parse(&text).ok()?;
        let program = program_from_value(v.get("payload")?.get("program")?).ok()?;
        if sdlo_ir::canon::canonicalize(&program).hash != hash {
            span.attr("outcome", "self-auth hash mismatch");
            return None;
        }
        match Self::decode(&text, hash, &program) {
            Ok(model) => {
                span.attr("outcome", "hit");
                Some((program, model))
            }
            Err(why) => {
                span.attr("outcome", why);
                None
            }
        }
    }

    /// Persist one built model: temp file + atomic rename, creating the
    /// cache directory on first use. An existing (possibly corrupt) entry
    /// for the same hash is overwritten.
    pub fn store(&self, hash: u64, program: &Program, model: &MissModel) -> std::io::Result<()> {
        let span = sdlo_trace::span("cache.disk_store");
        span.attr("hash", format!("{hash:016x}").as_str());
        std::fs::create_dir_all(&self.dir)?;
        let doc = Self::encode(hash, program, model);
        let tmp = self
            .dir
            .join(format!(".{hash:016x}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, format!("{}\n", doc.render()))?;
        match std::fs::rename(&tmp, self.path_for(hash)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Number of entry files currently on disk (telemetry; racy by nature).
    pub fn len(&self) -> usize {
        match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".model.json"))
                .count(),
            Err(_) => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::{canonicalize, programs};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdlo-diskcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let cache = DiskCache::new(&dir);
        let canon = canonicalize(&programs::tiled_matmul());
        let model = MissModel::build(&canon.program);
        assert!(matches!(
            cache.load(canon.hash, &canon.program),
            DiskOutcome::Miss
        ));
        cache.store(canon.hash, &canon.program, &model).unwrap();
        assert_eq!(cache.len(), 1);
        let DiskOutcome::Hit(loaded) = cache.load(canon.hash, &canon.program) else {
            panic!("expected hit");
        };
        // The reloaded model must predict identically to the built one.
        let b = sdlo_ir::Bindings::new()
            .with("Ni", 512)
            .with("Nj", 512)
            .with("Nk", 512)
            .with("Ti", 64)
            .with("Tj", 64)
            .with("Tk", 64);
        assert_eq!(
            loaded.predict_misses(&b, 8192).unwrap(),
            model.predict_misses(&b, 8192).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_program_under_same_hash_is_rejected() {
        let dir = tmpdir("collide");
        let cache = DiskCache::new(&dir);
        let a = canonicalize(&programs::matmul());
        let b = canonicalize(&programs::tiled_matmul());
        let model = MissModel::build(&a.program);
        cache.store(a.hash, &a.program, &model).unwrap();
        // Rename a's file onto b's key: the content no longer matches the
        // shape being asked about, whatever the file name claims.
        std::fs::rename(cache.path_for(a.hash), cache.path_for(b.hash)).unwrap();
        assert!(matches!(
            cache.load(b.hash, &b.program),
            DiskOutcome::Rejected("key hash mismatch")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
