//! The persistent content-addressed artifact store: what a process
//! cannot rebuild from memory, made durable.
//!
//! The store holds submitted modules (the inputs of everything else),
//! taint-run answers and model fits, each on disk under a key derived
//! from the *content* that produced it: module text for modules,
//! `(module, entry, config, params, policy)` for taint-run analyses, and
//! the full canonical request for fitted models. Repeat requests — from
//! any client, in any later process — are answered from disk without
//! re-running the pipeline, which is sound because the whole pipeline is
//! deterministic: a cached response is byte-identical to a fresh
//! computation. A module's static stage is not stored: the server holds
//! it once per module in memory, and a restarted server recomputes it.
//!
//! Layout: one subdirectory per [`ArtifactKind`], one file per object, the
//! hex key as the filename. Writes go through a temp file + rename so a
//! crashed writer never leaves a torn object for a later reader. Anything
//! else under the root (the `functions/` and `statics/` tiers and the
//! `lru-index` file of older servers) is ignored.
//!
//! ## Eviction
//!
//! An append-only cache grows without bound; a production store must not.
//! [`Store::with_budget`] caps the total object bytes on disk: the store
//! keeps an access-ordered (LRU) index over every object, and a `put`
//! that pushes the total past the budget deletes the coldest objects —
//! atomically, per namespace directory — until the store fits again.
//! Deterministic recomputation makes this always safe: an evicted object
//! is a future cache miss, never an error (the pipeline recomputes
//! byte-identical bytes and re-heals the store). Each object's recency is
//! its own file mtime: a `put` stamps it before the rename and a `get` hit
//! stamps it again, so recency survives restarts without any file besides
//! the objects, and `open` rebuilds the access order from the directory
//! scan it already makes. An object written behind the store's back is
//! ranked by whatever mtime it carries.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// Fingerprint of the pipeline configuration baked into every derived-key
/// computation. The service always analyzes under the default MPI
/// configuration; bump this string if that default ever changes meaning,
/// and every derived artifact re-keys itself.
pub const CONFIG_FINGERPRINT: &str = "mpi-default/1";

/// Is this file name an (in-flight or orphaned) `put` temp file?
fn is_temp(name: &std::ffi::OsStr) -> bool {
    name.to_str().is_some_and(|n| n.contains(".tmp."))
}

/// The SipHash-1-3-128 digest of length-prefixed parts
/// ([`pt_ir::fingerprint::digest_parts`]), as 32 hex digits. Not a
/// defence against adversaries — the store defends against accidents —
/// but 128 bits keep accidental collisions out of reach for any realistic
/// corpus. These keys name objects on disk and modules on the wire, so
/// their values change only with a release note: a key issued under
/// another encoding still names its object while the object exists.
pub fn content_key(parts: &[&str]) -> String {
    pt_ir::fingerprint::digest_parts(parts).hex()
}

/// Does `s` have the shape [`content_key`] produces: 32 lowercase hex
/// digits? Only such strings may name an object on disk.
pub fn is_content_key(s: &str) -> bool {
    pt_ir::fingerprint::Digest::from_hex(s).is_some()
}

/// The artifact families the store knows, each in its own subdirectory.
/// Derived keys are built only through the typed [`StoreKey`] constructors,
/// so two families can never collide on a key — the family is part of the
/// type, not a string convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// Submitted module IR text, keyed by its own hash.
    Modules,
    /// Full taint-run analysis summaries, keyed by
    /// (module, entry, config, params, policy).
    Analyses,
    /// Fitted Extra-P models, keyed by the canonical fit request.
    Models,
}

impl ArtifactKind {
    /// Every kind the store scans on open. A directory of any other name
    /// under the root (such as the `functions/` and `statics/` tiers older
    /// servers wrote) is ignored.
    pub const ALL: [ArtifactKind; 3] = [
        ArtifactKind::Modules,
        ArtifactKind::Analyses,
        ArtifactKind::Models,
    ];

    fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Modules => "modules",
            ArtifactKind::Analyses => "analyses",
            ArtifactKind::Models => "models",
        }
    }

    /// Eviction class: lower classes are evicted before higher ones,
    /// regardless of recency. Whole responses (analyses, models) are
    /// cheap to recompute one at a time and large, so they go first; a
    /// submitted module goes last, because it is the input of everything
    /// derived from it and, unlike the rest, cannot be recomputed. Within
    /// a class, eviction stays strictly LRU.
    fn eviction_class(self) -> u8 {
        match self {
            ArtifactKind::Analyses | ArtifactKind::Models => 0,
            ArtifactKind::Modules => 1,
        }
    }
}

/// A typed store key: the artifact family plus the content hash naming the
/// object within it. Built only through the constructors below, which bake
/// the derivation (including [`CONFIG_FINGERPRINT`] where the artifact
/// depends on the pipeline configuration) into one place each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    pub kind: ArtifactKind,
    pub hash: String,
}

impl StoreKey {
    /// A submitted module, keyed by its own text.
    pub fn module(text: &str) -> StoreKey {
        StoreKey {
            kind: ArtifactKind::Modules,
            hash: content_key(&["module", text]),
        }
    }

    /// A module named by an already-derived hash (how clients refer to
    /// submissions on every later request). The hash becomes a file name
    /// under the store root, so `None` unless it has the shape
    /// [`content_key`] produces.
    pub fn module_by_hash(hash: &str) -> Option<StoreKey> {
        is_content_key(hash).then(|| StoreKey {
            kind: ArtifactKind::Modules,
            hash: hash.to_string(),
        })
    }

    /// A taint-run analysis summary, keyed by everything it depends on —
    /// including the taint-policy name (protocol v1.4).
    pub fn analysis(
        module_hash: &str,
        entry: &str,
        canonical_params: &str,
        policy: &str,
    ) -> StoreKey {
        StoreKey {
            kind: ArtifactKind::Analyses,
            hash: content_key(&[
                "analysis",
                module_hash,
                entry,
                CONFIG_FINGERPRINT,
                canonical_params,
                policy,
            ]),
        }
    }

    /// A fitted model, keyed by the canonical fit request.
    pub fn model(canonical_request: &str) -> StoreKey {
        StoreKey {
            kind: ArtifactKind::Models,
            hash: content_key(&["model", CONFIG_FINGERPRINT, canonical_request]),
        }
    }
}

/// Counters of one store's lifetime in this process (per-process, not
/// persisted: a fresh process starts at zero, which is what lets a test
/// observe "this hit came from disk, not from memory").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
    /// Objects deleted by the size-budget enforcer.
    pub evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    seq: u64,
    bytes: u64,
}

/// The in-memory access-order index: every object's size and last-access
/// sequence number, plus the eviction-ordered view. The order is keyed by
/// `(eviction class, seq)` — see [`ArtifactKind::eviction_class`] — so
/// eviction walks low classes (responses) before high ones (modules),
/// coldest-first within each class. `clock` only grows.
#[derive(Debug, Default)]
struct LruIndex {
    clock: u64,
    total_bytes: u64,
    entries: HashMap<(ArtifactKind, String), EntryMeta>,
    order: BTreeMap<(u8, u64), (ArtifactKind, String)>,
}

impl LruIndex {
    /// Record (or refresh) an object at the warm end of its class.
    fn upsert(&mut self, ns: ArtifactKind, key: &str, bytes: u64) {
        self.remove(ns, key);
        let seq = self.clock;
        self.clock += 1;
        self.entries
            .insert((ns, key.to_string()), EntryMeta { seq, bytes });
        self.order
            .insert((ns.eviction_class(), seq), (ns, key.to_string()));
        self.total_bytes += bytes;
    }

    /// Drop an object from the index (not from disk). Returns its size.
    fn remove(&mut self, ns: ArtifactKind, key: &str) -> Option<u64> {
        let meta = self.entries.remove(&(ns, key.to_string()))?;
        self.order.remove(&(ns.eviction_class(), meta.seq));
        self.total_bytes -= meta.bytes;
        Some(meta.bytes)
    }

    /// The next eviction victim, if any: the coldest object of the lowest
    /// populated eviction class.
    fn coldest(&self) -> Option<(ArtifactKind, String)> {
        self.order.values().next().cloned()
    }
}

/// A content-addressed artifact store rooted at one directory, optionally
/// capped by a size budget ([`Store::with_budget`]).
pub struct Store {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    /// Total object bytes the store may hold; `None` = unbounded.
    budget_bytes: Option<u64>,
    lru: Mutex<LruIndex>,
    /// Temp-file disambiguator for concurrent writers in one process.
    seq: AtomicU64,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`. Orphaned temp
    /// files from writers that died mid-`put` are swept here — they are
    /// garbage by construction (a completed put renames its temp file
    /// away). The access order is rebuilt from the directory scan:
    /// objects rank by their mtime, ties broken by kind and key.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        // (mtime, namespace, key, bytes on disk)
        let mut found: Vec<(SystemTime, ArtifactKind, String, u64)> = Vec::new();
        for ns in ArtifactKind::ALL {
            let dir = root.join(ns.dir());
            fs::create_dir_all(&dir)?;
            if let Ok(entries) = fs::read_dir(&dir) {
                for entry in entries.filter_map(Result::ok) {
                    if is_temp(&entry.file_name()) {
                        let _ = fs::remove_file(entry.path());
                        continue;
                    }
                    let Some(key) = entry.file_name().to_str().map(String::from) else {
                        continue;
                    };
                    let (mtime, bytes) = entry
                        .metadata()
                        .map(|m| (m.modified().unwrap_or(SystemTime::UNIX_EPOCH), m.len()))
                        .unwrap_or((SystemTime::UNIX_EPOCH, 0));
                    found.push((mtime, ns, key, bytes));
                }
            }
        }
        found.sort();
        let mut lru = LruIndex::default();
        for (_, ns, key, bytes) in found {
            lru.upsert(ns, &key, bytes);
        }
        Ok(Store {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            budget_bytes: None,
            lru: Mutex::new(lru),
            seq: AtomicU64::new(0),
        })
    }

    /// Cap the store at `budget_bytes` total object bytes (`None` lifts
    /// the cap). Enforced immediately — opening an over-budget store
    /// evicts its coldest objects right away — and after every `put`.
    pub fn with_budget(mut self, budget_bytes: Option<u64>) -> Store {
        self.budget_bytes = budget_bytes;
        self.enforce_budget(&mut self.lru.lock().unwrap());
        self
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured size budget, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Total object bytes currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.lru.lock().unwrap().total_bytes
    }

    fn path(&self, ns: ArtifactKind, key: &str) -> PathBuf {
        self.root.join(ns.dir()).join(key)
    }

    /// Fetch an object, counting a hit or a miss. A hit refreshes the
    /// object's position in the access order (LRU touch), in memory and,
    /// best-effort, in its mtime.
    pub fn get(&self, ns: ArtifactKind, key: &str) -> Option<String> {
        let read = File::open(self.path(ns, key)).and_then(|mut file| {
            let mut text = String::new();
            file.read_to_string(&mut text)?;
            let _ = file.set_modified(SystemTime::now());
            Ok(text)
        });
        match read {
            Ok(text) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut lru = self.lru.lock().unwrap();
                let bytes = lru
                    .entries
                    .get(&(ns, key.to_string()))
                    .map(|m| m.bytes)
                    .unwrap_or(text.len() as u64);
                lru.upsert(ns, key, bytes);
                Some(text)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // Keep the index honest if the file vanished under us
                // (another process evicted it).
                self.lru.lock().unwrap().remove(ns, key);
                None
            }
        }
    }

    /// Does an object exist? (No hit/miss accounting, no LRU touch — for
    /// idempotent-put checks, not for serving.)
    pub fn contains(&self, ns: ArtifactKind, key: &str) -> bool {
        self.path(ns, key).exists()
    }

    /// Store an object atomically: write to a temp file in the same
    /// directory, stamp its mtime (the object's recency), then rename over
    /// the final name. Concurrent writers of the same key race benignly —
    /// content-addressing means they are writing identical bytes. A put that pushes the store past its
    /// budget evicts the coldest objects before returning.
    pub fn put(&self, ns: ArtifactKind, key: &str, text: &str) -> io::Result<()> {
        let final_path = self.path(ns, key);
        let tmp_path = final_path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = File::create(&tmp_path)?;
        file.write_all(text.as_bytes())?;
        // The write's own mtime comes from the kernel's coarse clock, which
        // can lag a stamp set a moment ago; an explicit stamp keeps the
        // recency order of puts and get hits exact.
        file.set_modified(SystemTime::now())?;
        drop(file);
        fs::rename(&tmp_path, &final_path)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut lru = self.lru.lock().unwrap();
        lru.upsert(ns, key, text.len() as u64);
        self.enforce_budget(&mut lru);
        Ok(())
    }

    /// Evict coldest-first until the store fits its budget. Deletion is
    /// per-object `remove_file` (atomic at the filesystem level); a
    /// concurrently evicted file is simply already gone. The just-written
    /// object carries the warmest seq, so it is evicted only when it
    /// alone exceeds the budget — still correct, just never warm.
    fn enforce_budget(&self, lru: &mut LruIndex) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while lru.total_bytes > budget {
            let Some((ns, key)) = lru.coldest() else {
                break;
            };
            let _ = fs::remove_file(self.path(ns, &key));
            lru.remove(ns, &key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Objects on disk in one namespace (directory scan; for `stats`).
    /// In-flight or orphaned temp files are not objects.
    pub fn object_count(&self, ns: ArtifactKind) -> usize {
        fs::read_dir(self.root.join(ns.dir()))
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| !is_temp(&e.file_name()))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Objects on disk across all namespaces.
    pub fn total_objects(&self) -> usize {
        ArtifactKind::ALL
            .iter()
            .map(|&ns| self.object_count(ns))
            .sum()
    }

    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).expect("store opens")
    }

    #[test]
    fn content_key_is_stable_and_part_sensitive() {
        let a = content_key(&["module", "func @f() -> void {"]);
        let b = content_key(&["module", "func @f() -> void {"]);
        // Pinned: on-disk objects and protocol module keys are named by
        // these values. (SipHash-1-3-128; the FNV-1a keys of earlier
        // releases read 316823813aef8fa46e9571b86ff05299 here.)
        assert_eq!(a, "e875603e52d95f62597cd3434142e836");
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert_ne!(a, content_key(&["module", "func @g() -> void {"]));
        // Part boundaries matter: concatenation-equal inputs differ.
        assert_ne!(content_key(&["ab", "c"]), content_key(&["a", "bc"]));
        assert_ne!(content_key(&["ab"]), content_key(&["ab", ""]));
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = temp_store("roundtrip");
        let key = content_key(&["module", "text"]);
        assert_eq!(store.get(ArtifactKind::Modules, &key), None);
        store.put(ArtifactKind::Modules, &key, "text").unwrap();
        assert_eq!(
            store.get(ArtifactKind::Modules, &key).as_deref(),
            Some("text")
        );
        assert!(store.contains(ArtifactKind::Modules, &key));
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 1,
                writes: 1,
                evictions: 0,
            }
        );
        assert_eq!(store.object_count(ArtifactKind::Modules), 1);
        assert_eq!(store.total_objects(), 1);
        assert_eq!(store.total_bytes(), 4);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-reopen", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap();
            store
                .put(ArtifactKind::Analyses, "abc", "{\"x\":1}")
                .unwrap();
        }
        let store = Store::open(&dir).unwrap();
        // Fresh process-equivalent: zero counters, object still there.
        assert_eq!(store.stats(), StoreStats::default());
        assert_eq!(
            store.get(ArtifactKind::Analyses, "abc").as_deref(),
            Some("{\"x\":1}")
        );
        assert_eq!(store.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_files_are_not_objects_and_orphans_are_swept_on_open() {
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-tmp", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap();
            store.put(ArtifactKind::Analyses, "good", "{}").unwrap();
            // Simulate a writer that died between write and rename.
            fs::write(dir.join("analyses").join("dead.tmp.1.0"), "partial").unwrap();
            assert_eq!(store.object_count(ArtifactKind::Analyses), 1);
            assert_eq!(store.total_objects(), 1);
        }
        let store = Store::open(&dir).unwrap();
        assert!(
            !dir.join("analyses").join("dead.tmp.1.0").exists(),
            "reopen sweeps orphaned temp files"
        );
        assert_eq!(
            store.get(ArtifactKind::Analyses, "good").as_deref(),
            Some("{}")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespaces_do_not_collide() {
        let store = temp_store("ns");
        store.put(ArtifactKind::Modules, "k", "m").unwrap();
        assert_eq!(store.get(ArtifactKind::Analyses, "k"), None);
        assert_eq!(store.get(ArtifactKind::Modules, "k").as_deref(), Some("m"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn typed_keys_derive_kind_and_hash_together() {
        // The same seed text lands in different families with different
        // hashes — the constructors bake the derivation scheme, so no two
        // families can ever alias a key.
        let text = "func @f() -> void {";
        let module = StoreKey::module(text);
        assert_eq!(module.kind, ArtifactKind::Modules);
        assert_eq!(module.hash, content_key(&["module", text]));
        assert_eq!(StoreKey::module_by_hash(&module.hash), Some(module.clone()));
        // A client-supplied hash names a file: only the content-key shape
        // may become a key.
        for bad in [
            "",
            "../../victim.txt",
            "/etc/passwd",
            &module.hash.to_uppercase(),
        ] {
            assert_eq!(StoreKey::module_by_hash(bad), None, "{bad:?}");
        }

        let analysis = StoreKey::analysis(&module.hash, "main", "{}", "param-set");
        let model = StoreKey::model(text);
        assert_eq!(analysis.kind, ArtifactKind::Analyses);
        assert_eq!(model.kind, ArtifactKind::Models);

        let mut hashes = vec![
            module.hash.clone(),
            analysis.hash.clone(),
            model.hash.clone(),
        ];
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), 3, "typed keys never alias");

        // Derived keys fold the config fingerprint: a config change is a
        // different object, not a stale hit.
        assert_ne!(
            StoreKey::model(text).hash,
            content_key(&["model", "some-other-config", text])
        );
        assert_ne!(
            StoreKey::analysis(&module.hash, "main", "{}", "param-set").hash,
            StoreKey::analysis(&module.hash, "other", "{}", "param-set").hash
        );
        // Protocol v1.4: the taint policy is part of every analysis key.
        assert_ne!(
            StoreKey::analysis(&module.hash, "main", "{}", "param-set").hash,
            StoreKey::analysis(&module.hash, "main", "{}", "security").hash
        );
    }

    // ---- eviction ---------------------------------------------------------

    #[test]
    fn budget_evicts_coldest_first_and_respects_lru_touches() {
        let store = temp_store("lru").with_budget(Some(25));
        store
            .put(ArtifactKind::Analyses, "a", "aaaaaaaaaa")
            .unwrap(); // 10 B
        store
            .put(ArtifactKind::Analyses, "b", "bbbbbbbbbb")
            .unwrap(); // 10 B
                       // Touch "a": it is now warmer than "b".
        assert!(store.get(ArtifactKind::Analyses, "a").is_some());
        // +10 B pushes past 25: the coldest ("b") is evicted, not "a".
        store
            .put(ArtifactKind::Analyses, "c", "cccccccccc")
            .unwrap();
        assert!(store.contains(ArtifactKind::Analyses, "a"), "warm survives");
        assert!(!store.contains(ArtifactKind::Analyses, "b"), "cold evicted");
        assert!(store.contains(ArtifactKind::Analyses, "c"), "new survives");
        assert_eq!(store.stats().evictions, 1);
        assert!(store.total_bytes() <= 25);
        // An evicted object is a miss, and re-putting heals it.
        assert_eq!(store.get(ArtifactKind::Analyses, "b"), None);
        store
            .put(ArtifactKind::Analyses, "b", "bbbbbbbbbb")
            .unwrap();
        assert_eq!(
            store.get(ArtifactKind::Analyses, "b").as_deref(),
            Some("bbbbbbbbbb")
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn budget_is_never_exceeded_on_disk() {
        let store = temp_store("budget").with_budget(Some(64));
        for i in 0..20 {
            let key = format!("obj{i}");
            store
                .put(ArtifactKind::Analyses, &key, &"x".repeat(10))
                .unwrap();
            // Invariant after every put: indexed bytes and on-disk bytes
            // both fit the budget.
            assert!(store.total_bytes() <= 64, "index over budget at {i}");
            let on_disk: u64 = fs::read_dir(store.root().join("analyses"))
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| !is_temp(&e.file_name()))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum();
            assert!(on_disk <= 64, "disk over budget at {i}: {on_disk}");
        }
        assert!(store.stats().evictions >= 14);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn eviction_prefers_responses_over_modules() {
        // Many small modules, all colder than the responses that follow —
        // then one response large enough to blow the budget. Kind-biased
        // eviction must sacrifice the (warmer) responses and keep every
        // module: one big response must not flush the inputs.
        let store = temp_store("kindbias").with_budget(Some(100));
        for i in 0..8 {
            store
                .put(ArtifactKind::Modules, &format!("m{i}"), &"m".repeat(5))
                .unwrap(); // 40 B of modules, coldest of all
        }
        store
            .put(ArtifactKind::Analyses, "warm1", &"a".repeat(30))
            .unwrap();
        store
            .put(ArtifactKind::Analyses, "warm2", &"a".repeat(30))
            .unwrap(); // 100 B total: exactly at budget
        store
            .put(ArtifactKind::Analyses, "big", &"b".repeat(40))
            .unwrap(); // 140 B: must shed 40 B
        for i in 0..8 {
            assert!(
                store.contains(ArtifactKind::Modules, &format!("m{i}")),
                "module m{i} must survive response pressure"
            );
        }
        assert!(!store.contains(ArtifactKind::Analyses, "warm1"));
        assert!(!store.contains(ArtifactKind::Analyses, "warm2"));
        assert!(store.contains(ArtifactKind::Analyses, "big"));
        assert!(store.total_bytes() <= 100);
        let _ = fs::remove_dir_all(store.root());
        // Only under pressure from its own (or a lower) class do modules
        // go: modules alone over budget still evict modules, coldest first.
        let store = temp_store("kindbias2").with_budget(Some(12));
        store
            .put(ArtifactKind::Modules, "old", &"m".repeat(5))
            .unwrap();
        store
            .put(ArtifactKind::Modules, "mid", &"m".repeat(5))
            .unwrap();
        assert!(store.get(ArtifactKind::Modules, "old").is_some()); // touch
        store
            .put(ArtifactKind::Modules, "new", &"m".repeat(5))
            .unwrap();
        assert!(store.contains(ArtifactKind::Modules, "old"));
        assert!(!store.contains(ArtifactKind::Modules, "mid"));
        assert!(store.contains(ArtifactKind::Modules, "new"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn oversized_single_object_is_evicted_but_computation_still_worked() {
        let store = temp_store("oversize").with_budget(Some(8));
        // The object alone exceeds the budget: stored then immediately
        // evicted — a degenerate cache, never an error.
        store
            .put(ArtifactKind::Models, "big", "0123456789abcdef")
            .unwrap();
        assert!(!store.contains(ArtifactKind::Models, "big"));
        assert_eq!(store.total_bytes(), 0);
        assert_eq!(store.get(ArtifactKind::Models, "big"), None);
        let _ = fs::remove_dir_all(store.root());
    }

    /// Set an object's mtime, as another process might have left it.
    fn set_mtime(path: &Path, time: SystemTime) {
        File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(time)
            .unwrap();
    }

    const AN_HOUR: std::time::Duration = std::time::Duration::from_secs(3600);

    fn mtime(path: &Path) -> SystemTime {
        fs::metadata(path).unwrap().modified().unwrap()
    }

    #[test]
    fn access_order_survives_reopen_via_mtimes() {
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-mtime", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap();
            store
                .put(ArtifactKind::Analyses, "old", &"o".repeat(10))
                .unwrap();
            store
                .put(ArtifactKind::Analyses, "mid", &"m".repeat(10))
                .unwrap();
            store
                .put(ArtifactKind::Analyses, "new", &"n".repeat(10))
                .unwrap();
            // Touch "old" so it is the warmest at close.
            assert!(store.get(ArtifactKind::Analyses, "old").is_some());
        }
        // Reopen with a budget that only fits two objects: the coldest by
        // *persisted access order* ("mid") must be the one evicted.
        let store = Store::open(&dir).unwrap().with_budget(Some(25));
        assert!(
            store.contains(ArtifactKind::Analyses, "old"),
            "touched survives"
        );
        assert!(store.contains(ArtifactKind::Analyses, "new"));
        assert!(
            !store.contains(ArtifactKind::Analyses, "mid"),
            "coldest evicted"
        );
        assert_eq!(store.stats().evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_keeps_the_exact_order_of_rapid_puts() {
        // Twenty puts land within one tick of the kernel's coarse clock, and
        // their keys sort opposite to their put order: only exact stamps
        // let a reopened store tell the ten newest from the ten oldest.
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-rapid", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap();
            for i in (0..20).rev() {
                store
                    .put(ArtifactKind::Models, &format!("k{i:02}"), "xxxxxxxxxx")
                    .unwrap();
            }
        }
        let store = Store::open(&dir).unwrap().with_budget(Some(100));
        for i in 0..20 {
            let newest = i < 10;
            assert_eq!(
                store.contains(ArtifactKind::Models, &format!("k{i:02}")),
                newest,
                "k{i:02}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn objects_written_behind_the_stores_back_rank_by_their_own_mtime() {
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-alien", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap();
            store
                .put(ArtifactKind::Analyses, "known", &"k".repeat(10))
                .unwrap();
        }
        // Two files written behind the store's back (another process): one
        // an hour older than "known", one an hour newer. (A plain write
        // takes the kernel's coarse clock, which can lag the stamp a put
        // sets, so both get explicit times.) Open must index both.
        let analyses = dir.join("analyses");
        fs::write(analyses.join("stale"), "s".repeat(10)).unwrap();
        set_mtime(&analyses.join("stale"), SystemTime::now() - AN_HOUR);
        fs::write(analyses.join("fresh"), "f".repeat(10)).unwrap();
        set_mtime(&analyses.join("fresh"), SystemTime::now() + AN_HOUR);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.total_bytes(), 30);
        // A budget of two objects evicts the one with the oldest mtime.
        let store = store.with_budget(Some(20));
        assert_eq!(store.total_objects(), 2);
        assert!(!store.contains(ArtifactKind::Analyses, "stale"));
        assert!(store.contains(ArtifactKind::Analyses, "known"));
        assert!(store.contains(ArtifactKind::Analyses, "fresh"));
        // A budget of one keeps the newest mtime, whoever wrote it.
        let store = store.with_budget(Some(10));
        assert_eq!(store.total_objects(), 1);
        assert!(store.contains(ArtifactKind::Analyses, "fresh"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn puts_write_nothing_outside_their_own_objects() {
        let store = temp_store("only-objects").with_budget(Some(200));
        for i in 0..50 {
            let ns = ArtifactKind::ALL[i % ArtifactKind::ALL.len()];
            store.put(ns, &format!("k{i}"), &"x".repeat(10)).unwrap();
            // Under pressure the new object may already be evicted; a hit
            // (a touch) or a miss must not write anything either.
            let _ = store.get(ns, &format!("k{i}"));
        }
        assert!(store.stats().evictions > 0);
        let mut names: Vec<String> = fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["analyses", "models", "modules"]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_get_hit_moves_the_objects_mtime_forward() {
        let store = temp_store("touch");
        store.put(ArtifactKind::Models, "m", "{}").unwrap();
        let path = store.root().join("models").join("m");
        set_mtime(&path, SystemTime::now() - AN_HOUR);
        let before = mtime(&path);
        assert!(store.get(ArtifactKind::Models, "m").is_some());
        assert!(mtime(&path) > before, "a hit stamps the object's mtime");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn open_ignores_what_older_servers_left_behind() {
        let dir = std::env::temp_dir().join(format!("pt-store-test-{}-legacy", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for tier in ["functions", "statics"] {
            fs::create_dir_all(dir.join(tier)).unwrap();
            fs::write(dir.join(tier).join("k"), "{}").unwrap();
        }
        fs::write(dir.join("lru-index"), "0 analyses 2 a\n").unwrap();
        let store = Store::open(&dir).unwrap().with_budget(Some(0));
        assert_eq!(store.total_objects(), 0);
        assert_eq!(store.total_bytes(), 0);
        assert_eq!(store.stats().evictions, 0);
        for left in ["functions/k", "statics/k", "lru-index"] {
            assert!(
                dir.join(left).exists(),
                "{left} is not the store's to touch"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
