//! Disk-backed content-addressed storage with a crash-safe commit protocol.
//!
//! Every mutation of an on-disk layout follows the same discipline:
//!
//! ```text
//! write payload → .tmp.<pid>-<seq> (same directory)
//! fsync the tmp file
//! rename(tmp, final)              # atomic on POSIX
//! fsync the directory             # persist the rename itself
//! ```
//!
//! Blobs are immutable once renamed into `blobs/sha256/<hex>`; `index.json`
//! and the `oci-layout` marker are replaced atomically the same way. A
//! process killed at any instant therefore leaves either the old file, the
//! new file, or an orphan `.tmp.*` — never a half-written final path.
//! `comt fsck` diagnoses (and `--repair` sweeps) the orphans.
//!
//! Writers coordinate through [`LayoutLock`], an advisory OS lock on
//! `.comt.lock` in the layout root. The lock dies with the process (even
//! `kill -9`), so a crashed daemon never wedges the layout.

use crate::backend::{BlobHandle, RegistryBackend};
use crate::layout::LayoutError;
use crate::spec::{ImageIndex, MediaType};
use crate::store::{closure_of_manifest, RegistryError};
use bytes::Bytes;
use comt_digest::Digest;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Advisory lock file name, in the layout root (not under `blobs/`).
pub const LOCK_FILE: &str = ".comt.lock";

/// Prefix of in-flight commit files. Anything carrying it is an orphan of
/// a crashed writer once no process holds the layout lock.
pub const TMP_PREFIX: &str = ".tmp.";

/// Contents of the `oci-layout` version marker.
pub const OCI_LAYOUT_MARKER: &[u8] = b"{\"imageLayoutVersion\": \"1.0.0\"}";

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_name() -> String {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{TMP_PREFIX}{}-{}", std::process::id(), seq)
}

/// fsync a directory so a just-committed rename survives power loss.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Write `data` to a fresh tmp file in `path`'s directory, fsync it, and
/// atomically rename it over `path`, fsyncing the directory after.
pub(crate) fn commit_file(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().expect("commit target has a parent");
    let tmp = dir.join(tmp_name());
    let mut f = File::create(&tmp)?;
    f.write_all(data)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_dir(dir)
}

/// An exclusive advisory lock on one on-disk layout.
///
/// `comt serve` holds it for the daemon's lifetime; `save`, `gc --apply`
/// and `fsck --repair` hold it for the duration of their mutation. The OS
/// releases it when the holding process exits by any means, so no stale
/// lock survives a crash.
#[derive(Debug)]
pub struct LayoutLock {
    _file: File,
    path: PathBuf,
}

impl LayoutLock {
    /// Acquire the layout's exclusive lock, creating the directory and the
    /// lock file as needed. Fails fast with [`LayoutError::Locked`] if
    /// another live process holds it.
    pub fn acquire(dir: &Path) -> Result<LayoutLock, LayoutError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                // Record the holder's pid — purely diagnostic; the OS lock
                // is the actual mutual exclusion.
                let _ = file.set_len(0);
                let _ = writeln!(&file, "{}", std::process::id());
                Ok(LayoutLock { _file: file, path })
            }
            Err(TryLockError::WouldBlock) => {
                let holder = std::fs::read_to_string(&path)
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty());
                Err(LayoutError::Locked {
                    path: path.display().to_string(),
                    holder,
                })
            }
            Err(TryLockError::Error(e)) => Err(e.into()),
        }
    }

    /// Path of the lock file (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A disk-backed content-addressed blob store rooted at an OCI layout
/// directory. Reads are lazy and digest-verified; writes follow the
/// tmp → fsync → rename commit protocol, so a blob path either holds the
/// complete verified content or does not exist.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Open a layout directory for writing, creating the skeleton
    /// (`blobs/sha256/`, `oci-layout` marker) if absent.
    pub fn init(root: &Path) -> Result<DiskStore, LayoutError> {
        let store = DiskStore {
            root: root.to_path_buf(),
        };
        std::fs::create_dir_all(store.blobs_dir())?;
        let marker = root.join("oci-layout");
        if !marker.exists() {
            commit_file(&marker, OCI_LAYOUT_MARKER)?;
        }
        Ok(store)
    }

    /// Open an existing layout directory without creating anything.
    pub fn open(root: &Path) -> Result<DiskStore, LayoutError> {
        if !root.join("index.json").is_file() && !root.join("blobs").is_dir() {
            return Err(LayoutError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("not an OCI layout: {}", root.display()),
            )));
        }
        Ok(DiskStore {
            root: root.to_path_buf(),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn blobs_dir(&self) -> PathBuf {
        self.root.join("blobs").join("sha256")
    }

    /// Final on-disk path of a blob.
    pub fn blob_path(&self, digest: &Digest) -> PathBuf {
        self.blobs_dir().join(digest.hex())
    }

    pub fn contains(&self, digest: &Digest) -> bool {
        self.blob_path(digest).is_file()
    }

    /// Size in bytes of a committed blob, if present.
    pub fn blob_len(&self, digest: &Digest) -> Option<u64> {
        std::fs::metadata(self.blob_path(digest))
            .ok()
            .filter(|m| m.is_file())
            .map(|m| m.len())
    }

    /// Read a blob and verify its content against its address. `Ok(None)`
    /// means absent; a present-but-corrupt blob is
    /// [`LayoutError::DigestMismatch`] — torn state, never silently served.
    pub fn read_blob(&self, digest: &Digest) -> Result<Option<Bytes>, LayoutError> {
        let path = self.blob_path(digest);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if Digest::of(&data) != *digest {
            return Err(LayoutError::DigestMismatch {
                path: path.display().to_string(),
            });
        }
        Ok(Some(Bytes::from(data)))
    }

    /// Commit a blob under its claimed digest, re-hashing first (the trust
    /// boundary for wire uploads and cross-process copies). Returns `true`
    /// if the blob was newly written, `false` if already present.
    pub fn put_blob(&self, digest: &Digest, data: &[u8]) -> Result<bool, LayoutError> {
        if Digest::of(data) != *digest {
            return Err(LayoutError::DigestMismatch {
                path: self.blob_path(digest).display().to_string(),
            });
        }
        let path = self.blob_path(digest);
        if path.is_file() {
            return Ok(false);
        }
        commit_file(&path, data)?;
        Ok(true)
    }

    /// Delete a committed blob (GC path); returns whether it existed.
    pub fn remove_blob(&self, digest: &Digest) -> Result<bool, LayoutError> {
        let path = self.blob_path(digest);
        match std::fs::remove_file(&path) {
            Ok(()) => {
                fsync_dir(&self.blobs_dir())?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Digests of every well-formed blob file with its size, in digest
    /// order. Tmp orphans and foreign files are skipped here — `comt fsck`
    /// is the pass that reports them.
    pub fn digests(&self) -> Result<Vec<(Digest, u64)>, LayoutError> {
        let dir = self.blobs_dir();
        let mut out = Vec::new();
        if !dir.is_dir() {
            return Ok(out);
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Ok(d) = format!("sha256:{name}").parse::<Digest>() else {
                continue;
            };
            let meta = entry.metadata()?;
            if meta.is_file() {
                out.push((d, meta.len()));
            }
        }
        out.sort_by_key(|(d, _)| *d);
        Ok(out)
    }

    /// Parse `index.json`, refusing torn or missing state with an error
    /// that points at `comt fsck`.
    pub fn read_index(&self) -> Result<ImageIndex, LayoutError> {
        let path = self.root.join("index.json");
        let raw = match std::fs::read(&path) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(LayoutError::Torn {
                    path: path.display().to_string(),
                    detail: "index.json is missing".into(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        serde_json::from_slice(&raw).map_err(|e| LayoutError::Torn {
            path: path.display().to_string(),
            detail: format!("index.json does not parse: {e}"),
        })
    }

    /// Atomically replace `index.json` (and refresh the `oci-layout`
    /// marker). This is the commit point of every layout mutation: the tag
    /// table flips from old to new in one rename.
    pub fn commit_index(&self, index: &ImageIndex) -> Result<(), LayoutError> {
        let marker = self.root.join("oci-layout");
        if !marker.is_file() {
            commit_file(&marker, OCI_LAYOUT_MARKER)?;
        }
        let json = serde_json::to_vec_pretty(index)
            .map_err(|e| LayoutError::BadJson(e.to_string()))?;
        commit_file(&self.root.join("index.json"), &json)?;
        Ok(())
    }
}

fn storage_err(e: LayoutError) -> RegistryError {
    match e {
        LayoutError::DigestMismatch { path } => RegistryError::DigestMismatch(path),
        other => RegistryError::Storage(other.to_string()),
    }
}

/// A registry whose blobs and tag table live on disk, held open under the
/// layout lock. Each published manifest is committed durably before its
/// tag becomes visible, so a `kill -9` of the daemon loses at most the
/// in-flight stage: every previously visible tag still resolves and pulls
/// bit-identically after restart.
#[derive(Debug)]
pub struct DiskRegistry {
    store: DiskStore,
    index: ImageIndex,
    _lock: LayoutLock,
}

impl DiskRegistry {
    /// Lock and open a layout directory as a live registry. An empty or
    /// absent directory becomes an empty registry; an existing layout's
    /// tags are served as `name:tag` keys (bare ref names answer to
    /// `name:latest`).
    pub fn open(dir: &Path) -> Result<DiskRegistry, LayoutError> {
        let lock = LayoutLock::acquire(dir)?;
        let store = DiskStore::init(dir)?;
        let index = if store.root().join("index.json").is_file() {
            store.read_index()?
        } else {
            // Commit the empty tag table now so the layout is complete
            // (fsck-clean) from the first instant, however the daemon dies.
            let index = ImageIndex::default();
            store.commit_index(&index)?;
            index
        };
        Ok(DiskRegistry {
            store,
            index,
            _lock: lock,
        })
    }

    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// Digests reachable from any index ref. Walks each ref's manifest
    /// closure lazily — only manifest blobs are read (and verified); layer
    /// and config blobs are never loaded. A broken ref (missing/corrupt
    /// manifest, bad digest) is an error: gc must not treat blobs as dead
    /// because a closure could not be enumerated. A chunkmap blob is live
    /// iff the layer it describes is live (its lifetime is slaved to the
    /// layer's through the closure walk).
    pub fn live_set(&self) -> Result<std::collections::BTreeSet<Digest>, RegistryError> {
        let mut live = std::collections::BTreeSet::new();
        for name in self.index.ref_names() {
            let desc = self.index.find_ref(&name).expect("ref listed by index");
            let digest = desc
                .parsed_digest()
                .map_err(|_| RegistryError::CorruptManifest(format!("ref {name}: bad digest")))?;
            if live.contains(&digest) {
                continue;
            }
            let raw = self
                .store
                .read_blob(&digest)
                .map_err(storage_err)?
                .ok_or_else(|| RegistryError::MissingBlob(digest.to_string()))?;
            live.extend(closure_of_manifest(&raw, &digest)?);
        }
        for desc in self.index.chunkmap_entries() {
            let layer_live = desc.chunkmap_layer().is_some_and(|l| live.contains(&l));
            if layer_live {
                if let Ok(d) = desc.parsed_digest() {
                    live.insert(d);
                }
            }
        }
        Ok(live)
    }

    /// GC plan: blobs on disk unreachable from every ref, with the bytes
    /// they hold. The scan is metadata-only (names and sizes); no blob
    /// content is read except the manifests of live refs.
    pub fn gc_plan(&self) -> Result<(Vec<Digest>, u64), RegistryError> {
        let live = self.live_set()?;
        let mut dead = Vec::new();
        let mut bytes = 0u64;
        for (d, len) in self.store.digests().map_err(storage_err)? {
            if !live.contains(&d) {
                bytes += len;
                dead.push(d);
            }
        }
        Ok((dead, bytes))
    }

    /// Delete every unreachable blob file (the registry holds the layout
    /// lock, so no concurrent publisher can re-reference one mid-sweep).
    /// Orphan chunkmap entries — associations whose layer blob is no longer
    /// live — are swept from the index first (atomic commit), so the sweep
    /// never leaves a descriptor pointing at a deleted blob.
    /// Returns (blobs removed, bytes reclaimed).
    pub fn gc_apply(&mut self) -> Result<(usize, u64), RegistryError> {
        let live = self.live_set()?;
        let orphan_maps = self
            .index
            .chunkmap_entries()
            .filter(|d| d.parsed_digest().map(|m| !live.contains(&m)).unwrap_or(true))
            .count();
        if orphan_maps > 0 {
            let mut next = self.index.clone();
            next.manifests.retain(|d| {
                d.media_type != MediaType::Chunkmap
                    || d.parsed_digest().map(|m| live.contains(&m)).unwrap_or(false)
            });
            self.commit_index(next)?;
        }
        let (dead, bytes) = self.gc_plan()?;
        let mut removed = 0usize;
        for d in &dead {
            if self.store.remove_blob(d).map_err(storage_err)? {
                removed += 1;
            }
        }
        Ok((removed, bytes))
    }
}

/// Every index commit is an atomic, durable `index.json` replace; blobs
/// stream lazily off their files.
impl RegistryBackend for DiskRegistry {
    fn index(&self) -> &ImageIndex {
        &self.index
    }

    fn commit_index(&mut self, next: ImageIndex) -> Result<(), RegistryError> {
        self.store.commit_index(&next).map_err(storage_err)?;
        self.index = next;
        Ok(())
    }

    fn blob_handle(&self, digest: &Digest) -> Option<BlobHandle> {
        let len = self.store.blob_len(digest)?;
        Some(BlobHandle::File {
            path: self.store.blob_path(digest),
            len,
        })
    }

    fn put_blob(&mut self, digest: Digest, data: Bytes) -> Result<bool, RegistryError> {
        self.store.put_blob(&digest, &data).map_err(|e| match e {
            LayoutError::DigestMismatch { .. } => {
                RegistryError::DigestMismatch(digest.to_string())
            }
            other => RegistryError::Storage(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Descriptor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "comt-disk-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_read_roundtrip_and_dedupe() {
        let dir = tmp_dir("rt");
        let store = DiskStore::init(&dir).unwrap();
        let data = b"blob payload";
        let d = Digest::of(data);
        assert!(store.put_blob(&d, data).unwrap());
        assert!(!store.put_blob(&d, data).unwrap()); // dedupe
        assert_eq!(store.read_blob(&d).unwrap().unwrap(), Bytes::from_static(data));
        assert_eq!(store.blob_len(&d), Some(data.len() as u64));
        assert!(store.contains(&d));
        // No tmp residue after a clean commit.
        let residue: Vec<_> = std::fs::read_dir(store.blobs_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(TMP_PREFIX))
            .collect();
        assert!(residue.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_blob_rejects_claim_mismatch() {
        let dir = tmp_dir("claim");
        let store = DiskStore::init(&dir).unwrap();
        let wrong = Digest::of(b"other content");
        let err = store.put_blob(&wrong, b"actual content").unwrap_err();
        assert!(matches!(err, LayoutError::DigestMismatch { .. }));
        assert!(!store.contains(&wrong));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_blob_detects_corruption() {
        let dir = tmp_dir("corrupt");
        let store = DiskStore::init(&dir).unwrap();
        let d = Digest::of(b"original");
        store.put_blob(&d, b"original").unwrap();
        std::fs::write(store.blob_path(&d), b"tampered").unwrap();
        assert!(matches!(
            store.read_blob(&d),
            Err(LayoutError::DigestMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_excludes_second_holder() {
        let dir = tmp_dir("lock");
        let first = LayoutLock::acquire(&dir).unwrap();
        // Same-process second handle: advisory OS locks are per-open-file,
        // so this models a second process contending for the layout.
        match LayoutLock::acquire(&dir) {
            Err(LayoutError::Locked { holder, .. }) => {
                assert_eq!(holder.as_deref(), Some(std::process::id().to_string().as_str()));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(first);
        LayoutLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_reclaims_only_unreachable_blobs() {
        let dir = tmp_dir("gc");
        {
            let mut reg = DiskRegistry::open(&dir).unwrap();
            // A tiny published image: config + layer + manifest.
            let store = crate::store::BlobStore::new();
            let mut blobs = store;
            let image = crate::ImageBuilder::from_scratch("x86_64")
                .with_layer_tar(Bytes::from_static(b"layer tar bytes"), "layer")
                .commit(&mut blobs)
                .unwrap();
            for (d, data) in blobs.iter() {
                reg.store().put_blob(d, data).unwrap();
            }
            let manifest = blobs.get(&image.manifest_digest).unwrap();
            reg.put_manifest("app:1", manifest).unwrap();
            // Plus one blob nothing references.
            let orphan = Bytes::from_static(b"unreferenced bytes");
            let od = Digest::of(&orphan);
            reg.store().put_blob(&od, &orphan).unwrap();

            let (dead, bytes) = reg.gc_plan().unwrap();
            assert_eq!(dead, vec![od]);
            assert_eq!(bytes, orphan.len() as u64);
            let (removed, reclaimed) = reg.gc_apply().unwrap();
            assert_eq!((removed, reclaimed), (1, orphan.len() as u64));
            assert!(!reg.store().contains(&od));
            // Everything live survived and the tag still resolves.
            assert_eq!(reg.index().resolve_key("app:1"), Some(image.manifest_digest));
            let (dead, _) = reg.gc_plan().unwrap();
            assert!(dead.is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunkmap_lifetime_is_slaved_to_its_layer() {
        let dir = tmp_dir("chunkmap");
        {
            let mut reg = DiskRegistry::open(&dir).unwrap();
            let mut blobs = crate::store::BlobStore::new();
            let layer_bytes = Bytes::from(vec![7u8; 64 * 1024]);
            let image = crate::ImageBuilder::from_scratch("x86_64")
                .with_layer_tar(layer_bytes.clone(), "layer")
                .commit(&mut blobs)
                .unwrap();
            for (d, data) in blobs.iter() {
                reg.store().put_blob(d, data).unwrap();
            }
            let manifest = blobs.get(&image.manifest_digest).unwrap();
            reg.put_manifest("app:1", manifest).unwrap();

            let layer = image.manifest.layers[0].parsed_digest().unwrap();
            let layer_blob = reg.store().read_blob(&layer).unwrap().unwrap();
            let map = comt_chunk::ChunkMap::build(&layer_blob, comt_chunk::ChunkParams::default())
                .unwrap();
            let map_digest = reg
                .put_chunkmap(layer, Bytes::from(map.to_json()))
                .unwrap();
            assert_eq!(reg.index().chunkmap_for(&layer), Some(map_digest));

            // A chunkmap for a blob the store does not hold is refused.
            assert!(matches!(
                reg.put_chunkmap(Digest::of(b"ghost layer"), Bytes::from_static(b"{}")),
                Err(RegistryError::MissingBlob(_))
            ));

            // Layer live → chunkmap live: nothing to collect.
            let (dead, _) = reg.gc_plan().unwrap();
            assert!(dead.is_empty(), "{dead:?}");

            // Survives reopen (the association is in the committed index).
            drop(reg);
            let mut reg = DiskRegistry::open(&dir).unwrap();
            assert_eq!(reg.index().chunkmap_for(&layer), Some(map_digest));

            // Drop the ref: the layer dies, and the chunkmap must die with
            // it — blob swept, association gone from the index.
            let mut next = reg.index().clone();
            assert!(next.remove_ref("app:1"));
            reg.commit_index(next).unwrap();
            let (dead, _) = reg.gc_plan().unwrap();
            assert!(dead.contains(&map_digest), "orphan chunkmap not planned");
            let (removed, _) = reg.gc_apply().unwrap();
            assert!(removed >= 4); // manifest + config + layer + chunkmap
            assert!(!reg.store().contains(&map_digest));
            assert_eq!(reg.index().chunkmap_for(&layer), None);
            assert!(reg.index().chunkmap_entries().next().is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_refcounts_shared_layers_across_two_tags() {
        // Two tags sharing a base layer: dropping one tag must prune only
        // the blobs unique to it; the shared layer survives because the
        // other tag still reaches it (reachability is the refcount).
        let dir = tmp_dir("refcount");
        {
            let mut store = crate::store::BlobStore::new();
            let mut base_fs = comt_vfs::Vfs::new();
            base_fs
                .write_file_p("/lib/libm.so", Bytes::from_static(b"MATH"), 0o644)
                .unwrap();
            let base = crate::ImageBuilder::from_scratch("x86_64")
                .with_layer_from_fs(&comt_vfs::Vfs::new(), &base_fs)
                .commit(&mut store)
                .unwrap();
            let mut app_fs = base_fs.clone();
            app_fs
                .write_file_p("/app/run", Bytes::from_static(b"ELF"), 0o755)
                .unwrap();
            let app = crate::ImageBuilder::from_base(&store, &base)
                .unwrap()
                .with_layer_from_fs(&base_fs, &app_fs)
                .commit(&mut store)
                .unwrap();
            let shared_layer = base.manifest.layers[0].parsed_digest().unwrap();
            let app_only_layer = app.manifest.layers[1].parsed_digest().unwrap();

            let mut reg = DiskRegistry::open(&dir).unwrap();
            for (d, data) in store.iter() {
                reg.put_blob(*d, data.clone()).unwrap();
            }
            for (tag, image) in [("base:1", &base), ("app:1", &app)] {
                let manifest = store.get(&image.manifest_digest).unwrap();
                reg.put_manifest(tag, manifest).unwrap();
            }

            // Both tags present: nothing is collectable.
            let (dead, bytes) = reg.gc_plan().unwrap();
            assert!(dead.is_empty(), "{dead:?}");
            assert_eq!(bytes, 0);

            // Drop the app tag: exactly its manifest, config and unique
            // layer become unreachable; the shared base layer must NOT be
            // listed.
            let mut next = reg.index().clone();
            assert!(next.remove_ref("app:1"));
            reg.commit_index(next).unwrap();
            let (dead, bytes) = reg.gc_plan().unwrap();
            assert_eq!(dead.len(), 3, "{dead:?}");
            assert!(dead.contains(&app.manifest_digest));
            assert!(dead.contains(&app_only_layer));
            assert!(!dead.contains(&shared_layer));
            assert!(bytes > 0);

            // Apply: the plan and the deletion agree, and the surviving
            // tag still loads and flattens.
            assert_eq!(reg.gc_apply().unwrap(), (3, bytes));
            assert!(reg.store().contains(&shared_layer));
            assert!(!reg.store().contains(&app_only_layer));
            drop(reg);
            let oci = crate::layout::OciDir::load(&dir).unwrap();
            let img = oci.load_image("base:1").unwrap();
            assert_eq!(crate::flatten(&oci.blobs, &img).unwrap(), base_fs);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_commit_is_atomic_replace() {
        let dir = tmp_dir("index");
        let store = DiskStore::init(&dir).unwrap();
        let mut index = ImageIndex::default();
        index.set_ref(
            "app:1",
            Descriptor::new(MediaType::ImageManifest, Digest::of(b"m"), 1),
        );
        store.commit_index(&index).unwrap();
        assert_eq!(store.read_index().unwrap(), index);
        // Torn JSON refuses with a Torn error pointing at fsck.
        std::fs::write(dir.join("index.json"), &serde_json::to_vec(&index).unwrap()[..10])
            .unwrap();
        assert!(matches!(store.read_index(), Err(LayoutError::Torn { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
