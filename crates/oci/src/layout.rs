//! The OCI image layout: the directory interchange format.
//!
//! In the coMtainer workflow the `dist` image is exported as an OCI layout
//! directory (`buildah push xxx.dist oci:./xxx.dist.oci`) which is then
//! bind-mounted into the build/rebuild/redirect containers. We model that
//! directory both **in memory** ([`OciDir`], the form "mounted" into
//! simulated containers) and **on disk** (`save`/`load`), with the standard
//! structure:
//!
//! ```text
//! oci-layout          # {"imageLayoutVersion": "1.0.0"}
//! index.json          # ImageIndex with ref.name annotations
//! blobs/sha256/<hex>  # content-addressed blobs
//! ```

use crate::backend::{BlobHandle, RegistryBackend};
use crate::spec::{Descriptor, ImageIndex, MediaType};
use crate::store::{closure_digests, BlobStore, RegistryError};
use bytes::Bytes;
use comt_digest::Digest;
use std::fmt;
use std::io;
use std::path::Path;

/// An OCI layout held in memory: the unit mounted at `/.coMtainer/io`,
/// and the in-memory [`RegistryBackend`] the wire daemon serves in tests
/// and benches.
#[derive(Debug, Clone, Default)]
pub struct OciDir {
    pub index: ImageIndex,
    pub blobs: BlobStore,
}

/// Errors from layout I/O.
#[derive(Debug)]
pub enum LayoutError {
    Io(io::Error),
    BadJson(String),
    BadDigest(String),
    /// A blob file's name does not match its content digest.
    DigestMismatch { path: String },
    UnknownRef(String),
    /// Another live process holds the layout's advisory lock.
    Locked {
        path: String,
        /// Pid recorded by the holder, when readable (diagnostic only).
        holder: Option<String>,
    },
    /// The on-disk layout is torn (interrupted commit: orphan tmp file,
    /// truncated `index.json`, foreign file in the blob directory).
    Torn { path: String, detail: String },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Io(e) => write!(f, "io error: {e}"),
            LayoutError::BadJson(e) => write!(f, "bad json: {e}"),
            LayoutError::BadDigest(e) => write!(f, "bad digest: {e}"),
            LayoutError::DigestMismatch { path } => {
                write!(f, "blob content does not match its digest: {path}")
            }
            LayoutError::UnknownRef(r) => write!(f, "unknown ref: {r}"),
            LayoutError::Locked { path, holder } => {
                write!(f, "layout is locked by another process ({path}")?;
                if let Some(pid) = holder {
                    write!(f, ", held by pid {pid}")?;
                }
                write!(f, ")")
            }
            LayoutError::Torn { path, detail } => {
                write!(
                    f,
                    "torn layout: {detail} ({path}); run `comt fsck` to diagnose and `comt fsck --repair` to recover"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl From<io::Error> for LayoutError {
    fn from(e: io::Error) -> Self {
        LayoutError::Io(e)
    }
}

impl OciDir {
    pub fn new() -> Self {
        OciDir::default()
    }

    /// Export an image (manifest closure) from `src` into this layout under
    /// the ref name `name` — the `buildah push … oci:./dir` step.
    pub fn export(
        &mut self,
        name: &str,
        manifest_digest: Digest,
        src: &BlobStore,
    ) -> Result<(), LayoutError> {
        let closure = closure_digests(src, &manifest_digest).map_err(|e| match e {
            RegistryError::MissingBlob(d) => LayoutError::BadDigest(d),
            other => LayoutError::BadJson(other.to_string()),
        })?;
        for d in &closure {
            if !self.blobs.fetch_from(src, d) {
                return Err(LayoutError::BadDigest(d.to_string()));
            }
        }
        let size = self.blobs.get(&manifest_digest).map_or(0, |m| m.len() as u64);
        self.index.set_ref(
            name,
            Descriptor::new(MediaType::ImageManifest, manifest_digest, size),
        );
        Ok(())
    }

    /// Resolve a ref name to its manifest digest.
    pub fn resolve(&self, name: &str) -> Result<Digest, LayoutError> {
        let desc = self
            .index
            .find_ref(name)
            .ok_or_else(|| LayoutError::UnknownRef(name.to_string()))?;
        desc.parsed_digest()
            .map_err(|e| LayoutError::BadDigest(e.to_string()))
    }

    /// Load an [`crate::Image`] by ref name.
    pub fn load_image(&self, name: &str) -> Result<crate::Image, LayoutError> {
        let d = self.resolve(name)?;
        crate::Image::load(&self.blobs, d).map_err(|e| LayoutError::BadJson(e.to_string()))
    }

    /// Persist to a real directory in standard OCI layout form, under the
    /// layout lock and with the crash-safe commit protocol: blobs are
    /// committed incrementally (only the missing ones are written, each
    /// via tmp → fsync → atomic rename), and `index.json` is replaced
    /// atomically last, so a kill mid-save leaves either the old or the
    /// new tag table — never a torn one.
    pub fn save(&self, dir: &Path) -> Result<(), LayoutError> {
        let _lock = crate::disk::LayoutLock::acquire(dir)?;
        let store = crate::disk::DiskStore::init(dir)?;
        for (digest, blob) in self.blobs.iter() {
            store.put_blob(digest, blob)?;
        }
        store.commit_index(&self.index)
    }

    /// Load from a real directory, verifying every blob against its name
    /// and refusing torn state: an orphan tmp file, a foreign file in the
    /// blob directory, or an unparseable `index.json` all fail with an
    /// error pointing at `comt fsck` instead of being silently skipped.
    pub fn load(dir: &Path) -> Result<Self, LayoutError> {
        let store = crate::disk::DiskStore::open(dir)?;
        let index = store.read_index()?;
        let mut blobs = BlobStore::new();
        let blobs_dir = dir.join("blobs").join("sha256");
        if blobs_dir.is_dir() {
            for entry in std::fs::read_dir(&blobs_dir)? {
                let entry = entry?;
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with(crate::disk::TMP_PREFIX) {
                    return Err(LayoutError::Torn {
                        path: path.display().to_string(),
                        detail: "orphan temp file from an interrupted commit".into(),
                    });
                }
                if format!("sha256:{name}").parse::<Digest>().is_err() {
                    return Err(LayoutError::Torn {
                        path: path.display().to_string(),
                        detail: "foreign file in the blob directory".into(),
                    });
                }
                let data = std::fs::read(&path)?;
                let stored = blobs.put(Bytes::from(data));
                if stored.hex() != name {
                    return Err(LayoutError::DigestMismatch {
                        path: path.display().to_string(),
                    });
                }
            }
        }
        Ok(OciDir { index, blobs })
    }
}

/// Tags and chunkmaps live in [`OciDir::index`], blobs resident in
/// [`OciDir::blobs`].
impl RegistryBackend for OciDir {
    fn index(&self) -> &ImageIndex {
        &self.index
    }

    fn commit_index(&mut self, next: ImageIndex) -> Result<(), RegistryError> {
        self.index = next;
        Ok(())
    }

    fn blob_handle(&self, digest: &Digest) -> Option<BlobHandle> {
        self.blobs.get(digest).map(BlobHandle::Resident)
    }

    fn put_blob(&mut self, digest: Digest, data: Bytes) -> Result<bool, RegistryError> {
        let fresh = !self.blobs.contains(&digest);
        self.blobs.put_verified(digest, data)?;
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use comt_vfs::Vfs;

    fn tiny_image(store: &mut BlobStore) -> Digest {
        let mut fs = Vfs::new();
        fs.write_file_p("/app/bin", Bytes::from_static(b"B"), 0o755)
            .unwrap();
        ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(store)
            .unwrap()
            .manifest_digest
    }

    #[test]
    fn export_and_resolve() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app.dist", md, &store).unwrap();
        assert_eq!(dir.resolve("app.dist").unwrap(), md);
        assert_eq!(dir.blobs.len(), 3);
        assert!(dir.load_image("app.dist").is_ok());
    }

    #[test]
    fn resolve_unknown_ref() {
        let dir = OciDir::new();
        assert!(matches!(
            dir.resolve("ghost"),
            Err(LayoutError::UnknownRef(_))
        ));
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app.dist", md, &store).unwrap();

        let tmp = std::env::temp_dir().join(format!("comt-oci-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        dir.save(&tmp).unwrap();

        assert!(tmp.join("oci-layout").exists());
        assert!(tmp.join("index.json").exists());

        let back = OciDir::load(&tmp).unwrap();
        assert_eq!(back.index, dir.index);
        assert_eq!(back.blobs.len(), dir.blobs.len());
        assert_eq!(back.resolve("app.dist").unwrap(), md);

        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn load_detects_corrupt_blob() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app.dist", md, &store).unwrap();

        let tmp = std::env::temp_dir().join(format!("comt-oci-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        dir.save(&tmp).unwrap();

        // Corrupt one blob file.
        let blob_dir = tmp.join("blobs").join("sha256");
        let victim = std::fs::read_dir(&blob_dir).unwrap().next().unwrap().unwrap();
        std::fs::write(victim.path(), b"corrupted!").unwrap();

        assert!(matches!(
            OciDir::load(&tmp),
            Err(LayoutError::DigestMismatch { .. })
        ));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn multiple_refs_share_blobs() {
        let mut store = BlobStore::new();
        let md = tiny_image(&mut store);
        let mut dir = OciDir::new();
        dir.export("app:1", md, &store).unwrap();
        dir.export("app:1+coM", md, &store).unwrap();
        assert_eq!(dir.blobs.len(), 3); // shared closure
        assert_eq!(dir.index.ref_names(), vec!["app:1", "app:1+coM"]);
    }
}
