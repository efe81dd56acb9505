//! The registry backend abstraction: one wire daemon, two layouts.
//!
//! `comt-dist`'s server is generic over [`RegistryBackend`], so the same
//! protocol code serves an in-memory [`crate::layout::OciDir`] (engine/VFS
//! tests, benches) and the crash-safe [`crate::DiskRegistry`] (`comt
//! serve` on a real layout) — the two forms of the OCI layout the CLI
//! already uses. Both keep their tags and chunkmap associations in an
//! [`ImageIndex`]: a backend supplies only blob storage and the index
//! commit, and every decision about the index is made once, in the
//! trait's provided methods and in [`ImageIndex`] itself. The trait's
//! contract encodes the durability story:
//!
//! * [`RegistryBackend::put_blob`] verifies the claimed digest against the
//!   bytes **in every build profile** and, for disk backends, makes the
//!   blob durable before returning — a killed daemon never forgets an
//!   acknowledged blob.
//! * [`RegistryBackend::put_manifest`] is staged: the tag becomes visible
//!   only after the whole closure is present and bit-verified, and a
//!   rejected publish leaves no trace.
//! * [`RegistryBackend::blob_handle`] returns a cheap handle so the server
//!   can drop its lock before the expensive part (file read + re-hash)
//!   happens in [`BlobHandle::stream_verified`].

use crate::spec::{Descriptor, ImageIndex, MediaType};
use crate::store::{closure_of_manifest, RegistryError};
use bytes::Bytes;
use comt_digest::{Digest, Sha256};
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

/// Chunk size for streaming reads of file-backed blobs. Large enough to
/// amortize syscalls, small enough that a streaming verify or copy never
/// holds more than this much of the blob in memory.
pub const BLOB_STREAM_CHUNK: usize = 256 * 1024;

/// Observe counter: bytes read from disk by file-backed blob handles.
/// The Range-GET regression test asserts on this — a ranged read must
/// cost ~the range, never the whole blob.
pub const FILE_BYTES_READ: &str = "oci.blob.file_bytes_read";

/// A cheap reference to a stored blob, resolvable to verified bytes
/// outside any registry lock.
#[derive(Debug, Clone)]
pub enum BlobHandle {
    /// The blob lives in memory; cloning `Bytes` is refcount-cheap.
    Resident(Bytes),
    /// The blob lives on disk; reading is deferred to the caller.
    File { path: PathBuf, len: u64 },
}

impl BlobHandle {
    pub fn len(&self) -> u64 {
        match self {
            BlobHandle::Resident(b) => b.len() as u64,
            BlobHandle::File { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A chunked [`Read`] over the blob. Resident handles read from the
    /// shared buffer; file handles read from disk in whatever chunk size
    /// the caller brings — nothing is slurped up front.
    pub fn reader(&self) -> Result<BlobReader, RegistryError> {
        match self {
            BlobHandle::Resident(b) => Ok(BlobReader::Resident {
                data: b.clone(),
                pos: 0,
            }),
            BlobHandle::File { path, .. } => std::fs::File::open(path)
                .map(BlobReader::File)
                .map_err(|e| RegistryError::Storage(format!("{}: {e}", path.display()))),
        }
    }

    /// Verify the blob's content against `want` without materializing it:
    /// hash in [`BLOB_STREAM_CHUNK`]-sized pieces and discard. Peak memory
    /// is one chunk regardless of blob size. Returns the byte count hashed.
    pub fn stream_verified(&self, want: &Digest) -> Result<u64, RegistryError> {
        let mut reader = self.reader()?;
        let mut hasher = Sha256::new();
        let mut buf = vec![0u8; BLOB_STREAM_CHUNK.min(self.len().max(1) as usize)];
        let mut total = 0u64;
        loop {
            let n = reader
                .read(&mut buf)
                .map_err(|e| RegistryError::Storage(format!("stream blob: {e}")))?;
            if n == 0 {
                break;
            }
            hasher.update(&buf[..n]);
            total += n as u64;
        }
        if Digest::from_raw(hasher.finalize()) != *want {
            return Err(RegistryError::DigestMismatch(want.to_string()));
        }
        Ok(total)
    }

    /// Read only the half-open byte window `[start, end)`. Resident handles
    /// slice the shared buffer (zero-copy); file handles seek and read
    /// exactly the window — a ranged request for 1 KiB of a 2 GiB layer
    /// costs 1 KiB of I/O, not 2 GiB. The window is unverified by itself
    /// (a partial body cannot be checked against a whole-blob digest);
    /// clients verify the assembled blob.
    pub fn read_range(&self, start: u64, end: u64) -> Result<Bytes, RegistryError> {
        let total = self.len();
        if start > end || end > total {
            return Err(RegistryError::Storage(format!(
                "range {start}..{end} out of bounds for {total}-byte blob"
            )));
        }
        match self {
            BlobHandle::Resident(b) => Ok(b.slice(start as usize..end as usize)),
            BlobHandle::File { path, .. } => {
                let mut f = std::fs::File::open(path)
                    .map_err(|e| RegistryError::Storage(format!("{}: {e}", path.display())))?;
                f.seek(SeekFrom::Start(start))
                    .map_err(|e| RegistryError::Storage(format!("{}: seek: {e}", path.display())))?;
                let mut out = vec![0u8; (end - start) as usize];
                f.read_exact(&mut out)
                    .map_err(|e| RegistryError::Storage(format!("{}: {e}", path.display())))?;
                comt_observe::global().count(FILE_BYTES_READ, out.len() as u64);
                Ok(Bytes::from(out))
            }
        }
    }
}

/// Chunked reader over a [`BlobHandle`] (see [`BlobHandle::reader`]).
#[derive(Debug)]
pub enum BlobReader {
    Resident { data: Bytes, pos: usize },
    File(std::fs::File),
}

impl Read for BlobReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            BlobReader::Resident { data, pos } => {
                let rest = &data[(*pos).min(data.len())..];
                let n = rest.len().min(buf.len());
                buf[..n].copy_from_slice(&rest[..n]);
                *pos += n;
                Ok(n)
            }
            BlobReader::File(f) => {
                let n = f.read(buf)?;
                comt_observe::global().count(FILE_BYTES_READ, n as u64);
                Ok(n)
            }
        }
    }
}

/// Storage behind the wire-protocol daemon: a blob store plus the
/// [`ImageIndex`] that holds its tags and chunkmap associations.
pub trait RegistryBackend: Send + 'static {
    /// The tag table. Wire keys resolve through
    /// [`ImageIndex::resolve_key`], chunkmaps through
    /// [`ImageIndex::chunkmap_for`].
    fn index(&self) -> &ImageIndex;

    /// Make `next` the tag table — the commit point of every publish
    /// (an atomic, durable replace for persistent backends).
    fn commit_index(&mut self, next: ImageIndex) -> Result<(), RegistryError>;

    /// Cheap handle to a committed blob, if present.
    fn blob_handle(&self, digest: &Digest) -> Option<BlobHandle>;

    /// Verify `data` against the claimed `digest` and commit it (durably,
    /// for persistent backends). Returns `true` if newly stored.
    fn put_blob(&mut self, digest: Digest, data: Bytes) -> Result<bool, RegistryError>;

    /// Whether a blob is already committed (HEAD dedupe probe).
    fn contains_blob(&self, digest: &Digest) -> bool {
        self.blob_handle(digest).is_some()
    }

    /// Staged manifest publish under a wire tag key: every closure blob
    /// must already be present and re-hash to its address (one streaming
    /// pass each) before the manifest blob is stored and the tag appears.
    /// A rejected publish stores nothing.
    fn put_manifest(&mut self, key: &str, manifest: Bytes) -> Result<Digest, RegistryError> {
        let digest = Digest::of(&manifest);
        for d in closure_of_manifest(&manifest, &digest)?.iter().skip(1) {
            self.blob_handle(d)
                .ok_or_else(|| RegistryError::MissingBlob(d.to_string()))?
                .stream_verified(d)?;
        }
        let size = manifest.len() as u64;
        self.put_blob(digest, manifest)?;
        let mut next = self.index().clone();
        next.set_ref(key, Descriptor::new(MediaType::ImageManifest, digest, size));
        self.commit_index(next)?;
        Ok(digest)
    }

    /// Record `map` as the chunkmap of `layer`, storing its bytes as a
    /// normal content-addressed blob. The layer must already be committed
    /// — a chunkmap for bytes the registry does not hold could never serve
    /// a chunk GET. The association lives as long as the layer does (gc
    /// ties their lifetimes together); a crash between the two steps
    /// leaves an unreferenced blob for gc, never a torn association.
    fn put_chunkmap(&mut self, layer: Digest, map: Bytes) -> Result<Digest, RegistryError> {
        if !self.contains_blob(&layer) {
            return Err(RegistryError::MissingBlob(layer.to_string()));
        }
        let digest = Digest::of(&map);
        let size = map.len() as u64;
        self.put_blob(digest, map)?;
        let mut next = self.index().clone();
        next.set_chunkmap(&layer, Descriptor::new(MediaType::Chunkmap, digest, size));
        self.commit_index(next)?;
        Ok(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskRegistry;
    use crate::layout::OciDir;
    use crate::store::{closure_digests, BlobStore};

    #[test]
    fn resident_handle_verifies() {
        let data = Bytes::from_static(b"payload");
        let d = Digest::of(&data);
        let h = BlobHandle::Resident(data);
        assert_eq!(h.len(), 7);
        assert_eq!(h.stream_verified(&d).unwrap(), 7);
        assert!(matches!(
            h.stream_verified(&Digest::of(b"other")),
            Err(RegistryError::DigestMismatch(_))
        ));
    }

    #[test]
    fn file_handle_streams_and_ranges() {
        let dir = std::env::temp_dir().join(format!("comt-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let payload: Vec<u8> = (0..BLOB_STREAM_CHUNK * 2 + 77).map(|i| (i % 241) as u8).collect();
        let d = Digest::of(&payload);
        let path = dir.join("blob");
        std::fs::write(&path, &payload).unwrap();
        let h = BlobHandle::File {
            path: path.clone(),
            len: payload.len() as u64,
        };

        // Streaming verify hashes every byte without materializing.
        assert_eq!(h.stream_verified(&d).unwrap(), payload.len() as u64);
        assert!(matches!(
            h.stream_verified(&Digest::of(b"other")),
            Err(RegistryError::DigestMismatch(_))
        ));

        // Ranged reads return exactly the window.
        let w = h.read_range(100, 612).unwrap();
        assert_eq!(&w[..], &payload[100..612]);
        assert!(h.read_range(10, 5).is_err());
        assert!(h.read_range(0, payload.len() as u64 + 1).is_err());

        // The chunked reader round-trips the full content.
        let mut via_reader = Vec::new();
        std::io::Read::read_to_end(&mut h.reader().unwrap(), &mut via_reader).unwrap();
        assert_eq!(via_reader, payload);

        // Resident handles slice zero-copy and stream-verify too.
        let r = BlobHandle::Resident(Bytes::from(payload.clone()));
        assert_eq!(r.stream_verified(&d).unwrap(), payload.len() as u64);
        assert_eq!(&r.read_range(7, 19).unwrap()[..], &payload[7..19]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_backend_put_blob_rejects_poison_in_release_too() {
        // Regression for the put_prehashed debug_assert hole: the backend
        // trust boundary must verify in every build profile. This test is
        // meaningful precisely when run with --release.
        let mut reg = OciDir::new();
        let claimed = Digest::of(b"what the client promised");
        let err = reg.put_blob(claimed, Bytes::from_static(b"poison")).unwrap_err();
        assert!(matches!(err, RegistryError::DigestMismatch(_)));
        assert!(!reg.blobs.contains(&claimed));

        // put_verified is the same boundary on the raw store.
        let mut store = BlobStore::new();
        assert!(store
            .put_verified(claimed, Bytes::from_static(b"poison"))
            .is_err());
        assert!(store.is_empty());
        let ok = Bytes::from_static(b"honest bytes");
        let d = Digest::of(&ok);
        assert_eq!(store.put_verified(d, ok.clone()).unwrap(), d);
        assert_eq!(store.get(&d).unwrap(), ok);
    }

    /// Rewrite a committed blob's bytes behind the backend's back, as bit
    /// rot or a torn write would.
    trait Overwrite: RegistryBackend {
        fn overwrite(&mut self, digest: &Digest, bytes: &[u8]);
    }

    impl Overwrite for OciDir {
        fn overwrite(&mut self, digest: &Digest, bytes: &[u8]) {
            self.blobs
                .insert_raw_for_tests(*digest, Bytes::copy_from_slice(bytes));
        }
    }

    impl Overwrite for DiskRegistry {
        fn overwrite(&mut self, digest: &Digest, bytes: &[u8]) {
            std::fs::write(self.store().blob_path(digest), bytes).unwrap();
        }
    }

    #[test]
    fn staged_publish_rejects_without_trace_on_every_backend() {
        let dir = std::env::temp_dir().join(format!("comt-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backends: Vec<(&str, Box<dyn Overwrite>)> = vec![
            ("memory", Box::new(OciDir::new())),
            ("disk", Box::new(DiskRegistry::open(&dir).unwrap())),
        ];
        let mut local = BlobStore::new();
        let md = crate::ImageBuilder::from_scratch("x86_64")
            .with_layer_tar(Bytes::from_static(b"layer tar bytes"), "layer")
            .commit(&mut local)
            .unwrap()
            .manifest_digest;
        let manifest = local.get(&md).unwrap();
        let closure = closure_digests(&local, &md).unwrap();
        let (config, layer) = (closure[1], closure[2]);
        let layer_bytes = local.get(&layer).unwrap();

        for (name, mut reg) in backends {
            let assert_rejected_without_trace = |reg: &dyn Overwrite| {
                assert_eq!(reg.index().resolve_key("app:1"), None, "{name}: tag visible");
                assert!(!reg.contains_blob(&md), "{name}: rejected manifest left behind");
            };

            // A closure blob was never uploaded.
            reg.put_blob(config, local.get(&config).unwrap()).unwrap();
            let err = reg.put_manifest("app:1", manifest.clone()).unwrap_err();
            assert_eq!(err, RegistryError::MissingBlob(layer.to_string()), "{name}");
            assert_rejected_without_trace(&*reg);

            // A pre-existing closure blob no longer hashes to its address:
            // deduplication must not mask it.
            reg.put_blob(layer, layer_bytes.clone()).unwrap();
            reg.overwrite(&layer, b"truncated");
            let err = reg.put_manifest("app:1", manifest.clone()).unwrap_err();
            assert_eq!(err, RegistryError::DigestMismatch(layer.to_string()), "{name}");
            assert_rejected_without_trace(&*reg);

            // Once the closure is whole and intact the same publish lands.
            reg.overwrite(&layer, &layer_bytes);
            assert_eq!(reg.put_manifest("app:1", manifest.clone()).unwrap(), md, "{name}");
            assert_eq!(reg.index().resolve_key("app:1"), Some(md), "{name}");
            assert!(reg.contains_blob(&md), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
