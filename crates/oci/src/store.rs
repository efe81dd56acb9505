//! Content-addressed blob storage and the manifest closure walk.

use bytes::Bytes;
use comt_digest::Digest;
use std::collections::BTreeMap;

/// Content-addressed blob store. Blobs are immutable; storing the same
/// content twice is a no-op (deduplication by digest).
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    blobs: BTreeMap<Digest, Bytes>,
}

impl BlobStore {
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// Store a blob, returning its digest.
    pub fn put(&mut self, data: impl Into<Bytes>) -> Digest {
        let data = data.into();
        let d = Digest::of(&data);
        self.blobs.entry(d).or_insert(data);
        d
    }

    /// Store a blob whose digest the caller already computed **in the same
    /// process from the same bytes** (the fused layer codec hashes while
    /// compressing), skipping the re-hash.
    ///
    /// This is a *trusted* fast path: the digest check is a `debug_assert`
    /// only, so a wrong digest poisons the store in release builds. Never
    /// call it with a digest that arrived from outside the process (wire
    /// uploads, files on disk) — that is what [`BlobStore::put_verified`]
    /// is for.
    pub fn put_prehashed(&mut self, digest: Digest, data: impl Into<Bytes>) -> Digest {
        let data = data.into();
        debug_assert_eq!(digest, Digest::of(&data), "put_prehashed digest mismatch");
        self.blobs.entry(digest).or_insert(data);
        digest
    }

    /// Store a blob under a caller-claimed digest, re-hashing the content
    /// first and rejecting a mismatch — in every build profile.
    ///
    /// This is the trust boundary for bytes whose address was claimed by
    /// someone else: registry pushes, wire uploads, files read back from
    /// disk. Unlike [`BlobStore::put_prehashed`] the verification here is
    /// real code, not a `debug_assert`, so a poisoned upload can never
    /// enter the store in a release build.
    pub fn put_verified(
        &mut self,
        digest: Digest,
        data: impl Into<Bytes>,
    ) -> Result<Digest, RegistryError> {
        let data = data.into();
        let actual = Digest::of(&data);
        if actual != digest {
            return Err(RegistryError::DigestMismatch(digest.to_string()));
        }
        self.blobs.entry(digest).or_insert(data);
        Ok(digest)
    }

    /// Fetch a blob by digest.
    pub fn get(&self, digest: &Digest) -> Option<Bytes> {
        self.blobs.get(digest).cloned()
    }

    pub fn contains(&self, digest: &Digest) -> bool {
        self.blobs.contains_key(digest)
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total stored bytes (deduplicated).
    pub fn total_size(&self) -> u64 {
        self.blobs.values().map(|b| b.len() as u64).sum()
    }

    /// Iterate all `(digest, blob)` pairs in digest order.
    pub fn iter(&self) -> impl Iterator<Item = (&Digest, &Bytes)> {
        self.blobs.iter()
    }

    /// Insert a blob under an arbitrary digest, bypassing hashing — only
    /// for corruption/fault-injection tests (hence the name and the
    /// `#[doc(hidden)]`; production paths go through [`BlobStore::put`] or
    /// [`BlobStore::put_prehashed`]).
    #[doc(hidden)]
    pub fn insert_raw_for_tests(&mut self, digest: Digest, data: Bytes) {
        self.blobs.insert(digest, data);
    }

    /// Copy a blob from another store if missing here.
    pub fn fetch_from(&mut self, other: &BlobStore, digest: &Digest) -> bool {
        if self.contains(digest) {
            return true;
        }
        match other.get(digest) {
            Some(b) => {
                self.blobs.insert(*digest, b);
                true
            }
            None => false,
        }
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A referenced blob is missing from the source store.
    MissingBlob(String),
    /// Manifest blob failed to parse.
    CorruptManifest(String),
    /// A blob's content does not hash to its digest.
    DigestMismatch(String),
    /// The backing storage failed (disk I/O, torn layout). Unlike the
    /// other variants this is the *store's* fault, not the caller's: the
    /// wire surface maps it to a 5xx, never a 4xx.
    Storage(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::MissingBlob(d) => write!(f, "missing blob: {d}"),
            RegistryError::CorruptManifest(e) => write!(f, "corrupt manifest: {e}"),
            RegistryError::DigestMismatch(d) => {
                write!(f, "blob content does not match digest {d}")
            }
            RegistryError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Recursively collect the digests reachable from a manifest in `src`: the
/// manifest itself first, then its config, then every layer in order. This
/// is the transfer unit of layout exports and of the wire protocol
/// (`comt-dist`): a push/pull moves exactly this closure.
pub fn closure_digests(
    src: &BlobStore,
    manifest_digest: &Digest,
) -> Result<Vec<Digest>, RegistryError> {
    let raw = src
        .get(manifest_digest)
        .ok_or_else(|| RegistryError::MissingBlob(manifest_digest.to_string()))?;
    closure_of_manifest(&raw, manifest_digest)
}

/// Collect the closure digests from already-fetched manifest bytes: the
/// manifest itself first, then its config, then every layer in order.
/// Store-agnostic so that lazy disk-backed stores can walk closures
/// without materializing anything else.
pub fn closure_of_manifest(
    raw: &[u8],
    manifest_digest: &Digest,
) -> Result<Vec<Digest>, RegistryError> {
    let manifest: crate::spec::ImageManifest = serde_json::from_slice(raw)
        .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?;
    let mut out = vec![*manifest_digest];
    let cfg = manifest
        .config
        .parsed_digest()
        .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?;
    out.push(cfg);
    for layer in &manifest.layers {
        out.push(
            layer
                .parsed_digest()
                .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use bytes::Bytes;
    use comt_vfs::Vfs;

    #[test]
    fn put_dedupes() {
        let mut s = BlobStore::new();
        let d1 = s.put(Bytes::from_static(b"same"));
        let d2 = s.put(Bytes::from_static(b"same"));
        assert_eq!(d1, d2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_size(), 4);
    }

    #[test]
    fn get_missing() {
        let s = BlobStore::new();
        assert!(s.get(&Digest::of(b"nope")).is_none());
    }

    #[test]
    fn fetch_from_copies_once() {
        let mut a = BlobStore::new();
        let d = a.put(Bytes::from_static(b"blob"));
        let mut b = BlobStore::new();
        assert!(b.fetch_from(&a, &d));
        assert!(b.fetch_from(&a, &d)); // idempotent
        assert!(!b.fetch_from(&a, &Digest::of(b"missing")));
    }

    fn tiny_image(store: &mut BlobStore) -> Digest {
        let mut fs = Vfs::new();
        fs.write_file_p("/bin/x", Bytes::from_static(b"X"), 0o755)
            .unwrap();
        let img = ImageBuilder::from_scratch("x86_64")
            .with_layer_from_fs(&Vfs::new(), &fs)
            .commit(store)
            .unwrap();
        img.manifest_digest
    }

    #[test]
    fn closure_digests_orders_manifest_config_layers() {
        let mut local = BlobStore::new();
        let md = tiny_image(&mut local);
        let closure = closure_digests(&local, &md).unwrap();
        assert_eq!(closure.len(), 3);
        assert_eq!(closure[0], md);
        let raw = local.get(&md).unwrap();
        let manifest: crate::spec::ImageManifest = serde_json::from_slice(&raw).unwrap();
        assert_eq!(closure[1], manifest.config.parsed_digest().unwrap());
        assert_eq!(closure[2], manifest.layers[0].parsed_digest().unwrap());
    }

    #[test]
    fn put_prehashed_skips_rehash_but_addresses_correctly() {
        let mut s = BlobStore::new();
        let data = Bytes::from_static(b"layer blob");
        let d = Digest::of(&data);
        assert_eq!(s.put_prehashed(d, data.clone()), d);
        assert_eq!(s.get(&d).unwrap(), data);
    }
}
