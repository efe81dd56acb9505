//! Failure injection: corrupted or tampered inputs must produce typed
//! errors, never panics or silently wrong images.

use bytes::Bytes;
use comt_bench::Lab;
use comtainer_suite::core::{comtainer_rebuild, load_cache, RebuildOptions};
use comtainer_suite::oci::layout::OciDir;
use comtainer_suite::oci::{RegistryBackend, RegistryError};
use comtainer_suite::pkg::catalog;

/// Prepare an extended hpccg image once for the tampering tests.
fn extended() -> (Lab, comt_bench::AppArtifacts) {
    let mut lab = Lab::new("x86_64", catalog::MINI_SCALE);
    let art = lab.prepare_app("hpccg");
    (lab, art)
}

/// Rewrite one file inside the cache layer of `<ref>+coM` and re-attach it.
fn tamper_cache_layer(
    oci: &OciDir,
    ext_ref: &str,
    edit: impl Fn(&mut Vec<comt_tar::Entry>),
) -> OciDir {
    let image = oci.load_image(ext_ref).unwrap();
    let last = image.manifest.layers.last().unwrap();
    let digest = last.parsed_digest().unwrap();
    let tar = oci.blobs.get(&digest).unwrap();
    let mut entries = comt_tar::read_archive(&tar).unwrap();
    edit(&mut entries);
    let new_tar = comt_tar::write_archive(&entries).unwrap();

    // Rebuild the manifest with the tampered layer.
    let mut out = oci.clone();
    let new_digest = out.blobs.put(Bytes::from(new_tar.clone()));
    let mut manifest = image.manifest.clone();
    let n = manifest.layers.len();
    manifest.layers[n - 1] = comtainer_suite::oci::spec::Descriptor::new(
        comtainer_suite::oci::spec::MediaType::LayerTar,
        new_digest,
        new_tar.len() as u64,
    );
    let man_json = serde_json_bytes(&manifest);
    let man_size = man_json.len() as u64;
    let man_digest = out.blobs.put(Bytes::from(man_json));
    out.index.set_ref(
        ext_ref,
        comtainer_suite::oci::spec::Descriptor::new(
            comtainer_suite::oci::spec::MediaType::ImageManifest,
            man_digest,
            man_size,
        ),
    );
    out
}

fn serde_json_bytes(m: &comtainer_suite::oci::ImageManifest) -> Vec<u8> {
    comtainer_suite::oci::manifest_to_json(m)
}

#[test]
fn corrupt_models_json_is_a_cache_error() {
    let (_lab, art) = extended();
    let tampered = tamper_cache_layer(&art.oci, "hpccg.dist+coM", |entries| {
        for e in entries.iter_mut() {
            if e.path.ends_with("models.json") {
                e.kind = comt_tar::EntryKind::File(b"{not json".to_vec().into());
            }
        }
    });
    let err = load_cache(&tampered, "hpccg.dist+coM").unwrap_err();
    assert!(matches!(err, comtainer_suite::core::ComtError::Cache(_)), "{err}");
}

#[test]
fn missing_trace_is_a_cache_error() {
    let (_lab, art) = extended();
    let tampered = tamper_cache_layer(&art.oci, "hpccg.dist+coM", |entries| {
        entries.retain(|e| !e.path.ends_with("/trace"));
    });
    let err = load_cache(&tampered, "hpccg.dist+coM").unwrap_err();
    assert!(err.to_string().contains("trace"), "{err}");
}

#[test]
fn tampered_source_breaks_rebuild_loudly() {
    // Replace a cached source with garbage that defines no symbols: the
    // rebuild's link step must fail with an unresolved-symbol error, not
    // produce a broken image.
    let (lab, art) = extended();
    let tampered = tamper_cache_layer(&art.oci, "hpccg.dist+coM", |entries| {
        for e in entries.iter_mut() {
            if e.path.contains("/src/") && e.path.ends_with("hpccg_unit_0.cc") {
                e.kind = comt_tar::EntryKind::File(b"int x;\n".to_vec().into());
            }
        }
    });
    let mut tampered = tampered;
    let side = lab.system_side();
    let err = comtainer_rebuild(
        &mut tampered,
        "hpccg.dist+coM",
        &side,
        &RebuildOptions::default(),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("undefined reference") || err.to_string().contains("main"),
        "{err}"
    );
}

#[test]
fn truncated_layer_blob_fails_flatten() {
    let (_lab, art) = extended();
    let image = art.oci.load_image("hpccg.dist+coM").unwrap();
    let last = image.manifest.layers.last().unwrap().parsed_digest().unwrap();
    let tar = art.oci.blobs.get(&last).unwrap();
    let mut oci = art.oci.clone();
    // Truncate the blob mid-record and swap it in under the same manifest
    // (the blob no longer matches its digest — like silent storage
    // corruption).
    let truncated = tar.slice(..tar.len() / 2 - 100);
    // Force-replace in a fresh store with the manifest's digest key: we
    // simulate corruption by writing a *new* layout with the truncated
    // bytes under a fresh image whose manifest references them.
    let bad_digest = oci.blobs.put(truncated);
    let mut manifest = image.manifest.clone();
    let n = manifest.layers.len();
    manifest.layers[n - 1] = comtainer_suite::oci::spec::Descriptor::new(
        comtainer_suite::oci::spec::MediaType::LayerTar,
        bad_digest,
        0,
    );
    let man_json = serde_json_bytes(&manifest);
    let size = man_json.len() as u64;
    let d = oci.blobs.put(Bytes::from(man_json));
    oci.index.set_ref(
        "bad",
        comtainer_suite::oci::spec::Descriptor::new(
            comtainer_suite::oci::spec::MediaType::ImageManifest,
            d,
            size,
        ),
    );
    let bad = oci.load_image("bad").unwrap();
    let err = comtainer_suite::oci::flatten(&oci.blobs, &bad).unwrap_err();
    assert!(err.to_string().contains("bad layer") || err.to_string().contains("archive"), "{err}");
}

#[test]
fn registry_pull_with_missing_blob_fails() {
    let (_lab, art) = extended();
    let ext = art.oci.load_image("hpccg.dist+coM").unwrap();
    // A registry holding the manifest blob but none of its config or
    // layer blobs: the staged publish must refuse the tag, so there is
    // nothing to pull.
    let mut reg = OciDir::new();
    let raw = art.oci.blobs.get(&ext.manifest_digest).unwrap();
    reg.put_blob(ext.manifest_digest, raw.clone()).unwrap();
    let err = reg.put_manifest("x:latest", raw);
    assert!(matches!(err, Err(RegistryError::MissingBlob(_))), "{err:?}");
    assert_eq!(reg.index.resolve_key("x:latest"), None);
}
