//! The pieces every workload shares: the x86-64 system side at
//! `MINI_SCALE`, the user-side recorded build, and the `comt` subcommands
//! as library calls, each bracketed by the on-disk `OciDir::load`/`save`
//! the CLI performs around it.

use crate::trace::Tracer;
use bytes::Bytes;
use comt_buildsys::{Builder, Executor};
use comt_chunk::{ChunkMap, ChunkParams};
use comt_digest::Digest;
use comt_dist::{split_ref, DistClient, PullOptions, TransferStats};
use comt_observe::Report;
use comt_oci::layout::OciDir;
use comt_oci::spec::{Descriptor, ImageManifest, MediaType};
use comt_oci::{closure_digests, BlobStore, Image};
use comt_perfsim::{execute_with_deck, lib_env_from_image, SystemConfig};
use comt_pkg::catalog;
use comt_toolchain::Toolchain;
use comt_vfs::Vfs;
use comtainer::{
    cache, comtainer_build, comtainer_redirect, ArtifactCache, RebuildOptions, RetargetOutcome,
    StockImages, SystemSide,
};
use std::path::Path;
use std::sync::Arc;

pub type Res<T> = Result<T, String>;

pub const ISA: &str = "x86_64";
const ARCH_TAG: &str = "x86-64";
/// Nodes of the simulated cluster for `adapted_speedup` (Figure 9's scale).
const NODES: u32 = 16;

pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Stock images, the flattened base rootfs and the native system side.
pub struct World {
    pub scale: f64,
    pub store: BlobStore,
    pub stock: StockImages,
    pub base_fs: Vfs,
    pub side: SystemSide,
    pub system: SystemConfig,
}

/// What the user side produced: its in-memory layout (also saved on disk)
/// and the refs in it.
pub struct Recorded {
    pub oci: OciDir,
    pub dist_ref: String,
    pub ext_ref: String,
}

/// What a push moved, and the closure the puller must reproduce.
pub struct Pushed {
    pub stats: TransferStats,
    /// Every blob of the pushed closure (manifest, config, layers).
    pub closure: Vec<(Digest, Bytes)>,
    /// Bytes of the image's layers (what the chunker reads).
    pub layer_bytes: u64,
}

impl World {
    pub fn new() -> Res<World> {
        let scale = catalog::MINI_SCALE;
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, ISA, scale).map_err(err("stock images"))?;
        let base_fs = comt_oci::flatten(&store, &stock.base).map_err(err("base rootfs"))?;
        let side = SystemSide::native(ISA, scale).map_err(err("system side"))?;
        Ok(World {
            scale,
            store,
            stock,
            base_fs,
            side,
            system: comt_perfsim::systems::system_for(ISA),
        })
    }

    /// User side: the recorded two-stage build of `app` from `context`,
    /// then `coMtainer-build`, and the resulting layout saved at `dir`.
    pub fn record(&self, app: &str, context: &Vfs, dir: &Path, tr: &mut Tracer) -> Res<Recorded> {
        let cf = comt_workloads::containerfile(app, ISA).map_err(err("containerfile"))?;
        let mut store = self.store.clone();
        let executor = Executor::new(ISA, vec![Toolchain::distro_gcc()])
            .with_repo(catalog::generic_repo_scaled(ISA, self.scale));
        let mut builder = Builder::new(&mut store, executor);
        builder.tag(&format!("comt:{ARCH_TAG}.env"), &self.stock.env);
        builder.tag(&format!("comt:{ARCH_TAG}.base"), &self.stock.base);
        let result = tr
            .layer("buildsys.build", || builder.build(app, &cf, context))
            .map_err(err("user-side build"))?;

        let dist_ref = format!("{app}.dist");
        let mut oci = OciDir::new();
        oci.export(&dist_ref, result.images["dist"].manifest_digest, &store)
            .map_err(err("export dist"))?;
        let ext_ref = tr
            .layer("frontend.build", || {
                comtainer_build(
                    &mut oci,
                    &dist_ref,
                    &result.containers["build"],
                    &result.traces["build"],
                    &self.base_fs,
                )
            })
            .map_err(err("coMtainer-build"))?;
        save(&oci, dir, tr)?;
        Ok(Recorded {
            oci,
            dist_ref,
            ext_ref,
        })
    }

    /// `comt rebuild <dir> <ext>` with an optional long-lived artifact
    /// cache (the one a system-side daemon holds).
    pub fn rebuild(
        &self,
        dir: &Path,
        ext_ref: &str,
        artifact_cache: Option<Arc<ArtifactCache>>,
        tr: &mut Tracer,
    ) -> Res<(String, Report)> {
        let mut oci = load(dir, tr)?;
        let opts = RebuildOptions {
            artifact_cache,
            ..RebuildOptions::default()
        };
        let out = if tr.on {
            // `comtainer_rebuild_with_report` is exactly these three calls;
            // made separately so the cache-layer decode shows on its own.
            let contents = tr
                .layer("cache.load", || cache::load_cache(&oci, ext_ref))
                .map_err(err("load cache"))?;
            let (artifacts, report) = tr
                .layer("engine.run", || {
                    comtainer::rebuild_artifacts_with_report(&contents, &self.side, &opts)
                })
                .map_err(err("rebuild"))?;
            let re = tr
                .layer("cache.write_rebuild", || {
                    cache::write_rebuild(&mut oci, ext_ref, &artifacts)
                })
                .map_err(err("write rebuild"))?;
            (re, report)
        } else {
            comtainer::comtainer_rebuild_with_report(&mut oci, ext_ref, &self.side, &opts)
                .map_err(err("rebuild"))?
        };
        save(&oci, dir, tr)?;
        Ok(out)
    }

    /// `comt redirect <dir> <coMre>`.
    pub fn redirect(&self, dir: &Path, re_ref: &str, tr: &mut Tracer) -> Res<String> {
        let mut oci = load(dir, tr)?;
        let opt = tr
            .layer("redirect", || {
                comtainer_redirect(&mut oci, re_ref, &self.side)
            })
            .map_err(err("redirect"))?;
        save(&oci, dir, tr)?;
        Ok(opt)
    }

    /// `comt retarget <dir> <ext> --target …`: audited fan-out over a
    /// fresh shared artifact cache, as the CLI runs it.
    pub fn retarget(
        &self,
        dir: &Path,
        ext_ref: &str,
        targets: &[String],
        tr: &mut Tracer,
    ) -> Res<RetargetOutcome> {
        let mut oci = load(dir, tr)?;
        let opts = RebuildOptions {
            artifact_cache: Some(ArtifactCache::new()),
            ..RebuildOptions::default()
        };
        let (outcome, _audit) = tr
            .layer("retarget.fanout", || {
                comt_analyze::retarget_audited(&mut oci, ext_ref, &self.side, targets, &opts)
            })
            .map_err(err("retarget"))?;
        save(&oci, dir, tr)?;
        Ok(outcome)
    }

    /// Figure 9's quantity for one app: the geometric mean over `inputs`
    /// of simulated original/adapted runtime at 16 nodes.
    pub fn speedup(
        &self,
        app: &str,
        inputs: &[&str],
        original: (&BlobStore, &Image),
        adapted: (&BlobStore, &Image),
    ) -> Res<Vec<f64>> {
        let load_bin = |(store, image): (&BlobStore, &Image)| -> Res<_> {
            let fs = comt_oci::flatten(store, image).map_err(err("flatten"))?;
            let raw = fs.read(&format!("/app/{app}")).map_err(err("app binary"))?;
            let bin = comt_toolchain::artifact::read_linked(&raw).map_err(err("read binary"))?;
            let env = lib_env_from_image(
                &fs,
                &[
                    &catalog::system_repo_scaled(ISA, self.scale),
                    &catalog::generic_repo_scaled(ISA, self.scale),
                ],
            );
            Ok((bin, env))
        };
        let (ob, oe) = load_bin(original)?;
        let (ab, ae) = load_bin(adapted)?;
        Ok(inputs
            .iter()
            .map(|input| {
                let d = comt_workloads::deck(app, input, ISA, NODES);
                let o = execute_with_deck(&ob, &d, &oe, &self.system, NODES).seconds;
                let a = execute_with_deck(&ab, &d, &ae, &self.system, NODES).seconds;
                o / a
            })
            .collect())
    }
}

pub fn load(dir: &Path, tr: &mut Tracer) -> Res<OciDir> {
    tr.layer("oci.load", || OciDir::load(dir))
        .map_err(|e| format!("load layout {}: {e}", dir.display()))
}

pub fn save(oci: &OciDir, dir: &Path, tr: &mut Tracer) -> Res<()> {
    tr.layer("oci.save", || oci.save(dir))
        .map_err(|e| format!("save layout {}: {e}", dir.display()))
}

fn manifest_of(blobs: &BlobStore, digest: &Digest) -> Res<ImageManifest> {
    let raw = blobs.get(digest).ok_or("manifest missing")?;
    serde_json::from_slice(&raw).map_err(err("parse manifest"))
}

/// Layer digests of an image manifest held in `blobs`.
pub fn layer_digests(blobs: &BlobStore, manifest: &Digest) -> Res<Vec<Digest>> {
    manifest_of(blobs, manifest)?
        .layers
        .iter()
        .map(|l| l.parsed_digest().map_err(err("layer digest")))
        .collect()
}

/// `comt push <dir> <ref> [--chunked]`. With tracing on, a chunked push is
/// made as the public calls it is composed of (`push_image`, then
/// `ChunkMap::build` and `put_chunkmap` per layer), and checked to leave
/// what the composite call leaves: every layer's chunkmap published.
pub fn push(
    client: &DistClient,
    dir: &Path,
    r: &str,
    chunked: bool,
    tr: &mut Tracer,
) -> Res<Pushed> {
    let oci = load(dir, tr)?;
    let digest = oci.resolve(r).map_err(err("resolve"))?;
    let (name, reference) = split_ref(r);
    let params = ChunkParams::default();
    let layers = layer_digests(&oci.blobs, &digest)?;
    let stats = if !chunked {
        tr.layer("dist.push", || {
            client.push_image(name, reference, digest, &oci.blobs)
        })
        .map_err(err("push"))?
    } else if tr.on {
        let stats = tr
            .layer("dist.push", || {
                client.push_image(name, reference, digest, &oci.blobs)
            })
            .map_err(err("push"))?;
        for d in &layers {
            let blob = oci.blobs.get(d).ok_or("layer missing")?;
            let map = tr
                .layer("chunk.build", || ChunkMap::build(&blob, params))
                .map_err(err("chunk layer"))?;
            let published = tr
                .layer("dist.put_chunkmap", || {
                    client.put_chunkmap(name, d, &map.to_json())
                })
                .map_err(err("put chunkmap"))?;
            if !published {
                return Err(format!("daemon refused the chunkmap of {d}"));
            }
        }
        stats
    } else {
        client
            .push_image_chunked(name, reference, digest, &oci.blobs, params)
            .map_err(err("push --chunked"))?
    };
    let closure = closure_digests(&oci.blobs, &digest)
        .map_err(err("closure"))?
        .into_iter()
        .map(|d| {
            oci.blobs
                .get(&d)
                .map(|b| (d, b))
                .ok_or("closure blob missing")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let layer_bytes = layers
        .iter()
        .filter_map(|d| oci.blobs.get(d))
        .map(|b| b.len() as u64)
        .sum();
    Ok(Pushed {
        stats,
        closure,
        layer_bytes,
    })
}

/// `comt pull <dir> <ref>` with default options (delta when the layout
/// already holds blobs). `span` names the layer the pull is attributed to.
pub fn pull(
    client: &DistClient,
    dir: &Path,
    r: &str,
    span: &str,
    tr: &mut Tracer,
) -> Res<(OciDir, TransferStats)> {
    let mut oci = if dir.exists() {
        load(dir, tr)?
    } else {
        OciDir::new()
    };
    let (name, reference) = split_ref(r);
    let (digest, stats) = tr
        .layer(span, || {
            client.pull_image_with(name, reference, &mut oci.blobs, &PullOptions::default())
        })
        .map_err(err("pull"))?;
    let size = oci.blobs.get(&digest).map(|b| b.len() as u64).unwrap_or(0);
    oci.index
        .set_ref(r, Descriptor::new(MediaType::ImageManifest, digest, size));
    save(&oci, dir, tr)?;
    Ok((oci, stats))
}

/// Check that `blobs` holds every pushed blob bit-identically.
pub fn same_closure(pushed: &Pushed, blobs: &BlobStore) -> bool {
    pushed
        .closure
        .iter()
        .all(|(d, b)| blobs.get(d).is_some_and(|got| got == *b))
}

/// Digest of the top layer of `r` (the `+coMre` rebuild layer).
pub fn top_layer(oci: &OciDir, r: &str) -> Res<Digest> {
    let m = oci.resolve(r).map_err(err("resolve"))?;
    layer_digests(&oci.blobs, &m)?
        .last()
        .copied()
        .ok_or_else(|| format!("{r} has no layers"))
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
