//! The `ship` and `update` workloads: openmx through the paper's workflow
//! (record → `coMtainer-build` → `push --chunked` → pull → rebuild →
//! redirect → retarget) against a loopback registry daemon over a
//! `DiskRegistry`, one closed-loop client.

use crate::outcome::Outcome;
use crate::trace::Tracer;
use crate::world::{self, err, Pushed, Recorded, Res, World, ISA};
use crate::Ctx;
use bytes::Bytes;
use comt_digest::Digest;
use comt_dist::{serve, DistClient, DistServer, PullOptions, ServerOptions, TransferStats};
use comt_observe::Report;
use comt_oci::layout::OciDir;
use comt_oci::{BlobStore, DiskRegistry};
use comt_vfs::Vfs;
use comtainer::ArtifactCache;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const APP: &str = "openmx";
/// openmx's four Table-2 inputs: `adapted_speedup` is their geometric mean.
const INPUTS: [&str; 4] = ["awf5e", "awf7e", "nitro", "pt13"];
const TARGETS: [&str; 2] = ["x86-64-v3", "icelake-server"];
/// Translation units openmx compiles (its Table-2 unit count).
const UNITS: u64 = 30;

/// `adapted_speedup` of openmx at this commit: the value every run must
/// reproduce exactly (see NOTES.md). A faster pipeline must still adapt.
pub const OPENMX_SPEEDUP: f64 = 1.8401967946248192;

const MIB: f64 = 1024.0 * 1024.0;

pub struct Ship {
    world: World,
    context: Vfs,
}

pub struct Update {
    world: World,
    context: Vfs,
    /// The compiled unit the user edits, chosen by the seed.
    unit: String,
    registry: Daemon,
    cache: Arc<ArtifactCache>,
    user_dir: PathBuf,
    sys_dir: PathBuf,
    /// Lines appended to `unit` so far (one per published version).
    version: usize,
}

/// A loopback registry daemon serving a `DiskRegistry` layout.
struct Daemon {
    server: DistServer<DiskRegistry>,
    client: DistClient,
}

impl Daemon {
    fn start(dir: &Path) -> Res<Daemon> {
        let reg = DiskRegistry::open(dir).map_err(err("open registry layout"))?;
        let server =
            serve(reg, "127.0.0.1:0", ServerOptions::default()).map_err(err("bind registry"))?;
        let client = DistClient::new(server.addr().to_string());
        Ok(Daemon { server, client })
    }

    fn stop(self) {
        drop(self.server.shutdown());
    }
}

/// The compiled translation units of an app's source tree, in a stable
/// order. Headers are excluded: editing one changes the compile count.
fn compiled_units(context: &Vfs, app: &str) -> Vec<String> {
    let mut units =
        context.find_files(|p| p.starts_with(&format!("/src/{app}_unit_")) && !p.ends_with(".h"));
    units.sort();
    units
}

/// `context` with `lines` extra statements appended to `unit`: the user's
/// edit for version `lines + 1`. A statement, not a comment, because the
/// cache-layer minifier strips comments and the edit must reach the
/// compiler.
fn edited(context: &Vfs, unit: &str, lines: usize) -> Res<Vfs> {
    let mut ctx = context.clone();
    let mut text = ctx.read_string(unit).map_err(err("read unit"))?;
    for v in 0..lines {
        text.push_str(&format!("v{}+=c{}*x{};\n", v % 89, v % 53, (v * 13) % 97));
    }
    ctx.write_file(unit, Bytes::from(text.into_bytes()), 0o644)
        .map_err(err("write unit"))?;
    Ok(ctx)
}

impl Ship {
    pub fn setup(_ctx: &Ctx) -> Res<Ship> {
        let world = World::new()?;
        let context =
            comt_workloads::source_tree(APP, ISA, world.scale).map_err(err("source tree"))?;
        Ok(Ship { world, context })
    }
}

impl Update {
    /// Deploy openmx v1 on the system: publish it, pull it into the system
    /// layout, rebuild on the long-lived artifact cache, redirect.
    pub fn setup(ctx: &Ctx) -> Res<Update> {
        let world = World::new()?;
        let context =
            comt_workloads::source_tree(APP, ISA, world.scale).map_err(err("source tree"))?;
        let units = compiled_units(&context, APP);
        if units.is_empty() {
            return Err("openmx has no compiled units".into());
        }
        let unit = units[(ctx.seed % units.len() as u64) as usize].clone();
        let dir = ctx.fresh_dir("update")?;
        let registry = Daemon::start(&dir.join("registry"))?;
        let mut up = Update {
            world,
            context,
            unit,
            registry,
            cache: ArtifactCache::new(),
            user_dir: dir.join("user"),
            sys_dir: dir.join("system"),
            version: 0,
        };
        let mut tr = Tracer::new(false, ctx.epoch, 0);
        let (rec, _) = publish(
            &up.world,
            &up.context,
            &up.registry.client,
            &up.user_dir,
            &mut tr,
        )?;
        adapt(
            &up.world,
            &up.registry.client,
            &up.sys_dir,
            &rec,
            "dist.pull",
            Some(Arc::clone(&up.cache)),
            &mut tr,
        )?;
        up.version = 1;
        Ok(up)
    }

    pub fn teardown(self) {
        self.registry.stop();
    }
}

/// The user side of one version: recorded build and `coMtainer-build`
/// into a fresh user layout, then `push --chunked` of the extended image
/// and a plain push of the dist image, which redirect needs by name (its
/// layers are already there, so only its manifest and config move).
fn publish(
    world: &World,
    context: &Vfs,
    client: &DistClient,
    user_dir: &Path,
    tr: &mut Tracer,
) -> Res<(Recorded, Pushed)> {
    let rec = world.record(APP, context, user_dir, tr)?;
    let mut pushed = world::push(client, user_dir, &rec.ext_ref, true, tr)?;
    let dist = world::push(client, user_dir, &rec.dist_ref, false, tr)?;
    pushed.stats.bytes_moved += dist.stats.bytes_moved;
    pushed.closure.extend(dist.closure);
    Ok((rec, pushed))
}

struct Adapted {
    pulled: OciDir,
    pull: TransferStats,
    re_ref: String,
    report: Report,
    opt_ref: String,
}

/// The system side of one version, `comt` commands over the system
/// layout: pull the extended and the dist image, rebuild, redirect.
fn adapt(
    world: &World,
    client: &DistClient,
    sys_dir: &Path,
    rec: &Recorded,
    pull_span: &str,
    cache: Option<Arc<ArtifactCache>>,
    tr: &mut Tracer,
) -> Res<Adapted> {
    let ext_ref = rec.ext_ref.as_str();
    let (_, mut pull) = world::pull(client, sys_dir, ext_ref, pull_span, tr)?;
    let (pulled, dist) = world::pull(client, sys_dir, &rec.dist_ref, pull_span, tr)?;
    pull.bytes_moved += dist.bytes_moved;
    let (re_ref, report) = world.rebuild(sys_dir, ext_ref, cache, tr)?;
    let opt_ref = world.redirect(sys_dir, &re_ref, tr)?;
    Ok(Adapted {
        pulled,
        pull,
        re_ref,
        report,
        opt_ref,
    })
}

/// One version through the publish and adapt stages.
struct Cycle {
    rec: Recorded,
    pushed: Pushed,
    adapted: Adapted,
    cache_layer: Bytes,
    publish_s: f64,
    adapt_s: f64,
}

/// Where one version goes: the user's layout, the registry, the system's
/// layout and artifact cache, and the layer a pull is attributed to.
struct Route<'a> {
    client: &'a DistClient,
    user_dir: &'a Path,
    sys_dir: &'a Path,
    cache: Option<Arc<ArtifactCache>>,
    pull_span: &'a str,
}

/// Publish `context` and adapt it on the system, counting both stages as
/// operations, checking the pulled closure, and sampling the traced
/// layers. `None` when a stage failed (already counted).
fn cycle(
    world: &World,
    context: &Vfs,
    route: Route,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Res<Option<Cycle>> {
    take_retries();
    let (published, publish_s) = tr.stage("publish", |tr| {
        publish(world, context, route.client, route.user_dir, tr)
    });
    let verify = comt_observe::global().report();
    out.transport_retries(take_retries());
    let Some((rec, pushed)) = out.op("record + push", published) else {
        return Ok(None);
    };
    let top = world::top_layer(&rec.oci, &rec.ext_ref)?;
    let cache_layer = rec.oci.blobs.get(&top).ok_or("cache layer missing")?;
    if tr.on {
        sample_publish(out, tr, &pushed, cache_layer.len() as u64, verify);
    }

    let (adapted, adapt_s) = tr.stage("adapt", |tr| {
        adapt(
            world,
            route.client,
            route.sys_dir,
            &rec,
            route.pull_span,
            route.cache,
            tr,
        )
    });
    out.transport_retries(take_retries());
    let Some(adapted) = out.op("pull + rebuild + redirect", adapted) else {
        return Ok(None);
    };
    out.check(
        "pulled closure is bit-identical",
        world::same_closure(&pushed, &adapted.pulled.blobs),
        || format!("{} differs from the pushed closure", rec.ext_ref),
    );
    if tr.on {
        sample_adapt(out, tr, &adapted, route.pull_span == "chunk.delta_pull");
    }
    Ok(Some(Cycle {
        rec,
        pushed,
        adapted,
        cache_layer,
        publish_s,
        adapt_s,
    }))
}

impl Cycle {
    /// The end-to-end samples of this version; `extra_s` is stage time
    /// after adapt (the retarget) that the job also waits for.
    fn record(&self, s: &mut Samples, extra_s: f64, traced: bool) {
        s.publish.push(self.publish_s);
        s.adapt.push(self.adapt_s);
        s.job(self.publish_s + self.adapt_s + extra_s, traced);
        let wire = self.pushed.stats.bytes_moved + self.adapted.pull.bytes_moved;
        s.wire_mib.push(wire as f64 / MIB);
    }

    /// Traced samples taken after the job's last stage: layout load/save
    /// over all its commands, then the single-layer replays.
    fn sample_after(&self, out: &mut Outcome, tr: &mut Tracer) {
        out.sample("oci.load_s", tr.per_iter_totals_at("oci.load", tr.iter));
        out.sample("oci.save_s", tr.per_iter_totals_at("oci.save", tr.iter));
        let blobs: Vec<Bytes> = self.pushed.closure.iter().map(|(_, b)| b.clone()).collect();
        sample_replays(out, tr, &blobs, &self.cache_layer);
    }
}

/// Retries and resumes the transport recorded since the last reset.
fn take_retries() -> u64 {
    let obs = comt_observe::global();
    let n = obs.counter("dist.client.retries") + obs.counter("dist.client.resumes");
    obs.reset();
    n
}

/// Per-layer samples of a traced publish stage.
fn sample_publish(
    out: &mut Outcome,
    tr: &Tracer,
    pushed: &Pushed,
    cache_layer: u64,
    verify: Report,
) {
    let last = |name: &str| tr.per_iter_totals_at(name, tr.iter);
    let push_s = last("dist.push");
    out.sample("buildsys.build_s", last("buildsys.build"));
    out.sample("frontend.build_s", last("frontend.build"));
    out.sample("cache.layer_bytes", cache_layer as f64);
    out.sample("dist.push_s", push_s);
    out.sample(
        "dist.push_mib_s",
        pushed.stats.bytes_moved as f64 / MIB / push_s,
    );
    out.sample(
        "dist.server.verify_ms",
        verify.span("dist.server.verify").total.as_secs_f64() * 1e3,
    );
    let chunk_s = last("chunk.build");
    out.sample("chunk.build_s", chunk_s);
    out.sample(
        "chunk.build_mib_s",
        pushed.layer_bytes as f64 / MIB / chunk_s,
    );
}

/// Per-layer samples of a traced adapt stage.
fn sample_adapt(out: &mut Outcome, tr: &Tracer, a: &Adapted, delta: bool) {
    let last = |name: &str| tr.per_iter_totals_at(name, tr.iter);
    if delta {
        out.sample("chunk.delta_pull_s", last("chunk.delta_pull"));
        let (hit, fetched) = (a.pull.chunks_hit as f64, a.pull.chunks_fetched as f64);
        out.sample("chunk.hit_ratio", hit / (hit + fetched).max(1.0));
        out.sample("chunk.bytes_saved", a.pull.delta_bytes_saved as f64);
    } else {
        let pull_s = last("dist.pull");
        out.sample("dist.pull_s", pull_s);
        out.sample("dist.pull_mib_s", a.pull.bytes_moved as f64 / MIB / pull_s);
    }
    out.sample("cache.load_s", last("cache.load"));
    out.sample("redirect.wall_s", last("redirect"));
    sample_engine(out, &a.report);
}

/// The engine's own stage spans and counters from a rebuild `Report`.
pub fn sample_engine(out: &mut Outcome, r: &Report) {
    for stage in ["materialize", "adapt", "replay", "collect"] {
        out.sample(
            &format!("engine.{stage}_s"),
            r.span(&format!("stage.{stage}")).total.as_secs_f64(),
        );
    }
    out.sample("engine.exec_compile", r.counter("exec.compile") as f64);
    let (hit, miss) = (
        r.counter("cache.hit") as f64,
        r.counter("cache.miss") as f64,
    );
    out.sample("engine.cache_hit_ratio", hit / (hit + miss).max(1.0));
    out.sample("sched.workers_max", r.counter("sched.workers.max") as f64);
    out.sample(
        "sched.critical_path",
        r.counter("sched.critical_path.max") as f64,
    );
}

/// Replays of single layers over this iteration's data, outside every
/// stage: `Digest::of` over the pushed blobs, and `read_archive` +
/// `apply_layer` over the cache layer.
pub fn sample_replays(out: &mut Outcome, tr: &mut Tracer, blobs: &[Bytes], cache_layer: &Bytes) {
    let bytes: usize = blobs.iter().map(Bytes::len).sum();
    if bytes > 0 {
        let t = Instant::now();
        for b in blobs {
            std::hint::black_box(Digest::of(b));
        }
        tr.add("digest.replay", t, Instant::now());
        out.sample(
            "digest.mib_s",
            bytes as f64 / MIB / t.elapsed().as_secs_f64(),
        );
    }

    let t = Instant::now();
    let entries = comt_tar::read_archive(cache_layer);
    let t_read = t.elapsed().as_secs_f64();
    tr.add("tar.replay", t, Instant::now());
    if let Ok(entries) = entries {
        let t = Instant::now();
        let mut fs = Vfs::new();
        let applied = comt_vfs::apply_layer(&mut fs, &entries);
        tr.add("vfs.replay", t, Instant::now());
        if applied.is_ok() {
            let mib = cache_layer.len() as f64 / MIB;
            out.sample("tar.read_mib_s", mib / t_read);
            out.sample("vfs.apply_mib_s", mib / t.elapsed().as_secs_f64());
        }
    }
}

/// `adapted_speedup` of the adapted image `opt_ref` in `sys` against the
/// user's original dist image.
fn speedup(world: &World, rec: &Recorded, sys: &OciDir, opt_ref: &str) -> Res<f64> {
    let original = rec
        .oci
        .load_image(&rec.dist_ref)
        .map_err(err("original image"))?;
    let adapted = sys.load_image(opt_ref).map_err(err("adapted image"))?;
    let ratios = world.speedup(
        APP,
        &INPUTS,
        (&rec.oci.blobs, &original),
        (&sys.blobs, &adapted),
    )?;
    crate::stats::geomean(&ratios).ok_or_else(|| "non-positive runtime ratio".into())
}

/// Samples every workload reports the same way.
#[derive(Default)]
pub struct Samples {
    pub publish: Vec<f64>,
    pub adapt: Vec<f64>,
    pub job: Vec<f64>,
    pub wire_mib: Vec<f64>,
    /// Job seconds of traced and untraced iterations, for the overhead.
    pub traced_job: Vec<f64>,
    pub untraced_job: Vec<f64>,
}

impl Samples {
    pub fn job(&mut self, secs: f64, traced: bool) {
        self.job.push(secs);
        if traced {
            self.traced_job.push(secs);
        } else {
            self.untraced_job.push(secs);
        }
    }

    /// The end-to-end metrics common to every workload. `wall` is the time
    /// the jobs were completed in: the window for concurrent clients, the
    /// summed job time for one closed-loop client (its checks between jobs
    /// are the benchmark's, not the user's).
    pub fn report(&self, out: &mut Outcome, wall: f64) {
        out.median_or_idle("publish_s", &self.publish, "s");
        out.median_or_idle("adapt_s", &self.adapt, "s");
        let ms: Vec<f64> = self.job.iter().map(|s| s * 1e3).collect();
        out.latency("job", "ms", &ms);
        out.set(
            "jobs_per_s",
            self.job.len() as f64 / wall,
            "1/s",
            format!("{} jobs in {wall:.2} s", self.job.len()),
        );
        out.median_or_idle("wire_mib", &self.wire_mib, "MiB");
        if let (Some(t), Some(u)) = (
            crate::stats::median(&self.traced_job),
            crate::stats::median(&self.untraced_job),
        ) {
            out.sample("trace.overhead_share", t / u - 1.0);
        }
    }
}

impl Ship {
    /// Fresh user layout, registry and system layout each iteration: the
    /// app goes from nothing to adapted and retargeted.
    pub fn measure(&self, ctx: &Ctx, out: &mut Outcome) -> Res<()> {
        let mut tr = Tracer::new(false, ctx.epoch, 0);
        let mut s = Samples::default();
        let mut rebuilt_layer: Option<Digest> = None;
        let targets: Vec<String> = TARGETS.iter().map(|t| t.to_string()).collect();
        let start = Instant::now();
        for i in 0.. {
            if !ctx.more(start, i) {
                break;
            }
            let dir = ctx.fresh_dir(&format!("ship-{i}"))?;
            let sys_dir = dir.join("system");
            let daemon = Daemon::start(&dir.join("registry"))?;
            tr.iter = i;
            tr.on = ctx.traced(i);
            let route = Route {
                client: &daemon.client,
                user_dir: &dir.join("user"),
                sys_dir: &sys_dir,
                cache: None,
                pull_span: "dist.pull",
            };
            let cycle = cycle(&self.world, &self.context, route, &mut tr, out);
            let retargeted = match &cycle {
                Ok(Some(c)) => Some(tr.stage("retarget", |tr| {
                    self.world.retarget(&sys_dir, &c.rec.ext_ref, &targets, tr)
                })),
                _ => None,
            };
            daemon.stop();
            let (Some(c), Some((retargeted, retarget_s))) = (cycle?, retargeted) else {
                continue;
            };
            let Some(rt) = out.op("retarget", retargeted) else {
                continue;
            };

            let compiles = c.adapted.report.counter("exec.compile");
            out.check(
                "cold rebuild compiles every unit",
                compiles == UNITS,
                || format!("{compiles} compiles, expected {UNITS}"),
            );
            let sys = OciDir::load(&sys_dir).map_err(err("load system layout"))?;
            let layer = world::top_layer(&sys, &c.adapted.re_ref)?;
            let first = *rebuilt_layer.get_or_insert(layer);
            out.check("+coMre layer digest is stable", layer == first, || {
                format!("{layer} in iteration {i}, {first} in the first")
            });
            out.check(
                "retarget registered every target",
                rt.images.len() == TARGETS.len(),
                || format!("{:?}", rt.images),
            );
            if i == 0 {
                let got = speedup(&self.world, &c.rec, &sys, &c.adapted.opt_ref);
                if let Some(v) = out.op("adapted speedup", got) {
                    check_speedup(out, v, OPENMX_SPEEDUP);
                }
            }
            c.record(&mut s, retarget_s, tr.on);
            if tr.on {
                out.sample(
                    "retarget.wall_s",
                    tr.per_iter_totals_at("retarget.fanout", i),
                );
                out.sample(
                    "retarget.exec_compile",
                    TARGETS
                        .iter()
                        .map(|t| rt.report.counter(&format!("retarget.exec.compile.{t}")))
                        .sum::<u64>() as f64,
                );
                out.sample(
                    "retarget.workers_max",
                    rt.report.counter("retarget.workers.max") as f64,
                );
                c.sample_after(out, &mut tr);
            }
            std::fs::remove_dir_all(&dir).map_err(err("remove iteration dir"))?;
        }
        s.report(out, s.job.iter().sum());
        if ctx.trace {
            stage_shares(out, &tr, &["publish", "adapt", "retarget"]);
            out.trace_json = Some(tr.to_json("ship"));
        }
        Ok(())
    }
}

impl Update {
    /// One version per iteration: the user edits the seed's unit and
    /// republishes; the system delta-pulls, rebuilds warm and redirects.
    pub fn measure(&mut self, ctx: &Ctx, out: &mut Outcome) -> Res<()> {
        let mut tr = Tracer::new(false, ctx.epoch, 0);
        let mut s = Samples::default();
        let start = Instant::now();
        let mut last: Option<Cycle> = None;
        for i in 0.. {
            if !ctx.more(start, i) {
                break;
            }
            let context = edited(&self.context, &self.unit, self.version)?;
            if self.user_dir.exists() {
                std::fs::remove_dir_all(&self.user_dir).map_err(err("clear user layout"))?;
            }
            tr.iter = i;
            tr.on = ctx.traced(i);
            let client = self.registry.client.clone();
            let route = Route {
                client: &client,
                user_dir: &self.user_dir,
                sys_dir: &self.sys_dir,
                cache: Some(Arc::clone(&self.cache)),
                pull_span: "chunk.delta_pull",
            };
            let Some(c) = cycle(&self.world, &context, route, &mut tr, out)? else {
                continue;
            };
            self.version += 1;

            // The delta-pulled version must equal a full pull of it (made
            // untimed), and a one-unit edit compiles exactly once.
            let t = Instant::now();
            let full = full_pull(&client, &[&c.rec.ext_ref, &c.rec.dist_ref]);
            if tr.on {
                out.sample("dist.full_pull_ref_s", t.elapsed().as_secs_f64());
            }
            out.transport_retries(take_retries());
            if let Some(full) = out.op("full pull for comparison", full) {
                out.check(
                    "delta pull equals a full pull",
                    world::same_closure(&c.pushed, &full),
                    || "full and delta pulls of the same version differ".into(),
                );
            }
            let compiles = c.adapted.report.counter("exec.compile");
            out.check("update executes exactly one compile", compiles == 1, || {
                format!("{compiles} compiles for a one-unit edit")
            });
            c.record(&mut s, 0.0, tr.on);
            if tr.on {
                c.sample_after(out, &mut tr);
            }
            // The operator's `comt gc --apply` between versions: drop the
            // previous version's blobs so the layout does not grow.
            let mut reg = DiskRegistry::open(&self.sys_dir).map_err(err("open system layout"))?;
            reg.gc_apply().map_err(err("gc system layout"))?;
            drop(reg);
            last = Some(c);
        }
        s.report(out, s.job.iter().sum());
        if ctx.trace {
            stage_shares(out, &tr, &["publish", "adapt"]);
            out.trace_json = Some(tr.to_json("update"));
        }
        if let Some(c) = last {
            let sys = OciDir::load(&self.sys_dir).map_err(err("load system layout"))?;
            let got = speedup(&self.world, &c.rec, &sys, &c.adapted.opt_ref);
            if let Some(v) = out.op("adapted speedup", got) {
                check_speedup(out, v, OPENMX_SPEEDUP);
            }
        }
        Ok(())
    }
}

/// A full pull of `refs` into an empty store: the reference the delta pull
/// is checked against.
fn full_pull(client: &DistClient, refs: &[&str]) -> Res<BlobStore> {
    let mut store = BlobStore::new();
    let full = PullOptions {
        delta: false,
        ..PullOptions::default()
    };
    for r in refs {
        let (name, reference) = comt_dist::split_ref(r);
        client
            .pull_image_with(name, reference, &mut store, &full)
            .map_err(err("full pull"))?;
    }
    Ok(store)
}

/// `<stage>.untraced_share` for each stage, and for the whole job.
pub fn stage_shares(out: &mut Outcome, tr: &Tracer, stages: &[&str]) {
    let (mut self_s, mut total_s) = (0.0, 0.0);
    for stage in stages {
        for (share, dur) in tr.untraced_shares(stage) {
            out.sample(&format!("{stage}.untraced_share"), share);
            self_s += share * dur;
            total_s += dur;
        }
    }
    if total_s > 0.0 {
        out.sample("job.untraced_share", self_s / total_s);
    }
}

/// `adapted_speedup` is exact: it must equal the value recorded for this
/// commit.
pub fn check_speedup(out: &mut Outcome, got: f64, want: f64) {
    out.set(
        "adapted_speedup",
        got,
        "ratio",
        "geomean over inputs, 16 nodes",
    );
    out.check(
        "adapted_speedup matches the recorded value",
        (got - want).abs() <= 1e-9 * want.abs(),
        || format!("{got} against the recorded {want}"),
    );
}
