//! `dedup-edits`: one client in a closed loop sends successive
//! generations of several users' snapshots, round-robin, to the service
//! with its chunk cache on (verify on). Every Nth request restores an
//! earlier output through the service's decompress path.
//!
//! This is the only workload where chunking, SHA-256 and cache hits
//! decide the result: it runs the server's compress path with the cache
//! on.

use std::sync::Arc;
use std::time::Instant;

use culzss::Culzss;
use culzss_datasets::edits;
use culzss_dedup::{sha256, split_stream_bodies, ChunkCache, Chunker, DedupCompressor, Digest};
use culzss_gpusim::DeviceSpec;
use culzss_server::{EngineKind, JobKind, JobSpec, ServerConfig, Service, ServiceStats};

use super::{
    check_final, median_over, modelled_seconds, peak_mib, server_layer, service_end_to_end, settle,
    start_ready, time_start, windows, Ctx, JobSample, RunResult, SetupSchedule, MB, SHORT_WINDOW,
};
use crate::alloc;
use crate::cpuclock::process_cpu;
use crate::stats::{ratio, splitmix64};

/// Workload size.
#[derive(Debug, Clone)]
pub struct Config {
    /// Users, each with its own snapshot series.
    pub users: usize,
    /// Bytes per snapshot.
    pub snapshot_bytes: usize,
    /// Every this-many requests one is a restore.
    pub restore_every: usize,
    /// Chunk-cache budget: holds every user's latest generations, which
    /// is all a hit can come from.
    pub cache_bytes: usize,
    /// Service starts timed for `setup_s`: the run's own, and the rest
    /// spread over the phase after the fixed requests.
    pub setup_reps: usize,
    /// The first this-many requests are a fixed amount of work, whatever
    /// the speed: `peak_heap_mib` is the peak over them, and their
    /// compress requests are replayed for `modelled_compress_mbps`. A run
    /// lasts at least this many requests.
    pub fixed_requests: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            users: 32,
            snapshot_bytes: 128 << 10,
            restore_every: 5,
            cache_bytes: 32 << 20,
            setup_reps: 21,
            fixed_requests: 120,
        }
    }
}

impl Config {
    /// A sub-second configuration for tests.
    pub fn small() -> Self {
        Config {
            users: 2,
            snapshot_bytes: 16 << 10,
            setup_reps: 3,
            fixed_requests: 12,
            ..Config::default()
        }
    }
}

/// Runs the workload.
pub fn run(ctx: Ctx, cfg: &Config) -> RunResult {
    let mut result = RunResult::new(ctx.trace);
    if let Err(e) = run_inner(ctx, cfg, &mut result) {
        result.problem(e);
    }
    result
}

/// Generation `generation` of `user`'s snapshot series under `seed`.
pub fn snapshot(seed: u64, cfg: &Config, user: usize, generation: u32) -> Vec<u8> {
    let user_seed = splitmix64(seed ^ (user as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    edits::snapshot(cfg.snapshot_bytes, user_seed, generation)
}

/// Plaintext bytes and modelled GTX 480 seconds of the service's cached
/// compress path on `requests` (user, generation, digest of the
/// service's output), replayed in order through a `DedupCompressor` with
/// the service's cache budget, chunker and parameters, so only cache-miss
/// segments reach the kernel. Each replayed stream must hash to what the
/// service returned.
fn replay_modelled(
    config: &ServerConfig,
    cfg: &Config,
    seed: u64,
    requests: &[(usize, u32, Digest)],
) -> Result<(f64, f64), String> {
    let culzss = Culzss::with_device(DeviceSpec::gtx480(), config.params.clone());
    let cache = Arc::new(ChunkCache::new(cfg.cache_bytes));
    let front = DedupCompressor::new(cache, config.params.clone());
    let (mut bytes, mut modelled) = (0.0, 0.0);
    for &(user, generation, served) in requests {
        let plain = snapshot(seed, cfg, user, generation);
        bytes += plain.len() as f64;
        let (stream, _) = front
            .compress_with(&plain, |segment| {
                let (stream, stats) = culzss.compress(segment)?;
                modelled += modelled_seconds(&culzss, &stats);
                split_stream_bodies(&stream)
            })
            .map_err(|e| format!("replay: {e}"))?;
        if sha256(&stream) != served {
            return Err("replayed stream differs from the service's output".into());
        }
    }
    Ok((bytes, modelled))
}

fn run_inner(ctx: Ctx, cfg: &Config, result: &mut RunResult) -> Result<(), String> {
    // One host thread per simulated launch and per CPU-path job: with two,
    // every request waits for the slower of a pair, which turns any
    // contention for the host's cores into a several-fold larger delay.
    // No CPU worker: with one, a race decides whether the simulated GPU or
    // the several-fold faster CPU path serves a request, and the share
    // each wins (which sets the latency median) follows host load. Jobs
    // pinned to the CPU by a retry still run, on the GPU worker's thread.
    let config = ServerConfig {
        cache: Some(cfg.cache_bytes),
        gpu_sim_threads: 1,
        cpu_workers: 0,
        cpu_threads: 1,
        ..ServerConfig::default()
    };
    let chunker = Chunker::for_align(config.params.chunk_size);
    let snapshot = |user: usize, generation: u32| snapshot(ctx.seed, cfg, user, generation);

    let warmup = snapshot(cfg.users, 0);
    let warmup = &warmup[..4096.min(warmup.len())];
    let (service, first_setup) = start_ready(&config, warmup)?;
    let reps = if ctx.trace { 1 } else { cfg.setup_reps };
    let mut setup = None;
    let before = service.stats();

    let tracer = &mut result.tracer;
    let mut generation = vec![0u32; cfg.users];
    let mut last: Vec<Option<(Vec<u8>, Vec<u8>)>> = vec![None; cfg.users];
    let mut samples: Vec<(bool, JobSample)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let (mut chunk_s, mut sha_s, mut probed) = (0.0, 0.0, 0u32);
    let (mut turn, mut req) = (0usize, 0usize);
    // The fixed first requests: peak heap over them, and the compress
    // requests among them (user, generation, digest of the service's
    // output).
    let mut fixed_peak = None;
    let mut fixed_compress: Vec<(usize, u32, Digest)> = Vec::new();
    // Restored plaintext bytes that the simulated GPU decoded.
    let mut gpu_restored = 0usize;
    alloc::reset_peak();
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if req == cfg.fixed_requests {
            fixed_peak = Some(peak_mib());
            setup = Some(SetupSchedule::new(first_setup, reps, elapsed, ctx.seconds));
        }
        if let Some(setup) = &mut setup {
            setup.take_due(elapsed, || time_start(&config, warmup))?;
        }
        if elapsed >= ctx.seconds && req >= cfg.fixed_requests {
            break;
        }
        let traced = ctx.trace && elapsed >= ctx.seconds / 2.0;
        tracer.set_enabled(traced);
        // Build the request off the clock.
        let restore_user = (req / cfg.restore_every) % cfg.users;
        let is_restore =
            req % cfg.restore_every == cfg.restore_every - 1 && last[restore_user].is_some();
        let (user, spec, expected) = if is_restore {
            let (plain, stream) = last[restore_user].clone().expect("checked above");
            (restore_user, JobSpec::decompress(format!("user-{restore_user}"), stream), plain)
        } else {
            let user = turn % cfg.users;
            turn += 1;
            let plain = snapshot(user, generation[user]);
            (user, JobSpec::compress(format!("user-{user}"), plain.clone()), plain)
        };
        let kind = spec.kind;
        let span_id = req as u64;

        let cpu_sent = process_cpu();
        let sent = Instant::now();
        let submitted = service.submit(spec);
        let returned = Instant::now();
        let outcome = submitted.map_err(|e| format!("refused: {e}")).map(|t| t.wait());
        let done = Instant::now();
        let cpu_done = process_cpu();
        attempted += 1;
        let span = tracer.record("driver.request", span_id, None, sent, done);
        tracer.record("server.submit", span_id, span, sent, returned);
        tracer.record("server.pending", span_id, span, returned, done);

        // Verify off the clock: a compress output must decode (with the
        // CPU reference decoder) to the snapshot; a restore must return it.
        let checked = outcome.and_then(|r| match kind {
            JobKind::Compress => {
                let outcome = r.map_err(|e| format!("job failed: {e}"))?;
                let plain = culzss::hetero::cpu_decompress(&outcome.output, 1)
                    .map_err(|e| format!("output does not decode: {e}"))?;
                if plain != expected {
                    return Err("compress output decodes to other bytes".into());
                }
                Ok(outcome)
            }
            JobKind::Decompress => settle(r, &expected),
        });
        match checked {
            Ok(outcome) => {
                let packed = if kind == JobKind::Compress {
                    outcome.output.len()
                } else {
                    last[user].as_ref().map_or(0, |l| l.1.len())
                };
                samples.push((
                    traced,
                    JobSample {
                        kind,
                        plain_bytes: expected.len(),
                        packed_bytes: packed,
                        latency_ms: (done - sent).as_secs_f64() * 1e3,
                        cpu_ms: (cpu_done - cpu_sent).as_secs_f64() * 1e3,
                        submit_us: (returned - sent).as_secs_f64() * 1e6,
                        queued_s: outcome.queued_seconds,
                        service_s: outcome.service_seconds,
                    },
                ));
                if kind == JobKind::Decompress && matches!(outcome.engine, EngineKind::Gpu { .. }) {
                    gpu_restored += expected.len();
                }
                if kind == JobKind::Compress {
                    if req < cfg.fixed_requests {
                        fixed_compress.push((user, generation[user], sha256(&outcome.output)));
                    }
                    if traced {
                        let t0 = Instant::now();
                        let segments = chunker.segments(&expected);
                        let t1 = Instant::now();
                        for s in &segments {
                            std::hint::black_box(sha256(&expected[s.clone()]));
                        }
                        let t2 = Instant::now();
                        tracer.record("dedup.chunk", span_id, None, t0, t1);
                        tracer.record("dedup.sha256", span_id, None, t1, t2);
                        chunk_s += (t1 - t0).as_secs_f64();
                        sha_s += (t2 - t1).as_secs_f64();
                        probed += 1;
                    }
                    last[user] = Some((expected, outcome.output));
                }
            }
            Err(why) => failures.push(why),
        }
        if kind == JobKind::Compress {
            generation[user] += 1;
        }
        req += 1;
    }
    let after = Service::shutdown(service);
    if let Err(e) = check_final(&after) {
        result.problem(e);
    }
    result.out.attempted = attempted;
    result.out.failed = failures.len() as u64;
    for f in failures.iter().take(3) {
        result.problem(f.clone());
    }
    let (replayed, modelled_compress) = replay_modelled(&config, cfg, ctx.seed, &fixed_compress)?;
    // Only decompress jobs record modelled stages: the cached compress
    // path launches per miss segment and reports none.
    let device_s =
        |s: &ServiceStats| s.modeled_h2d_seconds + s.modeled_kernel_seconds + s.modeled_d2h_seconds;
    let modelled_decompress = device_s(&after) - device_s(&before);

    let setup = setup.ok_or("run ended before its fixed requests")?;
    setup.finish(&mut result.report, || time_start(&config, warmup))?;
    let all: Vec<JobSample> = samples.iter().map(|s| s.1.clone()).collect();
    service_end_to_end(result, &all);
    let report = &mut result.report;
    // Per window: verified bytes over the CPU time spent while a request
    // was outstanding.
    let goodput = median_over(&windows(&all, SHORT_WINDOW, 10), |w| {
        let bytes: f64 = w.iter().map(|s| s.plain_bytes as f64).sum();
        ratio(bytes / MB, w.iter().map(|s| s.cpu_ms / 1e3).sum())
    });
    report.set_noted("goodput_mbps", goodput, format!("{req} requests"));
    report.set_noted("slo_rate_mbps", goodput, "closed loop: goodput".into());
    report.set_noted(
        "modelled_compress_mbps",
        ratio(replayed / MB, modelled_compress),
        format!("first {} requests replayed", cfg.fixed_requests),
    );
    report.set_noted(
        "modelled_decompress_mbps",
        ratio(gpu_restored as f64 / MB, modelled_decompress),
        "restores on the simulated GPU".into(),
    );
    report.set("ok_frac", 1.0 - ratio(failures.len() as f64, attempted as f64));
    let peak = fixed_peak.ok_or("run ended before its fixed requests")?;
    report.set_noted("peak_heap_mib", peak, format!("first {} requests", cfg.fixed_requests));

    server_layer(report, &all, &before, &after);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    report.set("dedup.hit_rate", ratio(hits, hits + misses));
    report.set("dedup.bytes_saved", (after.cache_bytes_saved - before.cache_bytes_saved) as f64);
    report.set("dedup.evictions", (after.cache_evictions - before.cache_evictions) as f64);
    report.set("dedup.chunk_s", ratio(chunk_s, f64::from(probed)));
    report.set("dedup.sha256_s", ratio(sha_s, f64::from(probed)));
    report.set("driver.samples", all.len() as f64);
    if ctx.trace {
        let mean = |traced: bool| {
            let xs: Vec<f64> =
                samples.iter().filter(|s| s.0 == traced).map(|s| s.1.cpu_ms).collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        report.set("driver.trace_overhead_frac", ratio(mean(true), mean(false)) - 1.0);
    }
    Ok(())
}
