//! `bulk-codec`: one thread compresses each paper corpus with V1, V2
//! and V3 through `Culzss::compress`, and decodes the V1 streams with
//! the serial and the warp-parallel engine through `Culzss::decompress`.
//!
//! The `culzss` kernels and the `gpusim` simulator do nearly all the
//! work here and the server none, and the modelled clock is exact.
//! Compression and decoding run side by side on the same layers, so a
//! gain for one that costs the other shows.

use std::time::Instant;

use culzss::{Culzss, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_lzss::container::Container;

use super::{modelled_seconds, peak_mib, Ctx, RunResult, SetupSchedule, MB};
use crate::alloc;
use crate::cpuclock::process_cpu;
use crate::stats::{highest_supported, median, percentile, ratio};
use crate::trace::SpanId;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bytes of each of the five paper corpora.
    pub corpus_bytes: usize,
    /// Set-ups timed for `setup_s`: the run's own, and the rest spread
    /// over the phase after the fixed passes.
    pub setup_reps: usize,
    /// The first this-many passes are a fixed amount of work, whatever
    /// the speed: `peak_heap_mib` is the peak over them. A run lasts at
    /// least this many passes.
    pub fixed_passes: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { corpus_bytes: 128 << 10, setup_reps: 21, fixed_passes: 2 }
    }
}

impl Config {
    /// A sub-second configuration for tests.
    pub fn small() -> Self {
        Config { corpus_bytes: 16 << 10, setup_reps: 3, fixed_passes: 1 }
    }
}

/// The five engines a pass runs, in pass order.
const ENGINES: [&str; 5] = ["v1", "v2", "v3", "serial", "warp"];

/// The instances under test: three compressors and two decoders.
struct Engines {
    all: Vec<Culzss>,
}

impl Engines {
    /// Builds the five instances and warms each with one `probe` chunk;
    /// returns them and the process CPU seconds that took.
    fn set_up(probe: &[u8]) -> Result<(Self, f64), String> {
        let started = process_cpu();
        // One host thread per simulated launch, so the figures depend
        // neither on the host's core count nor, through a straggling
        // worker, on contention for its cores.
        let engine = |v| Culzss::new(v).with_workers(1);
        let decoder = |e| engine(Version::V1).with_decode_engine(e);
        let all = vec![
            engine(Version::V1),
            engine(Version::V2),
            engine(Version::V3),
            decoder(DecodeEngine::Serial),
            decoder(DecodeEngine::WarpParallel),
        ];
        let warm = |e| format!("warm-up: {e}");
        let (stream, _) = all[0].compress(probe).map_err(warm)?;
        for c in &all[1..3] {
            c.compress(probe).map_err(warm)?;
        }
        for c in &all[3..] {
            c.decompress(&stream).map_err(warm)?;
        }
        Ok((Engines { all }, (process_cpu() - started).as_secs_f64()))
    }
}

/// Deterministic quantities of one call; two passes over the same seed
/// must reproduce them exactly.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    cycles: f64,
    transactions: f64,
    barriers: f64,
    occupancy: f64,
    host_cycles: f64,
    modelled_s: f64,
    out_bytes: usize,
}

/// Host-side measurements of one call.
struct Call {
    engine: usize,
    plain_bytes: usize,
    host_s: f64,
    /// Process CPU seconds.
    cpu_s: f64,
    sim_wall_s: f64,
    counters: Counters,
}

/// One timed call of engine `engine`; the output must equal `expected`
/// when given.
fn call(
    culzss: &Culzss,
    engine: usize,
    input: &[u8],
    expected: Option<&[u8]>,
) -> Result<(Call, Vec<u8>, Instant, Instant), String> {
    let cpu_start = process_cpu();
    let start = Instant::now();
    let result = if engine < 3 { culzss.compress(input) } else { culzss.decompress(input) };
    let end = Instant::now();
    let cpu_s = (process_cpu() - cpu_start).as_secs_f64();
    let (out, stats) = result.map_err(|e| format!("{}: {e}", ENGINES[engine]))?;
    if expected.is_some_and(|e| out != e) {
        return Err(format!("{}: output differs from the expected bytes", ENGINES[engine]));
    }
    let launch = stats.launch.as_ref().ok_or("call without a kernel launch")?;
    let counters = Counters {
        cycles: launch.cost.cycles,
        transactions: launch.metrics.global_transactions,
        barriers: launch.metrics.barriers as f64,
        occupancy: launch.cost.occupancy.fraction,
        host_cycles: stats.host_cycles,
        modelled_s: modelled_seconds(culzss, &stats),
        out_bytes: out.len(),
    };
    let plain_bytes = if engine < 3 { input.len() } else { out.len() };
    let c = Call {
        engine,
        plain_bytes,
        host_s: (end - start).as_secs_f64(),
        cpu_s,
        sim_wall_s: launch.wall_seconds,
        counters,
    };
    Ok((c, out, start, end))
}

/// Runs the workload.
pub fn run(ctx: Ctx, cfg: &Config) -> RunResult {
    let mut result = RunResult::new(ctx.trace);
    if let Err(e) = run_inner(ctx, cfg, &mut result) {
        result.problem(e);
    }
    result
}

/// The five paper corpora at `cfg.corpus_bytes` each, from `seed`.
pub fn inputs(seed: u64, cfg: &Config) -> Vec<Vec<u8>> {
    Dataset::ALL
        .iter()
        .enumerate()
        .map(|(i, d)| d.generate(cfg.corpus_bytes, seed ^ ((i as u64 + 1) * 0xb0c)))
        .collect()
}

fn run_inner(ctx: Ctx, cfg: &Config, result: &mut RunResult) -> Result<(), String> {
    let inputs = inputs(ctx.seed, cfg);
    let probe = Dataset::CFiles.generate(4096, ctx.seed);

    let (engines, first_setup) = Engines::set_up(&probe)?;
    let reps = if ctx.trace { 1 } else { cfg.setup_reps };
    let time_setup = || Engines::set_up(&probe).map(|(_, seconds)| seconds);

    // Reference streams, built before the clock; this pass also fixes
    // the counters every measured pass must reproduce.
    let mut reference: Vec<Vec<Counters>> = Vec::new();
    let mut v1_streams = Vec::new();
    let mut v2_streams = Vec::new();
    for input in &inputs {
        let (c1, s1, ..) = call(&engines.all[0], 0, input, None)?;
        let (c2, s2, ..) = call(&engines.all[1], 1, input, None)?;
        for stream in [&s1, &s2] {
            let plain = culzss::hetero::cpu_decompress(stream, 1)
                .map_err(|e| format!("reference stream does not decode: {e}"))?;
            if plain != *input {
                return Err("reference stream decodes to other bytes".into());
            }
        }
        // V3 emits V2's bytes: it only moves selection and compaction
        // on-device.
        let (c3, ..) = call(&engines.all[2], 2, input, Some(&s2))?;
        let (c4, ..) = call(&engines.all[3], 3, &s1, Some(input))?;
        let (c5, ..) = call(&engines.all[4], 4, &s1, Some(input))?;
        reference.push([c1, c2, c3, c4, c5].map(|c| c.counters).to_vec());
        v1_streams.push(s1);
        v2_streams.push(s2);
    }

    let tracer = &mut result.tracer;
    let trace = ctx.trace;
    alloc::reset_peak();
    let mut calls: Vec<Call> = Vec::new();
    let mut pass_cpu_s: Vec<(bool, f64)> = Vec::new();
    let (mut parse_s, mut crc_s) = (0.0, 0.0);
    let mut mismatches: Vec<String> = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    let mut fixed_peak = None;
    let mut setup = None;
    // Untraced passes fill the run; a traced run spends its second half
    // traced so the two halves give the tracing overhead.
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if pass == cfg.fixed_passes {
            fixed_peak = Some(peak_mib());
            setup = Some(SetupSchedule::new(first_setup, reps, elapsed, ctx.seconds));
        }
        if let Some(setup) = &mut setup {
            setup.take_due(elapsed, time_setup)?;
        }
        let traced = trace && elapsed >= ctx.seconds / 2.0;
        let done = elapsed >= ctx.seconds;
        let have_traced = pass_cpu_s.iter().any(|p| p.0);
        if pass >= cfg.fixed_passes.max(1) && done && (!trace || have_traced) {
            break;
        }
        tracer.set_enabled(traced);
        let pass_cpu_start = process_cpu();
        let pass_start = Instant::now();
        let span: SpanId = tracer.start("driver.pass", pass, None, pass_start);
        for (c, input) in inputs.iter().enumerate() {
            let jobs: [(&[u8], &[u8]); 5] = [
                (input, &v1_streams[c]),
                (input, &v2_streams[c]),
                (input, &v2_streams[c]),
                (&v1_streams[c], input),
                (&v1_streams[c], input),
            ];
            for (engine, (arg, expected)) in jobs.into_iter().enumerate() {
                let (done, _, start, end) =
                    call(&engines.all[engine], engine, arg, Some(expected))?;
                let name = if engine < 3 { "culzss.compress" } else { "culzss.decompress" };
                tracer.record(name, pass, span, start, end);
                if done.counters != reference[c][engine] {
                    mismatches.push(format!(
                        "{} on {}: counters differ between passes",
                        ENGINES[engine],
                        Dataset::ALL[c].slug()
                    ));
                }
                calls.push(done);
            }
        }
        let pass_end = Instant::now();
        tracer.finish(span, pass_end);
        pass_cpu_s.push((traced, (process_cpu() - pass_cpu_start).as_secs_f64()));
        if traced {
            // Off the pass clock: time the container layer on the same
            // streams.
            for (stream, input) in v1_streams.iter().zip(&inputs) {
                let t0 = Instant::now();
                let (container, offset) =
                    Container::parse(stream).map_err(|e| format!("parse: {e}"))?;
                let t1 = Instant::now();
                container.verify_chunk_crcs(&stream[offset..]).map_err(|e| format!("crc: {e}"))?;
                container.verify_stream_crc(input).map_err(|e| format!("crc: {e}"))?;
                let t2 = Instant::now();
                tracer.record("lzss.parse", pass, None, t0, t1);
                tracer.record("lzss.crc", pass, None, t1, t2);
                parse_s += (t1 - t0).as_secs_f64();
                crc_s += (t2 - t1).as_secs_f64();
            }
        }
        pass += 1;
    }
    let peak = fixed_peak.ok_or("run ended before its fixed passes")?;
    mismatches.dedup();
    for m in mismatches {
        result.problem(m);
    }

    let passes = pass_cpu_s.len() as f64;
    let traced_passes = pass_cpu_s.iter().filter(|p| p.0).count().max(1) as f64;
    let by = |engine: usize| calls.iter().filter(move |c| c.engine == engine);
    let sum = |engine: usize, f: fn(&Call) -> f64| by(engine).map(f).sum::<f64>();
    let compress = 0..3;
    let decode = 3..5;
    let total = |engines: std::ops::Range<usize>, f: fn(&Call) -> f64| {
        engines.map(|e| sum(e, f)).sum::<f64>()
    };

    let setup = setup.ok_or("run ended before its fixed passes")?;
    setup.finish(&mut result.report, time_setup)?;
    result.out.attempted = calls.len() as u64;
    let report = &mut result.report;
    let latencies: Vec<f64> = calls.iter().map(|c| c.cpu_s * 1e3).collect();
    let p50 = percentile(&latencies, 0.5).map_err(|e| format!("latency_p50_ms: {e}"))?;
    report.set_noted("latency_p50_ms", p50.value, format!("per call, n={}", p50.samples));
    let tail = highest_supported(&latencies, 0.99).map_err(|e| format!("latency_p99_ms: {e}"))?;
    report.set_noted(
        "latency_p99_ms",
        tail.value,
        format!("p{:.2} per call, n={} beyond={}", tail.q * 100.0, tail.samples, tail.beyond),
    );
    // CPU-clock rates are medians over passes, so a burst of host noise
    // in one pass does not set the run's figure.
    let per_call_pass = ENGINES.len() * inputs.len();
    let pass_rate = |engines: std::ops::Range<usize>| {
        let rates: Vec<f64> = calls
            .chunks(per_call_pass)
            .map(|pass| {
                let of = pass.iter().filter(|c| engines.contains(&c.engine));
                let (bytes, secs) =
                    of.fold((0.0, 0.0), |a, c| (a.0 + c.plain_bytes as f64, a.1 + c.cpu_s));
                ratio(bytes / MB, secs)
            })
            .collect();
        median(&rates)
    };
    let goodput: Vec<f64> = calls
        .chunks(per_call_pass)
        .zip(&pass_cpu_s)
        .map(|(pass, (_, secs))| {
            ratio(pass.iter().map(|c| c.plain_bytes as f64).sum::<f64>() / MB, *secs)
        })
        .collect();
    let goodput = median(&goodput);
    report.set_noted("goodput_mbps", goodput, format!("median of {passes} passes"));
    report.set_noted("slo_rate_mbps", goodput, "closed loop: goodput".into());
    report.set("compress_mbps", pass_rate(compress.clone()));
    report.set("decompress_mbps", pass_rate(decode.clone()));
    let c_plain = total(compress.clone(), |c| c.plain_bytes as f64);
    let d_plain = total(decode.clone(), |c| c.plain_bytes as f64);
    let modelled = |c: &Call| c.counters.modelled_s;
    report.set("modelled_compress_mbps", ratio(c_plain / MB, total(compress.clone(), modelled)));
    report.set("modelled_decompress_mbps", ratio(d_plain / MB, total(decode.clone(), modelled)));
    let packed = total(compress, |c| c.counters.out_bytes as f64);
    report.set("ratio", ratio(packed, c_plain));
    report.set("ok_frac", 1.0);
    report.set_noted("peak_heap_mib", peak, format!("first {} passes", cfg.fixed_passes));

    let per_pass = |engine: usize, f: fn(&Call) -> f64| sum(engine, f) / passes;
    let cycles = |c: &Call| c.counters.cycles;
    let pipeline = |c: &Call| c.counters.cycles + c.counters.host_cycles;
    for (engine, name) in ENGINES.iter().enumerate().take(3) {
        report.set(&format!("culzss.{name}.compress_s"), per_pass(engine, |c| c.host_s));
        report.set(&format!("culzss.{name}.pipeline_cycles"), per_pass(engine, pipeline));
    }
    report.set("culzss.v2.host_cycles", per_pass(1, |c| c.counters.host_cycles));
    report.set("culzss.decode_serial_s", per_pass(3, |c| c.host_s));
    report.set("culzss.decode_warp_s", per_pass(4, |c| c.host_s));
    report.set("culzss.decode_serial_cycles", per_pass(3, cycles));
    report.set("culzss.decode_warp_cycles", per_pass(4, cycles));
    let pools = engines.all.iter().map(|c| c.pool_stats());
    let (acquires, reuses) = pools.fold((0, 0), |a, p| (a.0 + p.acquires, a.1 + p.reuses));
    report.set("culzss.pool_reuse_frac", ratio(reuses as f64, acquires as f64));
    for (engine, name) in [(0, "v1"), (1, "v2"), (2, "v3"), (4, "warp")] {
        report.set(&format!("gpusim.{name}.cycles"), per_pass(engine, cycles));
        report.set(
            &format!("gpusim.{name}.global_transactions"),
            per_pass(engine, |c| c.counters.transactions),
        );
        report.set(&format!("gpusim.{name}.barriers"), per_pass(engine, |c| c.counters.barriers));
        let n = by(engine).count() as f64;
        report.set(
            &format!("gpusim.{name}.occupancy"),
            ratio(sum(engine, |c| c.counters.occupancy), n),
        );
        report.set(
            &format!("gpusim.{name}.host_ns_per_cycle"),
            ratio(sum(engine, |c| c.sim_wall_s) * 1e9, sum(engine, cycles)),
        );
    }
    report.set("lzss.container_parse_s", parse_s / traced_passes);
    report.set("lzss.crc_s", crc_s / traced_passes);
    let wall: Vec<f64> = calls.iter().map(|c| c.host_s * 1e3).collect();
    let wall_at = |q| highest_supported(&wall, q).map(|p| p.value).unwrap_or(0.0);
    report.set("driver.wall_latency_p50_ms", wall_at(0.5));
    report.set("driver.wall_latency_p99_ms", wall_at(0.99));
    report.set("driver.samples", calls.len() as f64);
    if trace {
        // Medians, so the first passes' warm-up does not count as
        // tracing's gain.
        let pass = |traced: bool| {
            let xs: Vec<f64> = pass_cpu_s.iter().filter(|p| p.0 == traced).map(|p| p.1).collect();
            median(&xs)
        };
        report.set("driver.trace_overhead_frac", ratio(pass(true), pass(false)) - 1.0);
    }
    Ok(())
}
