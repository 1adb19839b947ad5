//! The workloads and what the service-driven one needs.

pub mod bulk_codec;
pub mod dedup_edits;

use culzss::Culzss;
use culzss_server::{JobKind, JobOutcome, JobResult, ServerConfig, Service, ServiceStats};

use crate::cpuclock::process_cpu;
use crate::metrics::{Output, Report};
use crate::stats::{highest_supported, median, percentile, ratio};
use crate::trace::Tracer;

/// Arguments every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a Chrome trace.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Metric values.
    pub report: Report,
    /// Correctness verdict and operation counts.
    pub out: Output,
    /// Spans recorded (empty unless traced).
    pub tracer: Tracer,
}

impl RunResult {
    fn new(trace: bool) -> Self {
        RunResult {
            report: Report::default(),
            out: Output { correct: true, attempted: 0, failed: 0, problems: Vec::new() },
            tracer: Tracer::new(trace),
        }
    }

    /// Records a problem that makes the run incorrect.
    pub fn problem(&mut self, what: String) {
        self.out.problems.push(what);
    }
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One thread through `Culzss` compress and decompress.
    BulkCodec,
    /// Closed-loop snapshot generations against the cached service.
    DedupEdits,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` declares them.
    pub const ALL: [Workload; 2] = [Workload::BulkCodec, Workload::DedupEdits];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkCodec => "bulk-codec",
            Workload::DedupEdits => "dedup-edits",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload at its full size.
    pub fn run(self, ctx: Ctx) -> RunResult {
        match self {
            Workload::BulkCodec => bulk_codec::run(ctx, &bulk_codec::Config::default()),
            Workload::DedupEdits => dedup_edits::run(ctx, &dedup_edits::Config::default()),
        }
    }

    /// Runs the workload at a size small enough for a test.
    pub fn run_small(self, ctx: Ctx) -> RunResult {
        match self {
            Workload::BulkCodec => bulk_codec::run(ctx, &bulk_codec::Config::small()),
            Workload::DedupEdits => dedup_edits::run(ctx, &dedup_edits::Config::small()),
        }
    }
}

const MIB: f64 = 1024.0 * 1024.0;
const MB: f64 = 1e6;

/// Seconds of modelled GTX 480 time in one `Culzss` call: transfers,
/// kernel, and the serial host pass at the device clock. The measured
/// `cpu_seconds` is host time and stays out.
pub fn modelled_seconds(culzss: &Culzss, stats: &culzss::PipelineStats) -> f64 {
    stats.h2d_seconds
        + stats.kernel_seconds
        + stats.d2h_seconds
        + stats.host_cycles / culzss.device().clock_hz
}

/// One resolved service request, as the client saw it.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Compress or decompress.
    pub kind: JobKind,
    /// Plaintext bytes the request carried or restored.
    pub plain_bytes: usize,
    /// Compressed bytes (the output of a compress, the input of a
    /// decompress).
    pub packed_bytes: usize,
    /// From send to resolution, wall time.
    pub latency_ms: f64,
    /// From send to resolution, process CPU time: the client's and the
    /// service's threads together.
    pub cpu_ms: f64,
    /// Time inside `Service::submit`.
    pub submit_us: f64,
    /// `JobOutcome::queued_seconds`.
    pub queued_s: f64,
    /// `JobOutcome::service_seconds`.
    pub service_s: f64,
}

/// Checks a resolved job against the expected output bytes.
pub fn settle(result: JobResult, expected: &[u8]) -> Result<JobOutcome, String> {
    match result {
        Ok(outcome) if outcome.output == expected => Ok(outcome),
        Ok(outcome) => Err(format!(
            "job {:?} output mismatch ({} bytes, expected {})",
            outcome.id,
            outcome.output.len(),
            expected.len()
        )),
        Err(e) => Err(format!("job failed: {e}")),
    }
}

/// Starts a service and runs one warm-up compress through it; returns
/// the service and the process CPU seconds from `Service::start` until
/// it served that first request.
pub fn start_ready(config: &ServerConfig, warmup: &[u8]) -> Result<(Service, f64), String> {
    let started = process_cpu();
    let service = Service::start(config.clone());
    let ticket = service
        .submit(culzss_server::JobSpec::compress("warmup", warmup.to_vec()))
        .map_err(|e| format!("warm-up refused: {e}"))?;
    ticket.wait().map_err(|e| format!("warm-up failed: {e}"))?;
    Ok((service, (process_cpu() - started).as_secs_f64()))
}

/// Times one more start of a service like `config` (see
/// [`start_ready`]), then shuts it down off the timed span and checks its
/// invariants.
pub fn time_start(config: &ServerConfig, warmup: &[u8]) -> Result<f64, String> {
    let (service, seconds) = start_ready(config, warmup)?;
    check_final(&Service::shutdown(service))?;
    Ok(seconds)
}

/// Set-up timings spread over the measured phase, so that one burst of
/// host noise cannot set `setup_s`. The first timing is the set-up the
/// run itself used; the others fall evenly from `from` to `until`
/// seconds into the phase, between requests or passes and off their
/// clocks.
#[derive(Debug)]
pub struct SetupSchedule {
    reps: usize,
    from: f64,
    until: f64,
    times: Vec<f64>,
}

impl SetupSchedule {
    /// `reps` timings in all, of which `first` is already taken.
    pub fn new(first: f64, reps: usize, from: f64, until: f64) -> Self {
        SetupSchedule { reps: reps.max(1), from, until, times: vec![first] }
    }

    /// Takes, with `time`, every timing due `elapsed` seconds into the
    /// phase.
    pub fn take_due(
        &mut self,
        elapsed: f64,
        mut time: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        while self.times.len() < self.reps {
            let step = (self.until - self.from).max(0.0) / (self.reps - 1) as f64;
            if elapsed < self.from + step * (self.times.len() - 1) as f64 {
                break;
            }
            self.times.push(time()?);
        }
        Ok(())
    }

    /// Takes the timings still owed and reports their median.
    pub fn finish(
        mut self,
        report: &mut Report,
        time: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        self.take_due(f64::INFINITY, time)?;
        let note = format!("median of {} spread over the run", self.times.len());
        report.set_noted("setup_s", median(&self.times), note);
        Ok(())
    }
}

/// The shutdown invariants: every job and quota byte accounted for, and
/// the startup racecheck probe clean.
pub fn check_final(stats: &ServiceStats) -> Result<(), String> {
    if !stats.reconciles() {
        return Err(format!(
            "service counters do not reconcile: received {} accepted {} rejected {} completed {} failed {} quota {}/{} outstanding {}",
            stats.received,
            stats.accepted,
            stats.rejected(),
            stats.completed,
            stats.failed,
            stats.quota_admitted,
            stats.quota_released,
            stats.quota_outstanding
        ));
    }
    if !stats.race_free() {
        return Err(format!(
            "racecheck probe not clean: {} launches, {} conflicts, {} divergent blocks",
            stats.sancheck_launches, stats.sancheck_conflicts, stats.sancheck_divergent_blocks
        ));
    }
    Ok(())
}

/// Samples per window for a median or a rate.
pub const SHORT_WINDOW: usize = 100;
/// Samples per window for a p99: enough for ten beyond it.
pub const TAIL_WINDOW: usize = 1100;

/// Splits `samples` (in completion order) into at most `max` equal
/// windows of at least `min` samples each; one window when there are
/// fewer.
pub fn windows<T>(samples: &[T], min: usize, max: usize) -> Vec<&[T]> {
    let w = (samples.len() / min.max(1)).clamp(1, max.max(1));
    samples.chunks(samples.len().div_ceil(w).max(1)).collect()
}

/// Median over windows of `f(window)`.
pub fn median_over<T>(windows: &[&[T]], f: impl Fn(&[T]) -> f64) -> f64 {
    median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
}

/// Client-side end-to-end metrics of a service workload, on the process
/// CPU clock.
///
/// Latency percentiles and engine rates are taken per window of
/// requests and the median over windows is reported, so a burst of host
/// noise in one window does not set the run's figure: up to 10 windows
/// of at least [`SHORT_WINDOW`] for medians and rates, up to 5 of at
/// least [`TAIL_WINDOW`] for p99. A window's p99 is the highest
/// percentile up to p99 with ten samples beyond it.
pub fn service_end_to_end(result: &mut RunResult, samples: &[JobSample]) {
    let short = windows(samples, SHORT_WINDOW, 10);
    let tail = windows(samples, TAIL_WINDOW, 5);
    let per_window = |windows: &[&[JobSample]], q: f64, strict: bool| {
        let mut values = Vec::new();
        let mut used_q = q;
        for w in windows {
            let latencies: Vec<f64> = w.iter().map(|s| s.cpu_ms).collect();
            let p =
                if strict { percentile(&latencies, q)? } else { highest_supported(&latencies, q)? };
            used_q = used_q.min(p.q);
            values.push(p.value);
        }
        let note = format!(
            "p{:.2}, median of {} windows, n={}",
            used_q * 100.0,
            windows.len(),
            samples.len()
        );
        Ok::<_, String>((median(&values), note))
    };
    match per_window(&short, 0.5, true) {
        Ok((v, note)) => result.report.set_noted("latency_p50_ms", v, note),
        Err(e) => result.problem(format!("latency_p50_ms: {e}")),
    }
    match per_window(&tail, 0.99, false) {
        Ok((v, note)) => result.report.set_noted("latency_p99_ms", v, note),
        Err(e) => result.problem(format!("latency_p99_ms: {e}")),
    }
    let rate = |kind: JobKind| {
        median_over(&short, |w| {
            let of_kind = w.iter().filter(|s| s.kind == kind);
            let (bytes, secs) =
                of_kind.fold((0.0, 0.0), |a, s| (a.0 + s.plain_bytes as f64, a.1 + s.cpu_ms / 1e3));
            ratio(bytes / MB, secs)
        })
    };
    result.report.set("compress_mbps", rate(JobKind::Compress));
    result.report.set("decompress_mbps", rate(JobKind::Decompress));
    let compressed = samples.iter().filter(|s| s.kind == JobKind::Compress);
    let (plain, packed) = compressed
        .fold((0.0, 0.0), |a, s| (a.0 + s.plain_bytes as f64, a.1 + s.packed_bytes as f64));
    result.report.set("ratio", ratio(packed, plain));
}

/// Server per-layer metrics from the client's samples and the change in
/// `ServiceStats` over the measured phase, with the client's wall-clock
/// latencies beside them.
pub fn server_layer(
    report: &mut Report,
    samples: &[JobSample],
    before: &ServiceStats,
    after: &ServiceStats,
) {
    let pick = |f: fn(&JobSample) -> f64, scale: f64, q: f64| {
        let xs: Vec<f64> = samples.iter().map(|s| f(s) * scale).collect();
        highest_supported(&xs, q).map(|p| p.value).unwrap_or(0.0)
    };
    report.set("driver.wall_latency_p50_ms", pick(|s| s.latency_ms, 1.0, 0.5));
    report.set("driver.wall_latency_p99_ms", pick(|s| s.latency_ms, 1.0, 0.99));
    report.set("server.submit_us_p99", pick(|s| s.submit_us, 1.0, 0.99));
    report.set("server.queue_wait_ms_p50", pick(|s| s.queued_s, 1e3, 0.5));
    report.set("server.queue_wait_ms_p99", pick(|s| s.queued_s, 1e3, 0.99));
    report.set("server.service_ms_p50", pick(|s| s.service_s, 1e3, 0.5));
    report.set("server.service_ms_p99", pick(|s| s.service_s, 1e3, 0.99));
    report.set("server.verify_s", after.verify_seconds - before.verify_seconds);
    let jobs = (after.gpu_jobs + after.cpu_jobs - before.gpu_jobs - before.cpu_jobs) as f64;
    report.set("server.jobs_per_batch", ratio(jobs, (after.batches - before.batches) as f64));
    report.set("server.cpu_job_share", ratio((after.cpu_jobs - before.cpu_jobs) as f64, jobs));
    report.set("server.retried", (after.retried - before.retried) as f64);
    report.set("server.rejected", (after.rejected() - before.rejected()) as f64);
    report.set(
        "server.modelled_kernel_s",
        after.modeled_kernel_seconds - before.modeled_kernel_seconds,
    );
    report.set("server.modelled_h2d_s", after.modeled_h2d_seconds - before.modeled_h2d_seconds);
    report.set("server.modelled_d2h_s", after.modeled_d2h_seconds - before.modeled_d2h_seconds);
}

/// Peak live heap since the last `alloc::reset_peak`, in MiB.
pub fn peak_mib() -> f64 {
    crate::alloc::peak_bytes() as f64 / MIB
}
