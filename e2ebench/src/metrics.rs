//! The metric registry and the report a run prints.
//!
//! Every name the benchmark can print is declared here once, with its
//! unit, clock and better direction; `BENCHMARK.json` lists the same
//! names (a self-test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real wall time on the machine running the benchmark.
    Host,
    /// CPU time of the benchmark process, summed over its threads
    /// ([`crate::cpuclock`]): host time without steal and without waits
    /// for a vCPU.
    Cpu,
    /// The deterministic GTX 480 cost model (`culzss_gpusim::cost`).
    Modelled,
    /// A count or a ratio of counts; no clock.
    Count,
}

impl Clock {
    /// Short label printed next to each value.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Cpu => "cpu",
            Clock::Modelled => "modelled",
            Clock::Count => "count",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
) -> MetricDef {
    MetricDef { name, unit, clock, better }
}

use Clock::{Count, Cpu, Host, Modelled};

/// Metrics a user of the system sees; printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Cpu, "lower"),
    m("latency_p50_ms", "ms", Cpu, "lower"),
    m("latency_p99_ms", "ms", Cpu, "lower"),
    m("slo_rate_mbps", "MB/s", Cpu, "higher"),
    m("goodput_mbps", "MB/s", Cpu, "higher"),
    m("compress_mbps", "MB/s", Cpu, "higher"),
    m("decompress_mbps", "MB/s", Cpu, "higher"),
    m("modelled_compress_mbps", "MB/s", Modelled, "higher"),
    m("modelled_decompress_mbps", "MB/s", Modelled, "higher"),
    m("ratio", "out/in", Count, "lower"),
    m("ok_frac", "share", Count, "higher"),
    m("peak_heap_mib", "MiB", Host, "lower"),
];

/// Metrics of single layers; printed by traced runs. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("server.submit_us_p99", "us", Host, "lower"),
    m("server.queue_wait_ms_p50", "ms", Host, "lower"),
    m("server.queue_wait_ms_p99", "ms", Host, "lower"),
    m("server.service_ms_p50", "ms", Host, "lower"),
    m("server.service_ms_p99", "ms", Host, "lower"),
    m("server.verify_s", "s", Host, "lower"),
    m("server.jobs_per_batch", "jobs", Count, "higher"),
    m("server.cpu_job_share", "share", Count, "lower"),
    m("server.retried", "count", Count, "lower"),
    m("server.rejected", "count", Count, "lower"),
    m("server.modelled_kernel_s", "s", Modelled, "lower"),
    m("server.modelled_h2d_s", "s", Modelled, "lower"),
    m("server.modelled_d2h_s", "s", Modelled, "lower"),
    m("server.self_s", "s", Host, "lower"),
    m("culzss.v1.compress_s", "s", Host, "lower"),
    m("culzss.v2.compress_s", "s", Host, "lower"),
    m("culzss.v3.compress_s", "s", Host, "lower"),
    m("culzss.decode_serial_s", "s", Host, "lower"),
    m("culzss.decode_warp_s", "s", Host, "lower"),
    m("culzss.v1.pipeline_cycles", "cycles", Modelled, "lower"),
    m("culzss.v2.pipeline_cycles", "cycles", Modelled, "lower"),
    m("culzss.v3.pipeline_cycles", "cycles", Modelled, "lower"),
    m("culzss.v2.host_cycles", "cycles", Modelled, "lower"),
    m("culzss.decode_serial_cycles", "cycles", Modelled, "lower"),
    m("culzss.decode_warp_cycles", "cycles", Modelled, "lower"),
    m("culzss.pool_reuse_frac", "share", Count, "higher"),
    m("culzss.self_s", "s", Host, "lower"),
    m("gpusim.v1.cycles", "cycles", Modelled, "lower"),
    m("gpusim.v1.global_transactions", "count", Modelled, "lower"),
    m("gpusim.v1.barriers", "count", Modelled, "lower"),
    m("gpusim.v1.occupancy", "share", Modelled, "higher"),
    m("gpusim.v1.host_ns_per_cycle", "ns", Host, "lower"),
    m("gpusim.v2.cycles", "cycles", Modelled, "lower"),
    m("gpusim.v2.global_transactions", "count", Modelled, "lower"),
    m("gpusim.v2.barriers", "count", Modelled, "lower"),
    m("gpusim.v2.occupancy", "share", Modelled, "higher"),
    m("gpusim.v2.host_ns_per_cycle", "ns", Host, "lower"),
    m("gpusim.v3.cycles", "cycles", Modelled, "lower"),
    m("gpusim.v3.global_transactions", "count", Modelled, "lower"),
    m("gpusim.v3.barriers", "count", Modelled, "lower"),
    m("gpusim.v3.occupancy", "share", Modelled, "higher"),
    m("gpusim.v3.host_ns_per_cycle", "ns", Host, "lower"),
    m("gpusim.warp.cycles", "cycles", Modelled, "lower"),
    m("gpusim.warp.global_transactions", "count", Modelled, "lower"),
    m("gpusim.warp.barriers", "count", Modelled, "lower"),
    m("gpusim.warp.occupancy", "share", Modelled, "higher"),
    m("gpusim.warp.host_ns_per_cycle", "ns", Host, "lower"),
    m("lzss.container_parse_s", "s", Host, "lower"),
    m("lzss.crc_s", "s", Host, "lower"),
    m("lzss.self_s", "s", Host, "lower"),
    m("dedup.hit_rate", "share", Count, "higher"),
    m("dedup.bytes_saved", "bytes", Count, "higher"),
    m("dedup.evictions", "count", Count, "lower"),
    m("dedup.chunk_s", "s", Host, "lower"),
    m("dedup.sha256_s", "s", Host, "lower"),
    m("dedup.self_s", "s", Host, "lower"),
    m("driver.wall_latency_p50_ms", "ms", Host, "lower"),
    m("driver.wall_latency_p99_ms", "ms", Host, "lower"),
    m("driver.samples", "count", Count, "higher"),
    m("driver.trace_overhead_frac", "share", Cpu, "lower"),
    m("driver.self_s", "s", Host, "lower"),
];

/// True when `name` is a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values collected by one run, each with an optional note
/// (sample count, percentile used) for the human-readable lines.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Sets a declared metric.
    ///
    /// # Panics
    /// On a name missing from the registry — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    /// Sets a declared metric with a note.
    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        let def = find(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(def.name, (value, note));
    }

    /// Names set so far.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.keys().copied().collect()
    }
}

/// What a run prints: the metric set it owes, checked and rendered.
#[derive(Debug)]
pub struct Output {
    /// Whether every output matched and every invariant held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused, failed, abandoned or mismatched.
    pub failed: u64,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

/// Renders one line per metric of `defs` and then the final JSON line.
/// Per-layer metrics left unset read 0 (layer not exercised); an unset
/// end-to-end metric or a non-finite value is a problem.
pub fn render(defs: &[MetricDef], report: &Report, out: &mut Output, end_to_end: bool) -> String {
    let mut text = String::new();
    let mut json = String::new();
    for def in defs {
        let (value, note) = match report.values.get(def.name) {
            Some((v, note)) if v.is_finite() => (*v, note.as_str()),
            Some((v, _)) => {
                out.problems.push(format!("{} is not finite ({v})", def.name));
                (0.0, "")
            }
            None if end_to_end => {
                out.problems.push(format!("{} was not measured", def.name));
                (0.0, "")
            }
            None => (0.0, "not exercised"),
        };
        let _ = writeln!(
            text,
            "{:<32} {:>16} {:<7} clock={:<8} better={:<6} {}",
            def.name,
            format!("{value:.6}"),
            def.unit,
            def.clock.name(),
            def.better,
            note
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ =
            write!(json, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", def.name, def.unit);
    }
    out.correct &= out.problems.is_empty();
    for problem in &out.problems {
        let _ = writeln!(text, "PROBLEM: {problem}");
    }
    let _ = writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
    text
}
