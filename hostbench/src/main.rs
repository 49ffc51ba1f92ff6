//! Same-host benchmark of the Parendi engine, driven from outside
//! through public calls only.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <rocket-sync|mesh-compute|serve-gang> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every
//! span off; with `--trace 1` a separate run records a span around
//! each public call into a layer, writes the spans (and the engine's
//! own telemetry trace) under `.hostbench/`, and reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Workloads, metrics and bounds are listed in
//! `BENCHMARK.json`; `hostbench/README.md` explains each choice.

mod engine;
mod serve;
mod spans;
mod stats;

use parendi_sim::TrackSummary;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Engine worker threads in every workload: the host this benchmark
/// was sized on has two cores, and no workload may run more engine
/// threads than that.
pub const THREADS: usize = 2;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("cycles_per_s", "1/s"),
    ("lane_cycles_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that never enters
/// a layer reports that layer's metrics as 0 and names them in a
/// `not exercised` line.
const PER_LAYER: [(&str, &str); 33] = [
    ("rtl.build_s", "s"),
    ("rtl.nodes", "count"),
    ("graph.cost_model_s", "s"),
    ("graph.fibers_s", "s"),
    ("graph.fibers", "count"),
    ("core.compile_s", "s"),
    ("core.tiles_used", "count"),
    ("core.straggler_ratio", "ratio"),
    ("core.onchip_cut_bytes", "bytes"),
    ("core.offchip_cut_bytes", "bytes"),
    ("sim.lower_s", "s"),
    ("sim.engine_new_s", "s"),
    ("sim.static_ops", "count"),
    ("sim.compute_us_per_cycle", "us"),
    ("sim.offchip_us_per_cycle", "us"),
    ("sim.exchange_us_per_cycle", "us"),
    ("sim.tile_compute_max_over_p50", "ratio"),
    ("sim.barrier_spin_waits_per_cycle", "count"),
    ("sim.barrier_park_waits_per_cycle", "count"),
    ("sim.gang_run_s", "s"),
    ("sim.ops_packed_per_lane_cycle", "count"),
    ("sim.ops_strided_per_lane_cycle", "count"),
    ("sim.simd_dispatches_per_lane_cycle", "count"),
    ("sim.phase_sum_over_wall", "ratio"),
    ("sim.timed_over_untimed", "ratio"),
    ("serve.run_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_lookups", "count"),
    ("serve.cold_compile_s", "s"),
    ("telemetry.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

/// `PARENDI_*` variables that change the program under test. The
/// benchmark refuses to run while any is set, so every run measures
/// the defaults.
const FORBIDDEN_ENV: [&str; 11] = [
    "PARENDI_TRANSPORT",
    "PARENDI_TRACE",
    "PARENDI_TRACE_LEVEL",
    "PARENDI_LANE_LAYOUT",
    "PARENDI_LAYOUT_CROSSOVER",
    "PARENDI_SIMD",
    "PARENDI_SPIN_LIMIT",
    "PARENDI_PIN",
    "PARENDI_CHECKPOINT",
    "PARENDI_CODE_STATS",
    "PARENDI_TRANSPORT_TIMEOUT_MS",
];

/// One workload run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Flip one expected value in every oracle comparison: the
    /// self-test that proves the checks can fail.
    pub corrupt: bool,
    /// Where traces and the serve socket go (relative, so the socket
    /// path stays short).
    pub out_dir: PathBuf,
}

/// What a workload hands back: checked operations, metrics by name,
/// and free-form lines for the human-readable part of the output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// SplitMix64: every generated input derives from the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_B0A7_D15C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// Cycles of the probe run that sizes the engine's trace buffers.
pub const TRACE_PROBE_CYCLES: u64 = 16;
/// Events each engine trace track may hold: bounds the written trace to
/// a few tens of MB.
const TRACE_EVENTS: usize = 100_000;

/// Cycles per rep and per-track buffer capacity for `reps` traced runs:
/// the busiest probe track's events per cycle (plus a quarter) decide
/// how many cycles fit [`TRACE_EVENTS`], so no event is dropped.
pub fn trace_budget(probe: &[TrackSummary], reps: usize, max_cycles: u64) -> (u64, usize) {
    let events = probe
        .iter()
        .map(|t| t.events + t.dropped as usize)
        .max()
        .unwrap_or(0);
    let per_cycle = (events.div_ceil(TRACE_PROBE_CYCLES as usize) + 1) * 5 / 4 + 1;
    let cycles = ((TRACE_EVENTS / (reps * per_cycle)) as u64).clamp(1, max_cycles.max(1));
    (cycles, cycles as usize * reps * per_cycle)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU model, `nproc`, scaling governor, rustc and git commit.
fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unreadable".into());
    // Only ask git inside a checkout's own root, never a parent's.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("cpu", cpu),
        ("nproc", nproc),
        ("governor", governor),
        ("rustc", env!("HOSTBENCH_RUSTC").to_string()),
        ("commit", commit),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Runs one workload under the root span `bench.run`; `Err` for an
/// unknown name. In a traced run the report also gets the layer self
/// times and `bench.unattributed_share`, the root's self time over its
/// duration: the part of the run no layer call covers.
pub fn run_workload(ctx: &Ctx) -> Result<Report, String> {
    let mut report = ctx
        .tracer
        .span("bench.run", None, |root| match ctx.workload.as_str() {
            "rocket-sync" => Ok(engine::run(engine::Design::Rocket, ctx, root)),
            "mesh-compute" => Ok(engine::run(engine::Design::Mesh, ctx, root)),
            "serve-gang" => Ok(serve::run(ctx, root)),
            other => Err(format!(
                "unknown workload {other:?} (rocket-sync, mesh-compute, serve-gang)"
            )),
        })?;
    if ctx.tracer.is_on() {
        let all = ctx.tracer.spans();
        let root = &all[0];
        let root_s = root.end_ns.saturating_sub(root.start_ns) as f64 / 1e9;
        report.set(
            "bench.unattributed_share",
            spans::self_seconds(&all, 0) / root_s,
        );
        for (layer, s) in spans::layer_self_seconds(&all) {
            report.note(format!(
                "self time {layer:<10} {s:>10.4} s  ({:>5.1}% of the {root_s:.3} s run; concurrent spans add up)",
                100.0 * s / root_s
            ));
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| FORBIDDEN_ENV.contains(&k.as_str()) || k.starts_with("PARENDI_SERVE_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "hostbench: refusing to run with {} set: it changes the program under test",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".hostbench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("hostbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        corrupt: false,
        out_dir,
    };
    let host = fingerprint();
    let mut report = match run_workload(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = ctx
            .out_dir
            .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
        let mut other = host.clone();
        other.push(("workload", ctx.workload.clone()));
        other.push(("seed", ctx.seed.to_string()));
        if let Err(e) = std::fs::write(&path, ctx.tracer.chrome_json(&other)) {
            eprintln!("hostbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        report.note(format!("spans written to {}", path.display()));
    }

    println!(
        "host: {}",
        host.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("; ")
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("{line}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match report.metrics.get(*name) {
            Some(v) => *v,
            None => {
                missing.push(*name);
                0.0
            }
        };
        if !value.is_finite() {
            eprintln!("hostbench: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        println!("{name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    if !missing.is_empty() {
        if !args.trace {
            eprintln!(
                "hostbench: end-to-end metrics missing: {}",
                missing.join(", ")
            );
            return ExitCode::from(1);
        }
        println!(
            "not exercised by {} (reported as 0): {}",
            ctx.workload,
            missing.join(", ")
        );
    }
    println!(
        "failed_ratio {:.6} ({} of {} checked operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if report.attempted == 0 {
        eprintln!("hostbench: no operation was checked");
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(workload: &str, corrupt: bool) -> Ctx {
        Ctx {
            workload: workload.into(),
            seed: 7,
            seconds: 0.5,
            tracer: Tracer::new(false),
            corrupt,
            out_dir: PathBuf::from(".hostbench"),
        }
    }

    /// The oracle of every workload is not vacuous: the same run with
    /// one expected value flipped per comparison must fail.
    #[test]
    fn a_corrupted_expectation_fails_every_workload() {
        std::fs::create_dir_all(".hostbench").expect("output directory");
        for w in ["rocket-sync", "mesh-compute", "serve-gang"] {
            let good = run_workload(&ctx(w, false)).expect("known workload");
            assert!(good.attempted > 0, "{w}: nothing was checked");
            assert_eq!(good.failed, 0, "{w}: a clean run failed its oracle");
            let bad = run_workload(&ctx(w, true)).expect("known workload");
            assert!(
                bad.failed > 0,
                "{w}: a corrupted expectation passed {} checks",
                bad.attempted
            );
        }
    }
}
