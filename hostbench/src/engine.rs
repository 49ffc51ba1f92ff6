//! `rocket-sync` and `mesh-compute`: one design, one scenario, under
//! `BspSimulator` with [`THREADS`] workers.
//!
//! * `rocket-sync` runs the pipelined `rocket` core (11 tiles, one
//!   chip) on a seeded RV32I program that loops forever, so the core
//!   never halts inside the timed region. Per-cycle compute is about a
//!   microsecond, so the barrier and the exchange dominate. Every run
//!   segment is checked against `isa::GoldenRv32`.
//! * `mesh-compute` runs the `sr8` mesh at 64 tiles over 2 chips:
//!   compute dominates, and compile (hypergraph chip split included)
//!   dominates set-up. The mesh has no inputs, so the seed only varies
//!   the segment horizons; the interpreter (about 2k cycles/s here)
//!   checks a prefix of the run, segment by segment.
//!
//! The timed region is a closed loop of untimed `run(h)` calls, one per
//! seeded horizon `h`; each call is one request of the end-to-end
//! metrics (one scenario of `h` cycles on one lane).

use crate::spans::SpanId;
use crate::stats::{median, quantile, window_rates};
use crate::{peak_rss_mb, trace_budget, Ctx, Report, Rng, THREADS, TRACE_PROBE_CYCLES};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::{isa, rocket, Benchmark};
use parendi_graph::{extract_fibers, CostModel};
use parendi_rtl::{ArrayId, Bits, Circuit, RegId};
use parendi_sim::{BspSimulator, Precompiled, Simulator, TraceConfig, TransportChoice};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Design {
    Rocket,
    Mesh,
}

/// Seconds of untimed, checked segments before the timed region.
const WARMUP_S: f64 = 0.3;
/// Busy seconds per rate sample.
const WINDOW_S: f64 = 0.5;

impl Design {
    fn build(self, program: &[u32]) -> Circuit {
        match self {
            Design::Rocket => rocket::build_rocket(&rocket::RocketConfig::new(program.to_vec())),
            Design::Mesh => Benchmark::Sr(8).build(),
        }
    }

    fn partition(self) -> PartitionConfig {
        match self {
            // The compiler settles on 11 tiles for the core.
            Design::Rocket => PartitionConfig::with_tiles(16),
            Design::Mesh => PartitionConfig {
                tiles_per_chip: 32,
                ..PartitionConfig::with_tiles(64)
            },
        }
    }

    /// Mean segment horizon in cycles: about 50 ms of simulation on
    /// either design, long enough that a host hiccup of a few
    /// milliseconds does not decide a segment's latency, short enough
    /// that a 20 s run has well over 200 segments (10 beyond p95).
    fn base_horizon(self) -> u64 {
        match self {
            Design::Rocket => 12000,
            Design::Mesh => 400,
        }
    }
}

/// Segment horizons: rounds of {0.9, 0.95, 1, 1.05, 1.1} × base in a
/// seeded order, so every seed runs the same mean horizon and the
/// latency distribution stays unimodal (its median is stable).
struct Horizons {
    rng: Rng,
    round: Vec<u64>,
    next: usize,
}

impl Horizons {
    fn new(base: u64, seed: u64) -> Self {
        Horizons {
            rng: Rng::new(seed ^ 0x4052_1205),
            round: (18..=22).map(|k| base * k / 20).collect(),
            next: usize::MAX,
        }
    }

    fn next(&mut self) -> u64 {
        if self.next >= self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.next = 0;
        }
        self.next += 1;
        self.round[self.next - 1]
    }
}

/// Registers the core's program computes with (x1–x4 and x8–x9 stay
/// unused; x0 is the load/store base).
const DATA_REGS: [u32; 14] = [5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 28, 31];

/// A seeded RV32I program: seed the data registers, then loop forever
/// over a random body of ALU ops, word loads/stores to the 256-word
/// data memory, and forward branches that skip one instruction.
pub fn rocket_program(rng: &mut Rng) -> Vec<u32> {
    const BODY: usize = 64;
    let pick = |rng: &mut Rng| DATA_REGS[rng.range(0, DATA_REGS.len() as u64 - 1) as usize];
    let mut p = Vec::new();
    for r in DATA_REGS {
        p.extend(isa::li(r, rng.next_u64() as u32));
    }
    let top = p.len();
    for i in 0..BODY {
        let (rd, a, b) = (pick(rng), pick(rng), pick(rng));
        let imm = rng.range(0, 4095) as i32 - 2048;
        let sh = rng.range(0, 31) as u32;
        let word = 4 * rng.range(0, 255) as i32;
        p.push(match rng.range(0, 17) {
            0 => isa::add(rd, a, b),
            1 => isa::sub(rd, a, b),
            2 => isa::xor(rd, a, b),
            3 => isa::or(rd, a, b),
            4 => isa::and(rd, a, b),
            5 => isa::sll(rd, a, b),
            6 => isa::srl(rd, a, b),
            7 => isa::sra(rd, a, b),
            8 => isa::slt(rd, a, b),
            9 => isa::sltu(rd, a, b),
            10 => isa::addi(rd, a, imm),
            11 => isa::xori(rd, a, imm),
            12 => isa::slti(rd, a, imm),
            13 => isa::slli(rd, a, sh),
            14 => isa::srai(rd, a, sh),
            15 => isa::lw(rd, 0, word),
            _ => isa::sw(b, 0, word),
        });
        // A branch never skips the loop's closing jump.
        if i + 1 < BODY && rng.range(0, 7) == 0 {
            p.push(match rng.range(0, 3) {
                0 => isa::beq(a, b, 8),
                1 => isa::bne(a, b, 8),
                2 => isa::blt(a, b, 8),
                _ => isa::bgeu(a, b, 8),
            });
        }
    }
    p.push(isa::jal(0, -4 * (p.len() - top) as i32));
    p
}

fn reg_id(c: &Circuit, name: &str) -> RegId {
    RegId(
        c.regs
            .iter()
            .position(|r| r.name == name)
            .expect("register exists") as u32,
    )
}

fn array_id(c: &Circuit, name: &str) -> ArrayId {
    ArrayId(
        c.arrays
            .iter()
            .position(|a| a.name == name)
            .expect("array exists") as u32,
    )
}

/// `want`, or `want` with bit 0 flipped when the expectation is to be
/// corrupted.
fn expect(want: Bits, corrupt: bool) -> Bits {
    if corrupt && want.width() <= 64 {
        Bits::from_u64(want.width(), want.to_u64() ^ 1)
    } else {
        want
    }
}

/// The oracle of one design.
enum Oracle<'c> {
    /// Architectural state of the core against the golden ISA model,
    /// advanced by the core's own retired-instruction count.
    Rocket {
        program: Vec<u32>,
        golden: isa::GoldenRv32,
        retired_seen: u32,
        retired: RegId,
        w_en: RegId,
        w_rd: RegId,
        w_val: RegId,
        regfile: ArrayId,
        dmem: ArrayId,
    },
    /// Every register and array element against the interpreter.
    Mesh { reference: Simulator<'c> },
}

impl<'c> Oracle<'c> {
    fn new(design: Design, circuit: &'c Circuit, program: &[u32]) -> Self {
        match design {
            Design::Rocket => Oracle::Rocket {
                program: program.to_vec(),
                golden: isa::GoldenRv32::new(256),
                retired_seen: 0,
                retired: reg_id(circuit, "retired"),
                w_en: reg_id(circuit, "w_en"),
                w_rd: reg_id(circuit, "w_rd"),
                w_val: reg_id(circuit, "w_val"),
                regfile: array_id(circuit, "regfile"),
                dmem: array_id(circuit, "dmem"),
            },
            Design::Mesh => Oracle::Mesh {
                reference: Simulator::new(circuit),
            },
        }
    }

    /// Checks the engine after it ran `cycles` more cycles.
    fn check(&mut self, sim: &BspSimulator<'_>, cycles: u64, corrupt: bool) -> bool {
        match self {
            Oracle::Rocket {
                program,
                golden,
                retired_seen,
                retired,
                w_en,
                w_rd,
                w_val,
                regfile,
                dmem,
            } => {
                let now = sim.reg_value(*retired).to_u64() as u32;
                let delta = now.wrapping_sub(*retired_seen) as u64;
                *retired_seen = now;
                // A core that stopped retiring has halted or hung.
                if delta == 0 || golden.run(program, delta) != delta {
                    return false;
                }
                // The write-back stage holds the last retired result
                // one cycle before the register file does.
                let pending = (sim.reg_value(*w_en).to_u64() == 1).then(|| {
                    (
                        sim.reg_value(*w_rd).to_u64() as usize,
                        sim.reg_value(*w_val),
                    )
                });
                let mut ok = true;
                for r in 1..32usize {
                    let got = match &pending {
                        Some((rd, v)) if *rd == r => v.clone(),
                        _ => sim.array_value(*regfile, r as u32),
                    };
                    let want = expect(Bits::from_u64(32, golden.regs[r] as u64), corrupt && r == 1);
                    ok &= got == want;
                }
                for (w, &want) in golden.dmem.iter().enumerate() {
                    ok &= sim.array_value(*dmem, w as u32) == Bits::from_u64(32, want as u64);
                }
                ok
            }
            Oracle::Mesh { reference } => {
                reference.step_n(cycles);
                let c = reference.circuit();
                let mut ok = true;
                for i in 0..c.regs.len() {
                    let id = RegId(i as u32);
                    ok &= sim.reg_value(id) == expect(reference.reg_value(id), corrupt && i == 0);
                }
                for (a, arr) in c.arrays.iter().enumerate() {
                    let id = ArrayId(a as u32);
                    for idx in 0..arr.depth {
                        ok &= sim.array_value(id, idx) == reference.array_value(id, idx);
                    }
                }
                ok
            }
        }
    }
}

/// Busy seconds and horizon of each timed segment.
type Segments = Vec<(f64, u64)>;

/// Runs segments for `budget_s` wall seconds, checking each one when
/// `oracle` is given and calling `after` once a segment is done.
#[allow(clippy::too_many_arguments)]
fn run_segments(
    ctx: &Ctx,
    parent: Option<SpanId>,
    sim: &mut BspSimulator<'_>,
    horizons: &mut Horizons,
    mut oracle: Option<&mut Oracle<'_>>,
    rep: &mut Report,
    budget_s: f64,
    after: &mut dyn FnMut(),
) -> Segments {
    let tr = &ctx.tracer;
    let mut segs = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget_s {
        let h = horizons.next();
        let ((), s) = tr.span_timed("sim.run", parent, |_| {
            sim.run(h);
        });
        segs.push((s, h));
        if let Some(o) = oracle.as_deref_mut() {
            let ok = tr.span("bench.check", parent, |_| o.check(sim, h, ctx.corrupt));
            rep.check(ok);
        }
        after();
    }
    segs
}

fn cycles_per_s(segs: &Segments) -> f64 {
    let ev: Vec<(f64, f64)> = segs.iter().map(|&(s, h)| (s, h as f64)).collect();
    median(&window_rates(&ev, WINDOW_S))
}

pub fn run(design: Design, ctx: &Ctx, root: Option<SpanId>) -> Report {
    let tr = &ctx.tracer;
    let mut rep = Report::default();
    let program = match design {
        Design::Rocket => rocket_program(&mut Rng::new(ctx.seed)),
        Design::Mesh => Vec::new(),
    };
    let mut horizons = Horizons::new(design.base_horizon(), ctx.seed);
    let cfg = design.partition();

    // Untraced runs repeat the whole set-up (worker threads included,
    // each dropped before the next) and report the median: five times up
    // front and, when one set-up is short next to a run segment (the
    // core's takes about half a millisecond), once more after every timed
    // segment, else five more after the timed region, so the median
    // spans the run's host conditions rather than its first moments.
    let set_up_once = || {
        let t0 = Instant::now();
        let c = design.build(&program);
        let comp = compile(&c, &cfg).expect("design compiles");
        let sim = BspSimulator::new(&c, &comp.partition, THREADS);
        let s = t0.elapsed().as_secs_f64();
        drop(sim);
        s
    };
    let mut setups = Vec::new();
    if !tr.is_on() {
        setups.extend((0..5).map(|_| set_up_once()));
    }
    let (circuit, build_s) = tr.span_timed("rtl.build", root, |_| design.build(&program));
    let (comp, compile_s) = tr.span_timed("core.compile", root, |_| {
        compile(&circuit, &cfg).expect("design compiles")
    });
    let (mut sim, engine_s) = tr.span_timed("sim.engine_new", root, |_| {
        BspSimulator::new(&circuit, &comp.partition, THREADS)
    });
    setups.push(build_s + compile_s + engine_s);

    // Oracle prefix / warm-up, outside the timed region. The mesh's
    // interpreter is dropped after its prefix.
    let mut oracle = Some(Oracle::new(design, &circuit, &program));
    if design == Design::Mesh {
        for _ in 0..5 {
            let h = horizons.next();
            tr.span("sim.run", root, |_| sim.run(h));
            let o = oracle
                .as_mut()
                .expect("mesh oracle lives through the prefix");
            let ok = tr.span("bench.check", root, |_| o.check(&sim, h, ctx.corrupt));
            rep.check(ok);
        }
        oracle = None;
    }
    let warm = run_segments(
        ctx,
        root,
        &mut sim,
        &mut horizons,
        oracle.as_mut(),
        &mut rep,
        WARMUP_S,
        &mut || {},
    );
    rep.note(format!(
        "design {} nodes {} tiles {} chips {} threads {}",
        circuit.name,
        circuit.nodes.len(),
        comp.partition.tiles_used(),
        comp.partition.chips,
        THREADS
    ));

    if !tr.is_on() {
        let segment_s = median(&warm.iter().map(|&(s, _)| s).collect::<Vec<_>>());
        let interleave = median(&setups) < 0.05 * segment_s;
        let segs = run_segments(
            ctx,
            root,
            &mut sim,
            &mut horizons,
            oracle.as_mut(),
            &mut rep,
            ctx.seconds,
            &mut || {
                if interleave {
                    setups.push(set_up_once());
                }
            },
        );
        // Peak memory of the workload itself, before any set-up below.
        let rss = peak_rss_mb();
        if !interleave {
            // A long set-up is sampled five more times once the engine
            // is gone, so its median covers both ends of the run.
            drop(sim);
            setups.extend((0..5).map(|_| set_up_once()));
        }
        let rate = cycles_per_s(&segs);
        let ev: Vec<(f64, f64)> = segs.iter().map(|&(s, _)| (s, 1.0)).collect();
        let lat: Vec<f64> = segs.iter().map(|&(s, _)| s * 1e3).collect();
        rep.set("cycles_per_s", rate);
        rep.set("lane_cycles_per_s", rate);
        rep.set("scenarios_per_s", median(&window_rates(&ev, WINDOW_S)));
        rep.set("request_p50_ms", median(&lat));
        rep.set("request_p95_ms", quantile(&lat, 0.95));
        rep.set("setup_s", median(&setups));
        rep.set("peak_rss_mb", rss);
        rep.note(format!(
            "{} timed segments ({} beyond p95), {} set-ups",
            segs.len(),
            segs.len() / 20,
            setups.len()
        ));
        return rep;
    }

    // ---- Traced run: per-layer numbers.
    let (costs, cost_s) = tr.span_timed("graph.cost_model", root, |_| CostModel::of(&circuit));
    let (fibers, fibers_s) =
        tr.span_timed("graph.fibers", root, |_| extract_fibers(&circuit, &costs));
    let (_, lower_s) = tr.span_timed("sim.lower", root, |_| {
        Precompiled::build(&circuit, &comp.partition, 1, false)
    });
    let p = &comp.partition;
    rep.set("rtl.build_s", build_s);
    rep.set("rtl.nodes", circuit.nodes.len() as f64);
    rep.set("graph.cost_model_s", cost_s);
    rep.set("graph.fibers_s", fibers_s);
    rep.set("graph.fibers", fibers.len() as f64);
    rep.set("core.compile_s", compile_s);
    rep.set("core.tiles_used", p.tiles_used() as f64);
    rep.set(
        "core.straggler_ratio",
        p.straggler_cost() as f64 / p.mean_cost(),
    );
    rep.set("core.onchip_cut_bytes", comp.plan.onchip_cut_bytes as f64);
    rep.set("core.offchip_cut_bytes", comp.plan.offchip_cut_bytes as f64);
    rep.set("sim.lower_s", lower_s);
    rep.set("sim.engine_new_s", engine_s);
    rep.set("sim.static_ops", sim.code_stats().total_ops as f64);
    rep.note(format!(
        "graph beside compile: cost model {:.1}% and fibers {:.1}% of core.compile_s",
        100.0 * cost_s / compile_s,
        100.0 * fibers_s / compile_s
    ));

    // Untimed segments (the traced counterpart of the timed region),
    // with the barrier's wait outcomes counted across them.
    let before = sim.metrics_snapshot();
    let segs = run_segments(
        ctx,
        root,
        &mut sim,
        &mut horizons,
        oracle.as_mut(),
        &mut rep,
        0.4 * ctx.seconds,
        &mut || {},
    );
    let after = sim.metrics_snapshot();
    let delta = |k: &str| after.get(k).unwrap_or(0) as f64 - before.get(k).unwrap_or(0) as f64;
    let cycles = delta("cycles_run");
    let rate = cycles_per_s(&segs);
    rep.set(
        "sim.barrier_spin_waits_per_cycle",
        delta("barrier_spin_waits") / cycles,
    );
    rep.set(
        "sim.barrier_park_waits_per_cycle",
        delta("barrier_park_waits") / cycles,
    );
    rep.set(
        "sim.ops_strided_per_lane_cycle",
        delta("ops_strided") / cycles,
    );
    rep.set(
        "sim.ops_packed_per_lane_cycle",
        delta("ops_packed") / cycles,
    );
    rep.set(
        "sim.simd_dispatches_per_lane_cycle",
        delta("simd_kernel_dispatches") / cycles,
    );
    rep.note(format!(
        "traced-run cycles_per_s {rate:.1} (against the untraced run: the cost of these spans)"
    ));

    // The timed phase split.
    let n = ((rate * 0.3 * ctx.seconds) as u64).max(1);
    let ph = tr.span("sim.run_timed", root, |_| sim.run_timed(n));
    let per = |s: f64| s / ph.cycles as f64 * 1e6;
    rep.set("sim.compute_us_per_cycle", per(ph.compute_s));
    rep.set("sim.offchip_us_per_cycle", per(ph.offchip_s));
    rep.set("sim.exchange_us_per_cycle", per(ph.exchange_s));
    rep.set(
        "sim.phase_sum_over_wall",
        (ph.compute_s + ph.offchip_s + ph.exchange_s) / ph.total_s,
    );
    rep.set("sim.timed_over_untimed", per(ph.total_s) / (1e6 / rate));
    let tile: Vec<f64> = ph.per_tile.iter().map(|t| t.compute_s).collect();
    rep.set(
        "sim.tile_compute_max_over_p50",
        quantile(&tile, 1.0) / median(&tile),
    );

    // The engine's own tracing: the same cycles with and without it,
    // alternated, on buffers a probe run sized so no event is dropped.
    let reps = 5;
    let (n, capacity) = tr.span("telemetry.engine_new", root, |_| {
        let mut probe = BspSimulator::with_trace(
            &circuit,
            &comp.partition,
            THREADS,
            TransportChoice::InProcess,
            TraceConfig::phase(),
        );
        probe.run(TRACE_PROBE_CYCLES);
        trace_budget(&probe.trace_summaries(), reps, (rate * 0.1) as u64)
    });
    let mut traced = tr.span("telemetry.engine_new", root, |_| {
        BspSimulator::with_trace(
            &circuit,
            &comp.partition,
            THREADS,
            TransportChoice::InProcess,
            TraceConfig::phase().with_capacity(capacity),
        )
    });
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        plain_s.push(tr.span("sim.run", root, |_| sim.run(n)));
        traced_s.push(tr.span("telemetry.run", root, |_| traced.run(n)));
    }
    rep.set(
        "telemetry.trace_overhead",
        median(&traced_s) / median(&plain_s) - 1.0,
    );
    let path = ctx
        .out_dir
        .join(format!("engine-{}-{}.json", ctx.workload, ctx.seed));
    let written = tr.span("telemetry.write", root, |_| traced.write_trace(&path));
    rep.note(match written {
        Ok(_) => format!(
            "engine trace written to {} ({} events dropped)",
            path.display(),
            traced
                .metrics_snapshot()
                .get("trace_events_dropped")
                .unwrap_or(0)
        ),
        Err(e) => format!("engine trace not written: {e}"),
    });
    rep
}
