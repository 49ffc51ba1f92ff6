//! `serve-gang`: an in-process `parendi-serve` daemon (1 gang worker ×
//! [`THREADS`] engine threads) driven by [`CLIENTS`] closed-loop
//! clients, each submitting its next batch only after the previous one
//! returned, the way a regression runner waits on its results.
//!
//! The seeded request stream mixes two designs, so the gang layer is
//! used two ways:
//! * `ca256` batches (`packed auto`) resolve to the bit-packed gang;
//!   their lanes differ by their `inj` events, checked against
//!   `ca::soft_rule30_step`.
//! * `mc` batches (`packed off`) run the word-interleaved SIMD gang.
//!   No multi-bit registry design has inputs, so these lanes differ
//!   only in horizon. `mc` stands in for the `prng`/`sr` candidates
//!   because it is the multi-bit design with outputs a lane result can
//!   be checked on; the interpreter gives the expected outputs.
//!
//! Batch sizes cover the 4 to 64 lane buckets and horizons vary per
//! lane, so lanes retire early. A cold pass submits every request shape
//! once before the timed phase, so the timed phase is warm and the
//! cold compiles land in `setup_s`.

use crate::spans::SpanId;
use crate::stats::{median, quantile, window_rates};
use crate::{peak_rss_mb, trace_budget, Ctx, Report, Rng, THREADS, TRACE_PROBE_CYCLES};
use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_designs::{ca, Benchmark};
use parendi_graph::{extract_fibers, CostModel};
use parendi_rtl::{Bits, Circuit};
use parendi_serve::{BatchSummary, Client, PackedChoice, ScenarioBatch, ServeConfig, ServerHandle};
use parendi_sim::TransportChoice;
use parendi_sim::{BspPhases, GangSimulator, Precompiled, Simulator, StimulusSet, TraceConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// The partition every batch asks for.
const TILES: u32 = 4;
/// Lane buckets the batch sizes cover.
const BUCKETS: [u32; 5] = [4, 8, 16, 32, 64];
/// Completion-time window of one rate sample.
const WINDOW_S: f64 = 1.0;
/// Set-ups (spawn + cold pass) per untraced run; the median is
/// `setup_s`.
const SETUPS: usize = 5;
/// Timed batches the traced run replays through the gang directly.
const REPLAYS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ca,
    Mc,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::Ca, Kind::Mc];
    const CA_CELLS: u32 = 256;

    fn design(self) -> Benchmark {
        match self {
            Kind::Ca => Benchmark::Ca(Self::CA_CELLS),
            Kind::Mc => Benchmark::Mc,
        }
    }

    fn packed(self) -> PackedChoice {
        match self {
            Kind::Ca => PackedChoice::Auto,
            Kind::Mc => PackedChoice::Off,
        }
    }

    /// Lane horizons, uniform in this range.
    fn horizons(self) -> (u64, u64) {
        match self {
            Kind::Ca => (64, 512),
            Kind::Mc => (32, 256),
        }
    }
}

/// One request: its id, design and batch.
#[derive(Clone)]
struct Request {
    id: u64,
    kind: Kind,
    batch: ScenarioBatch,
}

/// A seeded batch of `kind` landing in lane bucket `bucket`.
fn gen_batch(rng: &mut Rng, kind: Kind, bucket: u32) -> ScenarioBatch {
    let mut b = ScenarioBatch::new(&kind.design().name(), TILES);
    b.packed = kind.packed();
    let lanes = rng.range(bucket as u64 / 2 + 1, bucket as u64);
    let (lo, hi) = kind.horizons();
    for _ in 0..lanes {
        let h = rng.range(lo, hi);
        let lane = b.scenario(h);
        if kind == Kind::Ca {
            let mut cycles: Vec<u64> = (0..rng.range(0, 4)).map(|_| rng.range(0, h - 1)).collect();
            cycles.sort_unstable();
            cycles.dedup();
            for c in cycles {
                b.drive(lane, c, "inj", Bits::from_u64(1, rng.range(0, 1)));
            }
        }
    }
    b
}

/// A client's request stream: rounds of every (design, bucket) shape
/// in a seeded order, so every seed and client offers the same mix.
struct Stream {
    rng: Rng,
    round: Vec<(Kind, u32)>,
    next: usize,
    id: u64,
}

impl Stream {
    fn new(seed: u64, client: u64) -> Self {
        Stream {
            rng: Rng::new(seed ^ client.wrapping_mul(0xC0FF_EE00_D15E_A5E5)),
            round: Kind::ALL
                .iter()
                .flat_map(|&k| BUCKETS.iter().map(move |&b| (k, b)))
                .collect(),
            next: usize::MAX,
            id: client << 32,
        }
    }

    fn next(&mut self) -> Request {
        if self.next >= self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.next = 0;
        }
        let (kind, bucket) = self.round[self.next];
        self.next += 1;
        self.id += 1;
        Request {
            id: self.id,
            kind,
            batch: gen_batch(&mut self.rng, kind, bucket),
        }
    }
}

/// Output values of one lane, in the circuit's output order (every
/// output of both designs fits a word).
type Outputs = Vec<u64>;

/// Expected lane outputs.
struct Oracle {
    /// `mc` outputs after `h` cycles, indexed by `h` (the interpreter's).
    mc: Vec<Outputs>,
}

impl Oracle {
    fn new() -> Self {
        let circuit = Kind::Mc.design().build();
        let mut sim = Simulator::new(&circuit);
        let mut mc = Vec::new();
        for _ in 0..=Kind::Mc.horizons().1 {
            mc.push(
                circuit
                    .outputs
                    .iter()
                    .map(|o| sim.output(&o.name).expect("declared output").to_u64())
                    .collect(),
            );
            sim.step();
        }
        Oracle { mc }
    }

    /// The outputs lane `lane` of `req` must stream back.
    fn expected(&self, req: &Request, lane: usize) -> Outputs {
        let sc = &req.batch.scenarios[lane];
        match req.kind {
            Kind::Mc => self.mc[sc.cycles as usize].clone(),
            Kind::Ca => {
                let mut cells = ca::soft_rule30_init(Kind::CA_CELLS);
                let mut inj = false;
                let mut events = sc.events.iter().peekable();
                for cycle in 0..sc.cycles {
                    while let Some((_, _, v)) = events.next_if(|(c, _, _)| *c == cycle) {
                        inj = v.to_u64() == 1;
                    }
                    cells = ca::soft_rule30_step(&cells, inj);
                }
                // Outputs `parity` and `c_mid`.
                let parity = cells.iter().fold(false, |p, &c| p ^ c);
                vec![parity as u64, cells[Kind::CA_CELLS as usize / 2] as u64]
            }
        }
    }

    /// Whether every lane of `req` came back with its expected outputs.
    fn check(&self, req: &Request, lanes: &[(u32, Outputs)], corrupt: bool) -> bool {
        lanes.len() == req.batch.scenarios.len()
            && lanes.iter().enumerate().all(|(i, (lane, got))| {
                let mut want = self.expected(req, i);
                if corrupt && i == 0 {
                    want[0] ^= 1;
                }
                *lane as usize == i && *got == want
            })
    }
}

/// A finished request, kept small so the benchmark's bookkeeping does
/// not grow the peak RSS it reports: the request itself is regenerated
/// from its client's seeded stream when it is checked.
struct Done {
    sent: Instant,
    answered: Instant,
    gang_cycles: u64,
    lane_cycles: u64,
    scenarios: u64,
    answer: Result<Answer, String>,
}

struct Answer {
    summary: BatchSummary,
    lanes: Vec<(u32, Outputs)>,
}

fn submit(client: &mut Client, req: &Request) -> Done {
    let sent = Instant::now();
    let result = client.submit(&req.batch);
    let answered = Instant::now();
    let horizons = req.batch.scenarios.iter().map(|s| s.cycles);
    Done {
        sent,
        answered,
        gang_cycles: horizons.clone().max().unwrap_or(0),
        lane_cycles: horizons.sum(),
        scenarios: req.batch.scenarios.len() as u64,
        answer: result
            .map(|r| Answer {
                lanes: r
                    .lanes
                    .iter()
                    .map(|l| (l.lane, l.outputs.iter().map(|(_, v)| v.to_u64()).collect()))
                    .collect(),
                summary: r.summary,
            })
            .map_err(|e| e.to_string()),
    }
}

fn config(socket: &Path) -> ServeConfig {
    ServeConfig {
        socket: socket.to_path_buf(),
        cache_cap: 2 * Kind::ALL.len() * BUCKETS.len(),
        workers: 1,
        threads: THREADS,
    }
}

/// Requests per cold pass: one of every shape.
const COLD: usize = Kind::ALL.len() * BUCKETS.len();

/// Spawns the daemon and submits one request of every shape from
/// stream 0: returns the daemon and the cold requests.
fn set_up(ctx: &Ctx, root: Option<SpanId>, socket: &Path) -> (ServerHandle, Vec<Done>) {
    let tr = &ctx.tracer;
    let server = tr.span("serve.spawn", root, |_| {
        parendi_serve::spawn(config(socket)).expect("daemon binds its socket")
    });
    let mut client = Client::connect(socket).expect("daemon accepts");
    let mut stream = Stream::new(ctx.seed, 0);
    let cold = (0..COLD)
        .map(|_| {
            let req = stream.next();
            let d = submit(&mut client, &req);
            tr.record(
                "serve.cold_request",
                root,
                (d.sent, d.answered),
                Some(req.id),
                0,
            );
            d
        })
        .collect();
    (server, cold)
}

fn shut_down(server: ServerHandle, socket: &Path) {
    Client::connect(socket)
        .and_then(|c| c.shutdown())
        .expect("daemon shuts down");
    server.join();
}

/// The closed-loop timed phase: client `c` (streams 1..=CLIENTS)
/// submits until `seconds` have passed since the start. Returns the
/// start and each client's finished requests in stream order.
fn timed_phase(
    ctx: &Ctx,
    root: Option<SpanId>,
    socket: &Path,
    seconds: f64,
) -> (Instant, Vec<Vec<Done>>) {
    let tr = &ctx.tracer;
    let start = Instant::now();
    let done = std::thread::scope(|s| {
        let clients: Vec<_> = (1..=CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(socket).expect("daemon accepts");
                    let mut stream = Stream::new(ctx.seed, c);
                    let mut done = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let req = stream.next();
                        let d = submit(&mut client, &req);
                        let track = c as u32;
                        let span = tr.record(
                            "serve.request",
                            root,
                            (d.sent, d.answered),
                            Some(req.id),
                            track,
                        );
                        if let Ok(a) = &d.answer {
                            // Server-side run time, placed against the
                            // DONE it precedes.
                            let run = Duration::from_secs_f64(a.summary.run_s);
                            let begin = d.answered.checked_sub(run).unwrap_or(d.sent).max(d.sent);
                            tr.record("serve.run", span, (begin, d.answered), Some(req.id), track);
                        }
                        done.push(d);
                    }
                    done
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (start, done)
}

/// Regenerates each request of `stream` in order, checks its answer
/// and counts the operation. Requests `sample` picks are kept for the
/// traced replay.
fn check_stream(
    rep: &mut Report,
    oracle: &Oracle,
    mut stream: Stream,
    done: &[Done],
    corrupt: bool,
    mut sample: impl FnMut(Request, &Done),
) {
    for d in done {
        let req = stream.next();
        let ok = match &d.answer {
            Ok(a) => oracle.check(&req, &a.lanes, corrupt),
            Err(e) => {
                eprintln!("request {} failed: {e}", req.id);
                false
            }
        };
        rep.check(ok);
        if ok {
            sample(req, d);
        }
    }
}

pub fn run(ctx: &Ctx, root: Option<SpanId>) -> Report {
    let tr = &ctx.tracer;
    let mut rep = Report::default();
    let oracle = Oracle::new();
    let socket = ctx
        .out_dir
        .join(format!("serve-{}.sock", std::process::id()));

    let mut setups = Vec::new();
    let mut cold_runs = Vec::new();
    let runs = if tr.is_on() { 1 } else { SETUPS };
    let mut server = None;
    for i in 0..runs {
        let t = Instant::now();
        let (s, cold) = set_up(ctx, root, &socket);
        setups.push(t.elapsed().as_secs_f64());
        cold_runs.push(cold);
        if i + 1 < runs {
            shut_down(s, &socket);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    let seconds = if tr.is_on() {
        0.5 * ctx.seconds
    } else {
        ctx.seconds
    };
    let (start, timed) = timed_phase(ctx, root, &socket, seconds);
    let stats = tr.span("serve.stats", root, |_| {
        Client::connect(&socket)
            .and_then(|mut c| c.stats())
            .expect("daemon answers STATS")
    });
    shut_down(server, &socket);

    // Check everything; in a traced run keep a seeded sample of the
    // timed requests for the replay.
    let answered: usize = timed.iter().map(|d| d.len()).sum();
    let mut rng = Rng::new(ctx.seed ^ 0x005A_3B1E);
    let mut picks: Vec<usize> = (0..answered).collect();
    rng.shuffle(&mut picks);
    picks.truncate(if tr.is_on() { REPLAYS } else { 0 });
    let mut sample = Vec::new();
    tr.span("bench.check", root, |_| {
        for cold in &cold_runs {
            check_stream(
                &mut rep,
                &oracle,
                Stream::new(ctx.seed, 0),
                cold,
                ctx.corrupt,
                |_, _| {},
            );
        }
        let mut index = 0;
        for (c, done) in timed.iter().enumerate() {
            let stream = Stream::new(ctx.seed, c as u64 + 1);
            check_stream(&mut rep, &oracle, stream, done, ctx.corrupt, |req, d| {
                if picks.contains(&index) {
                    sample.push((req, d.answer.as_ref().expect("checked").summary));
                }
                index += 1;
            });
        }
    });
    let ok: Vec<&Done> = timed
        .iter()
        .flatten()
        .filter(|d| d.answer.is_ok())
        .collect();
    let lat: Vec<f64> = ok
        .iter()
        .map(|d| (d.answered - d.sent).as_secs_f64())
        .collect();
    let packed = ok
        .iter()
        .filter(|d| d.answer.as_ref().is_ok_and(|a| a.summary.packed))
        .count();
    rep.note(format!(
        "{} timed requests ({} beyond p95; {} packed gangs), {} cold requests over {} set-ups",
        answered,
        lat.len() / 20,
        packed,
        COLD * cold_runs.len(),
        setups.len()
    ));

    if !tr.is_on() {
        // Rates over completion-time windows: each answer carries the
        // work it finished and the time since the previous answer.
        let end = start + Duration::from_secs_f64(seconds);
        let mut answers: Vec<&&Done> = ok.iter().filter(|d| d.answered <= end).collect();
        answers.sort_by_key(|d| d.answered);
        let mut prev = start;
        let mut work = [Vec::new(), Vec::new(), Vec::new()];
        for d in answers {
            let dt = (d.answered - prev).as_secs_f64();
            prev = d.answered;
            work[0].push((dt, d.gang_cycles as f64));
            work[1].push((dt, d.lane_cycles as f64));
            work[2].push((dt, d.scenarios as f64));
        }
        let rate = |k: usize| median(&window_rates(&work[k], WINDOW_S));
        let lat_ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
        rep.set("cycles_per_s", rate(0));
        rep.set("lane_cycles_per_s", rate(1));
        rep.set("scenarios_per_s", rate(2));
        rep.set("request_p50_ms", median(&lat_ms));
        rep.set("request_p95_ms", quantile(&lat_ms, 0.95));
        rep.set("setup_s", median(&setups));
        rep.set("peak_rss_mb", peak_rss_mb());
        return rep;
    }

    // ---- Traced run: per-layer numbers.
    let runs: Vec<f64> = ok
        .iter()
        .map(|d| d.answer.as_ref().map(|a| a.summary.run_s).unwrap_or(0.0))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let waits: Vec<f64> = lat.iter().zip(&runs).map(|(l, r)| l - r).collect();
    rep.set("serve.run_s", mean(&runs));
    rep.set("serve.wait_s", mean(&waits));
    let hits = stats.get("serve_cache_hits").unwrap_or(0) as f64;
    let misses = stats.get("serve_cache_misses").unwrap_or(0) as f64;
    rep.set("serve.cache_hits", hits);
    rep.set("serve.cache_lookups", hits + misses);
    rep.set("serve.cache_hit_ratio", hits / (hits + misses));
    rep.set(
        "serve.cold_compile_s",
        cold_runs
            .iter()
            .flatten()
            .filter_map(|d| d.answer.as_ref().ok())
            .filter(|a| !a.summary.cache_hit)
            .map(|a| a.summary.compile_s)
            .sum(),
    );
    replay(ctx, root, &mut rep, &oracle, &sample);
    rep
}

/// One design compiled beside the daemon, as the daemon compiles it.
struct Built {
    kind: Kind,
    circuit: Circuit,
    comp: Compilation,
}

/// Replays a seeded sample of the timed batches through
/// `GangSimulator::from_precompiled` + `run_stimulus` for the gang
/// layer's counters, then times the gang's phase split and the
/// engine's own tracing on the widest shape of each design.
fn replay(
    ctx: &Ctx,
    root: Option<SpanId>,
    rep: &mut Report,
    oracle: &Oracle,
    sample: &[(Request, BatchSummary)],
) {
    let tr = &ctx.tracer;
    let cfg = PartitionConfig::with_tiles(TILES);
    let mut designs = Vec::new();
    let (mut build_s, mut cost_s, mut fibers_s, mut compile_s, mut fibers) =
        (0.0, 0.0, 0.0, 0.0, 0);
    for kind in Kind::ALL {
        let (circuit, b) = tr.span_timed("rtl.build", root, |_| kind.design().build());
        let (comp, c) = tr.span_timed("core.compile", root, |_| {
            compile(&circuit, &cfg).expect("design compiles")
        });
        let (costs, cs) = tr.span_timed("graph.cost_model", root, |_| CostModel::of(&circuit));
        let (fs, fsec) = tr.span_timed("graph.fibers", root, |_| extract_fibers(&circuit, &costs));
        build_s += b;
        compile_s += c;
        cost_s += cs;
        fibers_s += fsec;
        fibers += fs.len();
        designs.push(Built {
            kind,
            circuit,
            comp,
        });
    }
    let sum = |f: &dyn Fn(&Built) -> f64| designs.iter().map(f).sum::<f64>();
    rep.set("rtl.build_s", build_s);
    rep.set("rtl.nodes", sum(&|d| d.circuit.nodes.len() as f64));
    rep.set("graph.cost_model_s", cost_s);
    rep.set("graph.fibers_s", fibers_s);
    rep.set("graph.fibers", fibers as f64);
    rep.set("core.compile_s", compile_s);
    rep.set(
        "core.tiles_used",
        sum(&|d| d.comp.partition.tiles_used() as f64),
    );
    rep.set(
        "core.straggler_ratio",
        designs
            .iter()
            .map(|d| d.comp.partition.straggler_cost() as f64 / d.comp.partition.mean_cost())
            .fold(0.0, f64::max),
    );
    rep.set(
        "core.onchip_cut_bytes",
        sum(&|d| d.comp.plan.onchip_cut_bytes as f64),
    );
    rep.set(
        "core.offchip_cut_bytes",
        sum(&|d| d.comp.plan.offchip_cut_bytes as f64),
    );
    rep.note(format!(
        "designs {}: sums over both; graph beside compile: cost model {:.1}% and fibers {:.1}% of core.compile_s",
        designs.iter().map(|d| d.circuit.name.as_str()).collect::<Vec<_>>().join(" + "),
        100.0 * cost_s / compile_s,
        100.0 * fibers_s / compile_s
    ));

    // The sampled timed batches, replayed as the daemon runs them:
    // surplus bucket lanes retired, lanes retired at their horizon.
    let (mut lower_s, mut new_s, mut run_s, mut lane_cyc) = (0.0, 0.0, 0.0, 0u64);
    let (mut packed_ops, mut strided_ops, mut simd) = (0u64, 0u64, 0u64);
    for (req, summary) in sample {
        let des = designs
            .iter()
            .find(|x| x.kind == req.kind)
            .expect("design compiled");
        let lanes = summary.gang_lanes as usize;
        let (pre, l) = tr.span_timed("sim.lower", root, |_| {
            Precompiled::build(&des.circuit, &des.comp.partition, lanes, summary.packed)
        });
        let (mut gang, n) = tr.span_timed("sim.engine_new", root, |_| {
            GangSimulator::from_precompiled(&des.circuit, &des.comp.partition, &pre, THREADS)
        });
        lower_s += l;
        new_s += n;
        let scenarios = &req.batch.scenarios;
        for lane in scenarios.len()..lanes {
            gang.finish_lane(lane);
        }
        let mut stim = StimulusSet::new(lanes as u32);
        for (i, sc) in scenarios.iter().enumerate() {
            for (c, input, v) in &sc.events {
                stim.drive(*c, i as u32, input, v.clone());
            }
        }
        let mut horizons: Vec<u64> = scenarios.iter().map(|s| s.cycles).collect();
        horizons.sort_unstable();
        horizons.dedup();
        let mut outputs = vec![(0u32, Vec::new()); scenarios.len()];
        let mut now = 0;
        for h in horizons {
            run_s += tr.span("sim.gang_run", root, |_| gang.run_stimulus(h - now, &stim));
            now = h;
            for (i, _) in scenarios.iter().enumerate().filter(|(_, s)| s.cycles == h) {
                let values = gang
                    .peek_outputs_lane(i)
                    .iter()
                    .map(|v| v.to_u64())
                    .collect();
                outputs[i] = (i as u32, values);
                gang.finish_lane(i);
            }
        }
        let ok = tr.span("bench.check", root, |_| {
            oracle.check(req, &outputs, ctx.corrupt)
        });
        rep.check(ok);
        lane_cyc += scenarios.iter().map(|s| s.cycles).sum::<u64>();
        let m = gang.metrics_snapshot();
        packed_ops += m.get("ops_packed").unwrap_or(0);
        strided_ops += m.get("ops_strided").unwrap_or(0);
        simd += m.get("simd_kernel_dispatches").unwrap_or(0);
    }
    let per_lc = |n: u64| n as f64 / lane_cyc as f64;
    rep.set("sim.lower_s", lower_s);
    rep.set("sim.engine_new_s", new_s);
    rep.set("sim.gang_run_s", run_s);
    rep.set("sim.ops_packed_per_lane_cycle", per_lc(packed_ops));
    rep.set("sim.ops_strided_per_lane_cycle", per_lc(strided_ops));
    rep.set("sim.simd_dispatches_per_lane_cycle", per_lc(simd));
    rep.note(format!(
        "replayed {} batches ({lane_cyc} lane-cycles) in {run_s:.4} s",
        sample.len()
    ));

    // The gang's phase split and the engine's own tracing, on the widest
    // bucket of each design with every lane live.
    let widest = *BUCKETS.last().expect("buckets") as usize;
    let (mut timed, mut untimed, mut plain, mut traced) = (Vec::new(), 0.0, 0.0, 0.0);
    let (mut spins, mut parks, mut cycles, mut static_ops) = (0u64, 0u64, 0u64, 0u64);
    for des in &designs {
        let packed = des.kind.packed() == PackedChoice::Auto
            && parendi_serve::server::auto_pack(&des.circuit, widest);
        let pre = Precompiled::build(&des.circuit, &des.comp.partition, widest, packed);
        let mut gang =
            GangSimulator::from_precompiled(&des.circuit, &des.comp.partition, &pre, THREADS);
        static_ops += gang.code_stats().total_ops;
        let n = 2000;
        untimed += tr.span("sim.gang_run", root, |_| gang.run(n));
        let ph: BspPhases = tr.span("sim.run_timed", root, |_| gang.run_timed(n));
        let m = gang.metrics_snapshot();
        spins += m.get("barrier_spin_waits").unwrap_or(0);
        parks += m.get("barrier_park_waits").unwrap_or(0);
        cycles += m.get("cycles_run").unwrap_or(0);
        timed.push(ph);
        let traced_gang = |trace: TraceConfig| {
            GangSimulator::with_trace(
                &des.circuit,
                &des.comp.partition,
                THREADS,
                widest,
                packed,
                TransportChoice::InProcess,
                trace,
            )
        };
        let reps = 5;
        let (tn, capacity) = tr.span("telemetry.engine_new", root, |_| {
            let mut probe = traced_gang(TraceConfig::phase());
            probe.run(TRACE_PROBE_CYCLES);
            trace_budget(&probe.trace_summaries(), reps, n)
        });
        let mut with = tr.span("telemetry.engine_new", root, |_| {
            traced_gang(TraceConfig::phase().with_capacity(capacity))
        });
        for _ in 0..reps {
            plain += tr.span("sim.gang_run", root, |_| gang.run(tn));
            traced += tr.span("telemetry.run", root, |_| with.run(tn));
        }
        if des.kind == Kind::Ca {
            let path = ctx
                .out_dir
                .join(format!("engine-{}-{}.json", ctx.workload, ctx.seed));
            rep.note(
                match tr.span("telemetry.write", root, |_| with.write_trace(&path)) {
                    Ok(_) => format!(
                        "engine trace written to {} ({} events dropped)",
                        path.display(),
                        with.metrics_snapshot()
                            .get("trace_events_dropped")
                            .unwrap_or(0)
                    ),
                    Err(e) => format!("engine trace not written: {e}"),
                },
            );
        }
    }
    let tcycles: u64 = timed.iter().map(|p| p.cycles).sum();
    let phase = |f: &dyn Fn(&BspPhases) -> f64| timed.iter().map(f).sum::<f64>();
    let per = |s: f64| s / tcycles as f64 * 1e6;
    rep.set("sim.compute_us_per_cycle", per(phase(&|p| p.compute_s)));
    rep.set("sim.offchip_us_per_cycle", per(phase(&|p| p.offchip_s)));
    rep.set("sim.exchange_us_per_cycle", per(phase(&|p| p.exchange_s)));
    rep.set(
        "sim.phase_sum_over_wall",
        phase(&|p| p.compute_s + p.offchip_s + p.exchange_s) / phase(&|p| p.total_s),
    );
    rep.set("sim.timed_over_untimed", phase(&|p| p.total_s) / untimed);
    rep.set(
        "sim.tile_compute_max_over_p50",
        timed
            .iter()
            .map(|p| {
                let t: Vec<f64> = p.per_tile.iter().map(|t| t.compute_s).collect();
                quantile(&t, 1.0) / median(&t)
            })
            .fold(0.0, f64::max),
    );
    rep.set("sim.static_ops", static_ops as f64);
    rep.set(
        "sim.barrier_spin_waits_per_cycle",
        spins as f64 / cycles as f64,
    );
    rep.set(
        "sim.barrier_park_waits_per_cycle",
        parks as f64 / cycles as f64,
    );
    rep.set("telemetry.trace_overhead", traced / plain - 1.0);
}
