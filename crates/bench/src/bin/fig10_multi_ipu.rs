//! Fig. 10: scaling across 1–4 IPUs. Crossing chips adds expensive
//! off-chip exchange and sync, so gains are positive but far from
//! linear — and sometimes fewer chips win.
//!
//! Beyond the modeled sweep, a *measured* section runs the real BSP
//! engine at host scale with chips mapped to worker groups: cross-chip
//! traffic rides per-chip-pair aggregate mailboxes flushed in a
//! separately-timed sub-phase. The measured columns are host time; the
//! modeled off-chip volume and its link cost print next to them in
//! their own units.

use parendi_bench::{ipu_point, lr_max, quick, sr_max, write_bench_json, BenchRecord, TILE_SWEEP};
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_machine::ipu::IpuConfig;
use parendi_sim::{BspSimulator, GangSimulator};

fn main() {
    let ipu = IpuConfig::m2000();
    let benches = [
        Benchmark::Sr(sr_max()),
        Benchmark::Lr(lr_max().saturating_sub(2).max(2)),
        Benchmark::Lr(lr_max()),
    ];
    println!("Fig. 10: speedup vs a single IPU");
    print!("{:>6}", "IPUs");
    for b in &benches {
        print!(" {:>10}", b.name());
    }
    println!();
    let circuits: Vec<_> = benches.iter().map(|b| b.build()).collect();
    let base: Vec<f64> = circuits
        .iter()
        .map(|c| ipu_point(c, TILE_SWEEP[0], &ipu).khz)
        .collect();
    for (i, &tiles) in TILE_SWEEP.iter().enumerate() {
        print!("{:>6}", i + 1);
        for (c, b) in circuits.iter().zip(&base) {
            let p = ipu_point(c, tiles, &ipu);
            print!(" {:>10.2}", p.khz / b);
        }
        println!();
    }
    println!("\nAt the reproduction's scale single-chip totals are ~1k cycles, below");
    println!("the off-chip latency floor (Fig. 5 right), so crossing chips never pays:");
    println!("the paper's own \"fewer IPUs can produce marginal gains\" regime.");

    // Extrapolation to paper scale: the paper's sr15 has ~188x our fiber
    // count; comp scales linearly with design size while the measured
    // cut/sync terms are taken from our compilations unchanged.
    const SCALE: f64 = 188.0;
    println!("\nExtrapolated to paper-size designs (comp x{SCALE:.0}, measured comm/sync):");
    print!("{:>6}", "IPUs");
    for b in &benches {
        print!(" {:>10}", b.name());
    }
    println!();
    let base_x: Vec<f64> = circuits
        .iter()
        .map(|c| {
            let p = ipu_point(c, TILE_SWEEP[0], &ipu);
            1.0 / (p.timings.comp * SCALE + p.timings.comm + p.timings.sync)
        })
        .collect();
    for (i, &tiles) in TILE_SWEEP.iter().enumerate() {
        print!("{:>6}", i + 1);
        for (c, b) in circuits.iter().zip(&base_x) {
            let p = ipu_point(c, tiles, &ipu);
            let rate = 1.0 / (p.timings.comp * SCALE + p.timings.comm + p.timings.sync);
            print!(" {:>10.2}", rate / b);
        }
        println!();
    }
    println!("\nShape check: at paper scale, 4 IPUs yield positive but sublinear");
    println!("gains (the paper reports +60% for lr9 at 4 chips).");

    // Measured engine: the same chip-count sweep executed for real at
    // host scale. One worker group per chip; the off-chip column is the
    // timed flush of the per-chip-pair aggregate mailboxes.
    let design = Benchmark::Sr(if quick() { 3 } else { 4 });
    let circuit = design.build();
    let per_chip = 8u32;
    let threads = 4usize;
    let cycles: u64 = if quick() { 200 } else { 500 };
    let chip_sweep: &[u32] = if quick() { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "\nMeasured engine ({}, {per_chip} tiles/chip, {threads} threads):",
        design.name(),
    );
    println!(
        "{:>6} {:>6} {:>11} {:>12} {:>11} {:>12} {:>12} {:>9}",
        "chips",
        "tiles",
        "offchipKiB",
        "model(mcyc)",
        "comp/cyc",
        "onchip/cyc",
        "offchip/cyc",
        "kcyc/s"
    );
    // The last sweep point's compilation and timings double as the
    // single-lane baseline of the gang comparison below.
    let mut last_point = None;
    let mut records = Vec::new();
    for &chips in chip_sweep {
        let mut cfg = PartitionConfig::with_tiles(per_chip * chips);
        cfg.tiles_per_chip = per_chip;
        let comp = compile(&circuit, &cfg).expect("host-scale compile");
        let mut sim = BspSimulator::new(&circuit, &comp.partition, threads);
        sim.run(50); // warm the persistent pool
        let ph = sim.run_timed(cycles);
        records.push(
            BenchRecord::from_phases(
                "fig10",
                design.name(),
                "bsp",
                false,
                comp.partition.chips,
                comp.partition.tiles_used(),
                1,
                threads as u32,
                cycles,
                cycles as f64 / ph.total_s,
                &ph,
            )
            .with_metrics(sim.metrics_snapshot()),
        );
        // Modeled side: the cross-chip volume and the model's link
        // throughput term for it, in IPU cycles per RTL cycle (the
        // fixed off-chip latency is the model's separate floor).
        let model_volume_cycles = comp.plan.offchip_total_bytes as f64 * ipu.offchip_contention
            / ipu.offchip_bytes_per_cycle;
        println!(
            "{:>6} {:>6} {:>11.2} {:>12.1} {:>9.2}µs {:>10.2}µs {:>10.2}µs {:>9.1}",
            chips,
            comp.partition.tiles_used(),
            comp.plan.offchip_total_bytes as f64 / 1024.0,
            model_volume_cycles,
            ph.compute_s * 1e6 / cycles as f64,
            ph.exchange_s * 1e6 / cycles as f64,
            ph.offchip_s * 1e6 / cycles as f64,
            cycles as f64 / ph.total_s / 1e3,
        );
        last_point = Some((chips, comp, ph));
    }
    println!("\nShape check: offchip/cyc is host time measured on this machine: the");
    println!("copies of each tile's cross-chip words into the chip-pair mailboxes.");
    println!("It is zero at 1 chip and grows with the cross-chip volume once");
    println!("chips > 1. offchipKiB and model(mcyc) are the modeled IPU volume and");
    println!("its link throughput term (IPU cycles per RTL cycle); they are printed");
    println!("for comparison and never converted into host time.");

    // Gang throughput next to the single-lane engine: the sweep's last
    // point (compilation and timed single-lane phases) is reused as the
    // baseline on the same partition. Aggregate lane-cycles/sec beats
    // the single-lane engine because each dispatched step amortizes
    // over all lanes.
    let (chips, comp, ph1) = last_point.expect("non-empty chip sweep");
    let lanes = 4usize;
    let mut gang = GangSimulator::new(&circuit, &comp.partition, threads, lanes);
    gang.run(50);
    let phl = gang.run_timed(cycles);
    println!(
        "\nGang engine at {chips} chips ({lanes} lanes, off-chip bytes x{lanes} = {:.2} KiB):",
        comp.plan
            .scaled_by_lanes(lanes as u32, false)
            .offchip_total_bytes as f64
            / 1024.0,
    );
    println!(
        "  single-lane {:>9.1} lane-kcyc/s | gang {:>9.1} lane-kcyc/s ({:.2}x aggregate)",
        ph1.lane_cycles_per_s() / 1e3,
        phl.lane_cycles_per_s() / 1e3,
        phl.lane_cycles_per_s() / ph1.lane_cycles_per_s().max(1e-12),
    );
    records.push(
        BenchRecord::from_phases(
            "fig10",
            design.name(),
            "gang",
            false,
            chips,
            comp.partition.tiles_used(),
            lanes as u32,
            threads as u32,
            cycles,
            cycles as f64 / phl.total_s,
            &phl,
        )
        .with_metrics(gang.metrics_snapshot()),
    );
    match write_bench_json("fig10", &records) {
        Ok(path) => println!("\nwrote {} ({} records)", path.display(), records.len()),
        Err(e) => println!("\ncould not write BENCH_fig10.json: {e}"),
    }
}
