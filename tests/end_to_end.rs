//! End-to-end integration: every benchmark design flows through the full
//! stack — build → fiber extraction → 4-stage compile → parallel BSP
//! execution bit-identical to the reference interpreter.

use parendi::core::{compile, PartitionConfig};
use parendi::designs::Benchmark;
use parendi::rtl::RegId;
use parendi::sim::{BspSimulator, Simulator};

fn check_bench(bench: Benchmark, tiles: u32, threads: usize, cycles: u64) {
    check_bench_cfg(bench, PartitionConfig::with_tiles(tiles), threads, cycles);
}

fn check_bench_cfg(bench: Benchmark, cfg: PartitionConfig, threads: usize, cycles: u64) {
    let circuit = bench.build();
    let comp = compile(&circuit, &cfg)
        .unwrap_or_else(|e| panic!("{} fails to compile: {e}", bench.name()));
    // Fiber coverage: every fiber lands on exactly one tile.
    let covered: usize = comp
        .partition
        .processes
        .iter()
        .map(|p| p.fibers.len())
        .sum();
    assert_eq!(
        covered,
        comp.fibers.len(),
        "{}: fibers lost in partitioning",
        bench.name()
    );

    let mut reference = Simulator::new(&circuit);
    let mut bsp = BspSimulator::new(&circuit, &comp.partition, threads);
    bsp.pin_workers(threads);
    reference.step_n(cycles);
    bsp.run(cycles);
    for i in 0..circuit.regs.len() {
        assert_eq!(
            bsp.reg_value(RegId(i as u32)),
            reference.reg_value(RegId(i as u32)),
            "{}: register {} ({}) diverged",
            bench.name(),
            i,
            circuit.regs[i].name
        );
    }
    for (ai, a) in circuit.arrays.iter().enumerate() {
        for idx in 0..a.depth.min(64) {
            assert_eq!(
                bsp.array_value(parendi::rtl::ArrayId(ai as u32), idx),
                reference.array_value(parendi::rtl::ArrayId(ai as u32), idx),
                "{}: array {}[{}] diverged",
                bench.name(),
                a.name,
                idx
            );
        }
    }
}

#[test]
fn pico_end_to_end() {
    check_bench(Benchmark::Pico, 4, 2, 300);
}

#[test]
fn rocket_end_to_end() {
    check_bench(Benchmark::Rocket, 8, 3, 300);
}

#[test]
fn bitcoin_end_to_end() {
    check_bench(Benchmark::Bitcoin, 96, 4, 150);
}

#[test]
fn mc_end_to_end() {
    check_bench(Benchmark::Mc, 32, 4, 200);
}

#[test]
fn vta_end_to_end() {
    check_bench(Benchmark::Vta, 64, 4, 120);
}

#[test]
fn mesh_sr_end_to_end() {
    check_bench(Benchmark::Sr(3), 48, 4, 150);
}

#[test]
fn mesh_lr_end_to_end() {
    check_bench(Benchmark::Lr(2), 48, 4, 120);
}

#[test]
fn prng_end_to_end() {
    check_bench(Benchmark::Prng(64), 64, 4, 500);
}

/// The multi-chip engine (chip-group workers, per-chip-pair aggregate
/// mailboxes, off-chip flush sub-phase) must stay cycle-equivalent to
/// the reference on the designs corpus — the acceptance bar for making
/// chips real in execution, not just in the cost model.
#[test]
fn multi_chip_designs_corpus_end_to_end() {
    for (bench, tiles, per_chip, threads) in [
        (Benchmark::Pico, 4u32, 2u32, 2usize),
        (Benchmark::Mc, 16, 8, 4),
        (Benchmark::Sr(3), 24, 12, 4),
        (Benchmark::Prng(32), 16, 4, 4),
    ] {
        let mut cfg = PartitionConfig::with_tiles(tiles);
        cfg.tiles_per_chip = per_chip;
        assert!(cfg.chips() >= 2, "{}: sweep must span chips", bench.name());
        check_bench_cfg(bench, cfg, threads, 120);
    }
}
