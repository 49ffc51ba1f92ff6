//! The off-chip exchange contract: the per-chip-pair aggregate
//! mailboxes must carry cross-chip values so that the engine stays
//! bit-identical to the reference interpreter, for both multi-chip
//! partitioning strategies, at 1/2/4 chips, across input changes
//! mid-run, uneven run chunks, and gang lanes. There is one off-chip
//! path (producing tiles write the aggregates directly); the test
//! names predate the removal of the alternative backends.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_rtl::RegId;
use parendi_sim::{BspSimulator, GangSimulator, Simulator};

/// Drives a 3-input random circuit partitioned over `chips` chips
/// through `schedule` — `(poke base, cycles)` chunks, inputs re-poked
/// before each chunk so input changes cross chips mid-run — and
/// asserts identical registers, arrays, and outputs against the
/// reference. Returns the off-chip byte count.
fn check_chip_count(
    seed: u64,
    chips: u32,
    mc: MultiChipStrategy,
    threads: usize,
    schedule: &[(u64, u64)],
) -> u64 {
    let c = random_circuit_io(seed, 12, 60, 3);
    let mut cfg = PartitionConfig::with_tiles(chips * 2);
    cfg.tiles_per_chip = 2;
    cfg.multi_chip = mc;
    let comp = compile(&c, &cfg).expect("compiles");
    assert_eq!(
        comp.partition.chips, chips,
        "partition must span {chips} chips"
    );
    let mut reference = Simulator::new(&c);
    let mut bsp = BspSimulator::new(&c, &comp.partition, threads);
    bsp.pin_workers(threads);
    for &(base, cycles) in schedule {
        for i in 0..3 {
            let name = format!("in{i}");
            reference.poke(&name, base.wrapping_add(i as u64));
            bsp.poke(&name, base.wrapping_add(i as u64));
        }
        reference.step_n(cycles);
        bsp.run(cycles);
    }
    let tag = format!("seed {seed} {mc:?} {chips} chips x{threads}");
    let total: u64 = schedule.iter().map(|&(_, n)| n).sum();
    assert_eq!(bsp.cycle(), total, "{tag}: cycle count");
    for i in 0..c.regs.len() {
        assert_eq!(
            bsp.reg_value(RegId(i as u32)),
            reference.reg_value(RegId(i as u32)),
            "{tag}: reg {i} ({})",
            c.regs[i].name,
        );
    }
    for (ai, a) in c.arrays.iter().enumerate() {
        for idx in 0..a.depth {
            assert_eq!(
                bsp.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                "{tag}: array {}[{idx}]",
                a.name,
            );
        }
    }
    for o in &c.outputs {
        assert_eq!(
            bsp.peek_output(&o.name).expect("engine output"),
            reference.output(&o.name).expect("reference output"),
            "{tag}: output {}",
            o.name,
        );
    }
    bsp.offchip_bytes_sent()
}

/// 1/2/4 chips under both fiber-distribution strategies, with inputs
/// re-poked between two runs.
#[test]
fn all_backends_match_the_reference_across_chip_counts() {
    for seed in [11u64, 47] {
        for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
            for chips in [1u32, 2, 4] {
                let bytes = check_chip_count(seed, chips, mc, 3, &[(5, 30), (0xdead_beef, 21)]);
                if chips == 1 {
                    assert_eq!(bytes, 0, "no off-chip traffic on one chip");
                } else {
                    assert!(bytes > 0, "multi-chip runs must move bytes");
                }
            }
        }
    }
}

/// Uneven run chunks: the double-buffered chip-pair aggregates
/// alternate parity per cycle, so a chunk boundary must not
/// desynchronize them.
#[test]
fn staged_backends_survive_chunked_runs() {
    let chunks = [(9, 1), (9, 2), (1, 1), (1, 61), (9, 64)];
    for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
        check_chip_count(23, 2, mc, 2, &chunks);
    }
}

/// The gang engine shares the off-chip path: a 5-lane multi-chip run
/// must be bit-exact per lane against per-lane reference interpreters.
#[test]
fn gang_lanes_match_under_every_backend() {
    let c = random_circuit_io(31, 8, 40, 2);
    let mut cfg = PartitionConfig::with_tiles(4);
    cfg.tiles_per_chip = 2;
    let comp = compile(&c, &cfg).expect("compiles");
    assert!(comp.partition.chips >= 2);
    let lanes = 5usize;
    let cycles = 25u64;
    let mut refs: Vec<Simulator> = (0..lanes).map(|_| Simulator::new(&c)).collect();
    for (l, r) in refs.iter_mut().enumerate() {
        r.poke("in0", 3 + l as u64);
        r.poke("in1", 77u64.wrapping_mul(l as u64 + 1));
        r.step_n(cycles);
    }
    let mut gang = GangSimulator::new(&c, &comp.partition, 2, lanes);
    gang.pin_workers(2);
    for l in 0..lanes {
        gang.poke_lane("in0", l, 3 + l as u64);
        gang.poke_lane("in1", l, 77u64.wrapping_mul(l as u64 + 1));
    }
    gang.run(cycles);
    assert!(gang.offchip_bytes_sent() > 0, "multi-chip gang moves bytes");
    for (l, r) in refs.iter().enumerate() {
        for i in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), l),
                r.reg_value(RegId(i as u32)),
                "lane {l} reg {i} diverged",
            );
        }
    }
}
