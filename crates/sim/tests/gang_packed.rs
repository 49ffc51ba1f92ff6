//! Packed-lane correctness: the bit-packed gang engine must be
//! bit-identical to the lane-strided gang **and** to the reference
//! interpreter, in every lane, across partition shapes, thread counts,
//! and lane counts straddling the 64-lane word boundary. Packing may
//! change the layout of 1-bit state, never its semantics.

mod common;

use common::random_circuit_io;
use parendi_core::{compile, MultiChipStrategy, PartitionConfig};
use parendi_rtl::bits::Bits;
use parendi_rtl::{Circuit, RegId};
use parendi_sim::{GangSimulator, Simulator, StimulusSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random per-lane input trace (the same shape the
/// strided gang matrix uses): every input of every lane is re-driven
/// with ~30% probability per cycle, so lanes diverge immediately.
fn random_stim(seed: u64, circuit: &Circuit, lanes: u32, cycles: u64) -> StimulusSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9AC4_ED1E);
    let mut stim = StimulusSet::new(lanes);
    for c in 0..cycles {
        for l in 0..lanes {
            for d in &circuit.inputs {
                if c == 0 || rng.random_bool(0.3) {
                    stim.drive(c, l, &d.name, Bits::from_u64(d.width, rng.random::<u64>()));
                }
            }
        }
    }
    stim
}

/// Asserts every architectural bit of `lane` matches between a packed
/// gang and an oracle closure returning `(reg, array-element, output)`
/// values.
fn check_lane_vs_reference(
    circuit: &Circuit,
    packed: &GangSimulator<'_>,
    reference: &Simulator<'_>,
    lane: usize,
    what: &str,
) {
    for i in 0..circuit.regs.len() {
        assert_eq!(
            packed.reg_value_lane(RegId(i as u32), lane),
            reference.reg_value(RegId(i as u32)),
            "{what} lane {lane}: reg {} diverged",
            circuit.regs[i].name,
        );
    }
    for (ai, a) in circuit.arrays.iter().enumerate() {
        for idx in 0..a.depth {
            assert_eq!(
                packed.array_value_lane(parendi_rtl::ArrayId(ai as u32), idx, lane),
                reference.array_value(parendi_rtl::ArrayId(ai as u32), idx),
                "{what} lane {lane}: array {}[{idx}] diverged",
                a.name
            );
        }
    }
    for o in &circuit.outputs {
        assert_eq!(
            packed
                .peek_output_lane(&o.name, lane)
                .expect("output exists"),
            reference.output(&o.name).expect("output exists"),
            "{what} lane {lane}: output {} diverged",
            o.name
        );
    }
}

/// Runs a packed gang over `stim` and checks every lane against a fresh
/// per-lane reference interpreter replay.
fn check_packed_vs_interp(
    circuit: &Circuit,
    cfg: &PartitionConfig,
    threads: usize,
    lanes: usize,
    cycles: u64,
    seed: u64,
) {
    let comp = compile(circuit, cfg).expect("compiles");
    let stim = random_stim(seed, circuit, lanes as u32, cycles);
    let mut gang = GangSimulator::new_packed(circuit, &comp.partition, threads, lanes);
    gang.pin_workers(threads);
    assert!(gang.is_packed());
    gang.run_stimulus(cycles, &stim);
    for lane in 0..lanes {
        let mut reference = Simulator::new(circuit);
        for c in 0..cycles {
            stim.apply_lane(lane as u32, c, &mut reference);
            reference.step();
        }
        check_lane_vs_reference(
            circuit,
            &gang,
            &reference,
            lane,
            &format!("{threads}T x {lanes}L"),
        );
    }
}

/// Runs packed and strided gangs over the same stimulus and compares
/// them lane by lane (registers, arrays, outputs) — the cheap oracle
/// for big lane counts.
fn check_packed_vs_strided(
    circuit: &Circuit,
    cfg: &PartitionConfig,
    threads: usize,
    lanes: usize,
    cycles: u64,
    seed: u64,
) {
    let comp = compile(circuit, cfg).expect("compiles");
    let stim = random_stim(seed, circuit, lanes as u32, cycles);
    let mut packed = GangSimulator::new_packed(circuit, &comp.partition, threads, lanes);
    packed.pin_workers(threads);
    let mut strided = GangSimulator::new(circuit, &comp.partition, threads, lanes);
    strided.pin_workers(threads);
    packed.run_stimulus(cycles, &stim);
    strided.run_stimulus(cycles, &stim);
    for lane in 0..lanes {
        for i in 0..circuit.regs.len() {
            assert_eq!(
                packed.reg_value_lane(RegId(i as u32), lane),
                strided.reg_value_lane(RegId(i as u32), lane),
                "lane {lane}: reg {} packed != strided ({threads} threads x {lanes} lanes)",
                circuit.regs[i].name,
            );
        }
        for (ai, a) in circuit.arrays.iter().enumerate() {
            for idx in 0..a.depth {
                assert_eq!(
                    packed.array_value_lane(parendi_rtl::ArrayId(ai as u32), idx, lane),
                    strided.array_value_lane(parendi_rtl::ArrayId(ai as u32), idx, lane),
                    "lane {lane}: array {}[{idx}] packed != strided",
                    a.name
                );
            }
        }
        for o in &circuit.outputs {
            assert_eq!(
                packed.peek_output_lane(&o.name, lane),
                strided.peek_output_lane(&o.name, lane),
                "lane {lane}: output {} packed != strided",
                o.name
            );
        }
    }
}

/// The packed acceptance matrix against the reference interpreter:
/// Pre/Post multi-chip distribution × 1/2/4/8 threads × lane counts
/// straddling the packed word boundary (1, 63, 64, 65), per-lane
/// stimulus, array writes and output readback checked in every lane.
#[test]
fn gang_packed_matrix_matches_reference_per_lane() {
    let c = random_circuit_io(11, 10, 50, 4);
    for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4; // force real multi-chip paths
        cfg.multi_chip = mc;
        for &threads in &[1usize, 2, 4, 8] {
            for &lanes in &[1usize, 63, 64, 65] {
                check_packed_vs_interp(&c, &cfg, threads, lanes, 25, 11);
            }
        }
    }
}

/// 256 lanes — four packed words per 1-bit net — packed vs strided
/// bit-for-bit, across both multi-chip strategies.
#[test]
fn gang_packed_256_lanes_match_strided() {
    let c = random_circuit_io(23, 10, 50, 4);
    for mc in [MultiChipStrategy::Pre, MultiChipStrategy::Post] {
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4;
        cfg.multi_chip = mc;
        for &threads in &[1usize, 4, 8] {
            check_packed_vs_strided(&c, &cfg, threads, 256, 25, 23);
        }
    }
}

/// A second random topology per matrix cell at the word boundary — the
/// packed/strided split depends on where 1-bit registers land, so a
/// different seed exercises different pack/unpack boundaries.
#[test]
fn gang_packed_second_seed_matches_reference() {
    let c = random_circuit_io(23, 12, 60, 4);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4;
    for &threads in &[1usize, 4] {
        for &lanes in &[63usize, 64, 65] {
            check_packed_vs_interp(&c, &cfg, threads, lanes, 25, 29);
        }
    }
}

/// Early exit under packing: retiring lanes must freeze their packed
/// 1-bit registers, mailbox epochs, and outputs bit-exact while the
/// survivors keep advancing (the packed commits/sends blend through the
/// retire mask — this is the test that mask).
#[test]
fn gang_packed_early_exit_freezes_lanes() {
    let c = random_circuit_io(31, 10, 50, 4);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4;
    let comp = compile(&c, &cfg).expect("compiles");
    let lanes = 70usize; // straddles the word boundary
    let cycles = 30u64;
    let stim = random_stim(37, &c, lanes as u32, cycles);
    let mut gang = GangSimulator::new_packed(&c, &comp.partition, 4, lanes);
    gang.pin_workers(4);

    // Run halfway, snapshot two lanes, retire them, run the rest.
    let half = cycles / 2;
    gang.run_stimulus(half, &stim);
    let frozen = [3usize, 66];
    let snap: Vec<Vec<Bits>> = frozen
        .iter()
        .map(|&l| {
            (0..c.regs.len())
                .map(|i| gang.reg_value_lane(RegId(i as u32), l))
                .collect()
        })
        .collect();
    let snap_out: Vec<Vec<Option<Bits>>> = frozen
        .iter()
        .map(|&l| {
            c.outputs
                .iter()
                .map(|o| gang.peek_output_lane(&o.name, l))
                .collect()
        })
        .collect();
    for &l in &frozen {
        gang.finish_lane(l);
    }
    gang.run_stimulus(cycles - half, &stim);

    // Frozen lanes: bit-exact at their snapshot.
    for (k, &l) in frozen.iter().enumerate() {
        for (i, expect) in snap[k].iter().enumerate() {
            assert_eq!(
                &gang.reg_value_lane(RegId(i as u32), l),
                expect,
                "retired lane {l}: reg {} moved",
                c.regs[i].name
            );
        }
        for (oi, o) in c.outputs.iter().enumerate() {
            assert_eq!(
                gang.peek_output_lane(&o.name, l),
                snap_out[k][oi],
                "retired lane {l}: output {} moved",
                o.name
            );
        }
    }
    // Survivors: bit-exact against their full-trace reference.
    for lane in [0usize, 40, 69] {
        let mut reference = Simulator::new(&c);
        for cy in 0..cycles {
            stim.apply_lane(lane as u32, cy, &mut reference);
            reference.step();
        }
        check_lane_vs_reference(&c, &gang, &reference, lane, "survivor");
    }
}
