//! Per-lane early exit: a retired lane's architectural state must
//! freeze bit-exactly while the surviving lanes keep matching their
//! references — and the gang must get *faster* when most lanes retire,
//! since every dispatched instruction sweeps fewer lanes.

mod common;

use common::{assert_layers_add_up, random_circuit_io};
use parendi_core::{compile, PartitionConfig};
use parendi_rtl::bits::Bits;
use parendi_rtl::{Builder, RegId};
use parendi_sim::{GangSimulator, Simulator, StimulusSet};

/// A deterministic per-lane stimulus: every input of every lane is
/// re-driven on a lane-dependent schedule so lanes diverge immediately.
fn lane_stim(circuit: &parendi_rtl::Circuit, lanes: u32, cycles: u64) -> StimulusSet {
    let mut stim = StimulusSet::new(lanes);
    for c in 0..cycles {
        for l in 0..lanes {
            for (i, d) in circuit.inputs.iter().enumerate() {
                if c == 0 || (c + l as u64 + i as u64).is_multiple_of(3) {
                    let v = c
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((l as u64) << 17 | i as u64);
                    stim.drive(c, l, &d.name, Bits::from_u64(d.width, v));
                }
            }
        }
    }
    stim
}

/// Replays lane `lane` of `stim` against a fresh reference for `cycles`.
fn reference_lane<'c>(
    circuit: &'c parendi_rtl::Circuit,
    stim: &StimulusSet,
    lane: u32,
    cycles: u64,
) -> Simulator<'c> {
    let mut sim = Simulator::new(circuit);
    for c in 0..cycles {
        stim.apply_lane(lane, c, &mut sim);
        sim.step();
    }
    sim
}

/// Retiring a lane freezes its registers and arrays at the retirement
/// cycle, while every surviving lane stays bit-identical to its
/// reference through the rest of the run.
#[test]
fn finished_lane_freezes_and_survivors_keep_matching() {
    let c = random_circuit_io(21, 10, 50, 3);
    let mut cfg = PartitionConfig::with_tiles(8);
    cfg.tiles_per_chip = 4; // multi-chip: the off-chip flush skips retired lanes too
    let comp = compile(&c, &cfg).expect("compiles");
    let lanes = 4usize;
    let stim = lane_stim(&c, lanes as u32, 70);
    let mut gang = GangSimulator::new(&c, &comp.partition, 4, lanes);
    gang.pin_workers(4);
    assert_eq!(gang.active_lanes(), lanes);

    gang.run_stimulus(20, &stim);
    // Lane 1 reaches its verdict at cycle 20: retire it.
    gang.finish_lane(1);
    assert!(!gang.lane_is_active(1));
    assert!(gang.lane_is_active(0));
    assert_eq!(gang.active_lanes(), lanes - 1);
    let frozen: Vec<Bits> = (0..c.regs.len())
        .map(|i| gang.reg_value_lane(RegId(i as u32), 1))
        .collect();
    let frozen_mem: Vec<Bits> = (0..c.arrays[0].depth)
        .map(|i| gang.array_value_lane(parendi_rtl::ArrayId(0), i, 1))
        .collect();

    // Run an *odd* number of cycles first: a retired lane's mailbox
    // epochs stop alternating, so output peeks must replay at the
    // freeze parity, not the live one.
    gang.run_stimulus(23, &stim);
    let ref20 = reference_lane(&c, &stim, 1, 20);
    for o in &c.outputs {
        assert_eq!(
            gang.peek_output_lane(&o.name, 1).expect("output exists"),
            ref20.output(&o.name).expect("output exists"),
            "retired lane output {} not frozen at odd parity",
            o.name
        );
    }
    gang.run_stimulus(27, &stim);
    assert_eq!(gang.cycle(), 70);

    // The retired lane froze exactly at its cycle-20 state (which the
    // reference reproduces by stopping there).
    for (i, expect) in frozen.iter().enumerate() {
        assert_eq!(
            &gang.reg_value_lane(RegId(i as u32), 1),
            expect,
            "retired lane reg {i} moved after finish_lane"
        );
        assert_eq!(
            expect,
            &ref20.reg_value(RegId(i as u32)),
            "frozen reg {i} is not the cycle-20 state"
        );
    }
    for idx in 0..c.arrays[0].depth {
        assert_eq!(
            gang.array_value_lane(parendi_rtl::ArrayId(0), idx, 1),
            frozen_mem[idx as usize],
            "retired lane mem[{idx}] moved after finish_lane"
        );
    }

    // Survivors ran the full 70 cycles bit-exactly.
    for lane in [0usize, 2, 3] {
        let reference = reference_lane(&c, &stim, lane as u32, 70);
        for i in 0..c.regs.len() {
            assert_eq!(
                gang.reg_value_lane(RegId(i as u32), lane),
                reference.reg_value(RegId(i as u32)),
                "surviving lane {lane}: reg {i} diverged"
            );
        }
        for idx in 0..c.arrays[0].depth {
            assert_eq!(
                gang.array_value_lane(parendi_rtl::ArrayId(0), idx, lane),
                reference.array_value(parendi_rtl::ArrayId(0), idx),
                "surviving lane {lane}: mem[{idx}] diverged"
            );
        }
    }

    // Retiring again is a no-op; retiring the rest leaves one lane.
    gang.finish_lane(1);
    gang.finish_lane(0);
    gang.finish_lane(2);
    assert_eq!(gang.active_lanes(), 1);
    // Timed runs report the *active* count so aggregate throughput
    // stays honest.
    let ph = gang.run_timed(5);
    assert_eq!(ph.lanes, 1);
}

/// A compute-heavy chain circuit: enough per-cycle work that lane
/// count dominates the run time.
fn mul_chain(regs: usize, depth: usize) -> parendi_rtl::Circuit {
    let mut b = Builder::new("chain");
    let rs: Vec<_> = (0..regs)
        .map(|i| b.reg(format!("r{i}"), 32, i as u64))
        .collect();
    for i in 0..regs {
        let mut v = rs[(i + 1) % regs].q();
        for k in 0..depth {
            let kk = b.lit(32, 0x9E37 + k as u64);
            let m = b.mul(v, kk);
            v = b.xor(m, rs[i].q());
        }
        b.connect(rs[i], v);
    }
    b.finish().unwrap()
}

/// Retiring almost every lane must speed the gang up: one surviving
/// lane sweeps 1/32nd of the state per dispatch. Wall-clock comparison
/// with best-of-N to shrug off scheduler noise.
#[test]
fn early_exit_raises_throughput() {
    let c = mul_chain(24, 12);
    let comp = compile(&c, &PartitionConfig::with_tiles(4)).expect("compiles");
    let lanes = 32usize;
    let cycles = 400u64;
    let mut gang = GangSimulator::new(&c, &comp.partition, 1, lanes);
    gang.pin_workers(1);
    gang.run(50); // warm
    let t_full = (0..3).map(|_| gang.run(cycles)).fold(f64::MAX, f64::min);
    for l in 1..lanes {
        gang.finish_lane(l);
    }
    assert_eq!(gang.active_lanes(), 1);
    let t_one = (0..3).map(|_| gang.run(cycles)).fold(f64::MAX, f64::min);
    assert!(
        t_one < t_full,
        "1 active lane ({t_one:.6}s) must beat 32 active lanes ({t_full:.6}s)"
    );
    // And the reported aggregate accounts only the survivor.
    let ph = gang.run_timed(50);
    assert_eq!(ph.lanes, 1);
    assert!(ph.lane_cycles_per_s() > 0.0);
}

/// Gang timed runs now report per-tile phase histograms (they were
/// empty on the old gang engine): one entry per tile, with nonzero
/// compute somewhere. With one worker, the run's `compute_s` and
/// `offchip_s` each equal the sum of the matching per-tile column,
/// within 1 ns per tile.
#[test]
fn gang_timed_runs_populate_per_tile_histograms() {
    let c = random_circuit_io(9, 10, 50, 2);
    let mut cfg = PartitionConfig::with_tiles(6);
    cfg.tiles_per_chip = 3;
    let comp = compile(&c, &cfg).expect("compiles");
    for threads in [1usize, 3] {
        let mut gang = GangSimulator::new(&c, &comp.partition, threads, 4);
        gang.pin_workers(threads);
        gang.run(10);
        let ph = gang.run_timed(30);
        assert_eq!(
            ph.per_tile.len(),
            comp.partition.tiles_used() as usize,
            "one histogram entry per tile ({threads} threads)"
        );
        assert!(
            ph.per_tile.iter().any(|t| t.compute_s > 0.0),
            "some tile computed for a nonzero time"
        );
        if threads == 1 {
            assert_layers_add_up(&ph);
        }
    }
}
