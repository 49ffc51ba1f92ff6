//! The engine's worker count and fold move speed, never results: one
//! barrier per cycle stays bit-exact under heavy cross-tile array
//! traffic, the worker-count probe switches folds mid-run without a
//! trace in the state, and timed or traced runs never probe.

use parendi_core::{compile, Compilation, PartitionConfig};
use parendi_rtl::{ArrayId, Builder, Circuit, RegId};
use parendi_sim::{BspSimulator, Simulator, TraceConfig, TransportChoice};

/// Twelve mixing registers that each write a shared array through their
/// own port and read it back at another register's address into an
/// accumulator, so every cycle moves port records between tiles and
/// any stale or early exchange shows up in the accumulators for good.
fn array_mesh() -> Circuit {
    const N: usize = 12;
    let mut b = Builder::new("array_mesh");
    let mem = b.array("m", 32, 32);
    let regs: Vec<_> = (0..N)
        .map(|i| b.reg(format!("r{i}"), 32, 0x9e37_79b9 ^ (i as u64 * 0x85eb_ca6b)))
        .collect();
    let accs: Vec<_> = (0..N)
        .map(|i| b.reg(format!("acc{i}"), 32, i as u64))
        .collect();
    for i in 0..N {
        let q = regs[i].q();
        let addr = b.slice(q, 4, 0);
        let data = b.xor(q, accs[i].q());
        let en = b.bit(q, 7);
        b.array_write(mem, addr, data, en);
        let other = regs[(i + 5) % N].q();
        let raddr = b.slice(other, 9, 5);
        let rd = b.array_read(mem, raddr);
        let acc = b.add(accs[i].q(), rd);
        b.connect(accs[i], acc);
        // xorshift-style step mixed with a neighbour's accumulator.
        let s13 = b.lit(8, 13);
        let s17 = b.lit(8, 17);
        let x = b.shl(q, s13);
        let x = b.xor(q, x);
        let y = b.lshr(x, s17);
        let x = b.xor(x, y);
        let next = b.add(x, accs[(i + 1) % N].q());
        b.connect(regs[i], next);
    }
    b.finish().expect("array mesh builds")
}

fn two_chip(c: &Circuit, tiles: u32) -> Compilation {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    cfg.tiles_per_chip = tiles.div_ceil(2);
    compile(c, &cfg).expect("compiles")
}

fn assert_same(bsp: &BspSimulator<'_>, reference: &Simulator<'_>, c: &Circuit, what: &str) {
    for i in 0..c.regs.len() {
        let id = RegId(i as u32);
        assert_eq!(
            bsp.reg_value(id),
            reference.reg_value(id),
            "{what}: reg {}",
            c.regs[i].name
        );
    }
    for (a, arr) in c.arrays.iter().enumerate() {
        for idx in 0..arr.depth {
            let id = ArrayId(a as u32);
            assert_eq!(
                bsp.array_value(id, idx),
                reference.array_value(id, idx),
                "{what}: {}[{idx}]",
                arr.name
            );
        }
    }
}

/// Eight pinned workers, cross-tile array writes every cycle, one
/// barrier per cycle: checked against the interpreter after every one
/// of 2048 cycles, then again over 2048 more cycles run back to back in
/// uneven chunks (where a missing second barrier would race).
#[test]
fn one_barrier_stress_with_cross_tile_array_writes() {
    let c = array_mesh();
    let comp = two_chip(&c, 16);
    assert!(comp.partition.tiles_used() >= 8, "needs a tile per worker");

    let mut reference = Simulator::new(&c);
    let mut bsp = BspSimulator::new(&c, &comp.partition, 8);
    bsp.pin_workers(8);
    assert_eq!(bsp.workers(), 8);
    for cycle in 1..=2048u64 {
        reference.step_n(1);
        bsp.run(1);
        assert_same(&bsp, &reference, &c, &format!("cycle {cycle}"));
    }

    let mut reference = Simulator::new(&c);
    let mut bsp = BspSimulator::new(&c, &comp.partition, 8);
    bsp.pin_workers(8);
    let chunks = [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];
    let mut done = 0u64;
    for chunk in chunks.iter().cycle() {
        reference.step_n(*chunk);
        bsp.run(*chunk);
        done += chunk;
        assert_same(&bsp, &reference, &c, &format!("after {done} cycles"));
        if done >= 2048 {
            break;
        }
    }
}

/// An unpinned engine (cap 4) probes its worker count on its first
/// untimed runs; runs of 1/7/64/1000 cycles make the probe's slices
/// span run boundaries and switch folds inside runs. State matches the
/// interpreter at every chunk boundary, before, during and after.
#[test]
fn unpinned_probe_switches_folds_bit_identically() {
    let c = array_mesh();
    let comp = two_chip(&c, 8);
    let tiles = comp.partition.tiles_used() as usize;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let top = 4.min(tiles).min(cores);

    let mut reference = Simulator::new(&c);
    let mut bsp = BspSimulator::new(&c, &comp.partition, 4);
    assert_eq!(bsp.workers(), top, "before the probe: the top candidate");
    let mut done = 0u64;
    for _ in 0..40 {
        for chunk in [1u64, 7, 64, 1000] {
            reference.step_n(chunk);
            bsp.run(chunk);
            done += chunk;
            assert_same(&bsp, &reference, &c, &format!("after {done} cycles"));
            if done == 1 {
                assert!(bsp.worker_probe().is_empty(), "no probe ends in one cycle");
            }
        }
        if top == 1 || !bsp.worker_probe().is_empty() {
            break;
        }
    }
    if top > 1 {
        let probe = bsp.worker_probe();
        assert!(!probe.is_empty(), "the probe finished");
        assert_eq!(probe[0].0, 1);
        assert_eq!(probe.last().map(|p| p.0), Some(top));
        assert!(probe.iter().all(|&(_, ns)| ns.is_finite() && ns > 0.0));
        assert!(probe.iter().any(|&(w, _)| w == bsp.workers()));
    } else {
        assert!(bsp.worker_probe().is_empty());
    }
    // The settled fold keeps matching.
    reference.step_n(500);
    bsp.run(500);
    assert_same(&bsp, &reference, &c, "after the probe");
}

/// Timed runs and traced engines never probe: they keep the top
/// candidate until something settles the count.
#[test]
fn timed_and_traced_runs_never_probe() {
    let c = array_mesh();
    let comp = two_chip(&c, 8);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let top = 2.min(cores);

    let mut timed = BspSimulator::new(&c, &comp.partition, 2);
    for _ in 0..20 {
        timed.run_timed(500);
    }
    assert_eq!(timed.workers(), top);
    assert!(timed.worker_probe().is_empty());

    let mut traced = BspSimulator::with_trace(
        &c,
        &comp.partition,
        2,
        TransportChoice::InProcess,
        TraceConfig::phase(),
    );
    for _ in 0..20 {
        traced.run(500);
    }
    assert_eq!(traced.workers(), top);
    assert!(traced.worker_probe().is_empty());

    // Pinning past the cap (and the host's cores) is honoured.
    timed.pin_workers(6);
    assert_eq!(timed.workers(), 6);
    let mut reference = Simulator::new(&c);
    reference.step_n(timed.cycle() + 300);
    timed.run(300);
    assert_same(&timed, &reference, &c, "pinned past the cap");
}
