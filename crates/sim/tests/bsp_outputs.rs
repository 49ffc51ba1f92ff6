//! `peek_output` readback: the BSP engine's primary-output view must
//! match the reference interpreter's `output()` at every step — outputs
//! used to be computed then dropped by the engine. Mirrors the interp
//! output tests (counter, mux, array read) plus multi-tile/multi-chip
//! shapes where the output cone reads remote registers through
//! mailboxes.

mod common;

use common::random_circuit;
use parendi_core::{compile, PartitionConfig};
use parendi_rtl::Builder;
use parendi_sim::{BspSimulator, Simulator};

/// Compiles for `tiles` (forcing 2 chips) and checks every output
/// against the reference over `cycles`, probing after each chunk.
fn check_outputs(circuit: &parendi_rtl::Circuit, tiles: u32, threads: usize, chunks: &[u64]) {
    let mut cfg = PartitionConfig::with_tiles(tiles);
    cfg.tiles_per_chip = tiles.div_ceil(2).max(1);
    let comp = compile(circuit, &cfg).expect("compiles");
    let mut reference = Simulator::new(circuit);
    let mut bsp = BspSimulator::new(circuit, &comp.partition, threads);
    bsp.pin_workers(threads);
    for &chunk in chunks {
        reference.step_n(chunk);
        bsp.run(chunk);
        for o in &circuit.outputs {
            assert_eq!(
                bsp.peek_output(&o.name),
                reference.output(&o.name),
                "output {} diverged after {} cycles on {tiles} tiles / {threads} threads",
                o.name,
                bsp.cycle(),
            );
        }
    }
}

#[test]
fn counter_output_tracks_reference() {
    // Mirror of the interp counter test: an 8-bit counter wrapping.
    let mut b = Builder::new("counter");
    let r = b.reg("c", 8, 0);
    let k = b.lit(8, 5);
    let n = b.add(r.q(), k);
    b.connect(r, n);
    b.output("q", r.q());
    let c = b.finish().unwrap();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).unwrap();
    let mut bsp = BspSimulator::new(&c, &comp.partition, 1);
    bsp.pin_workers(1);
    assert_eq!(bsp.peek_output("q").unwrap().to_u64(), 0, "power-on state");
    bsp.run(1);
    assert_eq!(bsp.peek_output("q").unwrap().to_u64(), 5);
    bsp.run(50);
    assert_eq!(bsp.peek_output("q").unwrap().to_u64(), 255); // 51 steps × 5
    assert!(bsp.peek_output("nope").is_none(), "unknown name is None");
}

#[test]
fn mux_output_follows_input() {
    // Mirror of the interp mux test: output switches with a poked input.
    let mut b = Builder::new("mux");
    let sel = b.input("sel", 1);
    let a = b.lit(16, 0xaaaa);
    let bb = b.lit(16, 0xbbbb);
    let m = b.mux(sel, a, bb);
    b.output("o", m);
    // A register so the circuit has a fiber beyond the output's.
    let r = b.reg("r", 16, 0);
    let nx = b.add(r.q(), m);
    b.connect(r, nx);
    let c = b.finish().unwrap();
    let comp = compile(&c, &PartitionConfig::with_tiles(2)).unwrap();
    let mut reference = Simulator::new(&c);
    let mut bsp = BspSimulator::new(&c, &comp.partition, 2);
    bsp.pin_workers(2);
    for v in [0u64, 1, 1, 0] {
        reference.poke("sel", v);
        bsp.poke("sel", v);
        reference.step_n(1);
        bsp.run(1);
        let expect = if v == 1 { 0xaaaa } else { 0xbbbb };
        assert_eq!(bsp.peek_output("o").unwrap().to_u64(), expect);
        assert_eq!(bsp.peek_output("o"), reference.output("o"));
    }
}

#[test]
fn array_read_output_sees_exchanged_writes() {
    // Output reads an array another tile's port writes: the readback
    // must observe the differential exchange, like the interp array
    // test observes its own writes.
    let mut b = Builder::new("mem_out");
    let waddr = b.reg("waddr", 4, 0);
    let one = b.lit(4, 1);
    let winc = b.add(waddr.q(), one);
    b.connect(waddr, winc);
    let mem = b.array("m", 32, 16);
    let data = b.zext(waddr.q(), 32);
    let en = b.lit(1, 1);
    b.array_write(mem, waddr.q(), data, en);
    let probe = b.input("probe", 4);
    let rd = b.array_read(mem, probe);
    b.output("q", rd);
    // Extra reader fibers so the array has several holders.
    for i in 0..2 {
        let r = b.reg(format!("r{i}"), 32, 0);
        let idx = b.lit(4, i as u64);
        let v = b.array_read(mem, idx);
        let nx = b.add(v, r.q());
        b.connect(r, nx);
    }
    let c = b.finish().unwrap();
    let mut cfg = PartitionConfig::with_tiles(4);
    cfg.tiles_per_chip = 2; // writer and readers on separate chips
    let comp = compile(&c, &cfg).unwrap();
    let mut reference = Simulator::new(&c);
    let mut bsp = BspSimulator::new(&c, &comp.partition, 2);
    bsp.pin_workers(2);
    for probe in [0u64, 1, 3, 7] {
        reference.poke("probe", probe);
        bsp.poke("probe", probe);
        reference.step_n(3);
        bsp.run(3);
        assert_eq!(
            bsp.peek_output("q"),
            reference.output("q"),
            "probe {probe} after {} cycles",
            bsp.cycle()
        );
    }
}

#[test]
fn random_circuits_with_outputs_match() {
    // Random soups (the shared generator exposes every register plus a
    // mixed combinational cone as outputs) across tile, chip, and
    // thread shapes, probed at uneven chunk boundaries.
    for seed in [11u64, 29, 63] {
        let c = random_circuit(seed, 10, 50);
        assert!(!c.outputs.is_empty(), "generator must emit outputs");
        for &(tiles, threads) in &[(1u32, 1usize), (4, 2), (9, 4), (9, 8)] {
            check_outputs(&c, tiles, threads, &[1, 2, 37, 88]);
        }
    }
}
