//! Exact off-chip accounting over the designs corpus. Every cycle each
//! ordered chip pair moves one whole aggregate mailbox, so after `n`
//! cycles `offchip_bytes_sent` must equal `n × 8 × Σ words` over the
//! routing's off-chip channels and `frames_sent` must equal `n ×` the
//! number of distinct chip pairs — for plain runs and for runs that
//! auto-checkpointing splits into chunks, through the direct accessor
//! and the metrics registry alike. Checked at 2 and 4 chips.

use parendi_core::routing::ChannelClass;
use parendi_core::{compile, PartitionConfig};
use parendi_designs::Benchmark;
use parendi_sim::BspSimulator;
use std::collections::BTreeSet;

#[test]
fn corpus_designs_credit_the_static_pair_layout() {
    for (bench, per_chip, chips, cycles) in [
        (Benchmark::Pico, 6u32, 2u32, 40u64),
        (Benchmark::Sr(3), 5, 2, 30),
        (Benchmark::Pico, 3, 4, 40),
        (Benchmark::Sr(3), 3, 4, 30),
    ] {
        let c = bench.build();
        let mut cfg = PartitionConfig::with_tiles(per_chip * chips);
        cfg.tiles_per_chip = per_chip;
        let comp = compile(&c, &cfg).expect("corpus design compiles");
        let name = bench.name();
        assert_eq!(
            comp.partition.chips, chips,
            "{name} must span {chips} chips at {per_chip} tiles/chip"
        );
        let routing = &comp.routing;
        let offchip = routing
            .channels
            .iter()
            .filter(|ch| ch.class == ChannelClass::OffChip);
        let words: u64 = offchip.clone().map(|ch| ch.words() as u64).sum();
        let pairs: BTreeSet<(u32, u32)> = offchip
            .map(|ch| {
                (
                    routing.tile_chip[ch.from as usize],
                    routing.tile_chip[ch.to as usize],
                )
            })
            .collect();
        assert!(words > 0, "{name} at {chips} chips must cross chips");

        let ckpt = std::env::temp_dir().join(format!(
            "parendi-bytes-{}-{name}-{chips}.snap",
            std::process::id()
        ));
        for chunked in [false, true] {
            let mut sim = BspSimulator::new(&c, &comp.partition, 3);
            if chunked {
                // 7 does not divide either horizon, so the run ends on
                // a partial chunk.
                sim.set_auto_checkpoint(&ckpt, 7);
            }
            sim.run(cycles);
            let snap = sim.metrics_snapshot();
            let tag = format!("{name} at {chips} chips (chunked: {chunked})");
            assert_eq!(sim.offchip_bytes_sent(), cycles * 8 * words, "{tag}: bytes");
            assert_eq!(
                snap.get("offchip_bytes_sent"),
                Some(cycles * 8 * words),
                "{tag}: metrics bytes"
            );
            assert_eq!(
                snap.get("frames_sent"),
                Some(cycles * pairs.len() as u64),
                "{tag}: one frame per chip pair per cycle"
            );
        }
        let _ = std::fs::remove_file(&ckpt);
    }
}
