//! The Graphcore IPU machine model.
//!
//! Substitutes for the M2000 the paper measures (§2, §4): 1472 tiles per
//! chip at 1.35 GHz, 624 KiB per-tile memory (≈200 KiB code + ≈400 KiB
//! data, §5.2–5.3), a hardware barrier costing a few hundred cycles
//! (§4.1), and two very different exchange regimes (§4.2):
//!
//! * **on-chip** — cost tracks the *per-tile* byte count `b`; the
//!   measured 7.7 TiB/s aggregate is far from saturation.
//! * **off-chip** — cost tracks the *total* volume `m×b` against the
//!   measured 107 GiB/s fabric, with contention growth near saturation.

use serde::{Deserialize, Serialize};

/// Parameters of an IPU system model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IpuConfig {
    /// Human-readable model name.
    pub name: String,
    /// Physical tiles per chip (1472 for GC200).
    pub tiles_per_chip: u32,
    /// Chips available (4 for an M2000).
    pub chips: u32,
    /// Tile clock in GHz.
    pub clock_ghz: f64,
    /// Total per-tile memory in bytes (624 KiB).
    pub tile_mem_bytes: u64,
    /// Portion of tile memory usable for code (≈200 KiB).
    pub code_bytes_per_tile: u64,
    /// Portion of tile memory usable for data (≈400 KiB).
    pub data_bytes_per_tile: u64,
    /// On-chip exchange throughput per tile, bytes per cycle.
    pub onchip_bytes_per_cycle: f64,
    /// Fixed on-chip exchange latency in cycles.
    pub onchip_latency: u64,
    /// Off-chip fabric throughput, bytes per cycle (aggregate).
    pub offchip_bytes_per_cycle: f64,
    /// Fixed off-chip exchange latency in cycles.
    pub offchip_latency: u64,
    /// Multiplier applied to off-chip transfer time (contention near
    /// saturation; the paper measures 82% utilization at the dark end of
    /// Fig. 5).
    pub offchip_contention: f64,
    /// Barrier base cost in cycles.
    pub barrier_base: u64,
    /// Barrier cost per log2(tiles) in cycles.
    pub barrier_log: f64,
    /// Extra barrier cost once a sync spans chips.
    pub barrier_cross_chip: u64,
}

impl IpuConfig {
    /// The M2000 of the paper's evaluation (GC200 chips at 1.35 GHz).
    pub fn m2000() -> Self {
        IpuConfig {
            name: "M2000".into(),
            tiles_per_chip: 1472,
            chips: 4,
            clock_ghz: 1.35,
            tile_mem_bytes: 624 << 10,
            code_bytes_per_tile: 200 << 10,
            data_bytes_per_tile: 400 << 10,
            // 7.7 TiB/s measured aggregate / 1472 tiles / 1.35 GHz ≈ 4.3 B/cyc.
            onchip_bytes_per_cycle: 4.3,
            onchip_latency: 64,
            // 107 GiB/s / 1.35 GHz ≈ 85 B/cyc for the whole fabric.
            offchip_bytes_per_cycle: 85.0,
            offchip_latency: 1800,
            offchip_contention: 1.5,
            barrier_base: 50,
            barrier_log: 25.0,
            barrier_cross_chip: 900,
        }
    }

    /// The BOW-2000 variant (same tiles, 1.85 GHz — paper footnote 8).
    pub fn bow2000() -> Self {
        IpuConfig {
            name: "BOW-2000".into(),
            clock_ghz: 1.85,
            ..Self::m2000()
        }
    }

    /// Total tiles across all chips.
    pub fn total_tiles(&self) -> u32 {
        self.tiles_per_chip * self.chips
    }

    /// Number of chips needed for `tiles`.
    pub fn chips_for(&self, tiles: u32) -> u32 {
        tiles.div_ceil(self.tiles_per_chip).max(1)
    }

    /// Cost in cycles of one hardware barrier across `tiles`.
    pub fn barrier_cycles(&self, tiles: u32) -> u64 {
        let tiles = tiles.max(1);
        let chips = self.chips_for(tiles);
        let log = (tiles as f64).log2().max(0.0);
        let mut c = self.barrier_base + (self.barrier_log * log) as u64;
        if chips > 1 {
            c += self.barrier_cross_chip * (chips as u64 - 1).min(3);
        }
        c
    }

    /// `t_sync` per simulated RTL cycle: two barriers (§3.2). The model
    /// keeps the paper's second barrier; the host engine needs only one,
    /// because its double-buffered mailboxes order the next compute.
    pub fn sync_cycles(&self, tiles: u32) -> u64 {
        2 * self.barrier_cycles(tiles)
    }

    /// On-chip exchange cycles given the worst per-tile byte count.
    ///
    /// Matches the left plot of Fig. 5: depends on `b`, not on `m`.
    pub fn onchip_exchange_cycles(&self, max_tile_bytes: u64) -> u64 {
        if max_tile_bytes == 0 {
            return 0;
        }
        self.onchip_latency + (max_tile_bytes as f64 / self.onchip_bytes_per_cycle).ceil() as u64
    }

    /// Off-chip exchange cycles given the total cross-chip volume.
    ///
    /// Matches the right plot of Fig. 5: depends on `m×b`, with a
    /// contention multiplier because the fabric runs near saturation.
    pub fn offchip_exchange_cycles(&self, total_bytes: u64) -> u64 {
        if total_bytes == 0 {
            return 0;
        }
        self.offchip_latency
            + (total_bytes as f64 * self.offchip_contention / self.offchip_bytes_per_cycle).ceil()
                as u64
    }

    /// Simulation rate in kHz for a per-RTL-cycle cost in tile cycles.
    pub fn rate_khz(&self, cycles_per_rtl_cycle: f64) -> f64 {
        if cycles_per_rtl_cycle <= 0.0 {
            return f64::INFINITY;
        }
        self.clock_ghz * 1e6 / cycles_per_rtl_cycle
    }
}

/// Per-RTL-cycle cost breakdown on the IPU, in tile cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IpuTimings {
    /// Computation: the straggler tile's cycles.
    pub comp: f64,
    /// Exchange (on- plus off-chip).
    pub comm: f64,
    /// Two barriers.
    pub sync: f64,
}

impl IpuTimings {
    /// Total cycles per simulated RTL cycle.
    pub fn total(&self) -> f64 {
        self.comp + self.comm + self.sync
    }

    /// Simulation rate under `cfg`.
    pub fn rate_khz(&self, cfg: &IpuConfig) -> f64 {
        cfg.rate_khz(self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_is_a_few_hundred_cycles() {
        let m = IpuConfig::m2000();
        let b1 = m.barrier_cycles(64);
        let b2 = m.barrier_cycles(1472);
        assert!((100..500).contains(&b1), "barrier@64 = {b1}");
        assert!(b2 > b1);
        assert!(b2 < 1000, "single-chip barrier stays in the hundreds: {b2}");
        // Crossing chips is much more expensive.
        assert!(m.barrier_cycles(2944) > b2 + 500);
    }

    #[test]
    fn onchip_cost_tracks_b_not_m() {
        let m = IpuConfig::m2000();
        let c_small = m.onchip_exchange_cycles(8);
        let c_big = m.onchip_exchange_cycles(512);
        assert!(c_big > c_small);
        // m (tile count) does not appear in the on-chip model at all.
    }

    #[test]
    fn offchip_cost_tracks_total_volume() {
        let m = IpuConfig::m2000();
        let c1 = m.offchip_exchange_cycles(64 * 64);
        let c2 = m.offchip_exchange_cycles(736 * 512);
        assert!(c2 > 4 * c1, "off-chip must grow with m*b: {c1} vs {c2}");
    }

    #[test]
    fn rate_conversion() {
        let m = IpuConfig::m2000();
        // 1350 cycles per RTL cycle at 1.35 GHz = 1 MHz = 1000 kHz.
        assert!((m.rate_khz(1350.0) - 1000.0).abs() < 1e-6);
        let t = IpuTimings {
            comp: 1000.0,
            comm: 250.0,
            sync: 100.0,
        };
        assert!((t.total() - 1350.0).abs() < 1e-9);
        assert!((t.rate_khz(&m) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn chips_for_tiles() {
        let m = IpuConfig::m2000();
        assert_eq!(m.chips_for(1), 1);
        assert_eq!(m.chips_for(1472), 1);
        assert_eq!(m.chips_for(1473), 2);
        assert_eq!(m.chips_for(5888), 4);
        assert_eq!(m.total_tiles(), 5888);
    }

    #[test]
    fn bow_is_faster() {
        assert!(IpuConfig::bow2000().clock_ghz > IpuConfig::m2000().clock_ghz);
    }
}
