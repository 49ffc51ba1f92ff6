//! The x64 server machine model.
//!
//! Substitutes for the paper's two Verilator hosts (Table 2): `ix3`, a
//! dual-socket Intel Xeon 6348 (28 monolithic cores per socket), and
//! `ae4`, a dual-socket AMD EPYC 9554 (64 cores per socket built from
//! 8-core chiplets). The model captures the three effects §4 and §6.2
//! attribute performance to:
//!
//! * an atomic fetch-and-add barrier whose cost grows with thread count
//!   (thousands of cycles at 56 threads, §4.1);
//! * non-uniform communication — crossing a chiplet or socket boundary
//!   is markedly more expensive (Fig. 8b);
//! * a working-set cache model: RTL simulation has very high reuse
//!   distance, so effective IPC collapses when the per-run working set
//!   exceeds the caches reachable from the threads used — and adding
//!   threads adds cache, producing the paper's superlinear region.

use serde::{Deserialize, Serialize};

/// Parameters of an x64 host model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct X64Config {
    /// Short name used in the paper (`ix3`, `ae4`).
    pub name: String,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Number of sockets.
    pub sockets: u32,
    /// Cores per chiplet (equal to `cores_per_socket` when monolithic).
    pub chiplet_cores: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Peak sustained instructions per cycle for simulation code.
    pub base_ipc: f64,
    /// L3 bytes per chiplet (per socket when monolithic).
    pub l3_bytes_per_chiplet: u64,
    /// Miss penalty multiplier when the working set falls out of cache.
    pub mem_penalty: f64,
    /// Barrier base cost in cycles.
    pub barrier_base: u64,
    /// Barrier cost per participating thread in cycles.
    pub barrier_per_thread: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Line transfer cost within a chiplet (shared L3 hit), cycles.
    pub lat_local: u64,
    /// Line transfer cost across chiplets, cycles.
    pub lat_chiplet: u64,
    /// Line transfer cost across sockets, cycles.
    pub lat_socket: u64,
}

impl X64Config {
    /// The Intel Xeon Gold 6348 host (`ix3`, Table 2): 2×28 monolithic
    /// cores, 42 MiB L3 per socket.
    pub fn ix3() -> Self {
        X64Config {
            name: "ix3".into(),
            cores_per_socket: 28,
            sockets: 2,
            chiplet_cores: 28,
            clock_ghz: 3.5,
            base_ipc: 2.2,
            l3_bytes_per_chiplet: 42 << 20,
            mem_penalty: 5.0,
            barrier_base: 200,
            barrier_per_thread: 260,
            line_bytes: 64,
            lat_local: 45,
            lat_chiplet: 45, // monolithic: no chiplet boundary
            lat_socket: 320,
        }
    }

    /// The AMD EPYC 9554 host (`ae4`, Table 2): 2×64 cores in 8-core
    /// chiplets, 32 MiB L3 per chiplet (256 MiB per socket).
    pub fn ae4() -> Self {
        X64Config {
            name: "ae4".into(),
            cores_per_socket: 64,
            sockets: 2,
            chiplet_cores: 8,
            clock_ghz: 3.75,
            base_ipc: 2.4,
            l3_bytes_per_chiplet: 32 << 20,
            mem_penalty: 5.0,
            barrier_base: 200,
            barrier_per_thread: 300,
            line_bytes: 64,
            lat_local: 40,
            lat_chiplet: 150,
            lat_socket: 350,
        }
    }

    /// The Azure Dv4 instance of §6.4 (Xeon 8272CL, 16 vCPUs exposed).
    pub fn dv4() -> Self {
        X64Config {
            name: "Dv4".into(),
            cores_per_socket: 16,
            sockets: 1,
            chiplet_cores: 16,
            clock_ghz: 2.6,
            base_ipc: 2.0,
            l3_bytes_per_chiplet: 38 << 20,
            mem_penalty: 5.0,
            barrier_base: 200,
            barrier_per_thread: 260,
            line_bytes: 64,
            lat_local: 45,
            lat_chiplet: 45,
            lat_socket: 300,
        }
    }

    /// Total cores across sockets.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_socket * self.sockets
    }

    /// L3 bytes reachable by `threads` threads packed onto consecutive
    /// chiplets. Adding threads brings more chiplets (and their L3)
    /// online — the source of the superlinear region.
    pub fn available_cache(&self, threads: u32) -> u64 {
        let threads = threads.clamp(1, self.total_cores());
        let chiplets = threads.div_ceil(self.chiplet_cores) as u64;
        self.l3_bytes_per_chiplet * chiplets
    }

    /// Execution-time multiplier due to working-set misses: 1.0 when the
    /// working set fits reachable cache, rising toward `1 + mem_penalty`.
    pub fn miss_factor(&self, working_set_bytes: u64, threads: u32) -> f64 {
        let cache = self.available_cache(threads) as f64;
        let ws = working_set_bytes as f64;
        if ws <= cache {
            return 1.0;
        }
        let missing = (ws - cache) / ws; // fraction of touches that miss
        1.0 + self.mem_penalty * missing
    }

    /// One user-space atomic fetch-and-add barrier, in cycles.
    pub fn barrier_cycles(&self, threads: u32) -> u64 {
        if threads <= 1 {
            return 0;
        }
        let mut c = self.barrier_base + self.barrier_per_thread * threads as u64;
        let used_sockets = threads.div_ceil(self.cores_per_socket);
        if used_sockets > 1 {
            c += self.lat_socket * 8; // cross-socket cacheline ping-pong
        }
        c
    }

    /// `t_sync` per simulated RTL cycle: two barriers (§3.2). The model
    /// keeps the paper's second barrier; the host engine needs only one,
    /// because its double-buffered mailboxes order the next compute.
    pub fn sync_cycles(&self, threads: u32) -> u64 {
        2 * self.barrier_cycles(threads)
    }

    /// The line-transfer latency implied by the furthest boundary spanned
    /// by `threads` threads.
    pub fn boundary_latency(&self, threads: u32) -> u64 {
        if threads <= self.chiplet_cores {
            self.lat_local
        } else if threads <= self.cores_per_socket {
            self.lat_chiplet
        } else {
            self.lat_socket
        }
    }

    /// Communication cycles per simulated cycle for `cross_bytes` moving
    /// between threads. Transfers are line-granular and overlap only
    /// partially (they all contend on the LLC), so we charge the full
    /// boundary latency per line, discounted by a pipelining factor.
    pub fn comm_cycles(&self, cross_bytes: u64, threads: u32) -> f64 {
        if cross_bytes == 0 || threads <= 1 {
            return 0.0;
        }
        let lines = cross_bytes.div_ceil(self.line_bytes) as f64;
        let lat = self.boundary_latency(threads) as f64;
        // Out-of-order cores overlap ~4 outstanding misses.
        lines * lat / 4.0 / threads as f64 * threads.min(8) as f64
    }

    /// Computation cycles for the busiest thread: `instrs / IPC`, scaled
    /// by the miss factor for the design's working set.
    pub fn comp_cycles(&self, max_thread_instrs: u64, working_set_bytes: u64, threads: u32) -> f64 {
        max_thread_instrs as f64 / self.base_ipc * self.miss_factor(working_set_bytes, threads)
    }

    /// Simulation rate in kHz for a per-RTL-cycle cost in cycles.
    pub fn rate_khz(&self, cycles_per_rtl_cycle: f64) -> f64 {
        if cycles_per_rtl_cycle <= 0.0 {
            return f64::INFINITY;
        }
        self.clock_ghz * 1e6 / cycles_per_rtl_cycle
    }
}

/// Per-RTL-cycle cost breakdown on an x64 host, in cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct X64Timings {
    /// Computation: the busiest thread.
    pub comp: f64,
    /// Inter-thread communication through the cache hierarchy.
    pub comm: f64,
    /// Two barriers.
    pub sync: f64,
}

impl X64Timings {
    /// Total cycles per simulated RTL cycle.
    pub fn total(&self) -> f64 {
        self.comp + self.comm + self.sync
    }

    /// Simulation rate under `cfg`.
    pub fn rate_khz(&self, cfg: &X64Config) -> f64 {
        cfg.rate_khz(self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_grows_into_the_thousands() {
        let ix3 = X64Config::ix3();
        assert_eq!(ix3.barrier_cycles(1), 0);
        let b56 = ix3.barrier_cycles(56);
        assert!(
            b56 > 3000,
            "56-thread barrier should cost thousands of cycles: {b56}"
        );
        assert!(ix3.barrier_cycles(8) < b56);
    }

    #[test]
    fn cache_grows_with_chiplets_on_ae4() {
        let ae4 = X64Config::ae4();
        assert_eq!(ae4.available_cache(8), 32 << 20);
        assert_eq!(ae4.available_cache(9), 64 << 20);
        assert_eq!(ae4.available_cache(64), 256 << 20);
        // Monolithic ix3 jumps only at the socket boundary.
        let ix3 = X64Config::ix3();
        assert_eq!(ix3.available_cache(28), ix3.available_cache(2));
        assert!(ix3.available_cache(29) > ix3.available_cache(28));
    }

    #[test]
    fn miss_factor_falls_as_threads_add_cache() {
        let ae4 = X64Config::ae4();
        let ws = 128u64 << 20; // 128 MiB working set
        let f1 = ae4.miss_factor(ws, 1);
        let f32 = ae4.miss_factor(ws, 32);
        assert!(f1 > 2.0, "1 thread should thrash: {f1}");
        assert!((f32 - 1.0).abs() < 1e-9, "4 chiplets hold 128 MiB: {f32}");
    }

    #[test]
    fn boundary_cliffs() {
        let ae4 = X64Config::ae4();
        assert!(ae4.boundary_latency(8) < ae4.boundary_latency(9));
        assert!(ae4.boundary_latency(64) < ae4.boundary_latency(65));
        let ix3 = X64Config::ix3();
        assert_eq!(ix3.boundary_latency(8), ix3.boundary_latency(28));
        assert!(ix3.boundary_latency(29) > ix3.boundary_latency(28));
    }

    #[test]
    fn comp_and_rate() {
        let ix3 = X64Config::ix3();
        let c = ix3.comp_cycles(1_000_000, 1 << 20, 1);
        assert!((c - 1_000_000.0 / 2.2).abs() < 1.0);
        // 3.5e6 cycles at 3.5 GHz = 1000 Hz = 1 kHz.
        assert!((ix3.rate_khz(3.5e6) - 1.0).abs() < 1e-9);
        // 3.5e3 cycles per RTL cycle = 1 MHz = 1000 kHz.
        assert!((ix3.rate_khz(3.5e3) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn timings_sum() {
        let t = X64Timings {
            comp: 10.0,
            comm: 5.0,
            sync: 1.0,
        };
        assert_eq!(t.total(), 16.0);
    }
}
