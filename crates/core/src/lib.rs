//! # parendi-core
//!
//! The Parendi compiler: the paper's primary contribution. Given an RTL
//! circuit (from `parendi-rtl`) it extracts fibers, solves the
//! submodular load-balancing problem with the four-stage algorithm of
//! §5.1, assigns processes to IPU tiles and chips, and compiles the BSP
//! exchange (including the differential-exchange optimization of §5.2).
//!
//! # Exchange architecture
//!
//! Compilation produces an executable [`Routing`] ([`routing`]): for
//! every register and array write port, the producer tile, the explicit
//! consumer tiles, and pre-resolved word offsets into per-tile-pair
//! channel buffers. The [`ExchangePlan`] byte counts the cost model
//! consumes are *derived* from this structure
//! ([`routing::Routing::exchange_plan`]), and the parallel BSP engine in
//! `parendi-sim` executes the very same hops through double-buffered
//! mailboxes — one source of truth for what moves between tiles.
//!
//! # Examples
//!
//! ```
//! use parendi_rtl::Builder;
//! use parendi_core::{compile, PartitionConfig};
//!
//! let mut b = Builder::new("pair");
//! let r0 = b.reg("r0", 16, 1);
//! let r1 = b.reg("r1", 16, 2);
//! let sum = b.add(r0.q(), r1.q());
//! let dif = b.sub(r0.q(), r1.q());
//! b.connect(r0, sum);
//! b.connect(r1, dif);
//! let circuit = b.finish().unwrap();
//!
//! let comp = compile(&circuit, &PartitionConfig::with_tiles(2)).unwrap();
//! assert_eq!(comp.partition.tiles_used(), 2);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod exchange;
pub mod key;
pub mod partition;
pub mod process;
pub mod repcut;
pub mod routing;
pub mod slb;
pub mod stages;

pub use config::{CompileError, MultiChipStrategy, PartitionConfig, Strategy};
pub use exchange::{plan, ExchangePlan};
pub use key::{circuit_content_hash, CompileKey, Fnv};
pub use partition::Partition;
pub use process::Process;
pub use routing::{ChannelClass, ChannelSpec, Hop, PortRoute, RegRoute, Routing};
pub use stages::{compile, Compilation};
