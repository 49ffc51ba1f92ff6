//! Executable point-to-point routing: who sends what to whom, at which
//! mailbox offset.
//!
//! [`Routing`] is the compiled form of the BSP communication phase. For
//! every register and every array write port it records the producer
//! tile, the explicit list of consumer tiles, and — per consumer — the
//! pre-resolved word offset inside the producer→consumer *channel*
//! buffer. The execution engine (`parendi-sim`'s `BspSimulator`) copies
//! straight through these offsets with no locks and no allocation, and
//! the [`ExchangePlan`] cost figures are a derived view
//! ([`Routing::exchange_plan`]) of the very same structure, so the cost
//! model and the engine can never disagree about what moves.
//!
//! # Channel layout
//!
//! Each ordered tile pair with traffic gets one [`ChannelSpec`]. Its
//! buffer is laid out as:
//!
//! ```text
//! [ register section: one slot per routed register, RegId order ]
//! [ port section: one record per routed write port, (array, port) order ]
//! ```
//!
//! A port record is `enable` (1 word), `index` (1 word), then
//! `data_words` words of data — [`PORT_RECORD_HEADER_WORDS`] + data.

use crate::exchange::ExchangePlan;
use crate::partition::Partition;
use parendi_graph::fiber::{SinkKind, PORT_RECORD_OVERHEAD_BYTES};
use parendi_rtl::bits::words_for;
use parendi_rtl::{ArrayId, Circuit, RegId};
use std::collections::HashMap;

/// Mailbox words occupied by a port record before its data: the enable
/// word and the (range-folded) index word.
pub const PORT_RECORD_HEADER_WORDS: u32 = 2;

/// Whether a channel stays on one chip or crosses a chip boundary.
///
/// Derived from [`Routing::tile_chip`] at compile time: a channel is
/// [`OffChip`](ChannelClass::OffChip) iff its producer and consumer
/// tiles live on different chips. The execution engine uses the class to
/// pick the mailbox fabric (per-tile-pair on-chip boxes vs the wider
/// per-chip-pair aggregates) and the derived [`ExchangePlan`] uses it to
/// attribute bytes to the off-chip `m×b` cost, so the engine and the
/// model can never disagree about which traffic crosses chips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelClass {
    /// Producer and consumer share a chip.
    OnChip,
    /// The channel crosses a chip boundary (an order of magnitude
    /// slower on the real machine — Fig. 5 right).
    OffChip,
}

/// One delivery of a value: which tile receives it, over which channel,
/// at which word offset inside the channel buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Consumer tile.
    pub tile: u32,
    /// Index into [`Routing::channels`].
    pub channel: u32,
    /// Word offset of the slot within the channel buffer.
    pub word_off: u32,
}

/// Where one register's next-value travels each cycle.
#[derive(Clone, Debug)]
pub struct RegRoute {
    /// The register.
    pub reg: RegId,
    /// Tile computing its next-value (`u32::MAX` if unowned, which a
    /// validated circuit never produces).
    pub producer: u32,
    /// Value width in 64-bit words.
    pub words: u32,
    /// Remote consumers (the producer reads its own copy locally).
    pub hops: Vec<Hop>,
}

/// Where one array write port's `(enable, index, data)` record travels.
#[derive(Clone, Debug)]
pub struct PortRoute {
    /// The array written.
    pub array: ArrayId,
    /// Port index within the array's `write_ports`.
    pub port: u32,
    /// Tile computing the port's cone.
    pub producer: u32,
    /// Data width in 64-bit words.
    pub data_words: u32,
    /// Remote holders of the array (the producer applies its own record
    /// locally); `word_off` points at the record's enable word.
    pub hops: Vec<Hop>,
}

/// One producer→consumer mailbox buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Producer tile.
    pub from: u32,
    /// Consumer tile.
    pub to: u32,
    /// Words of the register section.
    pub reg_words: u32,
    /// Words of the port-record section.
    pub port_words: u32,
    /// Whether the channel crosses a chip boundary.
    pub class: ChannelClass,
}

impl ChannelSpec {
    /// Total buffer size in words.
    pub fn words(&self) -> u32 {
        self.reg_words + self.port_words
    }
}

/// The complete point-to-point exchange of a partition.
#[derive(Clone, Debug)]
pub struct Routing {
    /// Number of tiles.
    pub tiles: u32,
    /// Chip of each tile.
    pub tile_chip: Vec<u32>,
    /// All channels with traffic, sorted by `(from, to)`.
    pub channels: Vec<ChannelSpec>,
    /// One route per register, indexed by `RegId`.
    pub reg_routes: Vec<RegRoute>,
    /// One route per array write port, in `(array, port)` order.
    pub port_routes: Vec<PortRoute>,
    /// Tiles holding a copy of each array, indexed by `ArrayId` (sorted).
    pub array_holders: Vec<Vec<u32>>,
    /// Tile computing each primary output's cone, indexed by output id
    /// (`u32::MAX` if no process owns the output fiber, which a complete
    /// partition never produces). Output values never enter the
    /// exchange — they back the engine's `peek_output` testbench API.
    pub output_tiles: Vec<u32>,
}

impl Routing {
    /// Compiles the exchange of `partition`.
    pub fn new(circuit: &Circuit, partition: &Partition) -> Self {
        let tiles = partition.processes.len() as u32;
        let tile_chip: Vec<u32> = partition.processes.iter().map(|p| p.chip).collect();

        // Producers.
        let mut reg_producer = vec![u32::MAX; circuit.regs.len()];
        let mut port_producer: HashMap<(u32, u32), u32> = HashMap::new();
        let mut output_tiles = vec![u32::MAX; circuit.outputs.len()];
        for (pi, p) in partition.processes.iter().enumerate() {
            for &f in &p.fibers {
                match partition.fiber_sinks[f.index()] {
                    SinkKind::Reg(r) => reg_producer[r.index()] = pi as u32,
                    SinkKind::ArrayPort { array, port } => {
                        port_producer.insert((array.0, port), pi as u32);
                    }
                    SinkKind::Output(o) => output_tiles[o as usize] = pi as u32,
                }
            }
        }

        // Consumers: remote readers per register, holder tiles per array.
        let mut reg_consumers: Vec<Vec<u32>> = vec![Vec::new(); circuit.regs.len()];
        let mut array_holders: Vec<Vec<u32>> = vec![Vec::new(); circuit.arrays.len()];
        for (pi, p) in partition.processes.iter().enumerate() {
            for &r in &p.regs_read {
                let w = reg_producer[r.index()];
                if w != u32::MAX && w != pi as u32 {
                    reg_consumers[r.index()].push(pi as u32);
                }
            }
            for &a in &p.arrays {
                array_holders[a.index()].push(pi as u32);
            }
        }

        // Pass 1: discover channels and size their register sections.
        let mut chan_index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut channels: Vec<ChannelSpec> = Vec::new();
        let mut chan_of = |from: u32, to: u32, channels: &mut Vec<ChannelSpec>| -> u32 {
            *chan_index.entry((from, to)).or_insert_with(|| {
                let class = if tile_chip[from as usize] == tile_chip[to as usize] {
                    ChannelClass::OnChip
                } else {
                    ChannelClass::OffChip
                };
                channels.push(ChannelSpec {
                    from,
                    to,
                    reg_words: 0,
                    port_words: 0,
                    class,
                });
                channels.len() as u32 - 1
            })
        };
        for (ri, consumers) in reg_consumers.iter().enumerate() {
            let producer = reg_producer[ri];
            let words = words_for(circuit.regs[ri].width) as u32;
            for &c in consumers {
                let ch = chan_of(producer, c, &mut channels);
                channels[ch as usize].reg_words += words;
            }
        }
        for (ai, a) in circuit.arrays.iter().enumerate() {
            let data_words = words_for(a.width) as u32;
            for port in 0..a.write_ports.len() as u32 {
                let Some(&producer) = port_producer.get(&(ai as u32, port)) else {
                    continue;
                };
                for &h in &array_holders[ai] {
                    if h == producer {
                        continue;
                    }
                    let ch = chan_of(producer, h, &mut channels);
                    channels[ch as usize].port_words += PORT_RECORD_HEADER_WORDS + data_words;
                }
            }
        }

        // Canonical channel order; remap indices.
        let mut order: Vec<u32> = (0..channels.len() as u32).collect();
        order.sort_by_key(|&i| (channels[i as usize].from, channels[i as usize].to));
        let mut remap = vec![0u32; channels.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut sorted = channels.clone();
        for (&old, ch) in order.iter().zip(sorted.iter_mut()) {
            *ch = channels[old as usize];
        }
        let channels = sorted;
        let chan_index: HashMap<(u32, u32), u32> = chan_index
            .into_iter()
            .map(|(k, v)| (k, remap[v as usize]))
            .collect();

        // Pass 2: assign slot offsets. Registers pack from offset 0 in
        // RegId order; port records pack after the register section in
        // (array, port) order.
        let mut reg_fill = vec![0u32; channels.len()];
        let mut reg_routes = Vec::with_capacity(circuit.regs.len());
        for (ri, consumers) in reg_consumers.iter().enumerate() {
            let producer = reg_producer[ri];
            let words = words_for(circuit.regs[ri].width) as u32;
            let mut hops = Vec::with_capacity(consumers.len());
            for &c in consumers {
                let ch = chan_index[&(producer, c)];
                hops.push(Hop {
                    tile: c,
                    channel: ch,
                    word_off: reg_fill[ch as usize],
                });
                reg_fill[ch as usize] += words;
            }
            reg_routes.push(RegRoute {
                reg: RegId(ri as u32),
                producer,
                words,
                hops,
            });
        }
        let mut port_fill: Vec<u32> = channels.iter().map(|c| c.reg_words).collect();
        let mut port_routes = Vec::new();
        for (ai, a) in circuit.arrays.iter().enumerate() {
            let data_words = words_for(a.width) as u32;
            for port in 0..a.write_ports.len() as u32 {
                let Some(&producer) = port_producer.get(&(ai as u32, port)) else {
                    continue;
                };
                let mut hops = Vec::new();
                for &h in &array_holders[ai] {
                    if h == producer {
                        continue;
                    }
                    let ch = chan_index[&(producer, h)];
                    hops.push(Hop {
                        tile: h,
                        channel: ch,
                        word_off: port_fill[ch as usize],
                    });
                    port_fill[ch as usize] += PORT_RECORD_HEADER_WORDS + data_words;
                }
                port_routes.push(PortRoute {
                    array: ArrayId(ai as u32),
                    port,
                    producer,
                    data_words,
                    hops,
                });
            }
        }
        debug_assert!(channels
            .iter()
            .zip(&port_fill)
            .all(|(c, &f)| f == c.words()));

        Routing {
            tiles,
            tile_chip,
            channels,
            reg_routes,
            port_routes,
            array_holders,
            output_tiles,
        }
    }

    /// Whether the hop travels over an off-chip channel.
    pub fn hop_crosses_chip(&self, hop: &Hop) -> bool {
        self.channels[hop.channel as usize].class == ChannelClass::OffChip
    }

    /// The channel index for the ordered pair `(from, to)`, if any.
    pub fn channel(&self, from: u32, to: u32) -> Option<u32> {
        self.channels
            .binary_search_by_key(&(from, to), |c| (c.from, c.to))
            .ok()
            .map(|i| i as u32)
    }

    /// Total words flowing out of each tile per cycle (fanout included) —
    /// the executable counterpart of `tile_out_bytes / 8`.
    pub fn tile_out_words(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.tiles as usize];
        for c in &self.channels {
            out[c.from as usize] += c.words() as u64;
        }
        out
    }

    /// Derives the per-cycle [`ExchangePlan`] cost figures from the
    /// routes. This is the *only* computation of exchange volumes in the
    /// workspace: the engine executes the same hops this sums over.
    pub fn exchange_plan(&self, circuit: &Circuit, differential: bool) -> ExchangePlan {
        let n = self.tiles as usize;
        let mut out = ExchangePlan {
            tile_out_bytes: vec![0; n],
            tile_in_bytes: vec![0; n],
            tile_out_bit1_bytes: vec![0; n],
            tile_in_bit1_bytes: vec![0; n],
            ..Default::default()
        };

        // Register routes: every hop moves the full value. Single-bit
        // registers are tracked separately — they are the slots a
        // packed-lane gang moves at 64 scenarios per word, and
        // `ExchangePlan::scaled_by_lanes` scales them by packed words.
        for route in &self.reg_routes {
            if route.producer == u32::MAX {
                continue;
            }
            let bytes = route.words as u64 * 8;
            let bit1 = circuit.regs[route.reg.index()].width == 1;
            let (mut crosses_tile, mut crosses_chip) = (false, false);
            for hop in &route.hops {
                crosses_tile = true;
                out.tile_out_bytes[route.producer as usize] += bytes;
                out.tile_in_bytes[hop.tile as usize] += bytes;
                if bit1 {
                    out.tile_out_bit1_bytes[route.producer as usize] += bytes;
                    out.tile_in_bit1_bytes[hop.tile as usize] += bytes;
                }
                if self.hop_crosses_chip(hop) {
                    out.offchip_total_bytes += bytes;
                    if bit1 {
                        out.offchip_bit1_bytes += bytes;
                    }
                    crosses_chip = true;
                }
            }
            if crosses_tile {
                out.onchip_cut_bytes += bytes;
                if bit1 {
                    out.onchip_cut_bit1_bytes += bytes;
                }
            }
            if crosses_chip {
                out.offchip_cut_bytes += bytes;
                if bit1 {
                    out.offchip_cut_bit1_bytes += bytes;
                }
            }
        }

        // Port routes: differential records (or whole-array transfers
        // with the optimization disabled) to every remote holder.
        let mut pi = 0usize;
        for (ai, a) in circuit.arrays.iter().enumerate() {
            let full_bytes = a.size_bytes();
            let (mut crossed_tile, mut crossed_chip) = (false, false);
            let mut diff_sum = 0u64;
            while pi < self.port_routes.len() && self.port_routes[pi].array.index() == ai {
                let route = &self.port_routes[pi];
                pi += 1;
                let diff_bytes = route.data_words as u64 * 8 + PORT_RECORD_OVERHEAD_BYTES;
                diff_sum += diff_bytes;
                let payload = if differential { diff_bytes } else { full_bytes };
                for hop in &route.hops {
                    crossed_tile = true;
                    out.tile_out_bytes[route.producer as usize] += payload;
                    out.tile_in_bytes[hop.tile as usize] += payload;
                    if self.hop_crosses_chip(hop) {
                        out.offchip_total_bytes += payload;
                        crossed_chip = true;
                    }
                }
            }
            let cut = if differential { diff_sum } else { full_bytes };
            if crossed_tile {
                out.onchip_cut_bytes += cut;
            }
            if crossed_chip {
                out.offchip_cut_bytes += cut;
            }
        }

        out.max_tile_onchip_bytes = (0..n)
            .map(|i| out.tile_out_bytes[i] + out.tile_in_bytes[i])
            .max()
            .unwrap_or(0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::stages::compile;
    use parendi_rtl::Builder;

    fn ring(n: usize) -> Circuit {
        let mut b = Builder::new("ring");
        let regs: Vec<_> = (0..n).map(|i| b.reg(format!("r{i}"), 16, 0)).collect();
        for i in 0..n {
            let prev = regs[(i + n - 1) % n].q();
            let k = b.lit(16, 3);
            let v = b.add(prev, k);
            b.connect(regs[i], v);
        }
        b.finish().unwrap()
    }

    #[test]
    fn ring_routes_point_to_point() {
        let c = ring(8);
        let comp = compile(&c, &PartitionConfig::with_tiles(8)).unwrap();
        let routing = &comp.routing;
        assert_eq!(routing.tiles, 8);
        // Every register has exactly one remote consumer (the next ring
        // element lives on another tile at 8 tiles / 8 fibers).
        for route in &routing.reg_routes {
            assert!(route.producer != u32::MAX);
            assert_eq!(route.hops.len(), 1, "ring reg fans out to one tile");
            assert_ne!(route.hops[0].tile, route.producer);
        }
        // Channel offsets tile the buffers exactly.
        for (ci, ch) in routing.channels.iter().enumerate() {
            let mut covered = vec![false; ch.words() as usize];
            for route in &routing.reg_routes {
                for hop in &route.hops {
                    if hop.channel == ci as u32 {
                        for w in hop.word_off..hop.word_off + route.words {
                            assert!(!covered[w as usize], "overlapping slot");
                            covered[w as usize] = true;
                        }
                    }
                }
            }
            assert!(covered.iter().all(|&c| c), "holes in channel {ci}");
        }
    }

    #[test]
    fn plan_is_derived_from_routes() {
        let c = ring(16);
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4;
        let comp = compile(&c, &cfg).unwrap();
        let replanned = comp.routing.exchange_plan(&c, cfg.differential_exchange);
        assert_eq!(comp.plan.tile_out_bytes, replanned.tile_out_bytes);
        assert_eq!(comp.plan.tile_in_bytes, replanned.tile_in_bytes);
        assert_eq!(
            comp.plan.max_tile_onchip_bytes,
            replanned.max_tile_onchip_bytes
        );
        assert_eq!(comp.plan.offchip_total_bytes, replanned.offchip_total_bytes);
        // The executable word volume matches the modeled byte volume.
        let out_words = comp.routing.tile_out_words();
        for (tile, &words) in out_words.iter().enumerate() {
            let reg_and_record_bytes = words * 8;
            // Modeled bytes add the 4+1 record overhead over a plain
            // 2-word header, so they need not be equal — but a tile
            // sends words iff the model charges it bytes.
            assert_eq!(
                reg_and_record_bytes > 0,
                comp.plan.tile_out_bytes[tile] > 0,
                "tile {tile}"
            );
        }
    }

    #[test]
    fn array_records_route_to_every_holder() {
        let mut b = Builder::new("mem");
        // Writer fiber on one tile, reader fibers elsewhere.
        let waddr = b.reg("waddr", 4, 0);
        let one = b.lit(4, 1);
        let winc = b.add(waddr.q(), one);
        b.connect(waddr, winc);
        let mem = b.array("m", 32, 16);
        let data = b.lit(32, 0xabcd);
        let en = b.lit(1, 1);
        b.array_write(mem, waddr.q(), data, en);
        for i in 0..3 {
            let r = b.reg(format!("r{i}"), 32, 0);
            let idx = b.lit(4, i as u64);
            let v = b.array_read(mem, idx);
            let nx = b.add(v, r.q());
            b.connect(r, nx);
        }
        let c = b.finish().unwrap();
        let comp = compile(&c, &PartitionConfig::with_tiles(8)).unwrap();
        let routing = &comp.routing;
        assert_eq!(routing.port_routes.len(), 1);
        let route = &routing.port_routes[0];
        let holders = &routing.array_holders[0];
        assert!(holders.len() >= 2, "readers must hold copies: {holders:?}");
        assert_eq!(
            route.hops.len(),
            holders.iter().filter(|&&h| h != route.producer).count(),
            "one record per remote holder"
        );
        for hop in &route.hops {
            let ch = &routing.channels[hop.channel as usize];
            assert_eq!((ch.from, ch.to), (route.producer, hop.tile));
            assert!(hop.word_off >= ch.reg_words, "records live after registers");
        }
    }
}
