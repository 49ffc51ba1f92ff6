//! The serve wire protocol: length-prefixed `PSRV` frames carrying
//! line-oriented text payloads.
//!
//! Frame wire format (little-endian):
//!
//! ```text
//! magic  u32   0x50535256 ("PSRV")
//! kind   u32   frame kind (see [`kind`])
//! len    u32   payload length in bytes
//! data   len × u8
//! ```
//!
//! Requests: `SUBMIT` (a [`ScenarioBatch`]), `STATS`, `CLEAR`,
//! `SHUTDOWN`. Responses: zero or more `LANE` frames (one per
//! scenario, streamed **as each lane retires**, not at batch end),
//! an optional `VCD` frame, then exactly one terminal frame — `DONE`
//! (a [`BatchSummary`]) on success or `ERR` with a human-readable
//! message. `STATS` answers with one `STATS_REPLY` carrying the
//! daemon's metrics snapshot as flat JSON; `CLEAR` and `SHUTDOWN`
//! answer with one `DONE`.
//!
//! Payloads are line-oriented text (the repo's `to_text`/`from_text`
//! idiom — versionable, diffable in a hexdump, and free of
//! serialization dependencies). Every parser here is total: any byte
//! salad decodes to an `Err`, never a panic.

use parendi_rtl::bits::Bits;
use std::io::{ErrorKind, Read, Write};

/// Frame magic ("PSRV" read as a big-endian byte string).
pub const MAGIC: u32 = 0x5053_5256;
/// Header bytes: magic + kind + len.
pub const HEADER_BYTES: usize = 12;
/// Ceiling on a single payload — a corrupt length field must not OOM
/// the peer. Generous: the largest legitimate frame is a VCD slice.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Frame kinds. Requests are small integers, responses start at 10 so
/// a stray response can never parse as a request.
pub mod kind {
    /// Client → server: a [`super::ScenarioBatch`].
    pub const SUBMIT: u32 = 1;
    /// Client → server: request a metrics snapshot.
    pub const STATS: u32 = 2;
    /// Client → server: drop every cached compile.
    pub const CLEAR: u32 = 3;
    /// Client → server: stop the daemon after replying.
    pub const SHUTDOWN: u32 = 4;
    /// Server → client: one retired lane's outputs.
    pub const LANE: u32 = 10;
    /// Server → client: terminal success frame (a
    /// [`super::BatchSummary`] for submits).
    pub const DONE: u32 = 11;
    /// Server → client: metrics snapshot as flat JSON.
    pub const STATS_REPLY: u32 = 12;
    /// Server → client: terminal failure frame with a message.
    pub const ERR: u32 = 13;
    /// Server → client: one lane's VCD waveform slice.
    pub const VCD: u32 = 14;
}

/// Protocol failures, named by operation (the transport-layer idiom:
/// a refused socket, a corrupt header, and a server-side error are
/// different incidents and get different variants).
#[derive(Debug)]
pub enum ProtoError {
    /// An I/O fault; `context` names the failing operation.
    Io {
        /// What was being attempted.
        context: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A malformed frame or payload.
    Corrupt(String),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The server answered with an `ERR` frame.
    Remote(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io { context, source } => write!(f, "{context}: {source}"),
            ProtoError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Encodes a frame header.
pub fn encode_header(kind: u32, len: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&kind.to_le_bytes());
    h[8..12].copy_from_slice(&len.to_le_bytes());
    h
}

/// Decodes and validates a frame header. Returns `(kind, len)`. Total:
/// never panics, any byte salad is an `Err`.
pub fn decode_header(h: &[u8]) -> Result<(u32, u32), String> {
    if h.len() < HEADER_BYTES {
        return Err(format!(
            "short frame header: {} of {HEADER_BYTES} bytes",
            h.len()
        ));
    }
    let word = |r: std::ops::Range<usize>| -> u32 {
        u32::from_le_bytes(h[r].try_into().expect("4-byte slice"))
    };
    let magic = word(0..4);
    if magic != MAGIC {
        return Err(format!("bad frame magic {magic:#010x}"));
    }
    let kind = word(4..8);
    let len = word(8..12);
    if len as usize > MAX_PAYLOAD {
        return Err(format!("oversized frame: {len} bytes > {MAX_PAYLOAD}"));
    }
    Ok((kind, len))
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, kind: u32, payload: &[u8]) -> Result<(), ProtoError> {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload too large");
    let io = |source| ProtoError::Io {
        context: "write frame",
        source,
    };
    w.write_all(&encode_header(kind, payload.len() as u32))
        .map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one frame. A clean EOF **at a frame boundary** is
/// [`ProtoError::Closed`] (the peer hung up between requests); an EOF
/// mid-frame is corruption.
pub fn read_frame(r: &mut impl Read) -> Result<(u32, Vec<u8>), ProtoError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut got = 0usize;
    while got < HEADER_BYTES {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(ProtoError::Closed),
            Ok(0) => {
                return Err(ProtoError::Corrupt(format!(
                    "eof inside frame header ({got} of {HEADER_BYTES} bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(source) => {
                return Err(ProtoError::Io {
                    context: "read frame header",
                    source,
                })
            }
        }
    }
    let (kind, len) = decode_header(&header).map_err(ProtoError::Corrupt)?;
    // The buffer grows with the bytes that arrive, so a length field
    // alone never reserves up to MAX_PAYLOAD.
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|source| ProtoError::Io {
            context: "read frame payload",
            source,
        })?;
    if payload.len() < len as usize {
        return Err(ProtoError::Corrupt(format!(
            "eof inside frame payload ({} of {len} bytes)",
            payload.len()
        )));
    }
    Ok((kind, payload))
}

/// Whether 1-bit state should be bit-packed across lanes for a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackedChoice {
    /// Server decides: packed when the design is 1-bit-dominated and
    /// the gang is wide enough (see the lane-packing policy in
    /// `docs/SERVE.md`).
    Auto,
    /// Force packed layout.
    On,
    /// Force strided (unpacked) layout.
    Off,
}

impl PackedChoice {
    fn as_str(self) -> &'static str {
        match self {
            PackedChoice::Auto => "auto",
            PackedChoice::On => "on",
            PackedChoice::Off => "off",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(PackedChoice::Auto),
            "on" => Some(PackedChoice::On),
            "off" => Some(PackedChoice::Off),
            _ => None,
        }
    }
}

/// One scenario: a cycle horizon plus its input events. Events use
/// the [`StimulusSet`](parendi_sim::StimulusSet) convention — an event
/// at cycle `c` is driven *before* cycle `c` executes.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Cycles to run before the lane retires and its outputs stream
    /// back.
    pub cycles: u64,
    /// `(cycle, input name, value)` events.
    pub events: Vec<(u64, String, Bits)>,
}

/// A batch of scenarios over one design: the payload of a `SUBMIT`
/// frame. Designs travel as registry names
/// ([`Benchmark::parse`](parendi_designs::Benchmark::parse)), not
/// serialized circuits — the server owns the build and the client
/// stays thin.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioBatch {
    /// Design registry name (`sr3`, `prng8`, ...).
    pub design: String,
    /// Tile budget for the partition.
    pub tiles: u32,
    /// Packed-layout request.
    pub packed: PackedChoice,
    /// Stream this scenario's waveform back as a `VCD` frame.
    pub vcd_lane: Option<u32>,
    /// The scenarios; index = lane.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioBatch {
    /// An empty batch for `design` under a `tiles`-tile partition.
    pub fn new(design: &str, tiles: u32) -> Self {
        ScenarioBatch {
            design: design.to_string(),
            tiles,
            packed: PackedChoice::Auto,
            vcd_lane: None,
            scenarios: Vec::new(),
        }
    }

    /// Appends a scenario running `cycles` cycles; returns its lane.
    pub fn scenario(&mut self, cycles: u64) -> u32 {
        self.scenarios.push(Scenario {
            cycles,
            events: Vec::new(),
        });
        (self.scenarios.len() - 1) as u32
    }

    /// Schedules `input` in `lane` to take `value` before cycle
    /// `cycle` executes.
    ///
    /// # Panics
    ///
    /// Panics if `lane` has no scenario yet.
    pub fn drive(&mut self, lane: u32, cycle: u64, input: &str, value: Bits) -> &mut Self {
        self.scenarios[lane as usize]
            .events
            .push((cycle, input.to_string(), value));
        self
    }

    /// Serializes the batch as line-oriented text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("design {}\n", self.design));
        out.push_str(&format!("tiles {}\n", self.tiles));
        out.push_str(&format!("packed {}\n", self.packed.as_str()));
        if let Some(l) = self.vcd_lane {
            out.push_str(&format!("vcd {l}\n"));
        }
        for sc in &self.scenarios {
            out.push_str(&format!("scenario {}\n", sc.cycles));
            for (cycle, input, value) in &sc.events {
                out.push_str(&format!(
                    "ev {cycle} {input} {} {:x}\n",
                    value.width(),
                    value
                ));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses [`to_text`](Self::to_text) output. Total; `Err` carries
    /// a line-level description. Input names with whitespace are
    /// unsupported by the wire format (the builder rejects them long
    /// before a batch exists).
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut batch: Option<ScenarioBatch> = None;
        let mut tiles = None;
        let mut saw_end = false;
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if saw_end {
                return Err(format!("line {}: content after end", ln + 1));
            }
            let mut it = line.split_whitespace();
            let tag = it.next().expect("non-empty line");
            let fail = |m: &str| Err(format!("line {}: {m}: {line:?}", ln + 1));
            match tag {
                "design" => match it.next() {
                    Some(name) if it.next().is_none() && batch.is_none() => {
                        batch = Some(ScenarioBatch::new(name, 0));
                    }
                    _ => return fail("malformed design line"),
                },
                "tiles" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                    Some(t) if it.next().is_none() && t >= 1 => tiles = Some(t),
                    _ => return fail("malformed tiles line"),
                },
                "packed" => match it.next().and_then(PackedChoice::parse) {
                    Some(p) if it.next().is_none() => {
                        batch.as_mut().ok_or("packed before design")?.packed = p;
                    }
                    _ => return fail("malformed packed line"),
                },
                "vcd" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                    Some(l) if it.next().is_none() => {
                        batch.as_mut().ok_or("vcd before design")?.vcd_lane = Some(l);
                    }
                    _ => return fail("malformed vcd line"),
                },
                "scenario" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(c) if it.next().is_none() => {
                        batch.as_mut().ok_or("scenario before design")?.scenario(c);
                    }
                    _ => return fail("malformed scenario line"),
                },
                "ev" => {
                    let (Some(cycle), Some(input), Some(width), Some(hex), None) = (
                        it.next().and_then(|v| v.parse::<u64>().ok()),
                        it.next(),
                        it.next().and_then(|v| v.parse::<u32>().ok()),
                        it.next(),
                        it.next(),
                    ) else {
                        return fail("malformed ev line");
                    };
                    let value = match Bits::from_hex(width, hex) {
                        Ok(v) => v,
                        Err(e) => return fail(&format!("bad ev value ({e})")),
                    };
                    let b = batch.as_mut().ok_or("ev before design")?;
                    match b.scenarios.last_mut() {
                        Some(sc) => sc.events.push((cycle, input.to_string(), value)),
                        None => return fail("ev before any scenario"),
                    }
                }
                "end" => {
                    if it.next().is_some() {
                        return fail("malformed end line");
                    }
                    saw_end = true;
                }
                _ => return fail("unknown tag"),
            }
        }
        if !saw_end {
            return Err("missing end line".into());
        }
        let mut batch = batch.ok_or("missing design line")?;
        batch.tiles = tiles.ok_or("missing tiles line")?;
        if batch.scenarios.is_empty() {
            return Err("batch has no scenarios".into());
        }
        if let Some(l) = batch.vcd_lane {
            if l as usize >= batch.scenarios.len() {
                return Err(format!("vcd lane {l} has no scenario"));
            }
        }
        Ok(batch)
    }
}

/// One retired lane's outputs: the payload of a `LANE` frame.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneResult {
    /// Scenario lane (batch scenario index).
    pub lane: u32,
    /// `(output name, value)` in `circuit.outputs` order.
    pub outputs: Vec<(String, Bits)>,
}

impl LaneResult {
    /// Serializes as line-oriented text.
    pub fn to_text(&self) -> String {
        let mut out = format!("lane {}\n", self.lane);
        for (name, v) in &self.outputs {
            out.push_str(&format!("out {name} {} {v:x}\n", v.width()));
        }
        out
    }

    /// Parses [`to_text`](Self::to_text) output.
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut lines = s.lines();
        let lane = lines
            .next()
            .and_then(|l| l.strip_prefix("lane "))
            .and_then(|v| v.trim().parse::<u32>().ok())
            .ok_or("malformed lane header")?;
        let mut outputs = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let (Some("out"), Some(name), Some(width), Some(hex), None) = (
                it.next(),
                it.next(),
                it.next().and_then(|v| v.parse::<u32>().ok()),
                it.next(),
                it.next(),
            ) else {
                return Err(format!("malformed out line: {line:?}"));
            };
            let v = Bits::from_hex(width, hex).map_err(|e| format!("bad out value ({e})"))?;
            outputs.push((name.to_string(), v));
        }
        Ok(LaneResult { lane, outputs })
    }
}

/// The terminal `DONE` payload of a submit: what the run cost and
/// where it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchSummary {
    /// The compile key digest the batch resolved to.
    pub key_digest: u64,
    /// Gang lanes actually compiled (scenarios rounded up to the lane
    /// bucket).
    pub gang_lanes: u32,
    /// Whether the gang ran bit-packed.
    pub packed: bool,
    /// Whether the compile came from the cache.
    pub cache_hit: bool,
    /// Compile seconds (the **original** compile for cache hits —
    /// what the hit saved, not what it cost).
    pub compile_s: f64,
    /// Engine seconds for this batch (instantiate + run + capture).
    pub run_s: f64,
    /// Scenarios retired.
    pub scenarios: u32,
}

impl BatchSummary {
    /// Serializes as line-oriented text.
    pub fn to_text(&self) -> String {
        format!(
            "key {:016x}\nlanes {}\npacked {}\ncache_hit {}\ncompile_s {:.9}\nrun_s {:.9}\nscenarios {}\n",
            self.key_digest,
            self.gang_lanes,
            self.packed as u32,
            self.cache_hit as u32,
            self.compile_s,
            self.run_s,
            self.scenarios
        )
    }

    /// Parses [`to_text`](Self::to_text) output.
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut key_digest = None;
        let mut gang_lanes = None;
        let mut packed = None;
        let mut cache_hit = None;
        let mut compile_s = None;
        let mut run_s = None;
        let mut scenarios = None;
        for line in s.lines() {
            let Some((tag, val)) = line.trim().split_once(' ') else {
                continue;
            };
            match tag {
                "key" => key_digest = u64::from_str_radix(val, 16).ok(),
                "lanes" => gang_lanes = val.parse().ok(),
                "packed" => packed = flag(val),
                "cache_hit" => cache_hit = flag(val),
                "compile_s" => compile_s = val.parse().ok(),
                "run_s" => run_s = val.parse().ok(),
                "scenarios" => scenarios = val.parse().ok(),
                _ => {}
            }
        }
        Ok(BatchSummary {
            key_digest: key_digest.ok_or("missing key")?,
            gang_lanes: gang_lanes.ok_or("missing lanes")?,
            packed: packed.ok_or("missing packed")?,
            cache_hit: cache_hit.ok_or("missing cache_hit")?,
            compile_s: compile_s.ok_or("missing compile_s")?,
            run_s: run_s.ok_or("missing run_s")?,
            scenarios: scenarios.ok_or("missing scenarios")?,
        })
    }
}

fn flag(s: &str) -> Option<bool> {
    match s {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_rejects_salad() {
        let h = encode_header(kind::SUBMIT, 40);
        assert_eq!(decode_header(&h), Ok((kind::SUBMIT, 40)));
        assert!(decode_header(&[0u8; 4]).is_err(), "short header");
        let mut bad = h;
        bad[0] ^= 0xff;
        assert!(decode_header(&bad).unwrap_err().contains("magic"));
        let oversized = encode_header(kind::SUBMIT, u32::MAX);
        assert!(decode_header(&oversized).unwrap_err().contains("oversized"));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind::STATS, b"").unwrap();
        write_frame(&mut wire, kind::SUBMIT, b"hello").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), (kind::STATS, vec![]));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (kind::SUBMIT, b"hello".to_vec())
        );
        // Clean EOF at the boundary is Closed, not corruption.
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
        // EOF mid-frame is corruption.
        let mut short = &wire[..HEADER_BYTES - 3];
        assert!(matches!(
            read_frame(&mut short),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn short_payload_is_corrupt() {
        for claimed in [100u32, MAX_PAYLOAD as u32] {
            let mut wire = encode_header(kind::SUBMIT, claimed).to_vec();
            wire.extend_from_slice(&[b'x'; 10]);
            match read_frame(&mut &wire[..]) {
                Err(ProtoError::Corrupt(m)) => {
                    assert!(m.contains(&format!("10 of {claimed}")), "{m}")
                }
                other => panic!("claimed {claimed}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_round_trips() {
        let mut b = ScenarioBatch::new("sr3", 16);
        b.packed = PackedChoice::Off;
        let l0 = b.scenario(200);
        let l1 = b.scenario(100);
        b.drive(l0, 5, "in_a", Bits::from_u64(16, 0x3f));
        b.drive(l1, 0, "in_a", Bits::from_u64(16, 1));
        b.vcd_lane = Some(1);
        let text = b.to_text();
        assert_eq!(ScenarioBatch::from_text(&text), Ok(b));
    }

    #[test]
    fn batch_parser_rejects_malformed_input() {
        for bad in [
            "",
            "design sr3\ntiles 4\nend\n",             // no scenarios
            "design sr3\nscenario 5\nend\n",          // no tiles
            "tiles 4\nscenario 5\nend\n",             // no design
            "design sr3\ntiles 4\nscenario 5\n",      // no end
            "design sr3\ntiles 0\nscenario 5\nend\n", // zero tiles
            "design sr3\ntiles 4\nev 0 a 1 0\nscenario 5\nend\n", // ev before scenario
            "design sr3\ntiles 4\nscenario 5\nvcd 1\nend\n", // vcd lane out of range
            "design sr3\ntiles 4\nscenario 5\nend\njunk\n", // trailing junk
            "design sr3\ntiles 4\nscenario 5\nev 0 a 4 zz\nend\n", // bad hex
        ] {
            assert!(ScenarioBatch::from_text(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lane_result_and_summary_round_trip() {
        let lr = LaneResult {
            lane: 3,
            outputs: vec![
                ("q".into(), Bits::from_u64(16, 0xbeef)),
                ("done".into(), Bits::from_u64(1, 1)),
            ],
        };
        assert_eq!(LaneResult::from_text(&lr.to_text()), Ok(lr));
        let s = BatchSummary {
            key_digest: 0xdead_beef_0123_4567,
            gang_lanes: 8,
            packed: true,
            cache_hit: false,
            compile_s: 1.5,
            run_s: 0.25,
            scenarios: 5,
        };
        assert_eq!(BatchSummary::from_text(&s.to_text()), Ok(s));
        assert!(BatchSummary::from_text("key zz\n").is_err());
        assert!(LaneResult::from_text("out q 4 0\n").is_err());
    }

    /// Widths `Bits` cannot hold are parse errors, not panics.
    #[test]
    fn out_of_range_widths_are_errors() {
        for width in [0u64, u32::MAX as u64] {
            let batch = format!("design sr3\ntiles 4\nscenario 5\nev 0 in0 {width} 0\nend\n");
            let err = ScenarioBatch::from_text(&batch).unwrap_err();
            assert!(err.contains("invalid width"), "{width}: {err}");
            let lane = format!("lane 0\nout q {width} 0\n");
            let err = LaneResult::from_text(&lane).unwrap_err();
            assert!(err.contains("invalid width"), "{width}: {err}");
        }
    }
}
