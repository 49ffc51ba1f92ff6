//! The metrics registry: named counters/gauges over relaxed atomics,
//! registered once per compiled engine and exported as a serializable
//! [`MetricsSnapshot`] (text and JSON) that bench records embed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A named `u64` cell shared by handle: clones observe the same value.
/// Used both as a monotonically increasing counter (`inc`/`add`) and
/// as a gauge (`set`). All accesses are `Relaxed` — metrics are
/// statistics, not synchronization.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Gauge-style overwrite.
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Gauge-style decrement, saturating at zero (for depth/occupancy
    /// gauges like a server's queue depth, where an increment on entry
    /// is paired with a decrement on exit).
    pub fn sub(&self, n: u64) {
        // fetch_update over Relaxed: statistics, not synchronization —
        // same discipline as every other access on this cell.
        let _ = self
            .v
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A get-or-register name → [`Counter`] map. Registration takes a
/// lock; the returned handle is lock-free, so hot paths resolve their
/// counters once at build time and hold the handles.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Counter)>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it (at
    /// zero) on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut entries = self.entries.lock().expect("metrics registry");
        if let Some((_, c)) = entries.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        entries.push((name.to_string(), c.clone()));
        c
    }

    /// Point-in-time copy of every registered value, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, u64)> = self
            .entries
            .lock()
            .expect("metrics registry")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        entries.sort();
        MetricsSnapshot { entries }
    }
}

/// A serializable point-in-time copy of a [`MetricsRegistry`]:
/// name/value pairs sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub entries: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One `name value` line per entry.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.entries {
            out.push_str(&format!("{n} {v}\n"));
        }
        out
    }

    /// A flat JSON object, `{"name":value,...}` — the shape embedded
    /// as the `metrics` field of bench records.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Parses the [`to_json`](Self::to_json) shape. Tolerant: unknown
    /// or malformed fields are skipped, so old readers survive new
    /// metric names and vice versa.
    pub fn parse_json(s: &str) -> MetricsSnapshot {
        let inner = s
            .trim()
            .trim_start_matches('{')
            .trim_end_matches('}')
            .trim();
        let mut entries = Vec::new();
        for field in inner.split(',') {
            let Some((name, value)) = field.split_once(':') else {
                continue;
            };
            let name = name.trim().trim_matches('"');
            if name.is_empty() {
                continue;
            }
            if let Ok(v) = value.trim().parse::<u64>() {
                entries.push((name.to_string(), v));
            }
        }
        entries.sort();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handles share the cell; re-registration returns the same cell.
    #[test]
    fn counters_share_by_handle() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("frames_sent");
        let b = reg.counter("frames_sent");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("frames_sent").get(), 4);
        a.set(10);
        assert_eq!(b.get(), 10);
    }

    /// Depth gauges pair `add` with `sub` and never underflow.
    #[test]
    fn sub_saturates_at_zero() {
        let c = Counter::new();
        c.add(3);
        c.sub(1);
        assert_eq!(c.get(), 2);
        c.sub(10);
        assert_eq!(c.get(), 0, "saturating, not wrapping");
    }

    /// Snapshots are sorted and round-trip through the JSON shape.
    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").set(7);
        reg.counter("alpha");
        reg.counter("mid").add(u64::MAX);
        let snap = reg.snapshot();
        assert_eq!(
            snap.entries
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ["alpha", "mid", "zeta"]
        );
        let json = snap.to_json();
        assert_eq!(
            json,
            format!("{{\"alpha\":0,\"mid\":{},\"zeta\":7}}", u64::MAX)
        );
        assert_eq!(MetricsSnapshot::parse_json(&json), snap);
        assert_eq!(snap.get("zeta"), Some(7));
        assert_eq!(snap.get("nope"), None);
    }

    /// The parser shrugs off junk — forward/backward compatibility for
    /// bench baselines.
    #[test]
    fn parse_json_is_tolerant() {
        assert!(MetricsSnapshot::parse_json("{}").is_empty());
        assert!(MetricsSnapshot::parse_json("").is_empty());
        let s = MetricsSnapshot::parse_json("{\"ok\":1,\"bad\":\"x\",:3,\"neg\":-2}");
        assert_eq!(s.entries, vec![("ok".to_string(), 1)]);
    }

    /// Text export is one line per metric.
    #[test]
    fn text_export_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a").set(1);
        reg.counter("b").set(2);
        assert_eq!(reg.snapshot().to_text(), "a 1\nb 2\n");
    }
}
