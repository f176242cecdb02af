//! Dependency-free observability core for the multihonest workspace.
//!
//! The crate follows the same contract as the vendored stand-ins: no
//! external dependencies, a small surface tailored to what the engines
//! need, and a hard **bit-invisibility** rule — instrumentation must
//! never change what an execution computes.
//!
//! Three layers:
//!
//! * [`Recorder`] — the statically-dispatched instrumentation surface
//!   the instrumented entry points are generic over. The `()`
//!   implementation is the default everywhere and compiles to nothing.
//! * [`Registry`] — counters, gauges and power-of-two log-bucketed
//!   [`Histogram`]s, all with a `merge` operation so per-worker shards
//!   combine into one view.
//! * [`ObsRecorder`] — the full recorder: nested spans against a shared
//!   epoch, a registry, and exporters — a human-readable
//!   [`summary`](ObsRecorder::summary), a
//!   [`jsonl`](ObsRecorder::jsonl) event stream, and
//!   [`chrome_trace_json`](ObsRecorder::chrome_trace_json) loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! [`Heartbeat`] gates periodic progress lines for long runs, and
//! [`peak_rss_bytes`] reads the process high-water RSS mark on Linux.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heartbeat;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use crate::heartbeat::{heartbeat_line, Heartbeat};
pub use crate::recorder::Recorder;
pub use crate::registry::{Gauge, Histogram, Registry};
pub use crate::trace::{ObsRecorder, SpanEvent};

/// The process's peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status`), when the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Minimal JSON string escaping for exporter output (quotes, backslash,
/// control characters).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM available on linux");
            assert!(rss > 0);
        }
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain.name"), "plain.name");
    }
}
