//! Lightweight span/event recorder for per-stage observability.
//!
//! The verification pipeline attributes nearly all of its runtime to a
//! handful of stages — the base fixpoint, static learning, dominator
//! derivation, stem correlation, and the FAN-style case analysis. This
//! module records those stages as *spans* (named intervals with integer
//! counter arguments) so a run can be inspected as a flamegraph.
//!
//! Design constraints:
//!
//! * **Near-zero cost when disabled.** Every instrumentation site goes
//!   through an [`Obs`] handle. A disabled handle holds no recorder, and
//!   both [`Obs::start`] and [`Obs::span`] reduce to a single branch on
//!   an `Option` — no clock reads, no allocation, no locking.
//! * **No behavioural influence.** Recording only *observes* counters the
//!   solver already maintains; an instrumented run must produce reports
//!   bit-identical to an uninstrumented one (timing fields exempt).
//! * **std-only.** No external dependencies; the Chrome-trace emitter
//!   writes its own (tiny) JSON.
//!
//! The output of [`Recorder::chrome_trace`] is the Chrome trace event
//! format (a `{"traceEvents": [...]}` object of `"ph": "X"` complete
//! events) and loads directly in `chrome://tracing` or Perfetto.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonically-assigned identifier for the current OS thread.
///
/// `std::thread::ThreadId` has no stable integer accessor, so spans are
/// tagged with a small process-wide counter assigned on first use per
/// thread. Identifiers start at 1.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One recorded interval: a named stage with start time, duration, the
/// recording thread, and integer counter arguments.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stage name, e.g. `"check.narrowing"`.
    pub name: &'static str,
    /// Category, e.g. `"stage"` or `"prepare"` — Chrome's `cat` field.
    pub cat: &'static str,
    /// Start offset from the recorder's epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread (see `current_tid` for the numbering scheme).
    pub tid: u64,
    /// Integer counter arguments, rendered under Chrome's `args` key.
    pub args: Vec<(&'static str, i64)>,
}

/// Opaque start-of-span token returned by [`Obs::start`].
///
/// Holds the epoch offset when recording is enabled and nothing
/// otherwise, so disabled sites never read the clock.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Option<u64>);

/// Collects [`Span`]s from any number of threads.
///
/// Timestamps are microsecond offsets from the recorder's creation
/// instant (its *epoch*), which keeps them compact and stable across
/// serialisation. The span list is protected by a mutex; spans are only
/// recorded at stage boundaries (a handful per check), so contention is
/// negligible next to the work being measured.
#[derive(Debug, Default)]
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// Creates an empty recorder whose epoch is "now".
    pub fn new() -> Recorder {
        Recorder {
            epoch: Some(Instant::now()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds elapsed since the recorder's epoch.
    pub fn timestamp_us(&self) -> u64 {
        let epoch = match self.epoch {
            Some(e) => e,
            None => return 0,
        };
        u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records one finished span.
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Returns a snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders all recorded spans in the Chrome trace event format.
    ///
    /// The result is a `{"traceEvents": [...]}` JSON object of complete
    /// (`"ph": "X"`) events that loads in `chrome://tracing` and
    /// Perfetto. Spans are emitted sorted by start time so the output is
    /// stable regardless of recording interleaving.
    pub fn chrome_trace(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_us, s.tid, s.name));
        let mut out = String::with_capacity(64 + spans.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&mut out, span.name);
            out.push_str(",\"cat\":");
            write_json_string(&mut out, span.cat);
            out.push_str(",\"ph\":\"X\",\"ts\":");
            out.push_str(&span.start_us.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&span.dur_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&span.tid.to_string());
            out.push_str(",\"args\":{");
            for (j, (key, value)) in span.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, key);
                out.push(':');
                out.push_str(&value.to_string());
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string emitter: quotes, escapes `"`/`\\` and control
/// characters. Span names and argument keys are static identifiers, but
/// escaping keeps the emitter safe for any input.
fn write_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Cheap cloneable handle used at instrumentation sites.
///
/// The default handle is *disabled*: it holds no recorder, and every
/// operation on it is a no-op behind a single `Option` branch. An
/// enabled handle (see [`Obs::recording`]) shares one [`Recorder`]
/// across clones, so per-check configs cloned into worker threads all
/// feed the same trace.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    recorder: Option<Arc<Recorder>>,
}

impl Obs {
    /// A disabled handle: all operations are no-ops.
    pub fn disabled() -> Obs {
        Obs { recorder: None }
    }

    /// A handle that records spans into `recorder`.
    pub fn recording(recorder: Arc<Recorder>) -> Obs {
        Obs {
            recorder: Some(recorder),
        }
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The shared recorder, when enabled.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Marks the start of a span. Reads the clock only when enabled.
    #[inline]
    pub fn start(&self) -> SpanStart {
        SpanStart(self.recorder.as_ref().map(|r| r.timestamp_us()))
    }

    /// Closes a span opened with [`start`](Obs::start) and records it
    /// with the given counter arguments. A no-op when disabled.
    #[inline]
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        start: SpanStart,
        args: &[(&'static str, i64)],
    ) {
        let (recorder, start_us) = match (&self.recorder, start.0) {
            (Some(r), Some(s)) => (r, s),
            _ => return,
        };
        let end_us = recorder.timestamp_us();
        recorder.record(Span {
            name,
            cat,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            tid: current_tid(),
            args: args.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let t0 = obs.start();
        obs.span("check.narrowing", "stage", t0, &[("events", 3)]);
        assert!(obs.recorder().is_none());
    }

    #[test]
    fn spans_round_trip_through_handle() {
        let recorder = Arc::new(Recorder::new());
        let obs = Obs::recording(recorder.clone());
        assert!(obs.is_enabled());
        let t0 = obs.start();
        obs.span("check.narrowing", "stage", t0, &[("events", 42)]);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "check.narrowing");
        assert_eq!(spans[0].cat, "stage");
        assert_eq!(spans[0].args, vec![("events", 42)]);
        assert!(spans[0].tid >= 1);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let recorder = Recorder::new();
        recorder.record(Span {
            name: "check.stems",
            cat: "stage",
            start_us: 10,
            dur_us: 5,
            tid: 2,
            args: vec![("stems", 7), ("effective", -1)],
        });
        recorder.record(Span {
            name: "prepare.base_fixpoint",
            cat: "prepare",
            start_us: 1,
            dur_us: 4,
            tid: 1,
            args: vec![],
        });
        let trace = recorder.chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.ends_with("]}"));
        // Sorted by start time: the prepare span comes first.
        let prep = trace.find("prepare.base_fixpoint").unwrap();
        let stems = trace.find("check.stems").unwrap();
        assert!(prep < stems);
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"stems\":7"));
        assert!(trace.contains("\"effective\":-1"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_trace_is_still_an_object() {
        let recorder = Recorder::new();
        assert!(recorder.is_empty());
        assert_eq!(recorder.chrome_trace(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn concurrent_recording_keeps_all_spans() {
        let recorder = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let obs = Obs::recording(recorder.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let t0 = obs.start();
                    obs.span("check.narrowing", "stage", t0, &[]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(recorder.len(), 100);
    }
}
