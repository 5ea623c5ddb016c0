//! Spans around the benchmark's calls into each layer.
//!
//! The benchmark measures the simulator from outside: every call it makes
//! into a layer's public API goes through [`span`]. With recording off
//! (the untraced runs that give the end-to-end numbers) a span is one
//! thread-local flag read. With recording on, spans are kept in memory and
//! written once, at exit, as a Chrome trace-event file that Perfetto opens.

use std::cell::RefCell;
use std::time::Instant;

use smt_obs::Json;

struct Span {
    layer: &'static str,
    name: String,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start or stop recording on this thread. Spans accumulate across
/// recording periods.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Run `f` inside a span named `layer`/`name` when recording.
pub fn span<T>(layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let origin = *r.origin.get_or_insert_with(Instant::now);
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns: origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent,
        });
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.map_or(0, |o| o.elapsed().as_nanos() as u64);
            let s = &mut r.spans[idx];
            s.dur_ns = end - s.start_ns;
            r.open.pop();
        });
    }
    out
}

/// Number of spans recorded since recording started.
pub fn count() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Self time per layer in seconds (a span's duration minus the time its
/// child spans cover), sorted by layer name.
pub fn self_seconds_by_layer() -> Vec<(&'static str, f64)> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in r.spans.iter().zip(child_ns) {
            let own = s.dur_ns.saturating_sub(c) as f64 * 1e-9;
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer.sort_by(|a, b| a.0.cmp(b.0));
        by_layer
    })
}

/// The recorded spans as a Chrome trace-event document.
pub fn chrome_trace() -> Json {
    REC.with(|r| {
        let r = r.borrow();
        let events = r
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name.clone())),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Json::F64(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::U64(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        set_recording(true);
        span("outer", "a", || {
            span("inner", "b", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(count(), 2);
        let layers = self_seconds_by_layer();
        let outer = layers.iter().find(|(l, _)| *l == "outer").unwrap().1;
        let inner = layers.iter().find(|(l, _)| *l == "inner").unwrap().1;
        assert!(inner >= 0.005 && outer < inner, "{layers:?}");
        let doc = chrome_trace().render();
        assert!(doc.contains("\"parent\":0"), "{doc}");
        set_recording(false);
        span("off", "c", || ());
        assert_eq!(count(), 2, "no spans while recording is off");
    }
}
