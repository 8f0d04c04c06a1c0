//! The benchmark's own span recorder.
//!
//! Each public call into a layer of the program is wrapped in a span:
//! name, start, end, parent and a few numeric attributes. Spans stay in
//! memory and are written out as JSON when the run ends; the per-layer
//! metrics of a traced run are computed from them. With tracing off
//! every call is a branch on a flag, and the program's own `gpm-obs`
//! recorder is never installed in either mode.

use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: Option<usize>,
}

impl Guard<'_> {
    /// Attaches a numeric attribute to the span (no-op when tracing is
    /// off).
    pub fn set(&self, key: &'static str, value: f64) {
        if let Some(id) = self.id {
            self.tracer.spans.borrow_mut()[id].attrs.push((key, value));
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[id].end_ns = now;
            let popped = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.open.borrow_mut().push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn run<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Every closed span named `name`, in start order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Durations in seconds of every span named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.named(name).iter().map(Span::secs).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The span tree as JSON: `{"spans": [{id, parent, name, start_ns,
    /// end_ns, attrs}]}`.
    pub fn to_json(&self) -> String {
        use gpm_json::Json;
        let spans = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "attrs".into(),
                        Json::Obj(
                            s.attrs
                                .iter()
                                .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        gpm_json::write(&Json::Obj(vec![("spans".into(), Json::Arr(spans))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::new(true);
        {
            let outer = t.span("outer");
            outer.set("n", 3.0);
            t.run("inner", || ());
        }
        let outer = &t.named("outer")[0];
        let inner = &t.named("inner")[0];
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(outer.attr("n"), Some(3.0));
        assert!(t.to_json().contains("\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.run("x", || t.span("y").set("k", 1.0));
        assert_eq!(t.len(), 0);
    }
}
