//! Spans around the benchmark's own calls into each layer, and the self-time
//! arithmetic that turns them into per-layer numbers.
//!
//! A span records its name, layer, start, end, parent and request id. Spans
//! are kept in memory and written out when the run ends. A layer's self time
//! is its spans' durations minus the part of each interval its child spans
//! cover; root spans belong to no layer, so their self time is the
//! `unattributed` remainder. Per-layer self times plus that remainder add up
//! to the summed root durations — the traced end-to-end time — whenever the
//! spans nest properly, which [`Rollup::reconcile`] checks. Whether the
//! traced requests still describe the untraced ones is a separate check:
//! [`check_overhead`] bounds how much slower a traced request may be.

use std::io::Write;
use std::time::Instant;

/// The program's layers, named after its modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Labeler,
    Store,
    Registry,
    Decode,
    Frozen,
    Generation,
    Ingest,
    Durability,
    Snapshot,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Labeler,
        Layer::Store,
        Layer::Registry,
        Layer::Decode,
        Layer::Frozen,
        Layer::Generation,
        Layer::Ingest,
        Layer::Durability,
        Layer::Snapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Labeler => "labeler",
            Layer::Store => "store",
            Layer::Registry => "registry",
            Layer::Decode => "decode",
            Layer::Frozen => "frozen",
            Layer::Generation => "generation",
            Layer::Ingest => "ingest",
            Layer::Durability => "durability",
            Layer::Snapshot => "snapshot",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// `None` for a root (request) span.
    pub layer: Option<Layer>,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u64,
}

/// In-memory span recorder with an explicit stack of open spans. A
/// disabled tracer records nothing, so one code path serves the untraced
/// and the traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::new() }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A span opened with no
    /// span open starts a new request.
    #[inline]
    pub fn open(&mut self, name: &'static str, layer: Option<Layer>) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.request += 1;
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span { name, layer, start, end: start, parent, request: self.request });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end = self.now();
    }

    /// Times `f` as one span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(layer));
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded so far; a phase that starts with no span open covers
    /// the spans from its mark on.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// The [`Rollup`] of the spans recorded since `mark`.
    pub fn rollup_since(&self, mark: usize) -> Rollup {
        Rollup::of(self.since(mark), mark as u32)
    }

    /// Writes every span as one tab-separated line:
    /// `request  id  parent  layer  name  start_ns  end_ns`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "request\tid\tparent\tlayer\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let layer = s.layer.map_or("-", Layer::name);
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{layer}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to it. `spans[0]` is span number `base` of its tracer
/// (parents are tracer-wide span numbers), and no span of the slice has a
/// parent before it.
pub fn self_times(spans: &[Span], base: u32) -> Vec<u64> {
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[(s.parent - base) as usize].push(id as u32);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k as usize];
                    (c.start.clamp(s.start, s.end), c.end.clamp(s.start, s.end))
                })
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Mean duration of the spans called `name` (0 if there are none).
pub fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + (s.end - s.start)));
    if n == 0 {
        return 0.0;
    }
    total as f64 / n as f64
}

/// Per-layer self times of one traced phase.
#[derive(Clone, Debug, Default)]
pub struct Rollup {
    /// Self nanoseconds per layer, indexed like [`Layer::ALL`].
    pub layer_ns: [u64; 9],
    /// Self time of root spans: time inside requests but in no layer call.
    pub unattributed_ns: u64,
    /// Summed root durations — the traced end-to-end time.
    pub total_ns: u64,
    /// Root spans (requests).
    pub requests: u64,
}

impl Rollup {
    /// Rolls up `spans`, which start at tracer-wide span number `base`.
    pub fn of(spans: &[Span], base: u32) -> Self {
        let mut r = Rollup::default();
        for (s, own) in spans.iter().zip(self_times(spans, base)) {
            match s.layer {
                Some(l) => r.layer_ns[l as usize] += own,
                None => r.unattributed_ns += own,
            }
            if s.parent == NO_PARENT {
                r.total_ns += s.end - s.start;
                r.requests += 1;
            }
        }
        r
    }

    pub fn layer(&self, l: Layer) -> u64 {
        self.layer_ns[l as usize]
    }

    /// Per-layer self times plus `unattributed` must add up to the traced
    /// end-to-end time; they fall short or overshoot only when spans
    /// overlap their siblings or leave their parents.
    pub fn reconcile(&self) -> Result<(), String> {
        let parts: u64 = self.layer_ns.iter().sum::<u64>() + self.unattributed_ns;
        let gap = parts.abs_diff(self.total_ns);
        if self.total_ns == 0 || gap * 1000 > self.total_ns {
            return Err(format!(
                "per-layer self times + unattributed = {parts} ns, traced total = {} ns",
                self.total_ns
            ));
        }
        Ok(())
    }
}

/// How much slower, in percent, a traced query may be than an untraced
/// one. A traced query makes the calls of an untraced one with a timestamp
/// pair around each and its own scratch, warmed only by the sampled
/// queries, so it is two to three times as slow (117–184% on
/// `point_large`, 74–110% on `multi_view`). A traced query over five times
/// as slow does work the program does not, and its per-layer split no
/// longer describes the program.
pub const QUERY_OVERHEAD_MAX_PCT: f64 = 400.0;

/// How much slower, in percent, the traced half of an ingest stream may be
/// per step than the untraced half. Steps wait on acks, so spans cost a few
/// percent (0.5–3% in sizing).
pub const STEP_OVERHEAD_MAX_PCT: f64 = 50.0;

/// A traced phase over twice as fast as its untraced one skips work the
/// program does.
pub const OVERHEAD_MIN_PCT: f64 = -50.0;

/// How much slower, in percent, a traced request is than an untraced one of
/// the same traffic.
pub fn overhead_pct(traced_ns: f64, untraced_ns: f64) -> f64 {
    100.0 * (traced_ns / untraced_ns - 1.0)
}

/// Fails an overhead outside `OVERHEAD_MIN_PCT..=max_pct` (or not a
/// number).
pub fn check_overhead(pct: f64, max_pct: f64) -> Result<(), String> {
    if !(OVERHEAD_MIN_PCT..=max_pct).contains(&pct) {
        return Err(format!(
            "trace overhead {pct:.1}% is outside {OVERHEAD_MIN_PCT}%..={max_pct}%"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, layer: Option<Layer>, start: u64, end: u64) -> Span {
        Span { name: "t", layer, start, end, parent, request: 1 }
    }

    /// A request 0..100 with two store calls (10..30, 40..50), a decode
    /// call 60..90 that itself makes a store call 70..80, and nothing else.
    fn tree() -> Vec<Span> {
        vec![
            span(NO_PARENT, None, 0, 100),
            span(0, Some(Layer::Store), 10, 30),
            span(0, Some(Layer::Store), 40, 50),
            span(0, Some(Layer::Decode), 60, 90),
            span(3, Some(Layer::Store), 70, 80),
        ]
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        assert_eq!(self_times(&tree(), 0), vec![40, 20, 10, 20, 10]);
        let r = Rollup::of(&tree(), 0);
        assert_eq!(r.layer(Layer::Store), 40);
        assert_eq!(r.layer(Layer::Decode), 20);
        assert_eq!(r.unattributed_ns, 40);
        assert_eq!(r.total_ns, 100);
        assert_eq!(r.requests, 1);
        assert!(r.reconcile().is_ok());
    }

    #[test]
    fn overlapping_siblings_fail_to_reconcile() {
        // Two children covering 10..60 and 40..80 overlap by 20 ns: the
        // parent's covered part is 70 ns, but the children's own self times
        // sum to 90, so the parts overshoot the total.
        let spans = vec![
            span(NO_PARENT, None, 0, 100),
            span(0, Some(Layer::Store), 10, 60),
            span(0, Some(Layer::Decode), 40, 80),
        ];
        assert_eq!(self_times(&spans, 0), vec![30, 50, 40]);
        assert!(Rollup::of(&spans, 0).reconcile().is_err());
    }

    #[test]
    fn overhead_outside_its_band_fails() {
        let (query, step) = (QUERY_OVERHEAD_MAX_PCT, STEP_OVERHEAD_MAX_PCT);
        assert!((overhead_pct(1500.0, 1000.0) - 50.0).abs() < 1e-9);
        // Sized overheads pass: 184% on point_large queries, 3% per step.
        assert!(check_overhead(overhead_pct(2840.0, 1000.0), query).is_ok());
        assert!(check_overhead(overhead_pct(1030.0, 1000.0), step).is_ok());
        // A traced query 5.5 times as slow as the call it replays fails...
        assert!(check_overhead(overhead_pct(5500.0, 1000.0), query).is_err());
        // ...as does a traced ingest step 1.6 times as slow...
        assert!(check_overhead(overhead_pct(1600.0, 1000.0), step).is_err());
        // ...a traced phase at under half the untraced time...
        assert!(check_overhead(overhead_pct(400.0, 1000.0), query).is_err());
        // ...or a comparison with nothing measured.
        assert!(check_overhead(overhead_pct(500.0, 0.0), query).is_err());
        assert!(check_overhead(overhead_pct(0.0, 0.0), step).is_err());
    }

    #[test]
    fn tracer_nests_and_counts_requests() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            let root = t.open("request", None);
            let x = t.span("store.label_ref", Layer::Store, || 1 + 1);
            assert_eq!(x, 2);
            let inner = t.open("decode.pi_with", Some(Layer::Decode));
            t.span("store.label_ref", Layer::Store, || ());
            t.close(inner);
            t.close(root);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[3].parent, 2, "the inner store call nests under decode");
        assert_eq!(spans[11].request, 3);
        let r = Rollup::of(spans, 0);
        assert_eq!(r.requests, 3);
        // A phase starting mid-trace rolls up on its own.
        let later = t.rollup_since(4);
        assert_eq!(later.requests, 2);
        assert!(later.reconcile().is_ok());
        assert!(r.reconcile().is_ok());
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 13);
    }
}
