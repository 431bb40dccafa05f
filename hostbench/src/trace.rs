//! Spans around the benchmark's calls into the program's layers.
//!
//! Spans are recorded only while tracing is on. They go to one in-memory
//! buffer shared by the client thread and the simulated processes' threads;
//! simulated processes never run concurrently, so its lock is uncontended.
//! After each item the client folds the item's spans into a [`Profile`]
//! and keeps the spans of the first [`KEEP_ITEMS`] items, which are written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hope_runtime::Ctx;

/// Items whose spans are kept for the end-of-run dump.
pub const KEEP_ITEMS: u64 = 16;

/// A `Ctx` primitive called from the benchmark's own bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    Guess,
    Affirm,
    Send,
    AidInit,
    Checkpoint,
    SendReliable,
    Output,
    Restore,
    Recv,
    Compute,
}

/// The non-blocking primitives whose live latency is reported.
pub const REPORTED_CALLS: [Call; 7] = [
    Call::Guess,
    Call::Affirm,
    Call::Send,
    Call::AidInit,
    Call::Checkpoint,
    Call::SendReliable,
    Call::Output,
];

impl Call {
    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Call::Guess => "guess",
            Call::Affirm => "affirm",
            Call::Send => "send",
            Call::AidInit => "aid_init",
            Call::Checkpoint => "checkpoint",
            Call::SendReliable => "send_reliable",
            Call::Output => "output",
            Call::Restore => "restore",
            Call::Recv => "recv",
            Call::Compute => "compute",
        }
    }

    /// Calls that park the process until the scheduler resumes it.
    fn blocking(self) -> bool {
        matches!(self, Call::Recv | Call::Compute)
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The client's timed item.
    Item,
    /// The top library call of an item: `Simulation::run`,
    /// `hope_mc::check` or `hope_runtime::check_scenario`.
    Outer,
    /// `Simulation::new` and `Simulation::spawn`.
    Build,
    /// A live blocking `Ctx` call: handoff, dispatch and event queue.
    Park,
    /// A live non-blocking `Ctx` call.
    Live(Call),
    /// Any `Ctx` call made while the body replays its journal.
    Replay(Call),
    /// `Machine::step` / `Machine::clone`, timed outside the item.
    Machine,
}

/// One recorded span. Times are nanoseconds since the first span;
/// `parent` indexes the item's span list (`u32::MAX` for none).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: Group,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub item: u32,
}

struct Buffer {
    spans: Vec<Span>,
    item: u32,
    parent: u32,
}

static ON: AtomicBool = AtomicBool::new(false);
static BUF: Mutex<Buffer> = Mutex::new(Buffer {
    spans: Vec::new(),
    item: 0,
    parent: u32::MAX,
});

fn buf() -> std::sync::MutexGuard<'static, Buffer> {
    BUF.lock()
        .expect("a traced body panicked holding the span buffer")
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Start recording item `item`: its spans begin a fresh list.
pub fn begin_item(item: u32) {
    if enabled() {
        let mut b = buf();
        b.spans.clear();
        b.item = item;
        b.parent = u32::MAX;
    }
}

/// Take the spans recorded since [`begin_item`].
pub fn take_item() -> Vec<Span> {
    std::mem::take(&mut buf().spans)
}

/// Run `f` inside a span. `Item` and `Outer` spans become the parent of
/// the spans recorded while they are open.
pub fn span<T>(name: &'static str, group: Group, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (idx, outer_parent) = {
        let mut b = buf();
        let idx = b.spans.len() as u32;
        let span = Span {
            name,
            group,
            start: now_ns(),
            end: 0,
            parent: b.parent,
            item: b.item,
        };
        b.spans.push(span);
        let outer_parent = b.parent;
        if matches!(group, Group::Item | Group::Outer) {
            b.parent = idx;
        }
        (idx, outer_parent)
    };
    let r = f();
    let end = now_ns();
    let mut b = buf();
    b.spans[idx as usize].end = end;
    b.parent = outer_parent;
    r
}

/// Call a `Ctx` primitive from a body inside a span, classed as live,
/// parked or replayed.
pub fn ctx<T>(ctx: &mut Ctx, call: Call, f: impl FnOnce(&mut Ctx) -> T) -> T {
    if !enabled() {
        return f(ctx);
    }
    let group = if ctx.replaying() {
        Group::Replay(call)
    } else if call.blocking() {
        Group::Park
    } else {
        Group::Live(call)
    };
    let start = now_ns();
    let r = f(ctx);
    let end = now_ns();
    let mut b = buf();
    let span = Span {
        name: call.name(),
        group,
        start,
        end,
        parent: b.parent,
        item: b.item,
    };
    b.spans.push(span);
    r
}

/// Nanosecond histogram with unit buckets up to 64 µs.
struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Hist {
    const LIMIT: usize = 1 << 16;

    fn new() -> Self {
        Hist {
            buckets: vec![0; Self::LIMIT + 1],
            count: 0,
        }
    }

    fn add(&mut self, ns: u64) {
        self.buckets[(ns as usize).min(Self::LIMIT)] += 1;
        self.count += 1;
    }

    fn p50(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (ns, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen * 2 >= self.count {
                return ns as f64;
            }
        }
        Self::LIMIT as f64
    }
}

/// Counters read from the reports the library calls return, summed over
/// the traced items.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub events: u64,
    pub lock_acquisitions: u64,
    pub rollbacks: u64,
    pub truncated_entries: u64,
    pub outputs_released: u64,
    pub outputs_discarded: u64,
    pub reliable_sends: u64,
    pub retries: u64,
    pub governor_held: u64,
    pub governor_converted: u64,
    pub governor_transitions: u64,
    pub live_intervals: u64,
    pub reclaimed_journal_entries: u64,
    pub depset_cow_copies: u64,
    pub depset_spills: u64,
    pub mc_transitions: u64,
    pub mc_states: u64,
    pub schedules: u64,
    pub choice_points: u64,
}

impl Counters {
    /// Add a `Simulation` run's statistics.
    pub fn add_run(&mut self, report: &hope_runtime::RunReport) {
        let s = report.stats();
        self.events += report.events();
        self.lock_acquisitions += s.ctx_lock_acquisitions;
        self.rollbacks += s.rollback_events;
        self.truncated_entries += s.truncated_entries;
        self.outputs_released += s.outputs_released;
        self.outputs_discarded += s.outputs_discarded;
        self.reliable_sends += s.faults.reliable_sends;
        self.retries += s.faults.retries;
        self.governor_held += s.governor.held;
        self.governor_converted += s.governor.converted;
        self.governor_transitions += s.governor.transitions;
        self.live_intervals += s.memory.live_intervals;
        self.reclaimed_journal_entries += s.memory.reclaimed_journal_entries;
        self.depset_cow_copies += s.memory.depset_cow_copies;
        self.depset_spills += s.memory.depset_spills;
    }
}

/// Per-layer aggregates of a traced run.
#[derive(Default)]
pub struct Profile {
    items: u64,
    pub counters: Counters,
    live: BTreeMap<Call, Hist>,
    replayed_calls: u64,
    replay_ns: u64,
    parked_calls: u64,
    park_ns: u64,
    outer_ns: u64,
    item_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
    machine: BTreeMap<&'static str, Hist>,
    kept: Vec<Span>,
}

/// Total length of a sorted, merged interval list.
fn covered(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|(a, b)| b - a).sum()
}

/// Sort and merge intervals into a disjoint union.
fn union(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Length of the intersection of two disjoint unions.
fn overlap(x: &[(u64, u64)], y: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        let lo = x[i].0.max(y[j].0);
        let hi = x[i].1.min(y[j].1);
        total += hi.saturating_sub(lo);
        if x[i].1 < y[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Self-time classes, reported as shares of item time.
const SELF_CLASSES: [(&str, u8); 6] = [
    ("item", 0),
    ("outer", 1),
    ("build", 2),
    ("park", 2),
    ("ctx", 3),
    ("replay", 3),
];

fn class_of(g: Group) -> Option<&'static str> {
    Some(match g {
        Group::Item => "item",
        Group::Outer => "outer",
        Group::Build => "build",
        Group::Park => "park",
        Group::Live(_) => "ctx",
        Group::Replay(_) => "replay",
        Group::Machine => return None,
    })
}

impl Profile {
    /// Fold one item's spans.
    pub fn fold(&mut self, spans: Vec<Span>) {
        self.items += 1;
        let mut by_class: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            let d = s.end - s.start;
            match s.group {
                Group::Item => self.item_ns += d,
                Group::Outer => self.outer_ns += d,
                Group::Build => {}
                Group::Park => {
                    self.parked_calls += 1;
                    self.park_ns += d;
                }
                Group::Live(c) => self.live.entry(c).or_insert_with(Hist::new).add(d),
                Group::Replay(_) => {
                    self.replayed_calls += 1;
                    self.replay_ns += d;
                }
                Group::Machine => self.machine.entry(s.name).or_insert_with(Hist::new).add(d),
            }
            if let Some(c) = class_of(s.group) {
                by_class.entry(c).or_default().push((s.start, s.end));
            }
        }
        let unions: BTreeMap<&str, Vec<(u64, u64)>> =
            by_class.into_iter().map(|(c, iv)| (c, union(iv))).collect();
        for (class, depth) in SELF_CLASSES {
            let Some(own) = unions.get(class) else {
                continue;
            };
            let deeper = union(
                SELF_CLASSES
                    .iter()
                    .filter(|(_, d)| *d > depth)
                    .filter_map(|(c, _)| unions.get(c))
                    .flatten()
                    .copied()
                    .collect(),
            );
            *self.self_ns.entry(class).or_default() += covered(own) - overlap(own, &deeper);
        }
        if self.items <= KEEP_ITEMS {
            self.kept.extend(spans);
        }
    }

    /// Write the kept spans as tab-separated lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "item\tname\tgroup\tstart_ns\tend_ns\tparent")?;
        for s in &self.kept {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{}\t{:?}\t{}\t{}\t{}",
                s.item, s.name, s.group, s.start, s.end, parent
            )?;
        }
        w.flush()
    }

    /// Every per-layer metric, by name, with its unit. Metrics of layers a
    /// workload does not use read 0.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let items = self.items.max(1) as f64;
        let c = &self.counters;
        let per_item = |v: u64| v as f64 / items;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let ctx_calls: u64 = self.live.values().map(|h| h.count).sum::<u64>()
            + self.parked_calls
            + self.replayed_calls;
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("scheduler.events".into(), per_item(c.events), "count"),
            (
                "scheduler.ns_per_event".into(),
                if c.events == 0 {
                    0.0
                } else {
                    self.outer_ns as f64 / c.events as f64
                },
                "ns",
            ),
            (
                "scheduler.park_us".into(),
                self.park_ns as f64 / 1e3 / items,
                "us",
            ),
        ];
        for call in REPORTED_CALLS {
            let h = self.live.get(&call);
            m.push((
                format!("ctx.{}_ns", call.name()),
                h.map_or(0.0, Hist::p50),
                "ns",
            ));
            m.push((
                format!("ctx.{}_calls", call.name()),
                per_item(h.map_or(0, |h| h.count)),
                "count",
            ));
        }
        let mc_ns = if c.mc_transitions > 0 {
            self.outer_ns
        } else {
            0
        };
        let simmc_ns = if c.schedules > 0 { self.outer_ns } else { 0 };
        let p50 = |name: &str| self.machine.get(name).map_or(0.0, Hist::p50);
        m.extend([
            (
                "shared.locks_per_call".into(),
                ratio(c.lock_acquisitions, ctx_calls),
                "count",
            ),
            (
                "journal.replayed_calls".into(),
                per_item(self.replayed_calls),
                "count",
            ),
            ("journal.replay_ns".into(), per_item(self.replay_ns), "ns"),
            (
                "journal.replay_share".into(),
                ratio(self.replay_ns, self.outer_ns),
                "ratio",
            ),
            ("engine.rollbacks".into(), per_item(c.rollbacks), "count"),
            (
                "engine.truncated_entries".into(),
                per_item(c.truncated_entries),
                "count",
            ),
            (
                "commit.useful_ratio".into(),
                ratio(c.outputs_released, c.outputs_released + c.outputs_discarded),
                "ratio",
            ),
            (
                "faults.retry_ratio".into(),
                ratio(c.retries, c.reliable_sends),
                "ratio",
            ),
            ("governor.held".into(), per_item(c.governor_held), "count"),
            (
                "governor.converted".into(),
                per_item(c.governor_converted),
                "count",
            ),
            (
                "governor.transitions".into(),
                per_item(c.governor_transitions),
                "count",
            ),
            (
                "fossil.live_intervals".into(),
                per_item(c.live_intervals),
                "count",
            ),
            (
                "fossil.reclaimed_journal_entries".into(),
                per_item(c.reclaimed_journal_entries),
                "count",
            ),
            (
                "depset.cow_copies".into(),
                per_item(c.depset_cow_copies),
                "count",
            ),
            ("depset.spills".into(), per_item(c.depset_spills), "count"),
            ("mc.transitions".into(), per_item(c.mc_transitions), "count"),
            ("mc.states".into(), per_item(c.mc_states), "count"),
            (
                "mc.ns_per_transition".into(),
                ratio(mc_ns, c.mc_transitions),
                "ns",
            ),
            ("machine.step_ns".into(), p50("machine.step"), "ns"),
            ("machine.clone_ns".into(), p50("machine.clone"), "ns"),
            ("simmc.schedules".into(), per_item(c.schedules), "count"),
            (
                "simmc.choice_points".into(),
                per_item(c.choice_points),
                "count",
            ),
            (
                "simmc.us_per_schedule".into(),
                ratio(simmc_ns, c.schedules) / 1e3,
                "us",
            ),
        ]);
        for (class, _) in SELF_CLASSES {
            let ns = self.self_ns.get(class).copied().unwrap_or(0);
            m.push((
                format!("self.{class}_pct"),
                100.0 * ratio(ns, self.item_ns),
                "%",
            ));
        }
        m
    }
}
