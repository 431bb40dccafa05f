//! Host-time benchmark of the HOPE runtime and model checkers.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <stream|storm|verify|schedule-check> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread runs a closed loop of items, each checked. With
//! `--trace 0` the last line of standard output is a JSON object holding
//! the end-to-end metrics; with `--trace 1` the run is split into an
//! untraced and a traced half, and the JSON holds the per-layer metrics
//! and the tracing overhead. See `README.md` beside this file.

mod sys;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Counters, Group, Profile};
use workloads::{ScheduleCheck, Storm, Stream, Verify, Work, Workload};

#[global_allocator]
static ALLOC: sys::Counting = sys::Counting;

/// Set-up runs this many times, once every [`SETUP_EVERY`] rounds; its
/// median is reported.
const SETUP_REPS: usize = 5;
const SETUP_EVERY: usize = 3;
/// Rounds per timed phase at least, so that every set-up runs.
const MIN_ROUNDS: usize = SETUP_REPS * SETUP_EVERY;
/// Items per timed phase at least.
const MIN_ITEMS: u64 = 1000;
/// Round trips per host-speed probe.
const PROBE_TRIPS: u64 = 4000;
/// The probe's round trip on the reference host: reported times are host
/// times scaled by `PROBE_REF_US / probe`.
const PROBE_REF_US: f64 = 8.0;

const WORKLOADS: [&str; 4] = ["stream", "storm", "verify", "schedule-check"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad.clone())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a timed phase measured: rounds of items, with the host-speed
/// probe taken before each round and after the last.
struct Phase {
    /// Host seconds per item, by round.
    rounds: Vec<Vec<f64>>,
    probes_us: Vec<f64>,
    /// Peak heap bytes each item held above what was live at its start.
    peaks: Vec<f64>,
    profile: Profile,
}

impl Phase {
    fn items(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Each round's sorted item times and the factor that scales them to
    /// the reference host speed: the mean of the probes around the round.
    fn scaled_rounds(&self) -> Vec<(Vec<f64>, f64)> {
        self.rounds
            .iter()
            .zip(self.probes_us.windows(2))
            .map(|(r, p)| {
                let mut t = r.clone();
                t.sort_by(f64::total_cmp);
                (t, 2.0 * PROBE_REF_US / (p[0] + p[1]))
            })
            .collect()
    }

    /// Throughput, median and p99 of item time, scaled when `scaled`:
    /// each is the median over rounds of the round's own figure, so that a
    /// burst of host stalls in one round does not move it.
    fn summary(&self, scaled: bool) -> (f64, f64, f64) {
        let rounds = self.scaled_rounds();
        let over_rounds = |f: &dyn Fn(&[f64]) -> f64| {
            median(
                rounds
                    .iter()
                    .map(|(t, k)| f(t) * if scaled { *k } else { 1.0 })
                    .collect(),
            )
        };
        (
            1.0 / over_rounds(&|t| t.iter().sum::<f64>() / t.len() as f64),
            over_rounds(&|t| quantile(t, 0.5)),
            over_rounds(&|t| quantile(t, 0.99)),
        )
    }
}

fn median(v: Vec<f64>) -> f64 {
    quantile_of(v, 0.5)
}

fn quantile_of(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run rounds of `W::ROUND` items back to back for `seconds`, and for at
/// least [`MIN_ITEMS`] items and [`MIN_ROUNDS`] rounds, checking every
/// item; failed item indices go to `failed`. Before each round the host
/// speed is probed and `between(round, probe_us)` runs, both untimed.
fn phase<W: Workload>(
    w: &mut W,
    next: &mut u64,
    reference: &[Work],
    seconds: f64,
    traced: bool,
    failed: &mut BTreeSet<u64>,
    mut between: impl FnMut(usize, f64) -> Result<(), String>,
) -> Result<Phase, String> {
    let min_rounds = MIN_ROUNDS.max(MIN_ITEMS.div_ceil(W::ROUND) as usize);
    let mut p = Phase {
        rounds: Vec::new(),
        probes_us: Vec::new(),
        peaks: Vec::new(),
        profile: Profile::default(),
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || p.rounds.len() < min_rounds {
        let probe_us = sys::handoff_probe_us(PROBE_TRIPS);
        p.probes_us.push(probe_us);
        between(p.rounds.len(), probe_us)?;
        trace::set_enabled(traced);
        let mut times = Vec::with_capacity(W::ROUND as usize);
        for _ in 0..W::ROUND {
            let i = *next;
            *next += 1;
            let input = w.input(i);
            trace::begin_item(i as u32);
            let base = sys::Counting::reset_peak();
            let t = Instant::now();
            let out = trace::span("item", Group::Item, || w.run(&input));
            times.push(t.elapsed().as_secs_f64());
            p.peaks.push((sys::Counting::peak() - base) as f64);
            let verdict = w.check(
                i,
                &input,
                std::hint::black_box(&out),
                &mut p.profile.counters,
            );
            drop(out);
            match verdict {
                Ok(work) => match reference.get(i as usize) {
                    Some(expected) if *expected != work => {
                        println!("item {i}: work {work:?} differs from set-up's {expected:?}");
                        failed.insert(i);
                    }
                    _ => {}
                },
                Err(e) => {
                    println!("item {i} failed: {e}");
                    failed.insert(i);
                }
            }
            if traced {
                w.traced_extra(&input);
                p.profile.fold(trace::take_item());
            }
        }
        trace::set_enabled(false);
        p.rounds.push(times);
    }
    p.probes_us.push(sys::handoff_probe_us(PROBE_TRIPS));
    Ok(p)
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// One set-up: build the workload's references and run its warm-up items.
/// Returns the workload, the warm-up items' work and the host seconds.
fn set_up<W: Workload>(seed: u64) -> Result<(W, Vec<Work>, f64), String> {
    let t = Instant::now();
    let mut w = W::setup(seed)?;
    let mut works = Vec::new();
    for i in 0..W::WARMUP {
        let input = w.input(i);
        let out = w.run(&input);
        let work = w
            .check(i, &input, &out, &mut Counters::default())
            .map_err(|e| format!("warm-up item {i}: {e}"))?;
        works.push(work);
    }
    Ok((w, works, t.elapsed().as_secs_f64()))
}

fn drive<W: Workload>(args: &Args) -> Result<Outcome, String> {
    // The first set-up gives the workload and the digest; later ones, spread
    // over the first rounds so they meet different host conditions, are
    // timed and must reproduce the digest exactly. Each set-up time is kept
    // raw and scaled by the probe taken just before it.
    let probe_us = sys::handoff_probe_us(PROBE_TRIPS);
    let (mut w, reference, first) = set_up::<W>(args.seed)?;
    print_digest(&args.workload, args.seed, &reference);
    let mut setup_s = vec![(first, first * PROBE_REF_US / probe_us)];
    let mut digest_stable = true;
    let between = |round: usize, probe_us: f64| -> Result<(), String> {
        if setup_s.len() < SETUP_REPS && round.is_multiple_of(SETUP_EVERY) && round > 0 {
            let (_, works, secs) = set_up::<W>(args.seed)?;
            if works != reference {
                println!("set-up {} reproduced a different digest", setup_s.len());
                digest_stable = false;
            }
            setup_s.push((secs, secs * PROBE_REF_US / probe_us));
        }
        Ok(())
    };

    let mut failed = BTreeSet::new();
    let mut next = 0;
    let mut metrics = Vec::new();
    let attempted = if args.trace {
        let half = args.seconds / 2.0;
        let none = |_, _| Ok(());
        let plain = phase(
            &mut w,
            &mut next,
            &reference,
            half,
            false,
            &mut failed,
            none,
        )?;
        let traced = phase(&mut w, &mut next, &[], half, true, &mut failed, none)?;
        let (p0, p1) = (plain.summary(true).1, traced.summary(true).1);
        let overhead = 100.0 * (p1 / p0 - 1.0);
        println!(
            "tracing overhead: {overhead:+.1}% on the scaled item median \
             (untraced {:.4} ms over {} items, traced {:.4} ms over {} items)",
            p0 * 1e3,
            plain.items(),
            p1 * 1e3,
            traced.items()
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        traced
            .profile
            .write_spans(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans of the first {} traced items: {}",
            trace::KEEP_ITEMS,
            path.display()
        );
        metrics.extend(traced.profile.metrics());
        metrics.push((
            "host.probe_us".into(),
            median(traced.probes_us.clone()),
            "us",
        ));
        metrics.push(("trace.overhead_pct".into(), overhead, "%"));
        plain.items() + traced.items()
    } else {
        let p = phase(
            &mut w,
            &mut next,
            &reference,
            args.seconds,
            false,
            &mut failed,
            between,
        )?;
        let ((raw_rate, raw_p50, raw_p99), (rate, p50, p99)) = (p.summary(false), p.summary(true));
        let setup_raw = median(setup_s.iter().map(|s| s.0).collect());
        let setup_scaled = median(setup_s.iter().map(|s| s.1).collect());
        let items = p.items();
        println!(
            "{items} items in {} rounds of {}; set-up ran {} times; \
             host probe median {:.3} us (reference {PROBE_REF_US} us)",
            p.rounds.len(),
            W::ROUND,
            setup_s.len(),
            median(p.probes_us.clone()),
        );
        println!(
            "raw host time: items_per_s={raw_rate} item_p50_ms={} item_p99_ms={} setup_s={setup_raw}",
            1e3 * raw_p50,
            1e3 * raw_p99,
        );
        metrics.extend([
            ("items_per_s".to_string(), rate, "1/s"),
            ("item_p50_ms".to_string(), 1e3 * p50, "ms"),
            ("item_p99_ms".to_string(), 1e3 * p99, "ms"),
            ("setup_s".to_string(), setup_scaled, "s"),
            (
                "peak_heap_mb".to_string(),
                quantile_of(p.peaks.clone(), 0.99) / 1e6,
                "MB",
            ),
        ]);
        p.items()
    } as u64;
    for (i, e) in w.finish() {
        println!("item {i} failed its deferred check: {e}");
        failed.insert(i);
    }
    let failed = failed.len() as u64;
    println!(
        "failed_frac: {} ({failed} of {attempted} items)",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        correct: failed == 0 && digest_stable,
        attempted,
        failed,
        metrics,
    })
}

/// Print the warm-up items' total work and a hash of every item's work.
fn print_digest(workload: &str, seed: u64, works: &[Work]) {
    let mut total = Work::default();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for w in works {
        total.events += w.events;
        total.transitions += w.transitions;
        total.schedules += w.schedules;
        total.rollbacks += w.rollbacks;
        for v in [w.events, w.transitions, w.schedules, w.rollbacks, w.detail] {
            hash = workloads::mix(hash, v);
        }
    }
    println!(
        "digest {workload} seed={seed} items={} events={} transitions={} schedules={} \
         rollbacks={} hash={hash:016x}",
        works.len(),
        total.events,
        total.transitions,
        total.schedules,
        total.rollbacks
    );
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // Pin before any thread exists, so every simulated process inherits it.
    match sys::pin_to_first_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "stream" => drive::<Stream>(&args),
        "storm" => drive::<Storm>(&args),
        "verify" => drive::<Verify>(&args),
        "schedule-check" => drive::<ScheduleCheck>(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    match outcome {
        Ok(o) => {
            println!("{}", json(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
