//! The four workloads. Each item's inputs are a pure function of the
//! workload seed and the item's index, and every item's result is checked.

use std::collections::BTreeMap;

use hope_core::machine::{Machine, StepOutcome};
use hope_core::program::Program;
use hope_core::AidId;
use hope_mc::{check, McConfig, McReport, Mode};
use hope_recovery::{decode_log_entry, log_entry};
use hope_runtime::mc::{check_scenario, SimMcConfig, SimMcReport};
use hope_runtime::{
    committed_outputs, FaultPlan, GovernorConfig, ProcessId, RunReport, SimConfig, Simulation,
    Value,
};
use hope_sim::{LatencyModel, Topology, VirtualDuration, VirtualTime};

use crate::trace::{self, Call, Counters, Group};

/// The work one item did. It must repeat exactly for the same input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub events: u64,
    pub transitions: u64,
    pub schedules: u64,
    pub rollbacks: u64,
    /// A further workload-specific count (states, choice points, ...).
    pub detail: u64,
}

/// One workload: set-up, the timed item, and the untimed check.
pub trait Workload: Sized {
    type Input;
    type Output;

    /// Untimed warm-up items run during set-up; their work is the digest.
    const WARMUP: u64;
    /// Items per timed round.
    const ROUND: u64;

    /// Build the per-workload references.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Item `i`'s input.
    fn input(&self, i: u64) -> Self::Input;

    /// The timed item.
    fn run(&self, input: &Self::Input) -> Self::Output;

    /// Check an item's result and return the work it did, adding the
    /// library's own counters to `counters`.
    fn check(
        &mut self,
        i: u64,
        input: &Self::Input,
        out: &Self::Output,
        counters: &mut Counters,
    ) -> Result<Work, String>;

    /// Untimed work done only in traced runs, after the item.
    fn traced_extra(&self, _input: &Self::Input) {}

    /// Checks deferred to the end of the run: the failed items' indices.
    fn finish(&mut self) -> Vec<(u64, String)> {
        Vec::new()
    }
}

/// SplitMix64 finaliser: item `i`'s seed under workload seed `seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn us(v: u64) -> VirtualDuration {
    VirtualDuration::from_micros(v)
}

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

fn new_sim(config: SimConfig) -> Simulation {
    trace::span("sim.new", Group::Build, || Simulation::new(config))
}

fn spawn(
    sim: &mut Simulation,
    name: &'static str,
    body: impl Fn(&mut hope_runtime::Ctx) -> hope_runtime::Hope<()> + Send + Sync + 'static,
) -> ProcessId {
    trace::span("sim.spawn", Group::Build, || sim.spawn(name, body))
}

fn run_sim(sim: Simulation) -> RunReport {
    trace::span("sim.run", Group::Outer, || sim.run())
}

fn restored(ctx: &mut hope_runtime::Ctx) -> hope_runtime::Hope<i64> {
    Ok(trace::ctx(ctx, Call::Restore, |c| c.restore())?.map_or(0, |v| v.expect_int()))
}

fn run_work(report: &RunReport) -> Work {
    Work {
        events: report.events(),
        rollbacks: report.stats().rollback_events,
        detail: report.stats().memory.live_intervals,
        ..Work::default()
    }
}

// ---------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------

/// Live intervals allowed at the end of a `stream` item: fossil
/// collection keeps the speculation window, not the run.
const STREAM_LIVE_BOUND: u64 = 512;

/// A fault-free, deny-free speculative stream with fossil collection:
/// guesser → relay → verifier, each stage checkpointing every message.
pub struct Stream {
    seed: u64,
}

pub struct StreamInput {
    seed: u64,
    guesses: i64,
    link_us: u64,
}

impl Workload for Stream {
    type Input = StreamInput;
    type Output = RunReport;
    const WARMUP: u64 = 16;
    const ROUND: u64 = 160;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Stream { seed })
    }

    fn input(&self, i: u64) -> StreamInput {
        let r = mix(self.seed, i);
        StreamInput {
            seed: r,
            guesses: 180 + (r % 41) as i64,
            link_us: 40 + (r >> 16) % 21,
        }
    }

    fn run(&self, input: &StreamInput) -> RunReport {
        let n = input.guesses;
        let config = SimConfig::with_seed(input.seed)
            .with_topology(Topology::uniform(LatencyModel::Fixed(us(input.link_us))))
            .with_max_events(64 * n as u64)
            .with_fossil_collection(true);
        let mut sim = new_sim(config);
        let (relay, verifier) = (ProcessId(1), ProcessId(2));
        spawn(&mut sim, "guesser", move |ctx| {
            let mut i = restored(ctx)?;
            while i < n {
                trace::ctx(ctx, Call::Checkpoint, |c| c.checkpoint(Value::Int(i)))?;
                let aid = trace::ctx(ctx, Call::AidInit, |c| c.aid_init())?;
                trace::ctx(ctx, Call::Send, |c| {
                    c.send(relay, Value::Int(aid.index() as i64))
                })?;
                trace::ctx(ctx, Call::Guess, |c| c.guess(aid))?;
                trace::ctx(ctx, Call::Compute, |c| c.compute(us(100)))?;
                i += 1;
            }
            trace::ctx(ctx, Call::Output, |c| c.output(format!("guessed {n}")))
        });
        spawn(&mut sim, "relay", move |ctx| {
            let mut seen = restored(ctx)?;
            while seen < n {
                trace::ctx(ctx, Call::Checkpoint, |c| c.checkpoint(Value::Int(seen)))?;
                let m = trace::ctx(ctx, Call::Recv, |c| c.recv())?;
                trace::ctx(ctx, Call::Send, |c| c.send(verifier, m.payload))?;
                seen += 1;
            }
            Ok(())
        });
        spawn(&mut sim, "verifier", move |ctx| {
            let mut seen = restored(ctx)?;
            while seen < n {
                trace::ctx(ctx, Call::Checkpoint, |c| c.checkpoint(Value::Int(seen)))?;
                let m = trace::ctx(ctx, Call::Recv, |c| c.recv())?;
                let aid = AidId::from_index(m.payload.expect_int() as u64);
                trace::ctx(ctx, Call::Affirm, |c| c.affirm(aid))?;
                seen += 1;
            }
            Ok(())
        });
        run_sim(sim)
    }

    fn check(
        &mut self,
        _i: u64,
        input: &StreamInput,
        report: &RunReport,
        counters: &mut Counters,
    ) -> Result<Work, String> {
        counters.add_run(report);
        if !report.completed() {
            return Err(format!("stream run did not complete: {report}"));
        }
        let expected = format!("guessed {}", input.guesses);
        if report.output_lines() != [expected.as_str()] {
            return Err(format!("stream committed {:?}", report.output_lines()));
        }
        let live = report.stats().memory.live_intervals;
        if live > STREAM_LIVE_BOUND {
            return Err(format!("{live} live intervals under fossil collection"));
        }
        Ok(run_work(report))
    }
}

// ---------------------------------------------------------------------
// storm
// ---------------------------------------------------------------------

const STORM_STEPS: u64 = 100;

/// A deny storm: optimistic logging over `send_reliable` against a stable
/// store across a lossy link with a blackout window, under the governor.
pub struct Storm {
    seed: u64,
    reference: BTreeMap<ProcessId, Vec<String>>,
}

pub struct StormInput {
    seed: u64,
    /// Blackout window, virtual ms: `None` for the fault-free reference.
    blackout: Option<(u64, u64)>,
}

/// The E21 governor tuning.
fn storm_governor() -> GovernorConfig {
    GovernorConfig::default()
        .with_window(8)
        .with_min_samples(2)
        .with_thresholds(100, 500)
        .with_hold(ms(1))
        .with_probe_after(6)
}

impl Workload for Storm {
    type Input = StormInput;
    type Output = RunReport;
    const WARMUP: u64 = 16;
    const ROUND: u64 = 125;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut storm = Storm {
            seed,
            reference: BTreeMap::new(),
        };
        let reference = storm.run(&StormInput {
            seed,
            blackout: None,
        });
        if !reference.errors().is_empty() || reference.outputs().len() != STORM_STEPS as usize {
            return Err(format!("fault-free storm reference failed: {reference}"));
        }
        storm.reference = committed_outputs(&reference);
        Ok(storm)
    }

    fn input(&self, i: u64) -> StormInput {
        let r = mix(self.seed, i);
        let from = 5 + r % 16;
        StormInput {
            seed: r,
            blackout: Some((from, from + 60 + (r >> 16) % 61)),
        }
    }

    fn run(&self, input: &StormInput) -> RunReport {
        let mut config = SimConfig::with_seed(input.seed)
            .with_topology(Topology::uniform(LatencyModel::Fixed(ms(2))))
            .with_ack_timeout(ms(10))
            .with_ack_backoff_cap(ms(40))
            .with_rollback_overhead(ms(10))
            .with_governor(storm_governor());
        if let Some((from, to)) = input.blackout {
            let at = |t: u64| VirtualTime::ZERO + ms(t);
            config = config.with_faults(
                FaultPlan::new(input.seed ^ 0xC4A0)
                    .drop_rate(0.05)
                    .partition_between(0, 1, at(from), at(to)),
            );
        }
        let mut sim = new_sim(config);
        let store = ProcessId(1);
        // The application of `hope_recovery::run_app_optimistic`.
        spawn(&mut sim, "app", move |ctx| {
            for seq in 0..STORM_STEPS {
                loop {
                    let aid = trace::ctx(ctx, Call::AidInit, |c| c.aid_init())?;
                    trace::ctx(ctx, Call::SendReliable, |c| {
                        c.send_reliable(store, log_entry(aid, seq))
                    })?;
                    if trace::ctx(ctx, Call::Guess, |c| c.guess(aid))? {
                        break;
                    }
                }
                trace::ctx(ctx, Call::Output, |c| {
                    c.output(format!("step {seq} committed"))
                })?;
                trace::ctx(ctx, Call::Compute, |c| c.compute(ms(1)))?;
            }
            Ok(())
        });
        // The store of `hope_recovery::run_stable_store`, optimistic path.
        spawn(&mut sim, "store", move |ctx| loop {
            let msg = trace::ctx(ctx, Call::Recv, |c| c.recv())?;
            let Some((aid, _)) = decode_log_entry(&msg.payload) else {
                continue;
            };
            trace::ctx(ctx, Call::Compute, |c| c.compute(ms(5)))?;
            trace::ctx(ctx, Call::Affirm, |c| c.affirm(aid))?;
        });
        run_sim(sim)
    }

    fn check(
        &mut self,
        _i: u64,
        _input: &StormInput,
        report: &RunReport,
        counters: &mut Counters,
    ) -> Result<Work, String> {
        counters.add_run(report);
        if !report.errors().is_empty() {
            return Err(format!("storm run failed: {:?}", report.errors()));
        }
        if committed_outputs(report) != self.reference {
            return Err("storm committed outputs differ from the fault-free run".into());
        }
        Ok(run_work(report))
    }
}

// ---------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------

/// Every this-many-th program among the first [`NAIVE_ITEMS`] is
/// re-checked with `Mode::Naive`; the fixed count bounds the run's length.
const NAIVE_EVERY: u64 = 16;
const NAIVE_ITEMS: u64 = 1024;
/// State budget of a naive re-check.
const NAIVE_STATES: usize = 20_000;

/// `hope_mc::check` with the default configuration over generated programs.
pub struct Verify {
    seed: u64,
    deferred: Vec<(u64, Program, McReport)>,
}

impl Workload for Verify {
    type Input = Program;
    type Output = McReport;
    const WARMUP: u64 = 256;
    const ROUND: u64 = 400;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Verify {
            seed,
            deferred: Vec::new(),
        })
    }

    fn input(&self, i: u64) -> Program {
        Program::generate(mix(self.seed, i), 3, 4, 2)
    }

    fn run(&self, program: &Program) -> McReport {
        trace::span("mc.check", Group::Outer, || {
            check(program, &McConfig::default())
        })
    }

    fn check(
        &mut self,
        i: u64,
        program: &Program,
        report: &McReport,
        counters: &mut Counters,
    ) -> Result<Work, String> {
        counters.mc_transitions += report.transitions as u64;
        counters.mc_states += report.states as u64;
        if !report.completeness.is_exhausted() {
            return Err(format!("budget exceeded on:\n{program}"));
        }
        // The timed loop restarts at the warm-up's inputs: defer each once.
        let new = self.deferred.last().is_none_or(|d| d.0 < i);
        if i.is_multiple_of(NAIVE_EVERY) && i < NAIVE_ITEMS && new {
            self.deferred.push((i, program.clone(), report.clone()));
        }
        Ok(Work {
            transitions: report.transitions as u64,
            detail: report.states as u64,
            ..Work::default()
        })
    }

    /// Time every step of a seeded run, picking processes the way
    /// `Machine::run_seeded` does, and one clone of the machine mid-run.
    fn traced_extra(&self, program: &Program) {
        const FUEL: u64 = 10_000;
        let mut m = Machine::new(program.clone());
        let n = m.process_count();
        let mut rng = mix(self.seed, 0x5EED);
        let mut steps = 0u64;
        let mut cloned = false;
        'run: while steps < FUEL {
            rng = mix(rng, steps);
            let start = rng as usize % n;
            let mut progressed = false;
            for off in 0..n {
                let p = (start + off) % n;
                let outcome = trace::span("machine.step", Group::Machine, || m.step(p))
                    .expect("machine-built programs cannot err");
                if outcome == StepOutcome::Executed {
                    steps += 1;
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break 'run;
            }
            if !cloned && steps == 6 {
                cloned = true;
                std::hint::black_box(trace::span("machine.clone", Group::Machine, || m.clone()));
            }
        }
    }

    /// Re-check the deferred programs with `Mode::Naive`. A naive run that
    /// exhausts must give the same verdict; one that exceeds its budget
    /// must have found only outcomes the default check found.
    fn finish(&mut self) -> Vec<(u64, String)> {
        let naive = McConfig {
            mode: Mode::Naive,
            max_states: NAIVE_STATES,
            ..McConfig::default()
        };
        let (mut failed, mut partial) = (Vec::new(), 0);
        let deferred = std::mem::take(&mut self.deferred);
        let rechecked = deferred.len();
        for (i, program, report) in deferred {
            let r = check(&program, &naive);
            let got = (r.pristine_witness.is_some(), r.distinct_outputs());
            let want = (report.pristine_witness.is_some(), report.distinct_outputs());
            let agrees = if r.completeness.is_exhausted() {
                got == want && r.outputs() == report.outputs()
            } else {
                partial += 1;
                (want.0 || !got.0) && r.outputs().is_subset(report.outputs())
            };
            if !agrees {
                failed.push((
                    i,
                    format!("naive verdict {got:?} disagrees with {want:?} on:\n{program}"),
                ));
            }
        }
        println!(
            "naive re-check: {rechecked} programs, {partial} over the naive budget \
             (checked as outcome subsets)"
        );
        failed
    }
}

// ---------------------------------------------------------------------
// schedule-check
// ---------------------------------------------------------------------

/// Two senders racing into one receiver, exhausted with
/// `hope_runtime::check_scenario`.
pub struct ScheduleCheck {
    seed: u64,
    /// Outcomes of the unseeded scenario.
    outcomes: usize,
}

pub struct RaceInput {
    seed: u64,
    latency: Option<(u64, u64)>,
}

fn two_sender_race(input: &RaceInput) -> Simulation {
    let mut config = SimConfig::with_seed(input.seed);
    if let Some((lo, hi)) = input.latency {
        config = config.with_topology(Topology::uniform(LatencyModel::Uniform {
            lo: us(lo),
            hi: us(hi),
        }));
    }
    let mut sim = new_sim(config);
    let receiver = ProcessId(0);
    spawn(&mut sim, "receiver", |ctx| {
        let a = trace::ctx(ctx, Call::Recv, |c| c.recv())?;
        let b = trace::ctx(ctx, Call::Recv, |c| c.recv())?;
        let line = format!(
            "got {} then {}",
            a.payload.expect_int(),
            b.payload.expect_int()
        );
        trace::ctx(ctx, Call::Output, |c| c.output(line))
    });
    for (name, v) in [("alice", 1), ("bob", 2)] {
        spawn(&mut sim, name, move |ctx| {
            trace::ctx(ctx, Call::Send, |c| c.send(receiver, Value::Int(v)))?;
            Ok(())
        });
    }
    sim
}

fn exhaust(input: &RaceInput) -> SimMcReport {
    trace::span("simmc.check", Group::Outer, || {
        check_scenario(&SimMcConfig::default(), || two_sender_race(input))
    })
}

impl Workload for ScheduleCheck {
    type Input = RaceInput;
    type Output = SimMcReport;
    const WARMUP: u64 = 16;
    const ROUND: u64 = 125;

    fn setup(seed: u64) -> Result<Self, String> {
        // The reference: the scenario with the default topology and seed.
        let reference = exhaust(&RaceInput {
            seed: 7,
            latency: None,
        });
        if !reference.completeness.is_exhausted() {
            return Err(format!("reference race not exhausted: {reference:?}"));
        }
        Ok(ScheduleCheck {
            seed,
            outcomes: reference.outcomes.len(),
        })
    }

    fn input(&self, i: u64) -> RaceInput {
        let r = mix(self.seed, i);
        let lo = 50 + r % 451;
        RaceInput {
            seed: r,
            latency: Some((lo, lo + 1 + (r >> 16) % 1000)),
        }
    }

    fn run(&self, input: &RaceInput) -> SimMcReport {
        exhaust(input)
    }

    fn check(
        &mut self,
        _i: u64,
        _input: &RaceInput,
        report: &SimMcReport,
        counters: &mut Counters,
    ) -> Result<Work, String> {
        counters.schedules += report.schedules as u64;
        counters.choice_points += report.choice_points as u64;
        if !report.completeness.is_exhausted() {
            return Err(format!("race not exhausted: {report:?}"));
        }
        if report.outcomes.len() != self.outcomes {
            return Err(format!(
                "{} outcomes, the reference has {}",
                report.outcomes.len(),
                self.outcomes
            ));
        }
        Ok(Work {
            schedules: report.schedules as u64,
            detail: report.choice_points as u64,
            ..Work::default()
        })
    }
}
