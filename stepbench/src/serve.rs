//! `serve_soak`: an open-loop tenant command stream derived from a
//! synthetic cluster trace, served by `ServeEngine` with fair-share
//! admission, against the same stream served one trial per array (no
//! fusion), and by engines that checkpoint, are killed halfway and are
//! recovered from their journal. Every run must settle every trial with
//! the same outcome.
//!
//! The engine derives its SLO rollup from the ambient profiler's flight
//! journal, so every engine here runs under an installed profiler, traced
//! or not; each engine gets a fresh one so journals do not accumulate.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hfta_cluster::replay::{normalize_arrivals_open, sweep_arrivals, OpenLoopCfg};
use hfta_cluster::trace::{generate, TraceCfg};
use hfta_sched::asha::RungPolicy;
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_serve::engine::{ServeCfg, ServeCmd, ServeEngine, ServeRun, SweepSpec, TrialOutcome};
use hfta_serve::AdmitPolicy;
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_telemetry::report::RunReport;
use hfta_telemetry::Profiler;

use crate::hostspeed::{HostClock, Timings};
use crate::layers::{op_metrics, overhead, Counters};
use crate::spans::{median, windowed_quantile, Spans};
use crate::{metric, mix, peak_mem_mb, Args, Outcome};

/// Trials in the command stream.
const TRIALS: usize = 128;
/// Simulated seconds the arrivals are spread over.
const SPAN_S: f64 = 0.05;
/// Burst-grouping gap when recovering sweeps from the trace, seconds.
const BURST_GAP_S: u64 = 120;
/// Minimum burst size to count as a sweep.
const MIN_BURST: usize = 4;
/// Fraction of bursts the open-loop normalizer keeps.
const RATE_SCALE: f64 = 0.9;
/// Tenant sweep sizes carved out of the trace's bursts, cycled: a mix
/// of short exploratory sweeps and long batch grids.
const CHUNK_SIZES: [usize; 4] = [12, 4, 16, 8];
/// Widest fused array the fused legs may build.
const WIDTH_CAP: usize = 8;
/// Set-ups per run; `setup_s` is their median at the host's nominal
/// speed.
const SETUP_REPS: u64 = 25;
/// Rounds per run at least.
const MIN_ROUNDS: usize = 5;
/// Engines killed and recovered per round.
const RECOVERIES_PER_ROUND: usize = 2;
/// How strongly engine steps follow the host-speed reference (see
/// `hostspeed`).
const ELASTICITY: f64 = 0.5;
/// Consecutive steps `step_ms_p95` is taken over before the median over
/// such windows: ten steps lie beyond each window's p95.
const P95_WINDOW: usize = 200;

type Commands = Vec<(f64, ServeCmd<LinearTrialCfg>)>;

/// Seed of the synthetic cluster trace. The arrival pattern is part of
/// the workload's definition, so it stays fixed; `--seed` varies what the
/// trials train on (their initialization and batches).
const TRACE_SEED: u64 = 42;
/// Seed of the open-loop thinning coin.
const OPEN_LOOP_SEED: u64 = 7;

/// The replayed command stream: each kept burst of the trace becomes one
/// tenant sweep; small sweeps get high priority so preemption has work.
/// No cancels, so outcomes do not depend on the schedule.
fn command_stream() -> Result<Commands, String> {
    let jobs = generate(&TraceCfg::small(), TRACE_SEED);
    let bursts = sweep_arrivals(&jobs, BURST_GAP_S, MIN_BURST);
    let open = OpenLoopCfg {
        rate_scale: RATE_SCALE,
        seed: OPEN_LOOP_SEED,
    };
    let kept = normalize_arrivals_open(&bursts, SPAN_S, &open);
    // One chunk per strided burst spreads the trials over the whole span.
    let avg_chunk = CHUNK_SIZES.iter().sum::<usize>() / CHUNK_SIZES.len();
    let stride = (kept.len() * avg_chunk * 3 / (TRIALS * 4)).max(1);
    let mut cmds = Vec::new();
    let mut total = 0;
    for (j, (bi, t)) in kept.iter().enumerate().step_by(stride) {
        if total == TRIALS {
            break;
        }
        let take = CHUNK_SIZES[(j / stride) % CHUNK_SIZES.len()]
            .min(bursts[*bi].trials)
            .min(TRIALS - total);
        let spec = SweepSpec {
            tenant: format!("{}-{bi}", bursts[*bi].user),
            priority: match take {
                0..=4 => 8.0,
                5..=8 => 4.0,
                9..=12 => 2.0,
                _ => 1.0,
            },
            archs: Vec::new(),
            configs: (0..take)
                .map(|k| LinearTrialCfg {
                    lr: 0.004 * (1 + (k % 12)) as f32,
                    poison_at: ((total + k) % 9 == 4).then_some(1),
                })
                .collect(),
        };
        total += take;
        cmds.push((*t, ServeCmd::Submit(spec)));
    }
    if total < TRIALS {
        return Err(format!(
            "the trace yields only {total} sweep trials, fewer than the {TRIALS} the stream needs"
        ));
    }
    Ok(cmds)
}

fn fleet() -> DeviceFleet {
    DeviceFleet::heterogeneous(
        &[
            (DeviceSpec::v100(), 2),
            (DeviceSpec::rtx6000(), 1),
            (DeviceSpec::a100(), 1),
        ],
        false,
    )
}

struct Soak {
    seed: u64,
    commands: Commands,
    dir: PathBuf,
}

impl Soak {
    /// Linear classifiers on 256-sample batches of 128 features: enough
    /// work per trial step that the soak's time is not dominated by the
    /// checkpoint store's small file writes, whose latency on a shared disk
    /// swings widely from run to run (at 32 samples the soak's throughput
    /// spread 17% between runs, at 256 it spread 4%).
    fn backend(&self) -> LinearBackend {
        LinearBackend {
            base_seed: mix(self.seed, 9),
            n: 256,
            f_in: 128,
            classes: 10,
            ..LinearBackend::default()
        }
    }

    fn cfg(&self, width_cap: usize, checkpoint: bool) -> ServeCfg {
        ServeCfg {
            policy: AdmitPolicy::FairShare,
            rung: RungPolicy {
                base_steps: 2,
                eta: 2,
                rungs: 3,
            },
            width_cap,
            checkpoint_dir: checkpoint.then(|| self.dir.clone()),
        }
    }

    fn engine(&self, width_cap: usize, checkpoint: bool) -> ServeEngine<LinearBackend> {
        ServeEngine::new(
            self.backend(),
            fleet(),
            self.cfg(width_cap, checkpoint),
            self.commands.clone(),
        )
        .expect("the checkpoint directory is writable")
    }
}

/// One engine's run: per-step wall times, the outcomes, and what its
/// profiler recorded.
struct Served {
    steps: Timings,
    run: ServeRun,
    batches: u64,
    report: RunReport,
    /// Per trial: whether it reached a terminal state.
    settled: Vec<bool>,
}

impl Served {
    /// Trial-steps trained: the backend records one loss per trial step.
    fn trial_samples(&self, batch: usize) -> usize {
        let steps: usize = self.report.experiments[0]
            .scalars
            .iter()
            .filter(|s| s.metric == "loss")
            .map(|s| s.points.len())
            .sum();
        steps * batch
    }
}

/// Steps `eng` until it runs dry, timing each `ServeEngine::step` and
/// sampling the host's speed between them.
fn drain(
    mut eng: ServeEngine<LinearBackend>,
    profiler: &Profiler,
    spans: &Spans,
    clock: &mut HostClock,
    first_ms: Option<f64>,
) -> Served {
    let mut steps = Timings::default();
    if let Some(ms) = first_ms {
        steps.push(clock, ms);
    }
    loop {
        clock.tick();
        let t0 = Instant::now();
        let more = spans
            .time("serve.step", steps.len() as u64, || eng.step())
            .expect("journal writes succeed");
        if !more {
            break;
        }
        steps.push(clock, t0.elapsed().as_secs_f64() * 1e3);
    }
    let settled = (0..eng.trial_count() as u64)
        .map(|t| eng.state(t).is_terminal())
        .collect();
    let batches = eng.batches();
    let run = spans.time("serve.finish", 0, || eng.finish());
    Served {
        steps,
        run,
        batches,
        report: profiler.report(),
        settled,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".stepbench-tmp")
        .join(format!("serve-{}", std::process::id()));
    let out = soak(args, &dir);
    let _ = fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Fails, harmlessly, while another run still uses it.
        let _ = fs::remove_dir(parent);
    }
    out
}

fn soak(args: &Args, dir: &Path) -> Result<Outcome, String> {
    // Set-up: trace, stream and engine construction, repeated.
    let setup_spans = Spans::new(args.trace);
    let mut clock = HostClock::new(ELASTICITY);
    let mut setup = Timings::default();
    let mut commands = Vec::new();
    for rep in 0..SETUP_REPS {
        clock.tick();
        let t0 = Instant::now();
        commands = setup_spans.time("cluster.stream", rep, command_stream)?;
        let soak = Soak {
            seed: args.seed,
            commands: commands.clone(),
            dir: dir.to_path_buf(),
        };
        let profiler = Profiler::new("stepbench-serve");
        let _guard = profiler.install();
        drop(setup_spans.time("serve.new", rep, || soak.engine(WIDTH_CAP, false)));
        setup.push(&clock, t0.elapsed().as_secs_f64() * 1e3);
    }
    let soak = Soak {
        seed: args.seed,
        commands,
        dir: dir.to_path_buf(),
    };
    let batch = soak.backend().n;

    // Rounds, until the time budget is spent: a fused soak, the same stream
    // served one trial per array (the unfused baseline), and engines
    // killed at half their batches and recovered. A traced run spends half
    // its budget on these, the base of the overhead ratio, and the other
    // half on fused soaks with spans on.
    //
    // Only the engines killed and recovered write checkpoints. The timed
    // soaks do not: on a shared disk the checkpoint store's file creates
    // and renames stall for milliseconds at a time, as often or not as the
    // disk's other users make them, and the soak's throughput then spread
    // by a fifth between runs.
    let off = Spans::new(false);
    let fused = |spans: &Spans, clock: &mut HostClock, checkpoint: bool| {
        let profiler = Profiler::new("stepbench-serve");
        let _guard = profiler.install();
        let eng = spans.time("serve.new", 0, || soak.engine(WIDTH_CAP, checkpoint));
        drain(eng, &profiler, spans, clock, None)
    };
    let (mut runs, mut serial, mut recovered) = (Vec::new(), Vec::new(), Vec::new());
    let mut recover = Timings::default();
    let served_unfused = |clock: &mut HostClock| {
        let profiler = Profiler::new("stepbench-serve");
        let _guard = profiler.install();
        drain(soak.engine(1, false), &profiler, &off, clock, None)
    };
    // Untimed but checked: one fused soak with checkpoints, the reference
    // for outcomes and for the checkpoint counts and bytes.
    let reference = fused(&off, &mut clock, true);
    let ckpt_bytes = dir_bytes(dir);
    let budget = if args.trace { 0.5 } else { 1.0 } * args.seconds;
    let start = Instant::now();
    while runs.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget {
        runs.push(fused(&off, &mut clock, false));
        serial.push(served_unfused(&mut clock));

        for _ in 0..RECOVERIES_PER_ROUND {
            let profiler = Profiler::new("stepbench-serve");
            let _guard = profiler.install();
            let mut eng = soak.engine(WIDTH_CAP, true);
            for _ in 0..reference.batches / 2 {
                if !eng.step().expect("journal writes succeed") {
                    break;
                }
            }
            drop(eng);
            clock.tick();
            let t0 = Instant::now();
            let mut eng = ServeEngine::recover(
                soak.backend(),
                fleet(),
                soak.cfg(WIDTH_CAP, true),
                soak.commands.clone(),
            )
            .map_err(|e| format!("recovery failed: {e}"))?;
            let more = eng.step().expect("journal writes succeed");
            let first_ms = t0.elapsed().as_secs_f64() * 1e3;
            recover.push(&clock, first_ms);
            recovered.push(drain(
                eng,
                &profiler,
                &off,
                &mut clock,
                more.then_some(first_ms),
            ));
        }
    }
    let peak_mb = peak_mem_mb();
    // Step times at the host's nominal speed (or unscaled), and trial
    // samples per second of stepping: the median over the soaks.
    let served = |runs: &[Served], clock: Option<&HostClock>| {
        let mut ms = Vec::new();
        let mut per_s = Vec::new();
        for r in runs {
            let soak = clock.map_or_else(|| r.steps.ms.clone(), |c| r.steps.scaled(c, 0));
            per_s.push(r.trial_samples(batch) as f64 / (soak.iter().sum::<f64>() / 1e3));
            ms.extend(soak);
        }
        (ms, median(&per_s))
    };
    let (untraced, samples) = served(&runs, Some(&clock));
    let (_, serial_samples) = served(&serial, Some(&clock));

    let spans = Spans::new(true);
    let mut traced = Vec::new();
    let (mut before, mut after) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while args.trace && (traced.is_empty() || start.elapsed().as_secs_f64() < budget) {
        before.push(Counters::read());
        traced.push(fused(&spans, &mut clock, false));
        after.push(Counters::read());
    }

    // Output checks, per trial: terminal, and with the same outcome, in
    // every run (fused, unfused and recovered) as in the reference run.
    let outcomes: &[TrialOutcome] = &reference.run.outcomes;
    let mut failed = 0;
    for (i, want) in outcomes.iter().enumerate() {
        let all = || {
            let timed = runs.iter().chain(&traced).chain(&serial);
            std::iter::once(&reference).chain(timed).chain(&recovered)
        };
        let unsettled = all().any(|r| r.settled.get(i) != Some(&true));
        let differs = all().any(|r| r.run.outcomes.get(i) != Some(want));
        if unsettled || differs {
            eprintln!(
                "FAIL: trial {i}: left non-terminal ({unsettled}) or outcome differs ({differs})"
            );
            failed += 1;
        }
    }

    let report = &reference.run.report;
    let metrics = if args.trace {
        let (traced_ms, _) = served(&traced, Some(&clock));
        let steps = traced_ms.len() as f64;
        let ops = &traced[0].report.experiments[0].ops;
        let mut m = vec![
            metric("serve.batches", reference.batches as f64, "count"),
            metric("serve.checkpoints", report.checkpoints as f64, "count"),
            metric(
                "serve.restores",
                recovered[0].run.report.restores as f64,
                "count",
            ),
            metric("serve.preemptions", report.preemptions as f64, "count"),
            metric("serve.ckpt_bytes", ckpt_bytes as f64, "bytes"),
            metric("serve.sim_makespan_ms", report.makespan_s * 1e3, "sim_ms"),
            metric(
                "serve.sim_serial_makespan_ms",
                serial[0].run.report.makespan_s * 1e3,
                "sim_ms",
            ),
            metric(
                "serve.sim_queue_wait_p99_us",
                report.queue_wait_p99_us,
                "sim_us",
            ),
            metric("sched.finished", report.finished as f64, "count"),
            metric("sched.stopped", report.stopped as f64, "count"),
            metric("sched.killed", report.killed as f64, "count"),
            metric(
                "cluster.stream_ms",
                setup_spans.ms_per_call("cluster.stream"),
                "ms",
            ),
            metric(
                "telemetry.flight_events",
                reference.report.experiments[0].flight.len() as f64,
                "count",
            ),
            overhead(median(&traced_ms), median(&untraced)),
        ];
        m.extend(Counters::per_step(&before, &after, steps));
        // Op samples of one traced soak, per engine step.
        m.extend(op_metrics(ops, traced[0].steps.len() as f64));
        m
    } else {
        let finished: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.has_loss)
            .map(|o| f64::from(f32::from_bits(o.loss_bits)))
            .collect();
        vec![
            metric("samples_per_s", samples, "1/s"),
            metric("serial_samples_per_s", serial_samples, "1/s"),
            metric("step_ms_p50", median(&untraced), "ms"),
            metric(
                "step_ms_p95",
                windowed_quantile(&untraced, P95_WINDOW, 0.95),
                "ms",
            ),
            metric("setup_s", median(&setup.scaled(&clock, 0)) / 1e3, "s"),
            metric("peak_mem_mb", peak_mb, "MB"),
            metric(
                "train_loss",
                finished.iter().sum::<f64>() / finished.len().max(1) as f64,
                "nats",
            ),
            metric("recover_s", median(&recover.scaled(&clock, 0)) / 1e3, "s"),
        ]
    };
    Ok(Outcome {
        attempted: outcomes.len() as u64,
        failed,
        metrics,
        speedup: (samples, serial_samples),
        wall: (served(&runs, None).1, served(&serial, None).1),
        host_speed: clock.speed(),
    })
}
