//! Training workloads: one sweep of B models trained twice, first as the
//! planner's plan (fused where the graphs allow) and then as B width-1
//! serial models, the paper's baseline and the bit-identity reference.
//!
//! Training is driven only through `ModelGraph` -> `FusionPlan` ->
//! `PlannedArray` -> `PlannedOptimizer`. The planned leg feeds every lane
//! from one shared data loader, as the paper's sweeps do; the serial leg
//! gives each lane its own loader with the same seed, so both legs see
//! identical batches and the serial leg pays data loading B times.

use std::time::Instant;

use hfta_core::optim::PerModel;
use hfta_core::planned::{per_lane_ce, PlannedArray, PlannedOptimizer};
use hfta_core::surgery::LaneState;
use hfta_data::{LabeledImages, PointClouds};
use hfta_models::dcgan::DcganCfg;
use hfta_models::graphs::{discriminator_graph, discriminator_variant_graph, pointnet_cls_graph};
use hfta_models::pointnet::PointNetCfg;
use hfta_models::{planned_step_time_s, serial_step_time_s, PlanSimCfg};
use hfta_plan::{FusionPlan, ModelGraph, OpKind};
use hfta_sim::{DeviceSpec, GpuSim};
use hfta_telemetry::Profiler;
use hfta_tensor::Tensor;

use crate::hostspeed::{HostClock, Timings};
use crate::layers::{op_metrics, overhead, Counters};
use crate::spans::{median, windowed_quantile, Spans};
use crate::{metric, mix, peak_mem_mb, Args, Outcome};

/// Set-ups per run; `setup_s` is their median at the host's nominal
/// speed.
const SETUP_REPS: u64 = 15;
/// Untimed steps at the end of each set-up (pool and cache warm-up).
const WARMUP_STEPS: usize = 2;
/// Timed planned steps an untraced run takes at least: p95 then has ten
/// samples beyond it. `step_ms_p95` is the median of the p95s of
/// consecutive windows of this many steps. `train_loss` is the mean loss
/// over the first this many steps after warm-up, which every run takes in
/// the same order.
const MIN_STEPS: usize = 200;
/// Seconds the planned leg steps per round; the serial leg then takes as
/// many steps, and a recovery ends the round.
const ROUND_S: f64 = 1.0;
/// How strongly training steps follow the host-speed reference (see
/// `hostspeed`).
const ELASTICITY: f64 = 0.8;
/// Classes the DCGAN-D classifiers score.
const IMAGE_CLASSES: usize = 10;

#[derive(Clone, Copy)]
enum Data {
    /// `LabeledImages` of this side.
    Images(usize),
    /// The x coordinates of `PointClouds` with this many points.
    PointFeatures(usize),
}

#[derive(Clone, Copy)]
enum Optim {
    Adam,
    Sgd(f32),
}

/// One training workload.
pub struct Workload {
    lanes: usize,
    batch: usize,
    data: Data,
    optim: Optim,
    /// Base learning rate; lane `l` trains at `lr * (1 + l / 4)`.
    lr: f32,
    graphs: fn(usize) -> Vec<ModelGraph>,
}

pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "dcgan_fused" => Workload {
            lanes: 8,
            batch: 8,
            data: Data::Images(16),
            optim: Optim::Adam,
            lr: 2e-4,
            graphs: dcgan_graphs,
        },
        "mlp_adam" => Workload {
            lanes: 4,
            batch: 8,
            data: Data::PointFeatures(1024),
            optim: Optim::Adam,
            lr: 1e-3,
            graphs: mlp_graphs,
        },
        "mixed_plan" => Workload {
            lanes: 4,
            batch: 16,
            data: Data::Images(16),
            optim: Optim::Sgd(0.9),
            lr: 0.002,
            graphs: mixed_graphs,
        },
        _ => return None,
    })
}

/// A DCGAN discriminator whose final conv scores `IMAGE_CLASSES` classes
/// instead of one real/fake logit, so cross-entropy has something to learn.
fn classifier(graph: ModelGraph) -> ModelGraph {
    let mut ops = graph.ops;
    let head = ops
        .iter_mut()
        .rev()
        .find(|op| op.kind == OpKind::Conv2d)
        .expect("DCGAN-D ends in a conv");
    head.c_out = IMAGE_CLASSES;
    ModelGraph::new(format!("{}-cls", graph.name), graph.input, ops)
}

/// B identical DCGAN-D classifiers (width 16, 16x16 images): one fused block.
fn dcgan_graphs(lanes: usize) -> Vec<ModelGraph> {
    let cfg = DcganCfg {
        latent: 16,
        width: 16,
        image: 16,
    };
    vec![classifier(discriminator_graph(cfg)); lanes]
}

/// B identical PointNet-cls heads at paper width: the Linear+BN+ReLU
/// 1024 -> 512 -> 256 -> 16 tail after the global max pool.
fn mlp_graphs(lanes: usize) -> Vec<ModelGraph> {
    let cfg = PointNetCfg {
        width: 64,
        classes: 16,
        with_stn: false,
    };
    let full = pointnet_cls_graph(cfg, 1024);
    let pool = full
        .ops
        .iter()
        .position(|op| op.kind == OpKind::GlobalMaxPool)
        .expect("PointNet-cls has a global max pool");
    let head = full.ops[pool + 1..].to_vec();
    vec![ModelGraph::new("pointnet-cls-head", vec![head[0].c_in], head); lanes]
}

/// The heterogeneous sweep: two base DCGAN-D classifiers (width 8) and two
/// variants with one and two extra refinement convs, so the plan has
/// fused prefix/suffix blocks and width-1 serial middles.
fn mixed_graphs(lanes: usize) -> Vec<ModelGraph> {
    let cfg = DcganCfg {
        latent: 16,
        width: 8,
        image: 16,
    };
    (0..lanes)
        .map(|l| classifier(discriminator_variant_graph(cfg, [0, 1, 0, 2][l % 4])))
        .collect()
}

enum Loader {
    Images(LabeledImages),
    Points(PointClouds),
}

impl Loader {
    fn new(data: Data, seed: u64) -> Loader {
        match data {
            Data::Images(side) => Loader::Images(LabeledImages::new(side, IMAGE_CLASSES, seed)),
            Data::PointFeatures(points) => Loader::Points(PointClouds::new(points, seed)),
        }
    }

    fn batch(&mut self, n: usize) -> (Tensor, Vec<usize>) {
        match self {
            Loader::Images(d) => d.batch(n),
            Loader::Points(d) => {
                let (x, y) = d.batch(n);
                let xs = x.chunk(3, 1).swap_remove(0);
                (xs.reshape(&[n, d.points()]), y)
            }
        }
    }
}

/// A planned array, its optimizer and its data loaders (one shared by
/// every lane, or one per lane).
struct Session {
    array: PlannedArray,
    opt: PlannedOptimizer,
    loaders: Vec<Loader>,
    lanes: usize,
    batch: usize,
    /// Tape nodes of the last step (forward plus loss).
    tape_nodes: usize,
}

fn lane_seeds(seed: u64, lanes: usize) -> Vec<u64> {
    (0..lanes as u64).map(|l| mix(seed, 100 + l)).collect()
}

fn build(
    w: &Workload,
    graphs: &[ModelGraph],
    plan: &FusionPlan,
    seed: u64,
    spans: &Spans,
    id: u64,
) -> (PlannedArray, PlannedOptimizer) {
    let seeds = lane_seeds(seed, w.lanes);
    let array = spans
        .time("core.build", id, || {
            PlannedArray::build(graphs, plan, &seeds)
        })
        .expect("the sweep's plan executes");
    let lr = PerModel::new(
        (0..w.lanes)
            .map(|l| w.lr * (1.0 + l as f32 / 4.0))
            .collect(),
    );
    let opt = match w.optim {
        Optim::Adam => PlannedOptimizer::adam(&array, &lr),
        Optim::Sgd(momentum) => PlannedOptimizer::sgd(&array, &lr, momentum),
    }
    .expect("one learning rate per lane");
    (array, opt)
}

impl Session {
    fn new(
        w: &Workload,
        graphs: &[ModelGraph],
        plan: &FusionPlan,
        seed: u64,
        loaders: usize,
        spans: &Spans,
        id: u64,
    ) -> Session {
        let (array, opt) = build(w, graphs, plan, seed, spans, id);
        Session {
            array,
            opt,
            loaders: (0..loaders)
                .map(|_| Loader::new(w.data, mix(seed, 1)))
                .collect(),
            lanes: w.lanes,
            batch: w.batch,
            tape_nodes: 0,
        }
    }

    fn next_batch(&mut self, spans: &Spans, id: u64) -> (Vec<Tensor>, Vec<Vec<usize>>) {
        let n = self.batch;
        if let [shared] = self.loaders.as_mut_slice() {
            let (x, y) = spans.time("data.batch", id, || shared.batch(n));
            (vec![x; self.lanes], vec![y; self.lanes])
        } else {
            self.loaders
                .iter_mut()
                .map(|l| spans.time("data.batch", id, || l.batch(n)))
                .unzip()
        }
    }

    /// One training step: data, forward, loss, backward, optimizer.
    /// Returns the per-lane losses.
    fn step(&mut self, spans: &Spans, id: u64) -> Vec<f32> {
        spans.time("step", id, || {
            let (inputs, targets) = self.next_batch(spans, id);
            self.train(&inputs, &targets, spans, id)
        })
    }

    fn train(
        &mut self,
        inputs: &[Tensor],
        targets: &[Vec<usize>],
        spans: &Spans,
        id: u64,
    ) -> Vec<f32> {
        let (tape, outs) = spans
            .time("core.forward", id, || self.array.forward(inputs))
            .expect("planned forward");
        let (losses, total) = spans.time("core.loss", id, || per_lane_ce(&outs, targets));
        self.tape_nodes = tape.len();
        spans.time("nn.backward", id, || total.backward());
        spans.time("core.opt", id, || {
            self.opt.step();
            self.opt.zero_grad();
        });
        losses
    }

    fn lane_states(&self) -> Vec<LaneState> {
        (0..self.lanes)
            .map(|l| self.opt.extract_lane(&self.array, l))
            .collect()
    }
}

/// Steps taken by a leg, with their wall times and per-lane loss bits.
#[derive(Default)]
struct Leg {
    steps: Timings,
    /// Index one past the last step of each call to `run`.
    ends: Vec<usize>,
    wall_s: f64,
    loss_bits: Vec<Vec<u32>>,
}

impl Leg {
    /// Takes `n` untimed steps (warm-up); their losses are still checked.
    fn warm_up(&mut self, sess: &mut Session, n: usize) {
        for _ in 0..n {
            let losses = sess.step(&Spans::new(false), 0);
            self.loss_bits.push(to_bits(&losses));
        }
    }

    /// Takes one untimed step, then timed steps until `min_steps` are done
    /// and `seconds` passed, sampling the host's speed between them. The
    /// untimed step finds the other leg's model in the caches; timed, these
    /// first steps of a round made up the slowest few percent of a run and
    /// moved `step_ms_p95` by a fifth from run to run.
    fn run(
        &mut self,
        sess: &mut Session,
        spans: &Spans,
        clock: &mut HostClock,
        min_steps: usize,
        seconds: f64,
    ) {
        self.warm_up(sess, 1);
        let mut wall = 0.0;
        let mut done = 0;
        while done < min_steps || wall < seconds {
            clock.tick();
            let t0 = Instant::now();
            let losses = sess.step(spans, self.loss_bits.len() as u64);
            let s = t0.elapsed().as_secs_f64();
            self.steps.push(clock, s * 1e3);
            self.loss_bits.push(to_bits(&losses));
            wall += s;
            done += 1;
        }
        self.wall_s += wall;
        self.ends.push(self.steps.len());
    }

    /// Samples over all lanes per second of stepping at the host's
    /// nominal speed: the median over the leg's rounds.
    fn samples_per_s(&self, w: &Workload, clock: &HostClock) -> f64 {
        let ms = self.steps.scaled(clock, 0);
        let mut from = 0;
        let per_round: Vec<f64> = self
            .ends
            .iter()
            .map(|&to| {
                let round = &ms[std::mem::replace(&mut from, to)..to];
                (round.len() * w.lanes * w.batch) as f64 / (round.iter().sum::<f64>() / 1e3)
            })
            .collect();
        median(&per_round)
    }

    /// The same from raw wall time.
    fn wall_samples_per_s(&self, w: &Workload) -> f64 {
        (self.steps.len() * w.lanes * w.batch) as f64 / self.wall_s
    }
}

fn to_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

fn param_bits(states: &[LaneState]) -> Vec<Vec<u32>> {
    states
        .iter()
        .map(|s| {
            s.params
                .iter()
                .flat_map(|t| t.to_vec())
                .map(f32::to_bits)
                .collect()
        })
        .collect()
}

/// One recovery: the planned session's lane states are spliced into a
/// freshly built array, which takes the next step. The uninterrupted
/// session then takes that same step as its regular next step (untimed,
/// like the serial leg's matching step), and the two must agree.
struct Recovery {
    recovered: Vec<u32>,
    uninterrupted: Vec<u32>,
}

fn recover(w: &Workload, run: &mut Run, seed: u64) -> Recovery {
    let off = Spans::new(false);
    let states = run.sess.lane_states();
    let (inputs, targets) = run.sess.next_batch(&off, 0);
    run.clock.tick();
    let t0 = Instant::now();
    let (array, mut opt) = build(w, &run.graphs, &run.plan, seed, &off, 0);
    opt.splice_lanes(&array, &states);
    let mut rec = Session {
        array,
        opt,
        loaders: Vec::new(),
        lanes: w.lanes,
        batch: w.batch,
        tape_nodes: 0,
    };
    let recovered = to_bits(&rec.train(&inputs, &targets, &off, 0));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    run.recover.push(&run.clock, ms);
    drop(rec);
    let uninterrupted = to_bits(&run.sess.train(&inputs, &targets, &off, 0));
    run.planned.loss_bits.push(uninterrupted.clone());
    let (inputs, targets) = run.ser.next_batch(&off, 0);
    let serial = run.ser.train(&inputs, &targets, &off, 0);
    run.serial.loss_bits.push(to_bits(&serial));
    Recovery {
        recovered,
        uninterrupted,
    }
}

/// Both legs of one run, stepped in alternating rounds so that both see
/// the same mix of host conditions.
struct Run {
    graphs: Vec<ModelGraph>,
    plan: FusionPlan,
    sess: Session,
    planned: Leg,
    ser: Session,
    serial: Leg,
    clock: HostClock,
    /// Recovery times, up to the end of the first step after recovery.
    recover: Timings,
}

impl Run {
    /// One round: planned steps for `ROUND_S`, then the serial leg takes
    /// as many.
    fn round(&mut self, spans: &Spans) {
        let before = self.planned.steps.len();
        self.planned
            .run(&mut self.sess, spans, &mut self.clock, 1, ROUND_S);
        let steps = self.planned.steps.len() - before;
        let off = Spans::new(false);
        self.serial
            .run(&mut self.ser, &off, &mut self.clock, steps, 0.0);
    }
}

pub fn run(w: &Workload, args: &Args) -> Outcome {
    let seed = args.seed;
    let off = Spans::new(false);

    // Set-up, repeated; the last session is the one timed.
    let setup_spans = Spans::new(args.trace);
    let mut clock = HostClock::new(ELASTICITY);
    let mut setup = Timings::default();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        clock.tick();
        let t0 = Instant::now();
        let graphs = (w.graphs)(w.lanes);
        let plan = setup_spans
            .time("plan.plan", rep, || FusionPlan::plan(&graphs))
            .expect("the sweep plans");
        let mut sess = Session::new(w, &graphs, &plan, seed, 1, &setup_spans, rep);
        let mut leg = Leg::default();
        leg.warm_up(&mut sess, WARMUP_STEPS);
        setup.push(&clock, t0.elapsed().as_secs_f64() * 1e3);
        kept = Some((graphs, plan, sess, leg));
    }
    let (graphs, plan, sess, planned) = kept.expect("at least one set-up");
    // Live bytes peak before the serial leg exists: the planned session's.
    let peak_mb = peak_mem_mb();

    // The serial leg: B width-1 models, each with its own loader.
    let serial_plan = FusionPlan::serial(&graphs).expect("the sweep shape-checks");
    let mut ser = Session::new(w, &graphs, &serial_plan, seed, w.lanes, &off, 0);
    let mut serial = Leg::default();
    serial.warm_up(&mut ser, WARMUP_STEPS);
    let mut run = Run {
        graphs,
        plan,
        sess,
        planned,
        ser,
        serial,
        clock,
        recover: Timings::default(),
    };

    // Untraced rounds, each ending with a recovery, for the run's time. A
    // traced run takes half as many, the base of its overhead ratio, then
    // traced steps.
    let (min_steps, share) = if args.trace {
        (MIN_STEPS / 4, 0.5)
    } else {
        (MIN_STEPS, 1.0)
    };
    let start = Instant::now();
    let mut recoveries = Vec::new();
    while run.planned.steps.len() < min_steps
        || start.elapsed().as_secs_f64() < share * args.seconds
    {
        run.round(&off);
        recoveries.push(recover(w, &mut run, seed));
    }
    let untraced = run.planned.steps.scaled(&run.clock, 0);

    let mut layers = Vec::new();
    if args.trace {
        // Only the planned steps are traced: the profiler is installed and
        // the counters read around them alone.
        let spans = Spans::new(true);
        let profiler = Profiler::new("stepbench");
        let window = profiler.experiment("planned");
        let (mut before, mut after) = (Vec::new(), Vec::new());
        let first = run.planned.steps.len();
        // Every step taken under the profiler, untimed ones included.
        let mut profiled = 0;
        let start = Instant::now();
        while run.planned.steps.len() - first < min_steps
            || start.elapsed().as_secs_f64() < share * args.seconds
        {
            let guard = profiler.install();
            before.push(Counters::read());
            let from = run.planned.steps.len();
            let taken = run.planned.loss_bits.len();
            run.planned
                .run(&mut run.sess, &spans, &mut run.clock, 1, ROUND_S);
            after.push(Counters::read());
            drop(guard);
            profiled += run.planned.loss_bits.len() - taken;
            let steps = run.planned.steps.len() - from;
            run.serial
                .run(&mut run.ser, &off, &mut run.clock, steps, 0.0);
        }
        drop(window);
        let steps = profiled as f64;
        let report = profiler.report();
        let ops = &report.experiment("planned").expect("planned scope").ops;
        let sim = GpuSim::new(DeviceSpec::v100(), false);
        let sim_cfg = PlanSimCfg {
            batch: w.batch,
            ..PlanSimCfg::default()
        };
        let sim_us = |s: Result<f64, _>| s.expect("the sweep lowers") * 1e6;
        let plan = &run.plan;
        layers = vec![
            metric("data.batch_ms", spans.ms_per_call("data.batch"), "ms"),
            metric("plan.plan_ms", setup_spans.ms_per_call("plan.plan"), "ms"),
            metric("plan.fused_fraction", plan.fused_fraction(), "ratio"),
            metric("plan.blocks", plan.blocks.len() as f64, "count"),
            metric("core.build_ms", setup_spans.ms_per_call("core.build"), "ms"),
            metric("core.fwd_ms", spans.ms_per_step("core.forward"), "ms"),
            metric("core.loss_ms", spans.ms_per_step("core.loss"), "ms"),
            metric("core.opt_ms", spans.ms_per_step("core.opt"), "ms"),
            metric("nn.bwd_ms", spans.ms_per_step("nn.backward"), "ms"),
            metric("nn.ops_per_step", run.sess.tape_nodes as f64, "count"),
            metric(
                "sim.v100_step_us",
                sim_us(planned_step_time_s(&sim, &run.graphs, plan, &sim_cfg)),
                "sim_us",
            ),
            metric(
                "sim.v100_serial_step_us",
                sim_us(serial_step_time_s(&sim, &run.graphs, &sim_cfg)),
                "sim_us",
            ),
            overhead(
                median(&run.planned.steps.scaled(&run.clock, first)),
                median(&untraced),
            ),
        ];
        layers.extend(Counters::per_step(&before, &after, steps));
        layers.extend(op_metrics(ops, steps));
    }

    // Output checks, per lane.
    let (pb, sb) = (
        param_bits(&run.sess.lane_states()),
        param_bits(&run.ser.lane_states()),
    );
    let mut failed = 0;
    for lane in 0..w.lanes {
        let lane_losses = |leg: &Leg| leg.loss_bits.iter().map(|s| s[lane]).collect::<Vec<u32>>();
        let (p, s) = (lane_losses(&run.planned), lane_losses(&run.serial));
        let mut why = Vec::new();
        if p.iter().chain(&s).any(|b| !f32::from_bits(*b).is_finite()) {
            why.push("a loss is not finite");
        }
        if p != s {
            why.push("per-step loss bits differ from the serial leg");
        }
        if pb[lane] != sb[lane] {
            why.push("final parameters differ from the serial leg");
        }
        if recoveries
            .iter()
            .any(|r| r.recovered[lane] != r.uninterrupted[lane])
        {
            why.push("the first step after a recovery differs from the uninterrupted step");
        }
        if !why.is_empty() {
            eprintln!("FAIL: lane {lane}: {}", why.join("; "));
            failed += 1;
        }
    }

    let samples = run.planned.samples_per_s(w, &run.clock);
    let serial_samples = run.serial.samples_per_s(w, &run.clock);
    let metrics = if args.trace {
        layers
    } else {
        let recover_s: Vec<f64> = run.recover.scaled(&run.clock, 0).iter().map(|ms| ms / 1e3).collect();
        let first = &run.planned.loss_bits[WARMUP_STEPS..WARMUP_STEPS + MIN_STEPS];
        let losses = first
            .iter()
            .flatten()
            .map(|b| f64::from(f32::from_bits(*b)));
        let train_loss = losses.sum::<f64>() / (MIN_STEPS * w.lanes) as f64;
        vec![
            metric("samples_per_s", samples, "1/s"),
            metric("serial_samples_per_s", serial_samples, "1/s"),
            metric("step_ms_p50", median(&untraced), "ms"),
            metric(
                "step_ms_p95",
                windowed_quantile(&untraced, MIN_STEPS, 0.95),
                "ms",
            ),
            metric("setup_s", median(&setup.scaled(&run.clock, 0)) / 1e3, "s"),
            metric("peak_mem_mb", peak_mb, "MB"),
            metric("train_loss", train_loss, "nats"),
            metric("recover_s", median(&recover_s), "s"),
        ]
    };
    Outcome {
        attempted: w.lanes as u64,
        failed,
        metrics,
        speedup: (samples, serial_samples),
        wall: (
            run.planned.wall_samples_per_s(w),
            run.serial.wall_samples_per_s(w),
        ),
        host_speed: run.clock.speed(),
    }
}
