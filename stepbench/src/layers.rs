//! Per-layer metrics read from what the library already exposes: the
//! profiler's per-op samples (`OpAgg`), the memory and worker-pool
//! counters (as before/after deltas) and the probe's machine peaks.

use hfta_telemetry::report::OpAgg;

use crate::{metric, Metric};

/// Every per-layer metric and its unit. A traced run prints all of them;
/// a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("data.batch_ms", "ms"),
    ("plan.plan_ms", "ms"),
    ("plan.fused_fraction", "ratio"),
    ("plan.blocks", "count"),
    ("core.build_ms", "ms"),
    ("core.fwd_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("core.opt_ms", "ms"),
    ("nn.bwd_ms", "ms"),
    ("nn.ops_per_step", "count"),
    ("kernels.conv_ms", "ms"),
    ("kernels.conv_gflops", "GFLOP/s"),
    ("kernels.matmul_ms", "ms"),
    ("kernels.matmul_gflops", "GFLOP/s"),
    ("kernels.pool_dispatches", "count"),
    ("tensor.elementwise_ms", "ms"),
    ("tensor.layout_ms", "ms"),
    ("probe.conv_pct_of_peak", "%"),
    ("probe.matmul_pct_of_peak", "%"),
    ("mem.fresh_allocs_per_step", "count"),
    ("mem.pool_reuses_per_step", "count"),
    ("sim.v100_step_us", "sim_us"),
    ("sim.v100_serial_step_us", "sim_us"),
    ("serve.batches", "count"),
    ("serve.checkpoints", "count"),
    ("serve.restores", "count"),
    ("serve.preemptions", "count"),
    ("serve.ckpt_bytes", "bytes"),
    ("serve.sim_makespan_ms", "sim_ms"),
    ("serve.sim_serial_makespan_ms", "sim_ms"),
    ("serve.sim_queue_wait_p99_us", "sim_us"),
    ("sched.finished", "count"),
    ("sched.stopped", "count"),
    ("sched.killed", "count"),
    ("cluster.stream_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.flight_events", "count"),
];

/// Counters the library exposes, read before and after a traced window.
pub struct Counters {
    fresh_allocs: u64,
    reuses: u64,
    dispatches: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let m = hfta_mem::stats();
        Counters {
            fresh_allocs: m.fresh_allocs(),
            reuses: m.pool_reuses,
            dispatches: hfta_kernels::pool_dispatches(),
        }
    }

    /// Per-step deltas summed over `(before, after)` window pairs.
    pub fn per_step(before: &[Counters], after: &[Counters], steps: f64) -> Vec<Metric> {
        let d = |f: fn(&Counters) -> u64| {
            let sum: u64 = before.iter().zip(after).map(|(b, a)| f(a) - f(b)).sum();
            sum as f64 / steps
        };
        vec![
            metric("kernels.pool_dispatches", d(|c| c.dispatches), "count"),
            metric("mem.fresh_allocs_per_step", d(|c| c.fresh_allocs), "count"),
            metric("mem.pool_reuses_per_step", d(|c| c.reuses), "count"),
        ]
    }
}

/// Op names that both the tape's forward span and the kernel's own sample
/// record. Their aggregates hold every forward call twice, once nested in
/// the other, so the kernel's share is taken as half.
const NESTED: [&str; 3] = ["conv2d", "matmul", "bmm"];
const CONV: [&str; 3] = ["conv2d", "conv2d_grad_input", "conv2d_grad_weight"];
const GEMM: [&str; 5] = ["matmul", "bmm", "baddbmm", "bmm_nt", "bmm_tn"];
const LAYOUT: [&str; 5] = ["concat", "narrow", "reshape", "permute", "flatten"];

/// Kernel-level totals of the ops named in `names`.
fn kernel_agg(ops: &[OpAgg], names: &[&str]) -> OpAgg {
    let mut agg = OpAgg {
        name: names[0].into(),
        calls: 0,
        flops: 0.0,
        bytes: 0.0,
        ns: 0.0,
    };
    for op in ops.iter().filter(|o| names.contains(&o.name.as_str())) {
        let share = if NESTED.contains(&op.name.as_str()) {
            0.5
        } else {
            1.0
        };
        agg.calls += op.calls;
        agg.flops += op.flops * share;
        agg.bytes += op.bytes * share;
        agg.ns += op.ns * share;
    }
    agg
}

/// Kernel and tensor-op time per step, attained GFLOP/s and percent of
/// the probe's attainable peak, from the op samples of a traced window.
/// Forward ops are sampled by the tape; backward work is sampled only
/// where it runs a conv or GEMM kernel.
pub fn op_metrics(ops: &[OpAgg], steps: f64) -> Vec<Metric> {
    let conv = kernel_agg(ops, &CONV);
    let gemm = kernel_agg(ops, &GEMM);
    let ms = |pred: &dyn Fn(&str) -> bool| {
        ops.iter()
            .filter(|o| pred(&o.name))
            .map(|o| o.ns)
            .sum::<f64>()
            / 1e6
            / steps
    };
    let layout_ms = ms(&|n| LAYOUT.contains(&n));
    let elementwise_ms = ms(&|n| !(CONV.contains(&n) || GEMM.contains(&n) || LAYOUT.contains(&n)));
    let gflops = |a: &OpAgg| if a.ns > 0.0 { a.flops / a.ns } else { 0.0 };
    let threads = hfta_kernels::num_threads();
    let peaks = hfta_probe::calibrate(&[threads]);
    let peak = peaks
        .entry_for(threads as u64)
        .expect("one calibrated entry");
    let pct = |a: &OpAgg| {
        if a.ns > 0.0 {
            hfta_probe::classify(a, peak).pct_of_peak
        } else {
            0.0
        }
    };
    vec![
        metric("kernels.conv_ms", conv.ns / 1e6 / steps, "ms"),
        metric("kernels.conv_gflops", gflops(&conv), "GFLOP/s"),
        metric("kernels.matmul_ms", gemm.ns / 1e6 / steps, "ms"),
        metric("kernels.matmul_gflops", gflops(&gemm), "GFLOP/s"),
        metric("tensor.elementwise_ms", elementwise_ms, "ms"),
        metric("tensor.layout_ms", layout_ms, "ms"),
        metric("probe.conv_pct_of_peak", pct(&conv), "%"),
        metric("probe.matmul_pct_of_peak", pct(&gemm), "%"),
    ]
}

/// `telemetry.overhead_pct`: traced over untraced median step, minus one.
pub fn overhead(traced_p50: f64, untraced_p50: f64) -> Metric {
    metric(
        "telemetry.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    )
}
