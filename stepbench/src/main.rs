//! Wall-clock benchmark of HFTA sweep throughput: a planned (horizontally
//! fused) training sweep against the same sweep run as B serial models,
//! plus a soak of the multi-tenant tuning service.
//!
//! ```text
//! stepbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads: `dcgan_fused`, `mlp_adam`, `mixed_plan` (training, see
//! `train.rs`) and `serve_soak` (see `serve.rs`). Every input is generated
//! from `--seed`. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! installs the library's profiler, records the benchmark's spans around
//! each layer call and prints the per-layer metrics instead.
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the host facts and the derived fusion speedup. The exit code
//! is 0 when every output check passed, 1 when one failed and 2 on a
//! usage error.

mod hostspeed;
mod layers;
mod serve;
mod spans;
mod train;

use std::process::ExitCode;

const USAGE: &str = "usage: stepbench --workload <dcgan_fused|mlp_adam|mixed_plan|serve_soak> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => match value.parse::<u32>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(f64::from(s)),
                _ => return Err(format!("--seconds needs 1..=600, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run measured and checked.
pub struct Outcome {
    /// Operations whose outputs were checked (lanes or trials).
    pub attempted: u64,
    /// Checked operations whose outputs were wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `samples_per_s` and `serial_samples_per_s`, the bases of the
    /// fusion speedup.
    pub speedup: (f64, f64),
    /// The same two from unscaled wall time.
    pub wall: (f64, f64),
    /// The host's speed over the run relative to the nominal one.
    pub host_speed: f64,
}

/// SplitMix64 finalizer: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Peak bytes of live tensor storage the memory layer accounted, in MB:
/// what the run needed at once, without the pool's and scratch arenas'
/// cached buffers.
pub fn peak_mem_mb() -> f64 {
    hfta_mem::stats().peak_live_bytes as f64 / 1e6
}

fn host_line(args: &Args, out: &Outcome) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ratio = |(planned, serial): (f64, f64)| {
        format!(
            "{{\"value\": {}, \"samples_per_s\": {planned}, \"serial_samples_per_s\": {serial}}}",
            planned / serial
        )
    };
    format!(
        "{{\"host\": {{\"cpus\": {cpus}, \"threads\": {}, \"gemm_backend\": \"{}\", \
         \"avx2_fma\": {}, \"tune_db\": {}, \"profile\": \"{}\"}}, \
         \"workload\": \"{}\", \"seed\": {}, \"host_speed\": {}, \"fusion_speedup\": {}, \
         \"unscaled_fusion_speedup\": {}}}",
        hfta_kernels::num_threads(),
        hfta_kernels::backend().name(),
        hfta_kernels::simd_available(),
        hfta_kernels::tune::enabled(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload,
        args.seed,
        out.host_speed,
        ratio(out.speedup),
        ratio(out.wall),
    )
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Worker threads the library runs with unless `HFTA_NUM_THREADS` says
/// otherwise. One: on a shared host a second pool thread waits on
/// whichever vCPU a neighbour holds, and step times then swing by half
/// from run to run.
const DEFAULT_THREADS: &str = "1";

fn main() -> ExitCode {
    if std::env::var_os("HFTA_NUM_THREADS").is_none() {
        std::env::set_var("HFTA_NUM_THREADS", DEFAULT_THREADS);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "serve_soak" => serve::run(&args),
        name => match train::workload(name) {
            Some(w) => Ok(train::run(&w, &args)),
            None => Err(format!("unknown workload {name:?}")),
        },
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        for (name, unit) in layers::PER_LAYER {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.metrics.push(metric(name, 0.0, unit));
            }
        }
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            eprintln!("FAIL: metric {} is not finite", m.name);
            out.failed = out.failed.max(1);
            m.value = 0.0;
        }
    }
    println!("{}", host_line(&args, &out));
    println!("{}", result_line(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
