//! Generated bit-identity proof of the single-pass optimizer updates: a
//! fused optimizer over `B` lanes must leave every parameter lane and every
//! optimizer-state lane bit-for-bit equal to `B` serial `hfta-nn`
//! optimizers, for random widths, per-lane lengths (including lanes longer
//! than one parallel range, so ranges straddle lane boundaries), per-lane
//! hyper-parameters, step counts and an optional quarantined lane.
//!
//! The thread count comes from `HFTA_NUM_THREADS`; run this file at 1 and
//! at 4 threads to prove the updates do not depend on it.

use hfta_core::ops::FusedParameter;
use hfta_core::optim::{FusedAdadelta, FusedAdam, FusedOptimizer, FusedSgd, PerModel};
use hfta_nn::{Adadelta, Adam, Optimizer, Parameter, Sgd};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Elements per parallel range of the elementwise kernels.
const GRAIN: usize = 1 << 15;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Sgd,
    SgdMomentum,
    Adam,
    Adadelta,
}

/// Per-lane hyper-parameters drawn for one case.
struct Hyper {
    lr: Vec<f32>,
    momentum: Vec<f32>,
    rho: Vec<f32>,
}

impl Hyper {
    fn draw(rng: &mut Rng, b: usize) -> Self {
        Hyper {
            lr: (0..b).map(|_| rng.uniform(1e-3, 0.5)).collect(),
            // One lane in four runs without momentum even in the momentum
            // case: a zero-momentum lane must behave as plain SGD.
            momentum: (0..b)
                .map(|_| {
                    if rng.below(4) == 0 {
                        0.0
                    } else {
                        rng.uniform(0.1, 0.95)
                    }
                })
                .collect(),
            rho: (0..b).map(|_| rng.uniform(0.5, 0.99)).collect(),
        }
    }
}

fn serial_opt(kind: Kind, params: Vec<Parameter>, h: &Hyper, lane: usize) -> Box<dyn Optimizer> {
    match kind {
        Kind::Sgd => Box::new(Sgd::new(params, h.lr[lane], 0.0)),
        Kind::SgdMomentum => Box::new(Sgd::new(params, h.lr[lane], h.momentum[lane])),
        Kind::Adam => Box::new(Adam::new(params, h.lr[lane])),
        Kind::Adadelta => Box::new(Adadelta::with_rho(params, h.lr[lane], h.rho[lane], 1e-6)),
    }
}

fn fused_opt(kind: Kind, params: Vec<FusedParameter>, h: &Hyper) -> Box<dyn FusedOptimizer> {
    let lr = PerModel::new(h.lr.clone());
    match kind {
        Kind::Sgd => Box::new(FusedSgd::new(params, lr, 0.0).unwrap()),
        Kind::SgdMomentum => {
            Box::new(FusedSgd::with_momenta(params, lr, PerModel::new(h.momentum.clone())).unwrap())
        }
        Kind::Adam => Box::new(FusedAdam::new(params, lr).unwrap()),
        Kind::Adadelta => {
            Box::new(FusedAdadelta::new(params, lr, PerModel::new(h.rho.clone()), 1e-6).unwrap())
        }
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn concat(parts: &[Tensor]) -> Tensor {
    Tensor::concat(&parts.iter().collect::<Vec<_>>(), 0)
}

/// Trains `kind` fused and serially side by side and compares every lane.
/// Lane `quarantine` (if in range) is quarantined before step
/// `quarantine_at` and receives NaN gradients from then on; its serial
/// twin stops stepping there.
#[allow(clippy::too_many_arguments)]
fn check(
    kind: Kind,
    seed: u64,
    b: usize,
    lens: &[usize],
    steps: usize,
    quarantine: usize,
    quarantine_at: usize,
) -> Result<(), String> {
    let mut rng = Rng::seed_from(seed);
    let h = Hyper::draw(&mut rng, b);
    // serial[lane][pi]
    let serial: Vec<Vec<Parameter>> = (0..b)
        .map(|lane| {
            lens.iter()
                .enumerate()
                .map(|(pi, &n)| Parameter::new(rng.randn([n]), format!("w{lane}.{pi}")))
                .collect()
        })
        .collect();
    let fused: Vec<FusedParameter> = (0..lens.len())
        .map(|pi| {
            let lanes: Vec<Tensor> = serial.iter().map(|ps| ps[pi].value_cloned()).collect();
            FusedParameter {
                param: Parameter::new(concat(&lanes), format!("f{pi}")),
                b,
            }
        })
        .collect();
    let mut serial_opts: Vec<Box<dyn Optimizer>> = serial
        .iter()
        .enumerate()
        .map(|(lane, ps)| serial_opt(kind, ps.clone(), &h, lane))
        .collect();
    let mut fused_opt = fused_opt(kind, fused.clone(), &h);
    for step in 0..steps {
        let frozen = |lane: usize| lane == quarantine && step >= quarantine_at;
        if quarantine < b && step == quarantine_at {
            fused_opt.quarantine(quarantine);
        }
        for (pi, fp) in fused.iter().enumerate() {
            let grads: Vec<Tensor> = (0..b)
                .map(|lane| {
                    if frozen(lane) {
                        Tensor::full([lens[pi]], f32::NAN)
                    } else {
                        rng.randn([lens[pi]])
                    }
                })
                .collect();
            for (lane, g) in grads.iter().enumerate() {
                serial[lane][pi].zero_grad();
                serial[lane][pi].accumulate_grad(g);
            }
            fp.param.zero_grad();
            fp.param.accumulate_grad(&concat(&grads));
        }
        for (lane, opt) in serial_opts.iter_mut().enumerate() {
            if !frozen(lane) {
                opt.step();
            }
        }
        fused_opt.step();
    }
    let quarantined = quarantine < b && steps > quarantine_at;
    for (pi, fp) in fused.iter().enumerate() {
        let n = lens[pi];
        for lane in 0..b {
            let got = fp.param.value().narrow(0, lane * n, n);
            if bits(&got) != bits(&serial[lane][pi].value()) {
                return Err(format!("{kind:?}: parameter {pi} lane {lane} differs"));
            }
            for slot in 0..fused_opt.state_slots() {
                let got = fused_opt.state(pi, slot).narrow(0, lane * n, n);
                // A quarantined lane's state is zeroed; the others match
                // their serial optimizer's state exactly.
                let want = if quarantined && lane == quarantine {
                    Tensor::zeros([n])
                } else {
                    serial_opts[lane].state(pi, slot).clone()
                };
                if bits(&got) != bits(&want) {
                    return Err(format!(
                        "{kind:?}: state {slot} of parameter {pi} lane {lane} differs"
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn fused_updates_match_serial_bit_for_bit(
        seed in 0u64..1_000_000,
        b in 1usize..=5,
        steps in 1usize..=6,
        quarantine in 0usize..8,
        quarantine_at in 0usize..6,
        sizes in prop::collection::vec(0usize..4, 1..=3),
    ) {
        // Per-lane lengths: short ones, and ones around and above a
        // parallel range, never a multiple of it.
        let lens: Vec<usize> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| match s {
                0 => 1 + i,
                1 => 97 + 31 * i,
                2 => GRAIN / 2 + 13 + i,
                _ => GRAIN + 1 + 4099 * i,
            })
            .collect();
        for kind in [Kind::Sgd, Kind::SgdMomentum, Kind::Adam, Kind::Adadelta] {
            if let Err(e) = check(kind, seed, b, &lens, steps, quarantine, quarantine_at) {
                prop_assert!(false, "b={b} lens={lens:?} steps={steps}: {e}");
            }
        }
    }
}
