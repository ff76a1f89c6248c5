//! Single-pass optimizer updates.
//!
//! Each kernel reads a parameter's gradient, optimizer state and value once
//! and writes the state and value once — one memory pass per parameter
//! instead of a chain of allocating tensor ops (Jiang et al., *Optimizer
//! Fusion*). The serial optimizers of `hfta-nn` and the fused optimizers of
//! `hfta-core` both call these, so each update formula exists once.
//!
//! Hyper-parameters come per **lane**: the tensor's elements split into
//! `hp.len()` equal contiguous lanes (the model chunks of a fused
//! parameter's axis 0), and lane `i` updates with entry `i`. A serial
//! optimizer passes a one-element slice.
//!
//! Bit-identity between a serial model and its fused lane rests on the
//! per-element op order below: every product and sum is evaluated in the
//! written association with no FMA contraction (Rust never contracts
//! `a * b + c`), and `p -= u * lr` rounds the same as `p + u * (-lr)`.
//! Work splits into fixed element ranges of `ELEMWISE_GRAIN`, each walking
//! its lane segments, so results do not depend on the thread count.
//!
//! # Example
//!
//! ```
//! use hfta_tensor::{update, Tensor};
//!
//! // Two lanes of two elements with learning rates 1.0 and 0.5.
//! let mut p = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], [4]);
//! let g = Tensor::ones([4]);
//! let mut velocity = Tensor::zeros([4]);
//! update::sgd(&mut p, &g, &mut velocity, &[1.0, 0.5], &[0.0, 0.0]);
//! assert_eq!(p.to_vec(), vec![0.0, 0.0, 0.5, 0.5]);
//! ```

use std::ops::Range;

use hfta_kernels::{parallel_for, UnsafeSlice};

use crate::tensor::{Tensor, ELEMWISE_GRAIN};

/// Adam's shared coefficients for one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// The step being taken (1 on the first step), for bias correction.
    pub t: u64,
}

/// Calls `f(lane, range)` for every lane segment of `0..len` split into
/// `lanes` equal lanes, in parallel over fixed `ELEMWISE_GRAIN` ranges.
///
/// # Panics
///
/// Panics if `lanes` is zero or does not divide `len`.
fn for_each_lane_segment(len: usize, lanes: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    assert!(
        lanes > 0 && len.is_multiple_of(lanes),
        "{len} elements do not split into {lanes} lanes"
    );
    if len == 0 {
        return;
    }
    let lane_len = len / lanes;
    parallel_for(len, ELEMWISE_GRAIN, |range| {
        let mut start = range.start;
        while start < range.end {
            let lane = start / lane_len;
            let end = range.end.min((lane + 1) * lane_len);
            f(lane, start..end);
            start = end;
        }
    });
}

fn check_shapes(what: &str, p: &Tensor, others: &[&Tensor]) {
    for o in others {
        assert_eq!(p.shape(), o.shape(), "{what}: shape mismatch");
    }
}

/// SGD with optional momentum (PyTorch convention): per lane, with
/// momentum `mu != 0`, `v = v*mu + g; p -= v*lr`; with `mu == 0`,
/// `p -= g*lr` and the velocity lane is left untouched.
///
/// # Panics
///
/// Panics if the shapes differ, `lr` and `momentum` differ in length, or
/// the lane count does not divide the element count.
pub fn sgd(p: &mut Tensor, g: &Tensor, velocity: &mut Tensor, lr: &[f32], momentum: &[f32]) {
    check_shapes("sgd", p, &[g, velocity]);
    assert_eq!(lr.len(), momentum.len(), "sgd: hyper-parameter lanes");
    let g = g.as_slice();
    let (ps, vs) = (
        UnsafeSlice::new(p.as_mut_slice()),
        UnsafeSlice::new(velocity.as_mut_slice()),
    );
    for_each_lane_segment(g.len(), lr.len(), |lane, r| {
        let (lr, mu) = (lr[lane], momentum[lane]);
        // SAFETY: lane segments are disjoint, in-bounds ranges, and each
        // buffer belongs to a distinct `&mut Tensor` of this call.
        let p = unsafe { ps.slice_mut(r.clone()) };
        let g = &g[r.clone()];
        if mu != 0.0 {
            // SAFETY: as for `p`.
            let v = unsafe { vs.slice_mut(r) };
            for ((p, v), &g) in p.iter_mut().zip(v).zip(g) {
                *v = *v * mu + g;
                *p -= *v * lr;
            }
        } else {
            for (p, &g) in p.iter_mut().zip(g) {
                *p -= g * lr;
            }
        }
    });
}

/// Adam with PyTorch-default bias correction: per element,
/// `m = m*b1 + g*(1-b1)`, `v = v*b2 + (g*g)*(1-b2)`,
/// `u = (m/bc1) / (sqrt(v/bc2) + eps)`, `p -= u*lr`, where
/// `bc = 1 - beta^t`.
///
/// # Panics
///
/// Panics if the shapes differ or the lane count does not divide the
/// element count.
pub fn adam(p: &mut Tensor, g: &Tensor, m: &mut Tensor, v: &mut Tensor, lr: &[f32], c: AdamStep) {
    check_shapes("adam", p, &[g, m, v]);
    let (beta1, beta2, eps) = (c.beta1, c.beta2, c.eps);
    let bc1 = 1.0 - beta1.powi(c.t as i32);
    let bc2 = 1.0 - beta2.powi(c.t as i32);
    let (c1, c2) = (1.0 - beta1, 1.0 - beta2);
    let g = g.as_slice();
    let (ps, ms, vs) = (
        UnsafeSlice::new(p.as_mut_slice()),
        UnsafeSlice::new(m.as_mut_slice()),
        UnsafeSlice::new(v.as_mut_slice()),
    );
    for_each_lane_segment(g.len(), lr.len(), |lane, r| {
        let lr = lr[lane];
        // SAFETY: lane segments are disjoint, in-bounds ranges, and each
        // buffer belongs to a distinct `&mut Tensor` of this call.
        let (p, m, v) = unsafe {
            (
                ps.slice_mut(r.clone()),
                ms.slice_mut(r.clone()),
                vs.slice_mut(r.clone()),
            )
        };
        for (((p, m), v), &g) in p.iter_mut().zip(m).zip(v).zip(&g[r]) {
            *m = *m * beta1 + g * c1;
            *v = *v * beta2 + (g * g) * c2;
            let u = (*m / bc1) / ((*v / bc2).sqrt() + eps);
            *p -= u * lr;
        }
    });
}

/// Adadelta with PyTorch semantics: per element,
/// `sq = sq*rho + (g*g)*(1-rho)`,
/// `d = sqrt(acc + eps) / sqrt(sq + eps) * g`,
/// `acc = acc*rho + (d*d)*(1-rho)`, `p -= d*lr`.
///
/// # Panics
///
/// Panics if the shapes differ, `lr` and `rho` differ in length, or the
/// lane count does not divide the element count.
pub fn adadelta(
    p: &mut Tensor,
    g: &Tensor,
    sq_avg: &mut Tensor,
    acc_delta: &mut Tensor,
    lr: &[f32],
    rho: &[f32],
    eps: f32,
) {
    check_shapes("adadelta", p, &[g, sq_avg, acc_delta]);
    assert_eq!(lr.len(), rho.len(), "adadelta: hyper-parameter lanes");
    let g = g.as_slice();
    let (ps, sqs, accs) = (
        UnsafeSlice::new(p.as_mut_slice()),
        UnsafeSlice::new(sq_avg.as_mut_slice()),
        UnsafeSlice::new(acc_delta.as_mut_slice()),
    );
    for_each_lane_segment(g.len(), lr.len(), |lane, r| {
        let (lr, rho) = (lr[lane], rho[lane]);
        let c = 1.0 - rho;
        // SAFETY: lane segments are disjoint, in-bounds ranges, and each
        // buffer belongs to a distinct `&mut Tensor` of this call.
        let (p, sq, acc) = unsafe {
            (
                ps.slice_mut(r.clone()),
                sqs.slice_mut(r.clone()),
                accs.slice_mut(r.clone()),
            )
        };
        for (((p, sq), acc), &g) in p.iter_mut().zip(sq).zip(acc).zip(&g[r]) {
            *sq = *sq * rho + (g * g) * c;
            let d = (*acc + eps).sqrt() / (*sq + eps).sqrt() * g;
            *acc = *acc * rho + (d * d) * c;
            *p -= d * lr;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_take_their_own_hyper_parameters() {
        let mut p = Tensor::ones([6]);
        let g = Tensor::ones([6]);
        let mut v = Tensor::zeros([6]);
        sgd(&mut p, &g, &mut v, &[0.5, 0.25, 0.0], &[0.9, 0.0, 0.9]);
        assert_eq!(p.to_vec(), vec![0.5, 0.5, 0.75, 0.75, 1.0, 1.0]);
        // A zero-momentum lane leaves its velocity untouched.
        assert_eq!(v.to_vec(), vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn adam_first_step_moves_each_lane_by_its_lr() {
        let mut p = Tensor::full([4], 10.0);
        let g = Tensor::from_vec(vec![3.0, -2.0, 1.0, -5.0], [4]);
        let (mut m, mut v) = (Tensor::zeros([4]), Tensor::zeros([4]));
        let c = AdamStep {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
        };
        adam(&mut p, &g, &mut m, &mut v, &[0.5, 0.1], c);
        let want = [9.5, 10.5, 9.9, 10.1];
        for (got, want) in p.to_vec().iter().zip(want) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    #[test]
    fn segments_straddling_a_grain_cover_every_element_once() {
        // Three lanes whose boundaries fall inside grain-sized ranges.
        let lane = ELEMWISE_GRAIN + 7;
        let mut p = Tensor::zeros([3 * lane]);
        let g = Tensor::ones([3 * lane]);
        let mut v = Tensor::zeros([3 * lane]);
        sgd(&mut p, &g, &mut v, &[1.0, 2.0, 3.0], &[0.0; 3]);
        let got = p.to_vec();
        for (i, x) in got.iter().enumerate() {
            assert_eq!(*x, -((i / lane) as f32 + 1.0), "element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn uneven_lanes_are_rejected() {
        let mut p = Tensor::zeros([5]);
        let g = Tensor::zeros([5]);
        let mut v = Tensor::zeros([5]);
        sgd(&mut p, &g, &mut v, &[0.1, 0.1], &[0.0, 0.0]);
    }
}
