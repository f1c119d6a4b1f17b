//! Trainable parameter storage.
//!
//! Parameters live outside the autograd tape so a fresh [`Graph`](crate::Graph)
//! can be built every step while values, gradients, and optimizer state
//! persist across steps.
//!
//! Each value can also carry its GEMM packing (`ParamSet::packed`), built
//! on first use and dropped by every accessor that can change the value, so
//! inference packs a weight once per parameter version instead of once per
//! product.

use crate::gemm::PackedB;
use crate::matrix::Matrix;
use adamel_obs::mem::MemScope;
use std::sync::OnceLock;

/// Handle to a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct ParamEntry {
    name: String,
    value: Matrix,
    grad: Matrix,
    /// `value` packed for the blocked GEMM; empty until first requested and
    /// emptied whenever `value` may change.
    packed: OnceLock<Packed>,
}

/// A pack plus its credit on the `tensor.params.packed.bytes` gauge, which
/// is released when the pack is dropped.
struct Packed {
    panels: PackedB,
    _ledger: MemScope,
}

impl ParamEntry {
    /// `&mut` access to the value; drops the pack first, so no pack of an
    /// older value can outlive the borrow.
    fn value_mut(&mut self) -> &mut Matrix {
        self.packed.take();
        &mut self.value
    }
}

/// A named collection of trainable matrices with gradient buffers.
#[derive(Default)]
pub struct ParamSet {
    entries: Vec<ParamEntry>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self { entries: Vec::new() }
    }

    /// Registers a parameter, returning its handle. Names are for
    /// introspection and need not be unique (e.g. per-feature weights share a
    /// prefix).
    pub fn insert(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.entries.push(ParamEntry { name: name.into(), value, grad, packed: OnceLock::new() });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters, as reported in the paper's §4.5
    /// complexity analysis.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Mutable value access (used by optimizers and serialization). Drops
    /// the value's GEMM pack, if one was built.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.entries[id.0].value_mut()
    }

    /// The current value packed into the blocked GEMM's `B` panels, for
    /// [`Matrix::matmul_prepacked_into`]. Built on first request and reused
    /// until the value next changes: [`value_mut`](Self::value_mut),
    /// [`value_and_grad_mut`](Self::value_and_grad_mut) and
    /// [`restore`](Self::restore) all drop it, so a pack of an older value
    /// cannot be observed. Concurrent first requests build it once; the
    /// pack itself is serial work, never a parallel dispatch.
    pub(crate) fn packed(&self, id: ParamId) -> &PackedB {
        let e = &self.entries[id.0];
        &e.packed
            .get_or_init(|| {
                let panels = PackedB::new(&e.value);
                let ledger = MemScope::new("tensor.params.packed.bytes", panels.bytes());
                Packed { panels, _ledger: ledger }
            })
            .panels
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].grad
    }

    /// Mutable gradient access (used by `Graph::backward`).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].grad
    }

    /// Simultaneous mutable value / immutable gradient access for one
    /// parameter — lets optimizers update in place without cloning the
    /// gradient.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Matrix, &Matrix) {
        let e = &mut self.entries[id.0];
        e.packed.take();
        (&mut e.value, &e.grad)
    }

    /// The name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Handles of every parameter, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zeroes every gradient buffer; call before each backward pass.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill_zero();
        }
    }

    /// Global L2 norm of all gradients; useful for clipping and diagnostics.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| e.grad.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for e in &mut self.entries {
                for v in e.grad.as_mut_slice() {
                    *v *= s;
                }
            }
        }
    }

    /// Deep-copies all current values (snapshot for early stopping / best
    /// model tracking).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// Restores values from a [`snapshot`](Self::snapshot). Panics if the
    /// shapes do not line up.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.entries.len(), "ParamSet::restore arity mismatch");
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(e.value.shape(), s.shape(), "ParamSet::restore shape mismatch");
            *e.value_mut() = s.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count_scalars() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(3, 4));
        let b = p.insert("b", Matrix::zeros(1, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 16);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.name(b), "b");
    }

    #[test]
    fn zero_grads_resets() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(2, 2));
        p.grad_mut(a).add_assign(&Matrix::full(2, 2, 3.0));
        assert_eq!(p.grad(a).sum(), 12.0);
        p.zero_grads();
        assert_eq!(p.grad(a).sum(), 0.0);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(1, 2));
        p.grad_mut(a).add_assign(&Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        p.clip_grad_norm(1.0);
        assert!((p.grad_norm() - 1.0).abs() < 1e-6);
        // Direction is preserved.
        let g = p.grad(a);
        assert!((g.get(0, 0) / g.get(0, 1) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::full(2, 2, 1.0));
        let snap = p.snapshot();
        p.value_mut(a).add_assign(&Matrix::full(2, 2, 5.0));
        assert_eq!(p.value(a).get(0, 0), 6.0);
        p.restore(&snap);
        assert_eq!(p.value(a).get(0, 0), 1.0);
    }
}
