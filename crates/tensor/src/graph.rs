//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Graph`] is a tape: every operation appends a node recording its
//! inputs, its output value, and enough context to compute vector-Jacobian
//! products on the way back. A fresh graph is built per training step (define
//! -by-run); parameters live outside the graph in a
//! [`ParamSet`](crate::params::ParamSet) and are re-inserted as leaves each
//! step, which keeps the tape simple and makes gradient accumulation
//! explicit.

use crate::matrix::{Matrix, CHEAP_MAP_FLOPS, SIGMOID_FLOPS, TANH_FLOPS};
use crate::params::{ParamId, ParamSet};
use crate::sanitize;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Position on the tape; the plan compiler keys its node tables on this.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// The recorded operation of a tape node.
pub(crate) enum Op {
    /// Constant input; no gradient flows further.
    Constant,
    /// Leaf bound to a trainable parameter; backward accumulates into the
    /// parameter's gradient buffer.
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    /// `(n,m) + (1,m)` bias addition.
    AddRowBroadcast(Var, Var),
    /// Elementwise product of equally shaped nodes.
    Mul(Var, Var),
    /// `(n,m) * (n,1)`: row `i` scaled by `col[i]`.
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    SoftmaxRows(Var),
    ConcatCols(Vec<Var>),
    /// Contiguous column window `[start, start+width)` of the input.
    SliceCols {
        input: Var,
        start: usize,
        width: usize,
    },
    MeanAll(Var),
    SumAll(Var),
    /// Mean binary cross-entropy on logits vs. constant targets, with
    /// per-sample constant weights. Fused for numerical stability.
    WeightedBceWithLogits {
        logits: Var,
        targets: Matrix,
        weights: Matrix,
    },
    /// Mean over rows of `KL(q || p_i)` with a constant row distribution `q`
    /// and `p` the (already normalized) rows of the input.
    KlConstRows {
        probs: Var,
        target: Matrix,
        eps: f32,
    },
}

impl Op {
    /// Stable op name for sanitizer provenance and diagnostics.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Op::Constant => "constant",
            Op::Param(_) => "param",
            Op::MatMul(..) => "matmul",
            Op::Add(..) => "add",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::Mul(..) => "mul",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::Scale(..) => "scale",
            Op::Relu(_) => "relu",
            Op::Tanh(_) => "tanh",
            Op::Sigmoid(_) => "sigmoid",
            Op::SoftmaxRows(_) => "softmax_rows",
            Op::ConcatCols(_) => "concat_cols",
            Op::SliceCols { .. } => "slice_cols",
            Op::MeanAll(_) => "mean_all",
            Op::SumAll(_) => "sum_all",
            Op::WeightedBceWithLogits { .. } => "weighted_bce_with_logits",
            Op::KlConstRows { .. } => "kl_const_rows",
        }
    }

    /// The tape nodes this op reads, in operand order.
    pub(crate) fn inputs(&self) -> Vec<Var> {
        match self {
            Op::Constant | Op::Param(_) => Vec::new(),
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Mul(a, b)
            | Op::MulColBroadcast(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::SoftmaxRows(a)
            | Op::MeanAll(a)
            | Op::SumAll(a)
            | Op::SliceCols { input: a, .. }
            | Op::WeightedBceWithLogits { logits: a, .. }
            | Op::KlConstRows { probs: a, .. } => vec![*a],
            Op::ConcatCols(parts) => parts.clone(),
        }
    }
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) op: Op,
}

/// A define-by-run autograd tape.
pub struct Graph {
    nodes: Vec<Node>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // Observe-at-death: nodes only ever append, so a tape's footprint
        // peaks exactly when it drops. One absolute gauge observation per
        // graph keeps the per-op hot path untouched; when tracing is off
        // this is a single relaxed atomic load.
        if adamel_obs::enabled() {
            let bytes: u64 = self.nodes.iter().map(|n| (n.value.as_slice().len() * 4) as u64).sum();
            adamel_obs::mem::observe("tensor.graph.bytes", bytes);
        }
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(64) }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        // Sanitizer (on by default in debug builds, `ADAMEL_SANITIZE=1`
        // elsewhere): every tape op's output must be finite, and a softmax
        // output must additionally be a valid row distribution (Eq. 5–6).
        sanitize::check_finite(op.name(), &value);
        if matches!(op, Op::SoftmaxRows(_)) {
            sanitize::check_rows_normalized(op.name(), &value);
        }
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// The recorded tape, in push order; the plan compiler walks this.
    pub(crate) fn tape(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Inserts a constant (no gradient) input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant)
    }

    /// Inserts a leaf bound to parameter `id`, copying its current value.
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Param(id))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        adamel_obs::trace_op!("matmul");
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(value, Op::MatMul(a, b))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        adamel_obs::trace_op!("add");
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(value, Op::Add(a, b))
    }

    /// Adds a `1 x m` bias row to every row of an `n x m` node.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        adamel_obs::trace_op!("add_row_broadcast");
        let value = self.nodes[a.0].value.add_row_broadcast(&self.nodes[bias.0].value);
        self.push(value, Op::AddRowBroadcast(a, bias))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        adamel_obs::trace_op!("mul");
        let value = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.push(value, Op::Mul(a, b))
    }

    /// Scales row `i` of `a` by element `i` of the `n x 1` node `col`.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        adamel_obs::trace_op!("mul_col_broadcast");
        let value = self.nodes[a.0].value.mul_col_broadcast(&self.nodes[col.0].value);
        self.push(value, Op::MulColBroadcast(a, col))
    }

    /// Multiplies by a compile-time constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        adamel_obs::trace_op!("scale");
        let value = self.nodes[a.0].value.scale(s);
        self.push(value, Op::Scale(a, s))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        adamel_obs::trace_op!("relu");
        let value = self.nodes[a.0].value.map(|v| v.max(0.0), CHEAP_MAP_FLOPS);
        self.push(value, Op::Relu(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        adamel_obs::trace_op!("tanh");
        let value = self.nodes[a.0].value.map(f32::tanh, TANH_FLOPS);
        self.push(value, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        adamel_obs::trace_op!("sigmoid");
        let value = self.nodes[a.0].value.map(|v| 1.0 / (1.0 + (-v).exp()), SIGMOID_FLOPS);
        self.push(value, Op::Sigmoid(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        adamel_obs::trace_op!("softmax_rows");
        let value = self.nodes[a.0].value.softmax_rows();
        self.push(value, Op::SoftmaxRows(a))
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        adamel_obs::trace_op!("concat_cols");
        let values: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let value = Matrix::concat_cols(&values);
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// Copies a contiguous column window `[start, start+width)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, width: usize) -> Var {
        adamel_obs::trace_op!("slice_cols");
        let value = self.nodes[a.0].value.slice_cols(start, width);
        self.push(value, Op::SliceCols { input: a, start, width })
    }

    /// Mean over all elements, producing a 1x1 node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        adamel_obs::trace_op!("mean_all");
        let value = Matrix::scalar(self.nodes[a.0].value.mean());
        self.push(value, Op::MeanAll(a))
    }

    /// Sum over all elements, producing a 1x1 node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        adamel_obs::trace_op!("sum_all");
        let value = Matrix::scalar(self.nodes[a.0].value.sum());
        self.push(value, Op::SumAll(a))
    }

    /// Mean binary cross-entropy with logits (numerically stable fused op).
    ///
    /// `logits` is `n x 1`; `targets` holds 0/1 labels and `weights`
    /// per-sample non-negative weights (both constants, `n x 1`). The loss is
    /// `mean_i w_i * bce(sigmoid(z_i), y_i)` computed as
    /// `w * (max(z,0) - z*y + ln(1 + e^{-|z|}))`.
    pub fn weighted_bce_with_logits(
        &mut self,
        logits: Var,
        targets: Matrix,
        weights: Matrix,
    ) -> Var {
        adamel_obs::trace_op!("weighted_bce_with_logits");
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.cols(), 1, "bce_with_logits expects n x 1 logits");
        assert_eq!(z.shape(), targets.shape(), "bce targets shape mismatch");
        assert_eq!(z.shape(), weights.shape(), "bce weights shape mismatch");
        let n = z.rows().max(1) as f32;
        let mut total = 0.0;
        for i in 0..z.rows() {
            let zi = z.get(i, 0);
            let yi = targets.get(i, 0);
            let wi = weights.get(i, 0);
            total += wi * (zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p());
        }
        self.push(Matrix::scalar(total / n), Op::WeightedBceWithLogits { logits, targets, weights })
    }

    /// Mean binary cross-entropy with logits and unit weights.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let weights = Matrix::full(targets.rows(), targets.cols(), 1.0);
        self.weighted_bce_with_logits(logits, targets, weights)
    }

    /// Mean over rows of `KL(q || p_i) = Σ_j q_j ln(q_j / p_ij)` where `q` is
    /// a constant `1 x m` distribution and the input rows `p_i` are already
    /// normalized (e.g. softmax outputs). `eps` guards the logarithm.
    pub fn kl_const_rows(&mut self, probs: Var, target: Matrix, eps: f32) -> Var {
        adamel_obs::trace_op!("kl_const_rows");
        let p = &self.nodes[probs.0].value;
        assert_eq!(target.rows(), 1, "kl_const_rows expects a 1 x m target");
        assert_eq!(p.cols(), target.cols(), "kl_const_rows shape mismatch");
        let n = p.rows().max(1) as f32;
        let mut total = 0.0;
        for i in 0..p.rows() {
            for j in 0..p.cols() {
                let q = target.get(0, j);
                if q > 0.0 {
                    total += q * ((q / (p.get(i, j) + eps)).ln());
                }
            }
        }
        // KL is analytically non-negative; the eps guard can dip the
        // computed mean a hair below zero but never materially (Eq. 9–10).
        sanitize::check_loss_non_negative("kl_const_rows", total / n, 1e-3);
        self.push(Matrix::scalar(total / n), Op::KlConstRows { probs, target, eps })
    }

    /// Convenience: `relu(x @ w + b)` with a `1 x out` bias row.
    pub fn linear_relu(&mut self, x: Var, w: Var, b: Var) -> Var {
        let z = self.matmul(x, w);
        let z = self.add_row_broadcast(z, b);
        self.relu(z)
    }

    /// Convenience: `x @ w + b`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let z = self.matmul(x, w);
        self.add_row_broadcast(z, b)
    }

    /// Runs reverse-mode differentiation from the scalar node `root`,
    /// accumulating parameter gradients into `params`.
    ///
    /// Only gradients some parameter reads are computed: a node needs a
    /// gradient iff it is a `Param` or one of its inputs needs one, and both
    /// masked-off nodes and every operand VJP aimed at one are skipped, so a
    /// constant input's `G·Wᵀ` products and `slice_cols` scatters are never
    /// formed. A gradient that reaches a parameter is computed by the same
    /// ops and accumulated in the same order as by an unmasked pass, so
    /// parameter gradients do not depend on the mask.
    ///
    /// The tape is consumed conceptually (gradients of interior nodes are
    /// dropped afterwards); call once per constructed graph.
    pub fn backward(&self, root: Var, params: &mut ParamSet) {
        adamel_obs::trace_span!("backward");
        assert_eq!(
            self.nodes[root.0].value.shape(),
            (1, 1),
            "backward requires a scalar (1x1) root"
        );
        let mut grads = Grads::new(&self.nodes[..=root.0]);
        grads.add(root, Matrix::scalar(1.0));

        for idx in (0..=root.0).rev() {
            let Some(grad) = grads.take(idx) else { continue };
            match &self.nodes[idx].op {
                Op::Constant => {}
                Op::Param(id) => params.grad_mut(*id).add_assign(&grad),
                Op::MatMul(a, b) => {
                    // dL/dA = G Bᵀ ; dL/dB = Aᵀ G
                    if grads.wants(*a) {
                        grads.add(*a, grad.matmul_nt(&self.nodes[b.0].value));
                    }
                    if grads.wants(*b) {
                        grads.add(*b, self.nodes[a.0].value.matmul_tn(&grad));
                    }
                }
                Op::Add(a, b) => match (grads.wants(*a), grads.wants(*b)) {
                    (true, true) => {
                        grads.add(*a, grad.clone());
                        grads.add(*b, grad);
                    }
                    (true, false) => grads.add(*a, grad),
                    (false, _) => grads.add(*b, grad),
                },
                Op::AddRowBroadcast(a, bias) => {
                    // Bias gradient is the column sum of the upstream grad.
                    let gb = grads.wants(*bias).then(|| {
                        let mut gb = Matrix::zeros(1, grad.cols());
                        for i in 0..grad.rows() {
                            for j in 0..grad.cols() {
                                gb.set(0, j, gb.get(0, j) + grad.get(i, j));
                            }
                        }
                        gb
                    });
                    grads.add(*a, grad);
                    if let Some(gb) = gb {
                        grads.add(*bias, gb);
                    }
                }
                Op::Mul(a, b) => {
                    if grads.wants(*a) {
                        grads.add(*a, grad.mul(&self.nodes[b.0].value));
                    }
                    if grads.wants(*b) {
                        grads.add(*b, grad.mul(&self.nodes[a.0].value));
                    }
                }
                Op::MulColBroadcast(a, col) => {
                    if grads.wants(*a) {
                        grads.add(*a, grad.mul_col_broadcast(&self.nodes[col.0].value));
                    }
                    if grads.wants(*col) {
                        // d/dcol_i = Σ_j grad_ij * a_ij
                        grads.add(*col, grad.mul(&self.nodes[a.0].value).sum_cols());
                    }
                }
                Op::Scale(a, s) => grads.add(*a, grad.scale(*s)),
                Op::Relu(a) => {
                    let mask = self.nodes[a.0]
                        .value
                        .map(|v| if v > 0.0 { 1.0 } else { 0.0 }, CHEAP_MAP_FLOPS);
                    grads.add(*a, grad.mul(&mask));
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[idx].value;
                    let deriv = y.map(|t| 1.0 - t * t, CHEAP_MAP_FLOPS);
                    grads.add(*a, grad.mul(&deriv));
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[idx].value;
                    let deriv = y.map(|s| s * (1.0 - s), CHEAP_MAP_FLOPS);
                    grads.add(*a, grad.mul(&deriv));
                }
                Op::SoftmaxRows(a) => {
                    // dL/dz_ij = p_ij * (g_ij - Σ_k g_ik p_ik)
                    let p = &self.nodes[idx].value;
                    let mut gz = Matrix::zeros(p.rows(), p.cols());
                    for i in 0..p.rows() {
                        let dot: f32 = grad.row(i).iter().zip(p.row(i)).map(|(g, pi)| g * pi).sum();
                        for j in 0..p.cols() {
                            gz.set(i, j, p.get(i, j) * (grad.get(i, j) - dot));
                        }
                    }
                    grads.add(*a, gz);
                }
                Op::SliceCols { input, start, width } => {
                    let v = &self.nodes[input.0].value;
                    let mut gi = Matrix::zeros(v.rows(), v.cols());
                    for i in 0..grad.rows() {
                        for j in 0..*width {
                            gi.set(i, start + j, grad.get(i, j));
                        }
                    }
                    grads.add(*input, gi);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for part in parts {
                        let width = self.nodes[part.0].value.cols();
                        if grads.wants(*part) {
                            grads.add(*part, grad.slice_cols(offset, width));
                        }
                        offset += width;
                    }
                }
                Op::MeanAll(a) => {
                    let v = &self.nodes[a.0].value;
                    let g = grad.item() / v.len().max(1) as f32;
                    grads.add(*a, Matrix::full(v.rows(), v.cols(), g));
                }
                Op::SumAll(a) => {
                    let v = &self.nodes[a.0].value;
                    grads.add(*a, Matrix::full(v.rows(), v.cols(), grad.item()));
                }
                Op::WeightedBceWithLogits { logits, targets, weights } => {
                    // d/dz of mean_i w_i * bce = w_i (sigmoid(z_i) - y_i) / n
                    let z = &self.nodes[logits.0].value;
                    let n = z.rows().max(1) as f32;
                    let g = grad.item();
                    let mut gz = Matrix::zeros(z.rows(), 1);
                    for i in 0..z.rows() {
                        let s = 1.0 / (1.0 + (-z.get(i, 0)).exp());
                        gz.set(i, 0, g * weights.get(i, 0) * (s - targets.get(i, 0)) / n);
                    }
                    grads.add(*logits, gz);
                }
                Op::KlConstRows { probs, target, eps } => {
                    // d/dp_ij of mean_i Σ_j q_j ln(q_j/(p_ij+eps)) = -q_j/(p_ij+eps)/n
                    let p = &self.nodes[probs.0].value;
                    let n = p.rows().max(1) as f32;
                    let g = grad.item();
                    let mut gp = Matrix::zeros(p.rows(), p.cols());
                    for i in 0..p.rows() {
                        for j in 0..p.cols() {
                            let q = target.get(0, j);
                            if q > 0.0 {
                                gp.set(i, j, -g * q / ((p.get(i, j) + eps) * n));
                            }
                        }
                    }
                    grads.add(*probs, gp);
                }
            }
        }
    }
}

/// Pending upstream gradients of one backward pass, restricted to the nodes
/// that need one. A node only ever holds a gradient when it [wants](Self::wants)
/// one, so taking a masked-off node's slot always finds it empty.
struct Grads {
    slots: Vec<Option<Matrix>>,
    needs: Vec<bool>,
}

impl Grads {
    /// Marks each node of `tape` (in push order, so inputs come first):
    /// `Param` → needed, `Constant` → not, any other op → the OR of its
    /// inputs.
    fn new(tape: &[Node]) -> Self {
        let mut needs = Vec::with_capacity(tape.len());
        for node in tape {
            let need = match &node.op {
                Op::Param(_) => true,
                op => op.inputs().iter().any(|v| needs[v.0]),
            };
            needs.push(need);
        }
        Self { slots: (0..tape.len()).map(|_| None).collect(), needs }
    }

    /// True when `var`'s gradient reaches some parameter.
    fn wants(&self, var: Var) -> bool {
        self.needs[var.0]
    }

    /// Accumulates `grad` into `var`'s slot, or drops it if `var` needs no
    /// gradient. Callers check [`wants`](Self::wants) first wherever forming
    /// `grad` costs work; a gradient passed through unchanged may rely on
    /// the drop.
    fn add(&mut self, var: Var, grad: Matrix) {
        if !self.needs[var.0] {
            return;
        }
        match &mut self.slots[var.0] {
            Some(existing) => existing.add_assign(&grad),
            slot => *slot = Some(grad),
        }
    }

    fn take(&mut self, idx: usize) -> Option<Matrix> {
        self.slots[idx].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    fn approx(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn backward_through_matmul() {
        // L = sum(A @ B); dL/dA = 1 Bᵀ, dL/dB = Aᵀ 1
        let mut params = ParamSet::new();
        let a_id = params.insert("a", Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b_id = params.insert("b", Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]));
        let mut g = Graph::new();
        let a = g.param(&params, a_id);
        let b = g.param(&params, b_id);
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss, &mut params);
        // dL/dA = ones(2,2) @ Bᵀ = [[11, 15], [11, 15]]
        assert_eq!(params.grad(a_id).as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dL/dB = Aᵀ @ ones = [[4, 4], [6, 6]]
        assert_eq!(params.grad(b_id).as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn backward_through_softmax_is_zero_for_uniform_upstream() {
        // Σ_j softmax_j is constant 1, so d(sum softmax)/dz = 0.
        let mut params = ParamSet::new();
        let z_id = params.insert("z", Matrix::from_rows(&[vec![0.3, -1.2, 2.0]]));
        let mut g = Graph::new();
        let z = g.param(&params, z_id);
        let p = g.softmax_rows(z);
        let loss = g.sum_all(p);
        g.backward(loss, &mut params);
        for &v in params.grad(z_id).as_slice() {
            assert!(approx(v, 0.0, 1e-6), "grad {v} should vanish");
        }
    }

    #[test]
    fn bce_gradient_matches_sigmoid_minus_target() {
        let mut params = ParamSet::new();
        let z_id = params.insert("z", Matrix::from_vec(2, 1, vec![0.5, -1.0]));
        let mut g = Graph::new();
        let z = g.param(&params, z_id);
        let targets = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        let loss = g.bce_with_logits(z, targets);
        g.backward(loss, &mut params);
        let s0 = 1.0 / (1.0 + (-0.5f32).exp());
        let s1 = 1.0 / (1.0 + (1.0f32).exp());
        assert!(approx(params.grad(z_id).get(0, 0), (s0 - 1.0) / 2.0, 1e-6));
        assert!(approx(params.grad(z_id).get(1, 0), s1 / 2.0, 1e-6));
    }

    #[test]
    fn kl_is_zero_when_distributions_match() {
        let mut g = Graph::new();
        let p = g.constant(Matrix::from_rows(&[vec![0.25, 0.75], vec![0.25, 0.75]]));
        let q = Matrix::from_rows(&[vec![0.25, 0.75]]);
        let kl = g.kl_const_rows(p, q, 0.0);
        assert!(approx(g.value(kl).item(), 0.0, 1e-6));
    }

    #[test]
    fn kl_is_positive_when_distributions_differ() {
        let mut g = Graph::new();
        let p = g.constant(Matrix::from_rows(&[vec![0.9, 0.1]]));
        let q = Matrix::from_rows(&[vec![0.1, 0.9]]);
        let kl = g.kl_const_rows(p, q, 0.0);
        assert!(g.value(kl).item() > 0.5);
    }

    #[test]
    fn chained_linear_relu_shapes() {
        let mut params = ParamSet::new();
        let w_id = params.insert("w", Matrix::zeros(3, 4));
        let b_id = params.insert("b", Matrix::zeros(1, 4));
        let mut g = Graph::new();
        let x = g.constant(Matrix::full(5, 3, 1.0));
        let w = g.param(&params, w_id);
        let b = g.param(&params, b_id);
        let y = g.linear_relu(x, w, b);
        assert_eq!(g.value(y).shape(), (5, 4));
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar_root() {
        let mut params = ParamSet::new();
        let mut g = Graph::new();
        let x = g.constant(Matrix::zeros(2, 2));
        g.backward(x, &mut params);
    }
}

#[cfg(test)]
mod shape_guard_tests {
    use super::*;
    use crate::params::ParamSet;

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::zeros(2, 3));
        let b = g.constant(Matrix::zeros(2, 3));
        let _ = g.matmul(a, b);
    }

    #[test]
    #[should_panic(expected = "bce")]
    fn bce_rejects_wide_logits() {
        let mut g = Graph::new();
        let z = g.constant(Matrix::zeros(2, 2));
        let _ = g.bce_with_logits(z, Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "kl_const_rows")]
    fn kl_rejects_matrix_target() {
        let mut g = Graph::new();
        let p = g.constant(Matrix::zeros(2, 3));
        let _ = g.kl_const_rows(p, Matrix::zeros(2, 3), 1e-8);
    }

    #[test]
    fn second_backward_on_fresh_graph_is_consistent() {
        // Gradients accumulate across backward calls on the same ParamSet
        // unless zeroed — verify both behaviors.
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::scalar(2.0));
        let run = |params: &mut ParamSet| {
            let mut g = Graph::new();
            let wv = g.param(params, w);
            let sq = g.mul(wv, wv);
            let loss = g.sum_all(sq);
            g.backward(loss, params);
        };
        run(&mut params);
        assert_eq!(params.grad(w).item(), 4.0);
        run(&mut params);
        assert_eq!(params.grad(w).item(), 8.0, "gradients must accumulate");
        params.zero_grads();
        run(&mut params);
        assert_eq!(params.grad(w).item(), 4.0);
    }

    /// Deterministic, sign-mixed fill so `relu` masks are non-trivial.
    fn wave(rows: usize, cols: usize, seed: f32) -> Matrix {
        let data = (0..rows * cols).map(|i| (i as f32 * 0.731 + seed).sin()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `sum(relu(slice_cols(x) · W))` with `x` a constant, or with `x` a
    /// parameter so nothing is pruned; returns `W`'s gradient.
    fn sliced_relu_grad(x_is_param: bool) -> Matrix {
        let mut params = ParamSet::new();
        let w = params.insert("w", wave(64, 32, 0.3));
        let x_val = wave(16, 80, 1.7);
        let x_id = params.insert("x", x_val.clone());
        let mut g = Graph::new();
        let x = if x_is_param { g.param(&params, x_id) } else { g.constant(x_val) };
        let s = g.slice_cols(x, 8, 64);
        let wv = g.param(&params, w);
        let z = g.matmul(s, wv);
        let y = g.relu(z);
        let loss = g.sum_all(y);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(x_id).norm() > 0.0, x_is_param, "x gradient only when a param");
        params.grad(w).clone()
    }

    #[test]
    fn pruned_backward_keeps_the_weight_gradient_bits() {
        let pruned = sliced_relu_grad(false);
        // Hand reference: dW = Sᵀ · (1 ⊙ [S·W > 0]).
        let x = wave(16, 80, 1.7);
        let s = x.slice_cols(8, 64);
        let z = s.matmul(&wave(64, 32, 0.3));
        let mask = z.map(|v| if v > 0.0 { 1.0 } else { 0.0 }, CHEAP_MAP_FLOPS);
        let reference = s.matmul_tn(&Matrix::full(16, 32, 1.0).mul(&mask));
        assert_eq!(bits(&pruned), bits(&reference), "pruned dW vs hand reference");
        assert_eq!(bits(&pruned), bits(&sliced_relu_grad(true)), "pruned dW vs unpruned tape");
    }

    /// A needed node `h = tanh(slice(x)·W)` shared by consumers on the loss
    /// path whose other operands need no gradient (`h + slice(x)`, a concat
    /// with a slice of `x`, `h` scaled by a column of `x`) and by a
    /// dangling `relu(h)` that never reaches the loss. Returns `W`'s and
    /// `W2`'s gradients.
    fn shared_node_grads(x_is_param: bool) -> (Matrix, Matrix) {
        let mut params = ParamSet::new();
        let w = params.insert("w", wave(24, 24, 0.9));
        let w2 = params.insert("w2", wave(48, 8, 2.1));
        let x_val = wave(12, 64, 0.2);
        let x_id = params.insert("x", x_val.clone());
        let mut g = Graph::new();
        let x = if x_is_param { g.param(&params, x_id) } else { g.constant(x_val) };
        let s = g.slice_cols(x, 0, 24);
        let wv = g.param(&params, w);
        let z = g.matmul(s, wv);
        let h = g.tanh(z);
        let _dangling = g.relu(h);
        let other = g.slice_cols(x, 24, 24);
        let sum = g.add(h, other);
        let col = g.slice_cols(x, 63, 1);
        let scaled = g.mul_col_broadcast(h, col);
        let both = g.concat_cols(&[sum, other]);
        let w2v = g.param(&params, w2);
        let out = g.matmul(both, w2v);
        let tail = g.mean_all(scaled);
        let head = g.mean_all(out);
        let loss = g.add(head, tail);
        g.backward(loss, &mut params);
        (params.grad(w).clone(), params.grad(w2).clone())
    }

    #[test]
    fn shared_node_gradient_is_unchanged_by_pruning() {
        let (w_pruned, w2_pruned) = shared_node_grads(false);
        let (w_full, w2_full) = shared_node_grads(true);
        assert!(w_pruned.norm() > 0.0 && w2_pruned.norm() > 0.0);
        assert_eq!(bits(&w_pruned), bits(&w_full), "W gradient through the shared node");
        assert_eq!(bits(&w2_pruned), bits(&w2_full), "W2 gradient past the pruned concat part");
    }

    #[test]
    fn constants_receive_no_parameter_gradient() {
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::scalar(1.0));
        let mut g = Graph::new();
        let c = g.constant(Matrix::scalar(5.0));
        let wv = g.param(&params, w);
        let prod = g.mul(c, wv);
        let loss = g.sum_all(prod);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).item(), 5.0);
    }
}
