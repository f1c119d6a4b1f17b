//! Random tape programs and the per-op differential check.
//!
//! A [`Program`] is a flat list of [`Inst`]s referencing earlier instructions
//! by index, with every leaf a `Param`. [`check_program`] runs the program
//! through the *production* stack ([`adamel_tensor::Graph`]) and compares
//!
//! * every node's forward value against the oracle op applied to the
//!   **production** parent values promoted to `f64` (per-op isolation — no
//!   unbounded upstream error amplification), within the ULP/absolute budgets
//!   of [`crate::ulp`], and
//! * every parameter gradient from the production backward pass against
//!   central finite differences of the full `f64` oracle.
//!
//! [`gen_program`] builds random well-shaped programs from a seed, and
//! [`shrink`] reduces a failing program to a minimal reproducer that
//! [`render_reproducer`] prints as a paste-able test.

use crate::refmat::RefMatrix;
use crate::ulp::{op_ulps, ulp_distance, Budget, EPS32};
use adamel_tensor::{Graph, Matrix, ParamSet, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tape instruction. Operand fields are indices of earlier instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// A trainable leaf with explicit shape and row-major data.
    Param {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major values.
        data: Vec<f32>,
    },
    /// `(n,k) x (k,m)` product.
    MatMul {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// Elementwise sum.
    Add {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// Adds a `1 x cols` bias row to every row of `a`.
    AddRowBroadcast {
        /// Input matrix.
        a: usize,
        /// Bias row.
        bias: usize,
    },
    /// Elementwise product.
    Mul {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// Scales row `i` of `a` by element `i` of an `n x 1` column.
    MulColBroadcast {
        /// Input matrix.
        a: usize,
        /// Column of per-row factors.
        col: usize,
    },
    /// Scalar multiple.
    Scale {
        /// Input.
        a: usize,
        /// Constant factor.
        factor: f32,
    },
    /// Rectified linear unit.
    Relu {
        /// Input.
        a: usize,
    },
    /// Hyperbolic tangent.
    Tanh {
        /// Input.
        a: usize,
    },
    /// Logistic sigmoid.
    Sigmoid {
        /// Input.
        a: usize,
    },
    /// Row-wise softmax.
    SoftmaxRows {
        /// Input.
        a: usize,
    },
    /// Horizontal concatenation.
    ConcatCols {
        /// Parts, left to right.
        parts: Vec<usize>,
    },
    /// Column window copy.
    SliceCols {
        /// Input.
        a: usize,
        /// First column.
        start: usize,
        /// Window width.
        width: usize,
    },
    /// Mean over all elements (1x1 output).
    MeanAll {
        /// Input.
        a: usize,
    },
    /// Sum over all elements (1x1 output).
    SumAll {
        /// Input.
        a: usize,
    },
    /// Weighted binary cross-entropy with logits (1x1 output); `logits` must
    /// be `n x 1` and `targets`/`weights` are length-`n` constants.
    WeightedBce {
        /// Logit column.
        logits: usize,
        /// 0/1 labels.
        targets: Vec<f32>,
        /// Per-sample weights.
        weights: Vec<f32>,
    },
    /// Mean row-wise KL against a constant `1 x m` target (1x1 output);
    /// `probs` rows must already be normalized (softmax outputs).
    KlConstRows {
        /// Probability rows.
        probs: usize,
        /// Target distribution, length `m`.
        target: Vec<f32>,
        /// Logarithm guard.
        eps: f32,
    },
}

impl Inst {
    /// Indices of the instructions this one reads.
    pub fn parents(&self) -> Vec<usize> {
        match self {
            Inst::Param { .. } => Vec::new(),
            Inst::MatMul { a, b } | Inst::Add { a, b } | Inst::Mul { a, b } => vec![*a, *b],
            Inst::AddRowBroadcast { a, bias } => vec![*a, *bias],
            Inst::MulColBroadcast { a, col } => vec![*a, *col],
            Inst::Scale { a, .. }
            | Inst::Relu { a }
            | Inst::Tanh { a }
            | Inst::Sigmoid { a }
            | Inst::SoftmaxRows { a }
            | Inst::SliceCols { a, .. }
            | Inst::MeanAll { a }
            | Inst::SumAll { a } => vec![*a],
            Inst::ConcatCols { parts } => parts.clone(),
            Inst::WeightedBce { logits, .. } => vec![*logits],
            Inst::KlConstRows { probs, .. } => vec![*probs],
        }
    }

    /// The op name used by the budget table ([`op_ulps`]).
    pub fn op_name(&self) -> &'static str {
        match self {
            Inst::Param { .. } => "param",
            Inst::MatMul { .. } => "matmul",
            Inst::Add { .. } => "add",
            Inst::AddRowBroadcast { .. } => "add_row_broadcast",
            Inst::Mul { .. } => "mul",
            Inst::MulColBroadcast { .. } => "mul_col_broadcast",
            Inst::Scale { .. } => "scale",
            Inst::Relu { .. } => "relu",
            Inst::Tanh { .. } => "tanh",
            Inst::Sigmoid { .. } => "sigmoid",
            Inst::SoftmaxRows { .. } => "softmax_rows",
            Inst::ConcatCols { .. } => "concat_cols",
            Inst::SliceCols { .. } => "slice_cols",
            Inst::MeanAll { .. } => "mean_all",
            Inst::SumAll { .. } => "sum_all",
            Inst::WeightedBce { .. } => "weighted_bce_with_logits",
            Inst::KlConstRows { .. } => "kl_const_rows",
        }
    }
}

/// A straight-line tape program. `root` is the index whose (1x1) value the
/// backward pass differentiates; forward checking covers *every* node.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Instructions in dependency order.
    pub insts: Vec<Inst>,
    /// Index of the scalar root.
    pub root: usize,
}

/// A detected disagreement between production and oracle.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Index of the offending instruction.
    pub inst: usize,
    /// Op name of the offending instruction.
    pub op: &'static str,
    /// `"forward"` or `"grad"`.
    pub kind: &'static str,
    /// Human-readable description (element, values, budget).
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst {} ({}) {}: {}", self.inst, self.op, self.kind, self.detail)
    }
}

/// A deliberate corruption of one production forward value, used by the
/// harness's own mutation test to prove injected kernel bugs are caught.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Instruction whose production value is corrupted.
    pub inst: usize,
    /// Relative perturbation; every element moves by at least this much.
    pub rel: f32,
}

struct ProdRun {
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
}

/// Runs the program through the production tape, recording every forward
/// value and (when the root is 1x1) every parameter gradient.
fn run_production(p: &Program) -> ProdRun {
    let mut params = ParamSet::new();
    let mut g = Graph::new();
    let mut vars: Vec<Var> = Vec::with_capacity(p.insts.len());
    let mut ids: Vec<Option<adamel_tensor::ParamId>> = Vec::with_capacity(p.insts.len());
    for (i, inst) in p.insts.iter().enumerate() {
        let mut id = None;
        let v = match inst {
            Inst::Param { rows, cols, data } => {
                let pid =
                    params.insert(format!("p{i}"), Matrix::from_vec(*rows, *cols, data.clone()));
                id = Some(pid);
                g.param(&params, pid)
            }
            Inst::MatMul { a, b } => g.matmul(vars[*a], vars[*b]),
            Inst::Add { a, b } => g.add(vars[*a], vars[*b]),
            Inst::AddRowBroadcast { a, bias } => g.add_row_broadcast(vars[*a], vars[*bias]),
            Inst::Mul { a, b } => g.mul(vars[*a], vars[*b]),
            Inst::MulColBroadcast { a, col } => g.mul_col_broadcast(vars[*a], vars[*col]),
            Inst::Scale { a, factor } => g.scale(vars[*a], *factor),
            Inst::Relu { a } => g.relu(vars[*a]),
            Inst::Tanh { a } => g.tanh(vars[*a]),
            Inst::Sigmoid { a } => g.sigmoid(vars[*a]),
            Inst::SoftmaxRows { a } => g.softmax_rows(vars[*a]),
            Inst::ConcatCols { parts } => {
                let part_vars: Vec<Var> = parts.iter().map(|&q| vars[q]).collect();
                g.concat_cols(&part_vars)
            }
            Inst::SliceCols { a, start, width } => g.slice_cols(vars[*a], *start, *width),
            Inst::MeanAll { a } => g.mean_all(vars[*a]),
            Inst::SumAll { a } => g.sum_all(vars[*a]),
            Inst::WeightedBce { logits, targets, weights } => {
                let n = targets.len();
                g.weighted_bce_with_logits(
                    vars[*logits],
                    Matrix::from_vec(n, 1, targets.clone()),
                    Matrix::from_vec(n, 1, weights.clone()),
                )
            }
            Inst::KlConstRows { probs, target, eps } => g.kl_const_rows(
                vars[*probs],
                Matrix::from_vec(1, target.len(), target.clone()),
                *eps,
            ),
        };
        ids.push(id);
        vars.push(v);
    }
    let values: Vec<Matrix> = vars.iter().map(|&v| g.value(v).clone()).collect();
    let mut grads: Vec<Option<Matrix>> = vec![None; p.insts.len()];
    if values[p.root].shape() == (1, 1) {
        g.backward(vars[p.root], &mut params);
        for (i, id) in ids.iter().enumerate() {
            if let Some(pid) = id {
                grads[i] = Some(params.grad(*pid).clone());
            }
        }
    }
    ProdRun { values, grads }
}

/// Applies the oracle version of one instruction to already-promoted parents.
fn oracle_apply(inst: &Inst, parents: &[RefMatrix]) -> RefMatrix {
    match inst {
        Inst::Param { rows, cols, data } => RefMatrix::from_f32(*rows, *cols, data),
        Inst::MatMul { .. } => parents[0].matmul(&parents[1]),
        Inst::Add { .. } => parents[0].add(&parents[1]),
        Inst::AddRowBroadcast { .. } => parents[0].add_row_broadcast(&parents[1]),
        Inst::Mul { .. } => parents[0].mul(&parents[1]),
        Inst::MulColBroadcast { .. } => parents[0].mul_col_broadcast(&parents[1]),
        Inst::Scale { factor, .. } => parents[0].scale(f64::from(*factor)),
        Inst::Relu { .. } => parents[0].relu(),
        Inst::Tanh { .. } => parents[0].map(f64::tanh),
        Inst::Sigmoid { .. } => parents[0].map(|v| 1.0 / (1.0 + (-v).exp())),
        Inst::SoftmaxRows { .. } => parents[0].softmax_rows(),
        Inst::ConcatCols { .. } => {
            let refs: Vec<&RefMatrix> = parents.iter().collect();
            RefMatrix::concat_cols(&refs)
        }
        Inst::SliceCols { start, width, .. } => parents[0].slice_cols(*start, *width),
        Inst::MeanAll { .. } => RefMatrix::scalar(parents[0].mean()),
        Inst::SumAll { .. } => RefMatrix::scalar(parents[0].sum()),
        Inst::WeightedBce { targets, weights, .. } => {
            RefMatrix::scalar(bce_terms(&parents[0], targets, weights).0)
        }
        Inst::KlConstRows { target, eps, .. } => {
            RefMatrix::scalar(kl_terms(&parents[0], target, *eps).0)
        }
    }
}

/// `(mean, mean of |term|)` of the stable weighted BCE over `n x 1` logits.
fn bce_terms(z: &RefMatrix, targets: &[f32], weights: &[f32]) -> (f64, f64) {
    let n = z.rows().max(1) as f64;
    let (mut total, mut abs_total) = (0.0, 0.0);
    for i in 0..z.rows() {
        let zi = z.get(i, 0);
        let (yi, wi) = (f64::from(targets[i]), f64::from(weights[i]));
        let term = wi * (zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p());
        total += term;
        abs_total += term.abs();
    }
    (total / n, abs_total / n)
}

/// `(mean, mean of |term|)` of the row-wise KL against a constant target.
fn kl_terms(p: &RefMatrix, target: &[f32], eps: f32) -> (f64, f64) {
    let n = p.rows().max(1) as f64;
    let (mut total, mut abs_total) = (0.0, 0.0);
    for i in 0..p.rows() {
        for (j, &q32) in target.iter().enumerate() {
            let q = f64::from(q32);
            if q > 0.0 {
                let term = q * (q / (p.get(i, j) + f64::from(eps))).ln();
                total += term;
                abs_total += term.abs();
            }
        }
    }
    (total / n, abs_total / n)
}

/// `(ulps, per-element absolute fallback)` for one instruction given its
/// promoted production parents and the oracle output shape.
fn forward_budget(inst: &Inst, parents: &[RefMatrix], out: &RefMatrix) -> (u64, RefMatrix) {
    let zeros = || RefMatrix::zeros(out.rows(), out.cols());
    match inst {
        Inst::MatMul { .. } => {
            let k = parents[0].cols();
            let scale = parents[0].map(f64::abs).matmul(&parents[1].map(f64::abs));
            (op_ulps("matmul", k), scale.scale((k as f64 + 4.0) * EPS32))
        }
        Inst::SoftmaxRows { .. } => {
            let m = parents[0].cols();
            let abs = (m as f64 + 4.0) * EPS32;
            (op_ulps("softmax_rows", m), zeros().map(|_| abs))
        }
        Inst::SumAll { .. } => {
            let n = parents[0].len();
            let abs = (n as f64 + 4.0) * EPS32 * parents[0].abs_sum();
            (op_ulps("sum_all", n), RefMatrix::scalar(abs))
        }
        Inst::MeanAll { .. } => {
            let n = parents[0].len();
            let abs = (n as f64 + 4.0) * EPS32 * parents[0].abs_sum() / n.max(1) as f64;
            (op_ulps("mean_all", n), RefMatrix::scalar(abs))
        }
        Inst::WeightedBce { targets, weights, .. } => {
            let n = parents[0].rows();
            let (_, mean_abs) = bce_terms(&parents[0], targets, weights);
            let abs = (n as f64 + 4.0) * EPS32 * mean_abs.max(1.0);
            (op_ulps("weighted_bce_with_logits", n), RefMatrix::scalar(abs))
        }
        Inst::KlConstRows { target, eps, .. } => {
            let n = parents[0].len();
            let (_, mean_abs) = kl_terms(&parents[0], target, *eps);
            let abs = (n as f64 + 4.0) * EPS32 * mean_abs.max(1.0);
            (op_ulps("kl_const_rows", n), RefMatrix::scalar(abs))
        }
        _ => (op_ulps(inst.op_name(), 0), zeros()),
    }
}

/// Full `f64` evaluation of the program at the given parameter values
/// (`param_values` in order of `Param` appearance); returns the root value.
pub fn eval_oracle_root(p: &Program, param_values: &[RefMatrix]) -> f64 {
    let mut values: Vec<RefMatrix> = Vec::with_capacity(p.insts.len());
    let mut next_param = 0;
    for inst in &p.insts {
        let v = if let Inst::Param { .. } = inst {
            let v = param_values[next_param].clone();
            next_param += 1;
            v
        } else {
            let parents: Vec<RefMatrix> =
                inst.parents().iter().map(|&q| values[q].clone()).collect();
            oracle_apply(inst, &parents)
        };
        values.push(v);
    }
    values[p.root].item()
}

/// Checks one program: production forward per-op against the oracle within
/// budget, and production gradients against oracle finite differences.
pub fn check_program(p: &Program) -> Result<(), Discrepancy> {
    check_with_fault(p, None)
}

/// Upper bound on gradient elements finite-difference-checked per parameter;
/// beyond it a deterministic stride subsamples the tensor.
const GRAD_CHECK_MAX_ELEMENTS: usize = 64;

/// [`check_program`] with an optional injected fault — the mutation hook the
/// harness's own tests use to prove a corrupted kernel output is caught.
pub fn check_with_fault(p: &Program, fault: Option<Fault>) -> Result<(), Discrepancy> {
    let run = run_production(p);
    let mut values = run.values;
    if let Some(f) = fault {
        for v in values[f.inst].as_mut_slice() {
            *v += f.rel * (v.abs() + 1.0);
        }
    }

    // Forward: each op in isolation, oracle applied to *production* parents.
    for (i, inst) in p.insts.iter().enumerate() {
        let parents: Vec<RefMatrix> =
            inst.parents().iter().map(|&q| RefMatrix::from_matrix(&values[q])).collect();
        let oracle = oracle_apply(inst, &parents);
        let prod = &values[i];
        if prod.shape() != oracle.shape() {
            return Err(Discrepancy {
                inst: i,
                op: inst.op_name(),
                kind: "forward",
                detail: format!(
                    "shape mismatch: production {:?} vs oracle {:?}",
                    prod.shape(),
                    oracle.shape()
                ),
            });
        }
        let (ulps, abs) = forward_budget(inst, &parents, &oracle);
        for r in 0..oracle.rows() {
            for c in 0..oracle.cols() {
                let pv = prod.get(r, c);
                let ov = oracle.get(r, c);
                let budget = Budget { ulps, abs: abs.get(r, c) };
                if !budget.accepts(pv, ov) {
                    return Err(Discrepancy {
                        inst: i,
                        op: inst.op_name(),
                        kind: "forward",
                        detail: format!(
                            "element ({r},{c}): production {pv:e} vs oracle {ov:e} \
                             ({} ulps, budget {} ulps / {:e} abs)",
                            ulp_distance(pv, ov as f32),
                            ulps,
                            budget.abs
                        ),
                    });
                }
            }
        }
    }

    // Backward: production gradients vs oracle central finite differences.
    // Large parameters (the blocked-shape profile emits up to 17x17 leaves)
    // are subsampled with a deterministic stride so fuzz throughput stays
    // usable; the stride depends only on the tensor size, so a seed always
    // checks the same elements and reproducers stay exact.
    let param_order: Vec<usize> = p
        .insts
        .iter()
        .enumerate()
        .filter(|(_, inst)| matches!(inst, Inst::Param { .. }))
        .map(|(i, _)| i)
        .collect();
    let base: Vec<RefMatrix> = param_order
        .iter()
        .map(|&i| match &p.insts[i] {
            Inst::Param { rows, cols, data } => RefMatrix::from_f32(*rows, *cols, data),
            _ => RefMatrix::zeros(0, 0),
        })
        .collect();
    for (k, &pi) in param_order.iter().enumerate() {
        let Some(grad) = &run.grads[pi] else { continue };
        let total = grad.rows() * grad.cols();
        let stride = total.div_ceil(GRAD_CHECK_MAX_ELEMENTS).max(1);
        for flat in (0..total).step_by(stride) {
            let (r, c) = (flat / grad.cols(), flat % grad.cols());
            {
                let x = base[k].get(r, c);
                let h = 1e-3 * x.abs().max(1.0);
                let eval = |delta: f64| -> f64 {
                    let mut pv = base.clone();
                    pv[k].set(r, c, x + delta);
                    eval_oracle_root(p, &pv)
                };
                let fd = (eval(h) - eval(-h)) / (2.0 * h);
                let fd_half = (eval(h / 2.0) - eval(-h / 2.0)) / h;
                // h-halving guard: where the two step sizes disagree the loss
                // is locally ill-conditioned (ReLU kink, max switch) and the
                // finite difference is meaningless — skip the element.
                if (fd - fd_half).abs() > 0.1 * fd.abs().max(fd_half.abs()).max(1e-6) {
                    continue;
                }
                let g = f64::from(grad.get(r, c));
                if (g - fd).abs() > 2e-2 * g.abs().max(fd.abs()).max(1.0) {
                    return Err(Discrepancy {
                        inst: pi,
                        op: "param",
                        kind: "grad",
                        detail: format!(
                            "element ({r},{c}): production grad {g:e} vs oracle fd {fd:e}"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Shape profile for [`gen_program_with`].
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Rough instruction count of the generated program.
    pub size: usize,
    /// When true, parameter leaves are drawn from a blocked-kernel palette —
    /// dims crossing the `MR`/`NR` register-tile edges plus 16/17, so matmuls
    /// land on both sides of the blocked-dispatch threshold (a 16³ product is
    /// the smallest that takes the blocked path) — instead of `1..=4`. Every
    /// such program also carries one narrow product (`1 ≤ m < NR` columns,
    /// at least `NR` rows), the shape of the row-interleaved narrow kernel.
    pub blocked: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self { size: 8, blocked: false }
    }
}

/// Generates a random well-shaped program with roughly `size` instructions,
/// rejecting nodes whose oracle value explodes past `1e4`. All sinks are
/// folded through `MeanAll` and an `Add` chain into a single scalar root.
pub fn gen_program(seed: u64, size: usize) -> Program {
    gen_program_with(seed, &GenOptions { size, blocked: false })
}

/// [`gen_program`] with an explicit shape profile.
pub fn gen_program_with(seed: u64, opts: &GenOptions) -> Program {
    let size = opts.size;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f72_6163); // "orac"
    let mut insts: Vec<Inst> = Vec::new();
    let mut values: Vec<RefMatrix> = Vec::new();
    let mut softmax_nodes: Vec<usize> = Vec::new();

    let push = |insts: &mut Vec<Inst>, values: &mut Vec<RefMatrix>, inst: Inst| -> bool {
        let parents: Vec<RefMatrix> = inst.parents().iter().map(|&q| values[q].clone()).collect();
        let v = oracle_apply(&inst, &parents);
        if v.max_abs() > 1e4 || !v.as_slice().iter().all(|x| x.is_finite()) {
            return false;
        }
        insts.push(inst);
        values.push(v);
        true
    };

    // The blocked palette repeats 16 so `a.cols == b.rows` coincidences (the
    // matmul precondition) stay common despite the wider dim spread.
    let blocked_dims: [usize; 8] = {
        use adamel_tensor::gemm::{MR, NR};
        [1, MR, MR + 1, NR, NR + 1, 16, 16, 17]
    };
    let dim = |rng: &mut StdRng| -> usize {
        if opts.blocked {
            blocked_dims[rng.gen_range(0..blocked_dims.len())]
        } else {
            rng.gen_range(1..=4usize)
        }
    };
    let n_params = 1 + rng.gen_range(0..3usize) + usize::from(opts.blocked);
    for _ in 0..n_params {
        let rows = dim(&mut rng);
        let cols = dim(&mut rng);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        push(&mut insts, &mut values, Inst::Param { rows, cols, data });
    }

    // The narrow product: a tall leaf (drawn now if the palette gave none)
    // times a head narrower than the register tile, like the attention
    // energies and the classifier's output layer.
    if opts.blocked {
        use adamel_tensor::gemm::NR;
        let mut tall: Vec<usize> = (0..insts.len()).filter(|&i| values[i].rows() >= NR).collect();
        if tall.is_empty() {
            let rows = [NR, NR + 1, 16, 17][rng.gen_range(0..4usize)];
            let cols = dim(&mut rng);
            let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            push(&mut insts, &mut values, Inst::Param { rows, cols, data });
            tall.push(insts.len() - 1);
        }
        let a = tall[rng.gen_range(0..tall.len())];
        let (rows, cols) = (values[a].cols(), rng.gen_range(1..NR));
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        push(&mut insts, &mut values, Inst::Param { rows, cols, data });
        let b = insts.len() - 1;
        push(&mut insts, &mut values, Inst::MatMul { a, b });
    }

    let mut attempts = 0;
    while insts.len() < size.max(n_params + 1) && attempts < 40 * size {
        attempts += 1;
        let n = insts.len();
        let pick = |rng: &mut StdRng| rng.gen_range(0..n);
        let inst = match rng.gen_range(0..14u32) {
            0 => {
                // MatMul: find a pair with a.cols == b.rows.
                let a = pick(&mut rng);
                let candidates: Vec<usize> =
                    (0..n).filter(|&b| values[b].rows() == values[a].cols()).collect();
                if candidates.is_empty() {
                    continue;
                }
                let b = candidates[rng.gen_range(0..candidates.len())];
                Inst::MatMul { a, b }
            }
            1 | 2 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> =
                    (0..n).filter(|&b| values[b].shape() == values[a].shape()).collect();
                let b = candidates[rng.gen_range(0..candidates.len())];
                if rng.gen_bool(0.5) {
                    Inst::Add { a, b }
                } else {
                    Inst::Mul { a, b }
                }
            }
            3 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> = (0..n)
                    .filter(|&b| values[b].rows() == 1 && values[b].cols() == values[a].cols())
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let bias = candidates[rng.gen_range(0..candidates.len())];
                Inst::AddRowBroadcast { a, bias }
            }
            4 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> = (0..n)
                    .filter(|&b| values[b].cols() == 1 && values[b].rows() == values[a].rows())
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let col = candidates[rng.gen_range(0..candidates.len())];
                Inst::MulColBroadcast { a, col }
            }
            5 => Inst::Scale { a: pick(&mut rng), factor: rng.gen_range(-1.5f32..1.5) },
            6 => Inst::Relu { a: pick(&mut rng) },
            7 => Inst::Tanh { a: pick(&mut rng) },
            8 => Inst::Sigmoid { a: pick(&mut rng) },
            9 => Inst::SoftmaxRows { a: pick(&mut rng) },
            10 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> =
                    (0..n).filter(|&b| values[b].rows() == values[a].rows()).collect();
                let b = candidates[rng.gen_range(0..candidates.len())];
                Inst::ConcatCols { parts: vec![a, b] }
            }
            11 => {
                let a = pick(&mut rng);
                let cols = values[a].cols();
                let start = rng.gen_range(0..cols);
                let width = rng.gen_range(1..=cols - start);
                Inst::SliceCols { a, start, width }
            }
            12 => {
                // BCE needs an n x 1 logit column; slice one if necessary.
                let candidates: Vec<usize> = (0..n).filter(|&b| values[b].cols() == 1).collect();
                if candidates.is_empty() {
                    continue;
                }
                let logits = candidates[rng.gen_range(0..candidates.len())];
                let rows = values[logits].rows();
                let targets: Vec<f32> =
                    (0..rows).map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 }).collect();
                let weights: Vec<f32> = (0..rows).map(|_| rng.gen_range(0.1f32..2.0)).collect();
                Inst::WeightedBce { logits, targets, weights }
            }
            _ => {
                // KL requires normalized rows: only softmax outputs qualify
                // (the runtime sanitizer enforces this).
                if softmax_nodes.is_empty() {
                    continue;
                }
                let probs = softmax_nodes[rng.gen_range(0..softmax_nodes.len())];
                let m = values[probs].cols();
                let raw: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05f64..1.0)).collect();
                let total: f64 = raw.iter().sum();
                let target: Vec<f32> = raw.iter().map(|&v| (v / total) as f32).collect();
                Inst::KlConstRows { probs, target, eps: 1e-7 }
            }
        };
        let is_softmax = matches!(inst, Inst::SoftmaxRows { .. });
        if push(&mut insts, &mut values, inst) && is_softmax {
            softmax_nodes.push(insts.len() - 1);
        }
    }

    // Fold every sink into a single scalar root.
    let mut used = vec![false; insts.len()];
    for inst in &insts {
        for q in inst.parents() {
            used[q] = true;
        }
    }
    let sinks: Vec<usize> = (0..insts.len()).filter(|&i| !used[i]).collect();
    let mut scalars: Vec<usize> = Vec::new();
    for s in sinks {
        if values[s].shape() == (1, 1) {
            scalars.push(s);
        } else {
            push(&mut insts, &mut values, Inst::MeanAll { a: s });
            scalars.push(insts.len() - 1);
        }
    }
    let mut root = scalars[0];
    for &s in &scalars[1..] {
        push(&mut insts, &mut values, Inst::Add { a: root, b: s });
        root = insts.len() - 1;
    }
    Program { insts, root }
}

/// Removes the instructions marked `dead` (which must be closed under
/// dependents), remapping indices; returns `None` when nothing remains.
fn remove_insts(p: &Program, dead: &[bool]) -> Option<Program> {
    let mut remap: Vec<usize> = vec![usize::MAX; p.insts.len()];
    let mut insts: Vec<Inst> = Vec::new();
    for (i, inst) in p.insts.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let mut inst = inst.clone();
        match &mut inst {
            Inst::Param { .. } => {}
            Inst::MatMul { a, b } | Inst::Add { a, b } | Inst::Mul { a, b } => {
                *a = remap[*a];
                *b = remap[*b];
            }
            Inst::AddRowBroadcast { a, bias } => {
                *a = remap[*a];
                *bias = remap[*bias];
            }
            Inst::MulColBroadcast { a, col } => {
                *a = remap[*a];
                *col = remap[*col];
            }
            Inst::Scale { a, .. }
            | Inst::Relu { a }
            | Inst::Tanh { a }
            | Inst::Sigmoid { a }
            | Inst::SoftmaxRows { a }
            | Inst::SliceCols { a, .. }
            | Inst::MeanAll { a }
            | Inst::SumAll { a } => *a = remap[*a],
            Inst::ConcatCols { parts } => {
                for q in parts.iter_mut() {
                    *q = remap[*q];
                }
            }
            Inst::WeightedBce { logits, .. } => *logits = remap[*logits],
            Inst::KlConstRows { probs, .. } => *probs = remap[*probs],
        }
        remap[i] = insts.len();
        insts.push(inst);
    }
    if insts.is_empty() {
        return None;
    }
    let root = if dead[p.root] { insts.len() - 1 } else { remap[p.root] };
    Some(Program { insts, root })
}

/// Marks `start` and everything that transitively reads it.
fn dependents_of(p: &Program, start: usize) -> Vec<bool> {
    let mut dead = vec![false; p.insts.len()];
    dead[start] = true;
    for i in start + 1..p.insts.len() {
        if p.insts[i].parents().iter().any(|&q| dead[q]) {
            dead[i] = true;
        }
    }
    dead
}

/// Shrinks a failing program to a (locally) minimal one that still fails.
///
/// First slices the program down to the ancestors of the failing instruction
/// (forward failures), then repeatedly deletes any instruction (plus its
/// dependents) whose removal keeps the check failing.
pub fn shrink(p: &Program) -> Program {
    let mut current = p.clone();
    // Ancestor slice: keep only what the failing node computes from.
    if let Err(d) = check_program(&current) {
        let mut keep = vec![false; current.insts.len()];
        keep[d.inst] = true;
        for i in (0..=d.inst).rev() {
            if keep[i] {
                for q in current.insts[i].parents() {
                    keep[q] = true;
                }
            }
        }
        let dead: Vec<bool> = keep.iter().map(|&k| !k).collect();
        if let Some(mut sliced) = remove_insts(&current, &dead) {
            sliced.root = sliced.insts.len() - 1;
            if check_program(&sliced).is_err() {
                current = sliced;
            }
        }
    } else {
        return current; // Nothing to shrink.
    }
    // Greedy deletion until a fixed point.
    loop {
        let mut improved = false;
        for i in (0..current.insts.len()).rev() {
            let dead = dependents_of(&current, i);
            if dead.iter().all(|&d| d) {
                continue; // Would delete everything.
            }
            if let Some(candidate) = remove_insts(&current, &dead) {
                if check_program(&candidate).is_err() {
                    current = candidate;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Renders a failing program as a paste-able `#[test]` reproducer. Parameter
/// data is emitted through `f32::from_bits` so the repro is bit-exact.
pub fn render_reproducer(p: &Program) -> String {
    let mut out = String::new();
    out.push_str("#[test]\nfn fuzz_reproducer() {\n");
    out.push_str("    use adamel_oracle::{check_program, Inst, Program};\n");
    out.push_str("    let p = Program {\n        insts: vec![\n");
    for inst in &p.insts {
        out.push_str("            ");
        out.push_str(&render_inst(inst));
        out.push_str(",\n");
    }
    out.push_str(&format!("        ],\n        root: {},\n    }};\n", p.root));
    out.push_str("    if let Err(d) = check_program(&p) {\n");
    out.push_str("        panic!(\"production diverges from oracle: {d}\");\n");
    out.push_str("    }\n}\n");
    out
}

fn render_f32s(data: &[f32]) -> String {
    let parts: Vec<String> =
        data.iter().map(|v| format!("f32::from_bits(0x{:08x})", v.to_bits())).collect();
    format!("vec![{}]", parts.join(", "))
}

fn render_inst(inst: &Inst) -> String {
    match inst {
        Inst::Param { rows, cols, data } => {
            format!("Inst::Param {{ rows: {rows}, cols: {cols}, data: {} }}", render_f32s(data))
        }
        Inst::MatMul { a, b } => format!("Inst::MatMul {{ a: {a}, b: {b} }}"),
        Inst::Add { a, b } => format!("Inst::Add {{ a: {a}, b: {b} }}"),
        Inst::AddRowBroadcast { a, bias } => {
            format!("Inst::AddRowBroadcast {{ a: {a}, bias: {bias} }}")
        }
        Inst::Mul { a, b } => format!("Inst::Mul {{ a: {a}, b: {b} }}"),
        Inst::MulColBroadcast { a, col } => {
            format!("Inst::MulColBroadcast {{ a: {a}, col: {col} }}")
        }
        Inst::Scale { a, factor } => {
            format!("Inst::Scale {{ a: {a}, factor: f32::from_bits(0x{:08x}) }}", factor.to_bits())
        }
        Inst::Relu { a } => format!("Inst::Relu {{ a: {a} }}"),
        Inst::Tanh { a } => format!("Inst::Tanh {{ a: {a} }}"),
        Inst::Sigmoid { a } => format!("Inst::Sigmoid {{ a: {a} }}"),
        Inst::SoftmaxRows { a } => format!("Inst::SoftmaxRows {{ a: {a} }}"),
        Inst::ConcatCols { parts } => format!("Inst::ConcatCols {{ parts: vec!{parts:?} }}"),
        Inst::SliceCols { a, start, width } => {
            format!("Inst::SliceCols {{ a: {a}, start: {start}, width: {width} }}")
        }
        Inst::MeanAll { a } => format!("Inst::MeanAll {{ a: {a} }}"),
        Inst::SumAll { a } => format!("Inst::SumAll {{ a: {a} }}"),
        Inst::WeightedBce { logits, targets, weights } => format!(
            "Inst::WeightedBce {{ logits: {logits}, targets: {}, weights: {} }}",
            render_f32s(targets),
            render_f32s(weights)
        ),
        Inst::KlConstRows { probs, target, eps } => format!(
            "Inst::KlConstRows {{ probs: {probs}, target: {}, eps: f32::from_bits(0x{:08x}) }}",
            render_f32s(target),
            eps.to_bits()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        Program {
            insts: vec![
                Inst::Param { rows: 2, cols: 3, data: vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75] },
                Inst::Param { rows: 3, cols: 2, data: vec![1.0, 0.5, -0.5, 2.0, 0.125, -1.0] },
                Inst::MatMul { a: 0, b: 1 },
                Inst::Tanh { a: 2 },
                Inst::MeanAll { a: 3 },
            ],
            root: 4,
        }
    }

    #[test]
    fn tiny_program_passes() {
        assert!(check_program(&tiny_program()).is_ok());
    }

    #[test]
    fn injected_fault_is_caught() {
        let p = tiny_program();
        let err = check_with_fault(&p, Some(Fault { inst: 2, rel: 1e-3 }))
            .expect_err("fault must be detected");
        assert_eq!(err.kind, "forward");
    }

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..10 {
            let p = gen_program(seed, 8);
            assert!(!p.insts.is_empty());
            assert!(p.root < p.insts.len());
            for (i, inst) in p.insts.iter().enumerate() {
                for q in inst.parents() {
                    assert!(q < i, "forward reference in seed {seed}");
                }
            }
        }
    }

    #[test]
    fn blocked_profile_reaches_blocked_dispatch() {
        use adamel_tensor::gemm::use_blocked;
        // Across a handful of seeds the blocked palette must generate at
        // least one matmul that actually takes the blocked kernel path —
        // otherwise the `--blocked` fuzz profile silently tests nothing new.
        let mut hit = false;
        for seed in 0..24 {
            let p = gen_program_with(seed, &GenOptions { size: 10, blocked: true });
            let mut shapes: Vec<(usize, usize)> = Vec::new();
            for inst in &p.insts {
                let parents: Vec<RefMatrix> = inst
                    .parents()
                    .iter()
                    .map(|&q| shapes[q])
                    .map(|(r, c)| RefMatrix::zeros(r, c))
                    .collect();
                let v = oracle_apply(inst, &parents);
                if let Inst::MatMul { a, b } = inst {
                    let (n, k) = shapes[*a];
                    let m = shapes[*b].1;
                    debug_assert_eq!(k, shapes[*b].0);
                    if use_blocked(n, k, m) {
                        hit = true;
                    }
                }
                shapes.push(v.shape());
            }
        }
        assert!(hit, "no generated matmul dispatches to the blocked kernels");
    }

    #[test]
    fn blocked_profile_reaches_narrow_dispatch() {
        use adamel_tensor::gemm::{use_blocked, NR};
        // Every blocked-profile program must carry a product the narrow
        // kernel takes (`m < NR`, never blocked) over at least NR rows, so
        // the fuzz CI steps reach its eight-row interleave and ragged tail.
        for seed in 0..24 {
            let p = gen_program_with(seed, &GenOptions { size: 10, blocked: true });
            let mut shapes: Vec<(usize, usize)> = Vec::new();
            let mut hit = false;
            for inst in &p.insts {
                let parents: Vec<RefMatrix> = inst
                    .parents()
                    .iter()
                    .map(|&q| RefMatrix::zeros(shapes[q].0, shapes[q].1))
                    .collect();
                if let Inst::MatMul { a, b } = inst {
                    let (n, k, m) = (shapes[*a].0, shapes[*a].1, shapes[*b].1);
                    if (1..NR).contains(&m) && n >= NR && !use_blocked(n, k, m) {
                        hit = true;
                    }
                }
                shapes.push(oracle_apply(inst, &parents).shape());
            }
            assert!(hit, "seed {seed}: no generated matmul dispatches to the narrow kernel");
        }
    }

    #[test]
    fn blocked_programs_pass_differential_check() {
        for seed in 100..104 {
            let p = gen_program_with(seed, &GenOptions { size: 10, blocked: true });
            if let Err(d) = check_program(&p) {
                panic!("blocked program seed {seed} diverges: {d}");
            }
        }
    }

    #[test]
    fn shrink_produces_smaller_failing_program() {
        // Build a passing program, then make it fail via a corrupted check by
        // constructing a program whose production output cannot match: a
        // matmul compared under a deliberately wrong shape is impossible to
        // fabricate here, so instead verify shrink is a no-op on passes.
        let p = tiny_program();
        let s = shrink(&p);
        assert_eq!(s, p);
    }

    #[test]
    fn reproducer_renders_program_literal() {
        let text = render_reproducer(&tiny_program());
        assert!(text.contains("Inst::MatMul { a: 0, b: 1 }"));
        assert!(text.contains("f32::from_bits"));
        assert!(text.contains("root: 4"));
    }
}
