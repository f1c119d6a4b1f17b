//! Tape-free compiled replay of a recorded forward graph.
//!
//! Batched inference used to pay define-by-run overhead per 512-row chunk:
//! every chunk re-recorded the same op sequence onto a fresh [`Graph`],
//! cloning every parameter matrix into the tape and allocating every
//! intermediate. A [`CompiledPlan`] is built **once** from a probe forward
//! pass and then *replayed*: the op sequence is frozen into a step list,
//! parameters are read by reference from the live
//! [`crate::params::ParamSet`] at replay time (so a plan stays
//! valid across training and [`ParamSet::restore`](crate::params::ParamSet)),
//! and every intermediate lands in a reusable [`PlanBuffers`] arena —
//! steady-state replay performs no graph construction, no parameter clones,
//! and no allocation.
//!
//! Replay calls the exact same `*_into` kernels the tape ops delegate to
//! ([`Matrix::matmul_into`] and friends), so plan output is **bit-identical**
//! to recording the graph. The one difference is where a blocked product
//! against a parameter gets its packed `B`: from `ParamSet::packed`, built
//! once per parameter version, instead of a per-call pack — the same kernel
//! body either way. The equivalence suite in `adamel` compares chunked plan
//! replay against one recorded forward graph bit-for-bit across chunk
//! boundaries and feature modes. The runtime sanitizer hooks
//! ([`crate::sanitize`]) run per replayed step with the same op provenance
//! as the tape.
//!
//! ## Shape specialization
//!
//! A plan is *row-polymorphic*: the probe batch fixes every column width
//! while row counts follow the replay input. That only works when no leaf
//! other than the designated input scales with the batch — so
//! [`CompiledPlan::compile`] rejects any non-input constant whose row count
//! matches the probe batch ([`PlanError::ScalingConstant`]): a frozen copy
//! would replay at the wrong shape. The AdaMEL forward records no such
//! constant in any configuration — its uniform-attention ablation softmaxes
//! zeroed energies rather than baking an `n x F` matrix of `1/F` — so this
//! is a guard, not a path. Loss/reduction ops are recording-only and
//! likewise rejected when reachable from the requested outputs.

use crate::gemm;
use crate::graph::{Graph, Op, Var};
use crate::matrix::{Matrix, CHEAP_MAP_FLOPS, SIGMOID_FLOPS, TANH_FLOPS};
use crate::params::{ParamId, ParamSet};
use crate::sanitize;
use std::fmt;
use std::sync::Mutex;

/// Why a recorded graph could not be compiled into a replayable plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A reachable op only exists for training (losses, full reductions);
    /// the payload is the op's stable name.
    UnsupportedOp(&'static str),
    /// A non-input constant's row count matches the probe batch, so its
    /// rows would (conservatively) scale with the batch and a frozen copy
    /// would be replayed at the wrong shape.
    ScalingConstant,
    /// A requested output is a leaf (constant/parameter/input), not a
    /// computed node; replay only materializes computed nodes.
    UnsupportedOutput,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnsupportedOp(name) => {
                write!(f, "plan: op `{name}` is not replayable (training-only)")
            }
            PlanError::ScalingConstant => {
                write!(f, "plan: constant scales with the batch; cannot shape-specialize")
            }
            PlanError::UnsupportedOutput => {
                write!(f, "plan: requested output is a leaf, not a computed node")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Where a step operand's value lives at replay time.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// The replay batch handed to [`CompiledPlan::execute`].
    Input,
    /// A frozen constant captured at compile time.
    Const(usize),
    /// A parameter, read from the live `ParamSet` by id at replay time.
    Param(ParamId),
    /// An earlier step's output buffer.
    Buf(usize),
}

/// One replayable op, mirroring the forward subset of the tape's op set.
enum StepOp {
    MatMul(Src, Src),
    Add(Src, Src),
    AddRowBroadcast(Src, Src),
    Mul(Src, Src),
    MulColBroadcast(Src, Src),
    Scale(Src, f32),
    Relu(Src),
    Tanh(Src),
    Sigmoid(Src),
    SoftmaxRows(Src),
    ConcatCols(Vec<Src>),
    SliceCols { input: Src, start: usize, width: usize },
}

impl StepOp {
    /// Stable name matching the tape op, for sanitizer provenance.
    fn name(&self) -> &'static str {
        match self {
            StepOp::MatMul(..) => "matmul",
            StepOp::Add(..) => "add",
            StepOp::AddRowBroadcast(..) => "add_row_broadcast",
            StepOp::Mul(..) => "mul",
            StepOp::MulColBroadcast(..) => "mul_col_broadcast",
            StepOp::Scale(..) => "scale",
            StepOp::Relu(_) => "relu",
            StepOp::Tanh(_) => "tanh",
            StepOp::Sigmoid(_) => "sigmoid",
            StepOp::SoftmaxRows(_) => "softmax_rows",
            StepOp::ConcatCols(_) => "concat_cols",
            StepOp::SliceCols { .. } => "slice_cols",
        }
    }
}

struct Step {
    op: StepOp,
    /// Output buffer index; strictly increasing in step order, so every
    /// operand buffer of a step lies before `out` (SSA discipline).
    out: usize,
}

/// A frozen, shape-specialized forward program: compile once, replay many.
pub struct CompiledPlan {
    steps: Vec<Step>,
    consts: Vec<Matrix>,
    /// Buffer index per requested output, in request order.
    outputs: Vec<usize>,
    num_bufs: usize,
    input_cols: usize,
}

/// Reusable per-replay scratch: one buffer per computed step plus an input
/// staging matrix. Buffers grow to the largest batch replayed through them
/// and are then reused allocation-free; contents are meaningless between
/// replays.
pub struct PlanBuffers {
    bufs: Vec<Matrix>,
    input_scratch: Matrix,
}

impl Default for PlanBuffers {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanBuffers {
    /// An empty arena; [`CompiledPlan::execute`] sizes it on first use.
    pub fn new() -> Self {
        Self { bufs: Vec::new(), input_scratch: Matrix::default() }
    }

    /// Logical footprint of the arena in bytes: every intermediate buffer
    /// plus the input staging matrix. Feeds the `tensor.plan.pool.bytes`
    /// memory gauge.
    pub fn logical_bytes(&self) -> u64 {
        let elems: usize = self
            .bufs
            .iter()
            .map(|m| m.as_slice().len())
            .sum::<usize>()
            .saturating_add(self.input_scratch.as_slice().len());
        (elems * 4) as u64
    }
}

/// A mutex-guarded stash of [`PlanBuffers`] so concurrent chunk workers
/// reuse warm arenas instead of reallocating. Locks are held only for the
/// `pop`/`push` themselves — never across kernel dispatch — and a poisoned
/// mutex is recovered (the stash holds scratch, never results).
#[derive(Default)]
pub struct BufferPool {
    slots: Mutex<Vec<PlanBuffers>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a warm arena if one is stashed, else a fresh empty one.
    pub fn checkout(&self) -> PlanBuffers {
        let bufs = self.slots.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or_default();
        // The gauge tracks bytes *parked* in the pool: checked-out arenas
        // leave it, returned arenas re-enter at their (possibly grown) size.
        adamel_obs::mem::sub("tensor.plan.pool.bytes", bufs.logical_bytes());
        bufs
    }

    /// Returns an arena to the pool for the next checkout.
    pub fn put_back(&self, bufs: PlanBuffers) {
        adamel_obs::mem::add("tensor.plan.pool.bytes", bufs.logical_bytes());
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).push(bufs);
    }
}

fn resolved(src: &[Option<Src>], v: Var) -> Src {
    src[v.index()].expect("plan compile: operand recorded after its use")
}

impl CompiledPlan {
    /// Compiles the subgraph of `g` that `outputs` depend on, treating
    /// `input` as the replay-time batch leaf. Nodes the outputs don't reach
    /// are pruned (so a plan for the attention head alone skips the
    /// classifier). The probe graph's batch size is read from `input` and
    /// only used for the scaling-constant check; replays accept any row
    /// count with `input`'s column width.
    pub fn compile(g: &Graph, input: Var, outputs: &[Var]) -> Result<CompiledPlan, PlanError> {
        let tape = g.tape();
        let probe_rows = g.value(input).rows();
        let input_cols = g.value(input).cols();

        let mut needed = vec![false; tape.len()];
        let mut stack: Vec<usize> = outputs.iter().map(|v| v.index()).collect();
        while let Some(i) = stack.pop() {
            if needed[i] {
                continue;
            }
            needed[i] = true;
            if i == input.index() {
                continue;
            }
            stack.extend(tape[i].op.inputs().into_iter().map(Var::index));
        }

        let mut src: Vec<Option<Src>> = vec![None; tape.len()];
        let mut consts = Vec::new();
        let mut steps = Vec::new();
        let mut num_bufs = 0;
        for (i, node) in tape.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            if i == input.index() {
                src[i] = Some(Src::Input);
                continue;
            }
            let op = match &node.op {
                Op::Constant => {
                    if node.value.rows() == probe_rows {
                        return Err(PlanError::ScalingConstant);
                    }
                    consts.push(node.value.clone());
                    src[i] = Some(Src::Const(consts.len() - 1));
                    continue;
                }
                Op::Param(id) => {
                    src[i] = Some(Src::Param(*id));
                    continue;
                }
                Op::MatMul(a, b) => StepOp::MatMul(resolved(&src, *a), resolved(&src, *b)),
                Op::Add(a, b) => StepOp::Add(resolved(&src, *a), resolved(&src, *b)),
                Op::AddRowBroadcast(a, b) => {
                    StepOp::AddRowBroadcast(resolved(&src, *a), resolved(&src, *b))
                }
                Op::Mul(a, b) => StepOp::Mul(resolved(&src, *a), resolved(&src, *b)),
                Op::MulColBroadcast(a, b) => {
                    StepOp::MulColBroadcast(resolved(&src, *a), resolved(&src, *b))
                }
                Op::Scale(a, s) => StepOp::Scale(resolved(&src, *a), *s),
                Op::Relu(a) => StepOp::Relu(resolved(&src, *a)),
                Op::Tanh(a) => StepOp::Tanh(resolved(&src, *a)),
                Op::Sigmoid(a) => StepOp::Sigmoid(resolved(&src, *a)),
                Op::SoftmaxRows(a) => StepOp::SoftmaxRows(resolved(&src, *a)),
                Op::ConcatCols(parts) => {
                    StepOp::ConcatCols(parts.iter().map(|v| resolved(&src, *v)).collect())
                }
                Op::SliceCols { input: a, start, width } => {
                    StepOp::SliceCols { input: resolved(&src, *a), start: *start, width: *width }
                }
                Op::MeanAll(_)
                | Op::SumAll(_)
                | Op::WeightedBceWithLogits { .. }
                | Op::KlConstRows { .. } => {
                    return Err(PlanError::UnsupportedOp(node.op.name()));
                }
            };
            steps.push(Step { op, out: num_bufs });
            src[i] = Some(Src::Buf(num_bufs));
            num_bufs += 1;
        }

        let outputs = outputs
            .iter()
            .map(|v| match src[v.index()] {
                Some(Src::Buf(b)) => Ok(b),
                _ => Err(PlanError::UnsupportedOutput),
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(CompiledPlan { steps, consts, outputs, num_bufs, input_cols })
    }

    /// Number of replayable steps after pruning.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of requested outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Column width every replay input must have.
    pub fn input_cols(&self) -> usize {
        self.input_cols
    }

    /// Replays the plan over `input` (any row count, compile-time column
    /// width), reading parameters from `params` and writing every
    /// intermediate into `bufs`. Values are bit-identical to recording the
    /// same ops on a fresh tape.
    pub fn execute(&self, params: &ParamSet, input: &Matrix, bufs: &mut PlanBuffers) {
        adamel_obs::trace_span!("plan_replay");
        adamel_obs::trace_count!("plan.replays", 1);
        assert_eq!(
            input.cols(),
            self.input_cols,
            "CompiledPlan::execute: input width {} != compiled width {}",
            input.cols(),
            self.input_cols
        );
        if bufs.bufs.len() < self.num_bufs {
            bufs.bufs.resize_with(self.num_bufs, Matrix::default);
        }
        for step in &self.steps {
            // SSA: `out` strictly exceeds every operand buffer index, so
            // splitting at it hands out disjoint borrows.
            let (head, tail) = bufs.bufs.split_at_mut(step.out);
            let out = &mut tail[0];
            let val = |s: Src| -> &Matrix {
                match s {
                    Src::Input => input,
                    Src::Const(i) => &self.consts[i],
                    Src::Param(id) => params.value(id),
                    Src::Buf(i) => &head[i],
                }
            };
            match &step.op {
                StepOp::MatMul(a, b) => {
                    let (lhs, rhs) = (val(*a), val(*b));
                    match *b {
                        // Weight-stationary: a blocked product against a
                        // parameter reads the pack kept beside its value
                        // instead of re-packing the weight every replay.
                        Src::Param(id) if gemm::use_blocked(lhs.rows(), lhs.cols(), rhs.cols()) => {
                            lhs.matmul_prepacked_into(params.packed(id), out)
                        }
                        _ => lhs.matmul_into(rhs, out),
                    }
                }
                StepOp::Add(a, b) => val(*a).add_into(val(*b), out),
                StepOp::AddRowBroadcast(a, b) => val(*a).add_row_broadcast_into(val(*b), out),
                StepOp::Mul(a, b) => val(*a).mul_into(val(*b), out),
                StepOp::MulColBroadcast(a, b) => val(*a).mul_col_broadcast_into(val(*b), out),
                StepOp::Scale(a, s) => val(*a).scale_into(*s, out),
                StepOp::Relu(a) => val(*a).map_into(|v| v.max(0.0), CHEAP_MAP_FLOPS, out),
                StepOp::Tanh(a) => val(*a).map_into(f32::tanh, TANH_FLOPS, out),
                StepOp::Sigmoid(a) => {
                    val(*a).map_into(|v| 1.0 / (1.0 + (-v).exp()), SIGMOID_FLOPS, out)
                }
                StepOp::SoftmaxRows(a) => val(*a).softmax_rows_into(out),
                StepOp::ConcatCols(parts) => {
                    let refs: Vec<&Matrix> = parts.iter().map(|s| val(*s)).collect();
                    Matrix::concat_cols_into(&refs, out);
                }
                StepOp::SliceCols { input: a, start, width } => {
                    val(*a).slice_cols_into(*start, *width, out)
                }
            }
            // Same runtime-sanitizer contract as the tape (self-gated; one
            // atomic load when off), with matching op provenance.
            sanitize::check_finite(step.op.name(), out);
            if matches!(step.op, StepOp::SoftmaxRows(_)) {
                sanitize::check_rows_normalized(step.op.name(), out);
            }
        }
    }

    /// Replays over rows `[start, start + rows)` of `full` without slicing
    /// an owned copy per call: the rows are staged into the arena's input
    /// scratch (a `memcpy` into a reused allocation) and replayed from
    /// there. This is the chunked-inference entry point.
    pub fn execute_rows(
        &self,
        params: &ParamSet,
        full: &Matrix,
        start: usize,
        rows: usize,
        bufs: &mut PlanBuffers,
    ) {
        let mut scratch = std::mem::take(&mut bufs.input_scratch);
        scratch.assign_rows_from(full, start, rows);
        self.execute(params, &scratch, bufs);
        bufs.input_scratch = scratch;
    }

    /// The value of requested output `i` after the latest
    /// [`execute`](Self::execute) into `bufs`.
    pub fn output<'a>(&self, i: usize, bufs: &'a PlanBuffers) -> &'a Matrix {
        &bufs.bufs[self.outputs[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use crate::params::ParamSet;

    /// Records a tiny two-layer forward and returns everything a replay
    /// needs: `relu(x @ w + b)` then row-softmax.
    fn record(params: &ParamSet, w: ParamId, b: ParamId, x: Matrix) -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let input = g.constant(x);
        let wv = g.param(params, w);
        let bv = g.param(params, b);
        let h = g.linear_relu(input, wv, bv);
        let out = g.softmax_rows(h);
        (g, input, out)
    }

    fn setup() -> (ParamSet, ParamId, ParamId) {
        let mut params = ParamSet::new();
        let w =
            params.insert("w", Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.25, -0.75]]));
        let b = params.insert("b", Matrix::from_rows(&[vec![0.1, -0.2, 0.3]]));
        (params, w, b)
    }

    fn batch(rows: usize, seed: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            2,
            (0..rows * 2).map(|i| ((i as f32 * 0.37 + seed).sin()) * 2.0).collect(),
        )
    }

    #[test]
    fn replay_matches_tape_at_other_batch_sizes() {
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let mut bufs = PlanBuffers::new();
        for rows in [1, 2, 5, 17] {
            let x = batch(rows, 1.5);
            let (g2, _, out2) = record(&params, w, b, x.clone());
            plan.execute(&params, &x, &mut bufs);
            assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice(), "rows={rows}");
        }
    }

    /// A deterministic `rows x cols` fill in `[-1, 1]`.
    fn wave(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * 0.61 + seed).sin()).collect(),
        )
    }

    #[test]
    fn replay_reads_live_parameter_values() {
        // A blocked shape, so the replay multiplies by the weight's pack
        // rather than its value: each of the three mutators must drop that
        // pack, or the replay after it would still use the old weights.
        let (n, k, m) = (16, 16, 16);
        assert!(gemm::use_blocked(n, k, m));
        let mut params = ParamSet::new();
        let w = params.insert("w", wave(k, m, 0.5));
        let b = params.insert("b", wave(1, m, 1.5));
        let x = wave(n, k, 2.5);
        let (g, input, out) = record(&params, w, b, x.clone());
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let mut bufs = PlanBuffers::new();
        let mut replay_matches_fresh_tape = |params: &ParamSet, after: &str| {
            let (g2, _, out2) = record(params, w, b, x.clone());
            plan.execute(params, &x, &mut bufs);
            assert_eq!(
                plan.output(0, &bufs).as_slice(),
                g2.value(out2).as_slice(),
                "replay after {after}"
            );
        };
        // The first replay builds the pack the mutations must invalidate.
        replay_matches_fresh_tape(&params, "compile");

        for (i, v) in params.value_mut(w).as_mut_slice().iter_mut().enumerate() {
            *v += 0.01 * i as f32;
        }
        replay_matches_fresh_tape(&params, "value_mut");

        // An optimizer step writes through value_and_grad_mut.
        for (i, g) in params.grad_mut(w).as_mut_slice().iter_mut().enumerate() {
            *g = (i as f32 * 0.37).cos();
        }
        Adam::with_lr(0.1).step(&mut params);
        replay_matches_fresh_tape(&params, "an Adam step");

        let snapshot: Vec<Matrix> = params.snapshot().iter().map(|m| m.scale(-0.5)).collect();
        params.restore(&snapshot);
        replay_matches_fresh_tape(&params, "restore");
    }

    #[test]
    fn execute_rows_matches_whole_batch_slice() {
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let full = batch(9, 0.25);
        let mut bufs = PlanBuffers::new();
        plan.execute_rows(&params, &full, 3, 4, &mut bufs);
        let window = plan.output(0, &bufs).clone();
        plan.execute(&params, &full.slice_rows(3, 4), &mut bufs);
        assert_eq!(window.as_slice(), plan.output(0, &bufs).as_slice());
    }

    #[test]
    fn scaling_constant_is_rejected() {
        let (params, w, b) = setup();
        let mut g = Graph::new();
        let x = batch(4, 0.0);
        let input = g.constant(x);
        let wv = g.param(&params, w);
        let bv = g.param(&params, b);
        let h = g.linear_relu(input, wv, bv);
        // A constant materialized at the batch size (the uniform-attention
        // shape) cannot be shape-specialized.
        let uniform = g.constant(Matrix::full(4, 3, 1.0 / 3.0));
        let out = g.mul(h, uniform);
        assert!(matches!(
            CompiledPlan::compile(&g, input, &[out]),
            Err(PlanError::ScalingConstant)
        ));
    }

    #[test]
    fn training_only_ops_are_rejected_when_reachable_and_pruned_otherwise() {
        let (params, w, b) = setup();
        let (mut g, input, out) = record(&params, w, b, batch(2, 0.0));
        let loss = g.mean_all(out);
        // Loss reachable from the requested output set -> unsupported.
        assert!(matches!(
            CompiledPlan::compile(&g, input, &[loss]),
            Err(PlanError::UnsupportedOp("mean_all"))
        ));
        // Same tape, inference output only -> the loss node is pruned away.
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("prunes the loss");
        assert_eq!(plan.num_outputs(), 1);
    }

    #[test]
    fn leaf_outputs_are_rejected() {
        let (params, w, b) = setup();
        let (g, input, _) = record(&params, w, b, batch(2, 0.0));
        assert!(matches!(
            CompiledPlan::compile(&g, input, &[input]),
            Err(PlanError::UnsupportedOutput)
        ));
    }

    #[test]
    fn buffer_pool_recycles_arenas() {
        let pool = BufferPool::new();
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let mut bufs = pool.checkout();
        plan.execute(&params, &batch(6, 0.0), &mut bufs);
        pool.put_back(bufs);
        // The recycled arena must replay correctly at a different size.
        let mut bufs = pool.checkout();
        let x = batch(3, 4.0);
        let (g2, _, out2) = record(&params, w, b, x.clone());
        plan.execute(&params, &x, &mut bufs);
        assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice());
        pool.put_back(bufs);
    }
}
