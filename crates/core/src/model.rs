//! The AdaMEL network (paper §4.2–4.3, Fig. 4).
//!
//! * per-feature non-linear affine: `x_j = relu(h_j V_j + b_j)` (Eq. 4);
//! * shared feature-attention head: `g(x_j) = softmax_j(aᵀ tanh(W x_j))`
//!   (Eq. 5–6);
//! * classifier: `ŷ = Θ(relu(f(x) ⊙ x))`, a 2-layer MLP over the attention-
//!   weighted features (Eq. 7).

use crate::config::AdamelConfig;
use adamel_schema::{EntityPair, FeatureExtractor, Schema};
use adamel_tensor::plan::{BufferPool, CompiledPlan};
use adamel_tensor::{init, parallel, Graph, Matrix, ParamId, ParamSet, Var};
use adamel_text::HashedFastText;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Handles to all trainable parameters.
pub(crate) struct ModelParams {
    /// Per-feature projection weights `V_j` (`D x H` each).
    pub v: Vec<ParamId>,
    /// Per-feature biases `b_j` (`1 x H` each).
    pub b: Vec<ParamId>,
    /// Shared attention transform `W` (`H x H'`).
    pub w_att: ParamId,
    /// Shared attention vector `a` (`H' x 1`).
    pub a_att: ParamId,
    /// Classifier layer 1 (`F*H x H_hidden`).
    pub w1: ParamId,
    /// Classifier bias 1.
    pub b1: ParamId,
    /// Classifier layer 2 (`H_hidden x 1`).
    pub w2: ParamId,
    /// Classifier bias 2.
    pub b2: ParamId,
}

/// Output node handles of one forward construction.
pub(crate) struct ForwardNodes {
    /// The encoded-batch constant the forward was built over (the plan
    /// compiler's replay-time leaf).
    pub input: Var,
    /// Attention distribution `f(x)`, shape `n x F`.
    pub attention: Var,
    /// Classifier logits, shape `n x 1`.
    pub logits: Var,
}

/// The tape-free inference programs, compiled lazily from one probe forward.
///
/// The predict plan has two outputs, `[logits, attention]`: replay keeps
/// every step buffer, so a scoring pass yields the attention rows for free.
/// The attention plan is pruned at `f(x)` and never replays the classifier,
/// so attention-only callers (training's per-epoch target mean, the Eq. 12
/// support weights) pay only the head's FLOPs. Each plan gets its own
/// warm-buffer pool because buffer *i* holds differently shaped
/// intermediates per plan.
struct CompiledForward {
    predict: CompiledPlan,
    attention: CompiledPlan,
    predict_pool: BufferPool,
    attention_pool: BufferPool,
}

/// Pairs scored by one forward pass: each pair's Eq. 7 match score and its
/// Eq. 5–6 attention distribution `f(x)`.
///
/// Only [`AdamelModel::score`] builds one, so the three views are aligned
/// by construction: `scores()[i]` and `attention().row(i)` belong to
/// `pairs()[i]`.
#[derive(Debug)]
pub struct ScoredPairs {
    pairs: Vec<EntityPair>,
    scores: Vec<f32>,
    attention: Matrix,
}

impl ScoredPairs {
    /// The scored pairs, in the order they were handed to the model.
    pub fn pairs(&self) -> &[EntityPair] {
        &self.pairs
    }

    /// Match scores (`sigmoid(logit)`), one per pair.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// Attention distributions, `len() x F`, one row per pair.
    pub fn attention(&self) -> &Matrix {
        &self.attention
    }

    /// Number of scored pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair was scored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Probe batch size used to record the plan. Any value ≥ 2 works; 2 keeps
/// the probe cheap while staying clear of row-count 1, which legitimate
/// `1 x k` constants (none today) could collide with in the compiler's
/// scaling-constant check.
const PLAN_PROBE_ROWS: usize = 2;

/// Batch-inference chunk size: `predict`/`attention` replay the compiled
/// plan once per block of this many rows and score blocks on scoped worker
/// threads. Every forward op is row-independent, so block boundaries (a
/// function of this constant alone, never the thread count) do not change
/// the numbers: chunked output is bit-identical to one monolithic graph.
const PREDICT_CHUNK_ROWS: usize = 512;

/// The AdaMEL model: feature extraction plus network parameters.
///
/// Training is performed by [`crate::train::fit`]; the model itself
/// exposes deterministic inference ([`predict`](Self::predict)) and
/// attention inspection ([`attention`](Self::attention)).
pub struct AdamelModel {
    pub(crate) cfg: AdamelConfig,
    pub(crate) extractor: FeatureExtractor,
    pub(crate) params: ParamSet,
    pub(crate) ids: ModelParams,
    /// Lazily compiled inference plans, the only inference path. Plans
    /// read parameters live from `self.params`, so training and
    /// [`restore_params`](Self::restore_params) never invalidate them.
    plan: OnceLock<CompiledForward>,
}

impl AdamelModel {
    /// Builds a model over an aligned schema.
    pub fn new(cfg: AdamelConfig, schema: Schema) -> Self {
        let embedder = HashedFastText::new(cfg.embed_dim, cfg.seed);
        let extractor = FeatureExtractor::new(schema, embedder, cfg.crop, cfg.feature_mode);
        let f = extractor.num_features();
        let (d, h, h_att, hidden) =
            (cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim);

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x000a_dae1_u64);
        let mut params = ParamSet::new();
        let mut v = Vec::with_capacity(f);
        let mut b = Vec::with_capacity(f);
        for j in 0..f {
            v.push(params.insert(format!("V[{j}]"), init::he_uniform(d, h, &mut rng)));
            b.push(params.insert(format!("b[{j}]"), Matrix::zeros(1, h)));
        }
        let w_att = params.insert("W_att", init::xavier_uniform(h, h_att, &mut rng));
        let a_att = params.insert("a_att", init::xavier_uniform(h_att, 1, &mut rng));
        // Θ consumes the concatenated F·H'-dim attention-space features —
        // §4.5: "Θ takes the concatenated FH'-dim features as input", which
        // is also what reproduces the paper's ~2.22M parameter count.
        let w1 = params.insert("Theta.W1", init::he_uniform(f * h_att, hidden, &mut rng));
        let b1 = params.insert("Theta.b1", Matrix::zeros(1, hidden));
        let w2 = params.insert("Theta.W2", init::xavier_uniform(hidden, 1, &mut rng));
        let b2 = params.insert("Theta.b2", Matrix::zeros(1, 1));

        let ids = ModelParams { v, b, w_att, a_att, w1, b1, w2, b2 };
        Self { cfg, extractor, params, ids, plan: OnceLock::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &AdamelConfig {
        &self.cfg
    }

    /// The feature extractor (schema + embedder).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Total scalar parameter count — the paper's §4.5
    /// `O(FDH + HH' + FH'H_hidden)` quantity, reported against
    /// EntityMatcher's in §5.5.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Encodes pairs into the `n x (F*D)` token-embedding block.
    pub fn encode(&self, pairs: &[EntityPair]) -> Matrix {
        self.extractor.encode_pairs(pairs)
    }

    /// Statistics of the extractor's record-level encoding cache: distinct
    /// records memoized, interned vocabulary size, and lookup hit/miss
    /// counts across everything this model has encoded (training, support,
    /// target, and inference batches all share the cache).
    #[must_use = "cache stats are a snapshot; fetching them without reading is a no-op"]
    pub fn encode_cache_stats(&self) -> adamel_schema::EncodeCacheStats {
        self.extractor.cache_stats()
    }

    /// Drops the extractor's record-level encoding cache — use to bound
    /// memory when a model is reused across unrelated corpora.
    pub fn clear_encode_cache(&self) {
        self.extractor.clear_cache()
    }

    /// Estimated forward FLOPs per encoded row — the paper's §4.5
    /// `O(FDH + HH' + FH'H_hidden)` cost, used to plan inference dispatch
    /// and to normalize bench timings into GFLOP/s.
    pub fn per_row_flops(&self) -> usize {
        let f = self.extractor.num_features();
        let (d, h, ha, hh) =
            (self.cfg.embed_dim, self.cfg.feature_dim, self.cfg.attention_dim, self.cfg.hidden_dim);
        f * 2 * (d * h + h * ha + ha) + 2 * (f * ha * hh + hh)
    }

    /// Builds the full forward graph over an encoded batch. Takes the batch
    /// by value: the graph owns its constants, so passing ownership avoids
    /// copying the `n x F·D` block on every forward.
    pub(crate) fn forward(&self, g: &mut Graph, encoded: Matrix) -> ForwardNodes {
        let _forward = adamel_obs::span("forward");
        let f = self.extractor.num_features();
        let d = self.cfg.embed_dim;
        let input = g.constant(encoded);

        // Per-feature latent projections x_j (Eq. 4).
        let phase = adamel_obs::span("feature_proj");
        let mut xs = Vec::with_capacity(f);
        for j in 0..f {
            let h_j = g.slice_cols(input, j * d, d);
            let v_j = g.param(&self.params, self.ids.v[j]);
            let b_j = g.param(&self.params, self.ids.b[j]);
            xs.push(g.linear_relu(h_j, v_j, b_j));
        }
        drop(phase);

        // Shared attention energies e_j = aᵀ tanh(W x_j) (Eq. 5). The tanh
        // projections t_j are kept: they are both the attention input and
        // the H'-dim representation Θ consumes (§4.5's F·H'·H_hidden term).
        let phase = adamel_obs::span("attention_head");
        let w_att = g.param(&self.params, self.ids.w_att);
        let a_att = g.param(&self.params, self.ids.a_att);
        let mut ts = Vec::with_capacity(f);
        let mut energies = Vec::with_capacity(f);
        for &x_j in &xs {
            let t = g.matmul(x_j, w_att);
            let t = g.tanh(t);
            energies.push(g.matmul(t, a_att));
            ts.push(t);
        }
        let e = g.concat_cols(&energies);
        // f(x), rows sum to 1 (Eq. 6). The uniform-attention ablation
        // softmaxes a row of zeros instead: exactly 1/F per feature, with no
        // batch-sized constant that would stop the plan from compiling.
        let e = if self.cfg.uniform_attention { g.scale(e, 0.0) } else { e };
        let attention = g.softmax_rows(e);
        drop(phase);

        let phase = adamel_obs::span("classifier");
        // Attention-weighted features z_j = relu(g_j * t_j) (Eq. 7).
        let mut zs = Vec::with_capacity(f);
        for (j, &t_j) in ts.iter().enumerate() {
            let g_j = g.slice_cols(attention, j, 1);
            let weighted = g.mul_col_broadcast(t_j, g_j);
            zs.push(g.relu(weighted));
        }
        let z = g.concat_cols(&zs);

        // Classifier Θ.
        let w1 = g.param(&self.params, self.ids.w1);
        let b1 = g.param(&self.params, self.ids.b1);
        let hidden = g.linear_relu(z, w1, b1);
        let w2 = g.param(&self.params, self.ids.w2);
        let b2 = g.param(&self.params, self.ids.b2);
        let logits = g.linear(hidden, w2, b2);
        drop(phase);

        ForwardNodes { input, attention, logits }
    }

    /// The compiled inference plans, built on first use from one probe
    /// forward at [`PLAN_PROBE_ROWS`] rows.
    fn compiled(&self) -> &CompiledForward {
        self.plan.get_or_init(|| {
            let cols = self.extractor.num_features() * self.cfg.embed_dim;
            let mut g = Graph::new();
            let nodes = self.forward(&mut g, Matrix::zeros(PLAN_PROBE_ROWS, cols));
            let compile = |outputs: &[Var]| {
                CompiledPlan::compile(&g, nodes.input, outputs)
                    .expect("the AdaMEL forward has no training-only op or batch-sized constant")
            };
            CompiledForward {
                predict: compile(&[nodes.logits, nodes.attention]),
                attention: compile(&[nodes.attention]),
                predict_pool: BufferPool::new(),
                attention_pool: BufferPool::new(),
            }
        })
    }

    /// Builds the full forward graph over an encoded batch and returns the
    /// `(attention, logits)` node handles. This is the single-graph hook the
    /// differential oracle and the chunking boundary tests use to compare
    /// [`predict_encoded`](Self::predict_encoded) against one monolithic
    /// forward pass.
    pub fn forward_graph(&self, g: &mut Graph, encoded: Matrix) -> (Var, Var) {
        let nodes = self.forward(g, encoded);
        (nodes.attention, nodes.logits)
    }

    /// Match scores (`sigmoid(logit)`) for a batch of pairs.
    pub fn predict(&self, pairs: &[EntityPair]) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        self.predict_encoded(&self.encode(pairs))
    }

    /// Match scores for pre-encoded pairs: the score half of
    /// [`score`](Self::score)'s single forward pass.
    pub fn predict_encoded(&self, encoded: &Matrix) -> Vec<f32> {
        self.score_encoded(encoded).0
    }

    /// Scores `pairs` with **one** forward pass that yields both outputs:
    /// the Eq. 7 match scores of [`predict`](Self::predict) and the Eq. 5–6
    /// attention rows of [`attention`](Self::attention), bit-identical to
    /// each. Consumers that need both (the live drift monitor) read them
    /// from the returned [`ScoredPairs`] instead of running the network
    /// again.
    pub fn score(&self, pairs: Vec<EntityPair>) -> ScoredPairs {
        let (scores, attention) = if pairs.is_empty() {
            (Vec::new(), Matrix::zeros(0, self.extractor.num_features()))
        } else {
            self.score_encoded(&self.encode(&pairs))
        };
        ScoredPairs { pairs, scores, attention }
    }

    /// Scores and attention for pre-encoded pairs: replays the two-output
    /// compiled plan once per [`PREDICT_CHUNK_ROWS`] block on the parallel
    /// runtime, into warm buffers from the pool, and stitches both outputs
    /// together in row order. Every forward op is row-independent and block
    /// boundaries depend on the constant alone, so the result is the same
    /// at any thread count and bit-identical to one monolithic
    /// [`forward_graph`](Self::forward_graph).
    fn score_encoded(&self, encoded: &Matrix) -> (Vec<f32>, Matrix) {
        let cf = self.compiled();
        adamel_obs::trace_span!("predict");
        let n = encoded.rows();
        let blocks = n.div_ceil(PREDICT_CHUNK_ROWS);
        adamel_obs::trace_count!("predict.rows", n as u64);
        adamel_obs::trace_count!("predict.chunks", blocks as u64);
        let parts = parallel::parallel_map_collect(
            blocks,
            PREDICT_CHUNK_ROWS * self.per_row_flops(),
            |b| {
                let start = b * PREDICT_CHUNK_ROWS;
                let rows = PREDICT_CHUNK_ROWS.min(n - start);
                let mut bufs = cf.predict_pool.checkout();
                cf.predict.execute_rows(&self.params, encoded, start, rows, &mut bufs);
                let out =
                    (sigmoid(cf.predict.output(0, &bufs)), cf.predict.output(1, &bufs).clone());
                cf.predict_pool.put_back(bufs);
                out
            },
        );
        let f = self.extractor.num_features();
        let mut scores = Vec::with_capacity(n);
        let mut attention = Vec::with_capacity(n * f);
        for (s, a) in parts {
            scores.extend(s);
            attention.extend_from_slice(a.as_slice());
        }
        (scores, Matrix::from_vec(n, f, attention))
    }

    /// Per-pair attention distributions `f(x)` (`n x F`, rows sum to 1) —
    /// the transferable knowledge `K`.
    pub fn attention(&self, pairs: &[EntityPair]) -> Matrix {
        let encoded = self.encode(pairs);
        self.attention_encoded(&encoded)
    }

    /// Attention distributions for pre-encoded pairs: replays the pruned
    /// attention plan (classifier skipped) per chunk, bit-identical to the
    /// attention rows of [`score`](Self::score).
    pub fn attention_encoded(&self, encoded: &Matrix) -> Matrix {
        let cf = self.compiled();
        adamel_obs::trace_span!("attention");
        adamel_obs::trace_count!("attention.rows", encoded.rows() as u64);
        let f = self.extractor.num_features();
        let mut out = Matrix::zeros(encoded.rows(), f);
        if encoded.rows() == 0 {
            return out;
        }
        parallel::parallel_for_row_blocks(
            out.as_mut_slice(),
            f,
            PREDICT_CHUNK_ROWS,
            self.per_row_flops(),
            |start, block| {
                let mut bufs = cf.attention_pool.checkout();
                let rows = block.len() / f;
                cf.attention.execute_rows(&self.params, encoded, start, rows, &mut bufs);
                block.copy_from_slice(cf.attention.output(0, &bufs).as_slice());
                cf.attention_pool.put_back(bufs);
            },
        );
        out
    }

    /// Deep copies of all parameter tensors, in registration order (for
    /// persistence and best-model tracking).
    pub fn snapshot_params(&self) -> Vec<Matrix> {
        self.params.snapshot()
    }

    /// Restores parameters from a [`snapshot_params`](Self::snapshot_params)
    /// image; fails (without mutating) if arity or shapes disagree.
    pub fn restore_params(&mut self, tensors: &[Matrix]) -> Result<(), String> {
        let ids: Vec<_> = self.params.ids().collect();
        if tensors.len() != ids.len() {
            return Err(format!("expected {} tensors, got {}", ids.len(), tensors.len()));
        }
        for (id, t) in ids.iter().zip(tensors) {
            let expected = self.params.value(*id).shape();
            if expected != t.shape() {
                return Err(format!(
                    "parameter {} expects shape {:?}, got {:?}",
                    self.params.name(*id),
                    expected,
                    t.shape()
                ));
            }
        }
        self.params.restore(tensors);
        Ok(())
    }

    /// Mean attention per feature with names, sorted descending — the
    /// Table 4 "learned importance" report.
    pub fn feature_importance(&self, pairs: &[EntityPair]) -> Vec<(String, f32)> {
        let att = self.attention(pairs);
        let mean = att.mean_rows();
        let mut out: Vec<(String, f32)> = self
            .extractor
            .feature_names()
            .into_iter()
            .zip(mean.as_slice().iter().copied())
            .collect();
        // total_cmp keeps the ranking a total order even if a NaN sneaks
        // through; the old partial_cmp fallback made it input-order
        // dependent (same defect class as the pr_curve tie fix).
        debug_assert!(out.iter().all(|(_, s)| s.is_finite()), "non-finite feature importance");
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Match probabilities from an `n x 1` logit column.
fn sigmoid(logits: &Matrix) -> Vec<f32> {
    logits.as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamel_schema::{EntityPair, Record, Schema, SourceId};

    fn schema() -> Schema {
        Schema::new(vec!["artist".into(), "title".into()])
    }

    fn pair(l: &[(&str, &str)], r: &[(&str, &str)]) -> EntityPair {
        let mut a = Record::new(SourceId(0), 0);
        for (k, v) in l {
            a.set(*k, *v);
        }
        let mut b = Record::new(SourceId(1), 0);
        for (k, v) in r {
            b.set(*k, *v);
        }
        EntityPair::unlabeled(a, b)
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs = vec![
            pair(&[("title", "hey jude")], &[("title", "hey jude")]),
            pair(&[("artist", "x")], &[("artist", "y z")]),
        ];
        let att = model.attention(&pairs);
        assert_eq!(att.shape(), (2, 4));
        for i in 0..2 {
            let sum: f32 = att.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn predictions_are_probabilities() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs =
            vec![pair(&[("title", "a b")], &[("title", "a b")]), pair(&[], &[("artist", "q")])];
        let scores = model.predict(&pairs);
        assert_eq!(scores.len(), 2);
        for s in scores {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn predict_empty_is_empty() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        assert!(model.predict(&[]).is_empty());
    }

    #[test]
    fn parameter_count_matches_formula() {
        let cfg = AdamelConfig::tiny();
        let model = AdamelModel::new(cfg.clone(), schema());
        let f = model.extractor().num_features();
        let (d, h, ha, hh) = (cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim);
        // F*(D*H + H) + H*H' + H' + F*H'*H_hidden + H_hidden + H_hidden*1 + 1
        let expected = f * (d * h + h) + h * ha + ha + f * ha * hh + hh + hh + 1;
        assert_eq!(model.num_parameters(), expected);
    }

    #[test]
    fn paper_scale_parameter_count_is_order_of_papers() {
        // §5.5 reports ~2.2M parameters for AdaMEL-hyb on Monitor
        // (13 attributes → F = 26). Our formula at paper dims should land in
        // the same order of magnitude.
        let cfg = AdamelConfig::paper();
        let attrs: Vec<String> = (0..13).map(|i| format!("a{i}")).collect();
        let model = AdamelModel::new(cfg, Schema::new(attrs));
        let n = model.num_parameters();
        // The paper reports ~2_219_520 (weights only; ours includes biases).
        assert!(n > 2_000_000 && n < 2_500_000, "param count {n}");
    }

    #[test]
    fn deterministic_initialization() {
        let a = AdamelModel::new(AdamelConfig::tiny(), schema());
        let b = AdamelModel::new(AdamelConfig::tiny(), schema());
        let p = vec![pair(&[("title", "x y")], &[("title", "x z")])];
        assert_eq!(a.predict(&p), b.predict(&p));
    }

    #[test]
    fn feature_importance_is_sorted_and_complete() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs = vec![pair(&[("title", "a")], &[("title", "a")])];
        let imp = model.feature_importance(&pairs);
        assert_eq!(imp.len(), 4);
        for w in imp.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let total: f32 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }
}
