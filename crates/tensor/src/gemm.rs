//! Cache-blocked GEMM microkernels behind the three [`Matrix`] matmul
//! variants.
//!
//! The naive `ikj` loops stream the full `B` operand through cache once per
//! output row; past a few hundred rows that is memory-bound, not
//! compute-bound. This module implements the classic BLIS-style blocking
//! scheme in safe, std-only Rust:
//!
//! * **Panel packing.** `B` is packed into column panels of [`NR`] lanes
//!   (`panel[p * NR + l] = B[p, j0 + l]`, zero-padded at the ragged edge)
//!   so the microkernel reads it as one forward-moving contiguous stream.
//!   Each worker packs its own `A` row panels of [`MR`] rows per
//!   [`KC`]-deep slab the same way. Packing is what makes the inner loop
//!   autovectorization-friendly regardless of the logical operand layout —
//!   the same packed kernel serves `A·B`, `Aᵀ·B`, and `A·Bᵀ` by changing
//!   only the *pack-time* strides.
//! * **Where packed `B` comes from.** The matmul variants pack `B` per call
//!   into a thread-local arena: the tape's weights change every training
//!   step, so there is nothing to reuse. Inference multiplies by the same
//!   weights for every batch, so [`PackedB`] holds a pack built once per
//!   parameter version (`ParamSet::packed`, dropped by every `&mut`
//!   accessor of the value) and compiled-plan replays hand it straight to
//!   the shared kernel body — weight-stationary inference, same bits.
//! * **Narrow products.** Right operands narrower than [`NR`] (the attention
//!   energies `(n×H')·(H'×1)` and Θ's output layer) skip the padded tile and
//!   run `gemm_narrow`, which keeps eight rows of accumulators in flight
//!   instead of the one dependent add chain per row of the naive loop.
//! * **Register-blocked microkernel.** An [`MR`]`x`[`NR`] accumulator tile
//!   lives in a local array; each of the `KC` iterations broadcasts one `A`
//!   lane against [`NR`] `B` lanes. The constant tile bounds let LLVM keep
//!   the tile in vector registers and elide bounds checks.
//! * **Thread partitioning.** The `M` dimension is split into [`MC`]-row
//!   blocks dispatched through [`crate::parallel::parallel_for_row_blocks`];
//!   block boundaries are a function of [`MC`] alone, never the worker
//!   count. Packed-`A` scratch lives in a per-thread arena
//!   (`thread_local!` take/restore, no locks); the packed `B` panel is built
//!   once on the dispatching thread and shared read-only.
//! * **Short-wide products run transposed.** Fewer than [`MC`] rows is a
//!   single block, so a 16-row training batch times a wide weight would run
//!   on one worker however wide it is. When [`use_transposed`] holds, the
//!   per-call `gemm` computes `Cᵀ = Bᵀ·Aᵀ` instead — swapping an
//!   operand's strides transposes it — so the wide side is row-blocked
//!   across workers, the big operand is packed per worker as `A` panels
//!   rather than serially as one `B` pack, and the `n x m` result is
//!   transposed back. The bits are unchanged: each element still has one
//!   accumulator over ascending `k`, zero-initialised on the first slab,
//!   and `b·a == a·b` exactly in IEEE arithmetic. `gemm_prepacked` never
//!   transposes: its `B` is already packed.
//!
//! **Bit-exactness contract.** Every output element is accumulated by a
//! *single* accumulator in strictly ascending `k` order: the microkernel
//! zero-initialises its tile on the first `KC` slab, reloads the partial
//! `C` tile on later slabs, and adds exactly one rounded `a·b` product per
//! `k` step (no FMA — the workspace forbids `unsafe`, so there are no
//! intrinsics, and LLVM may not fuse without fast-math). That is the same
//! per-element operation sequence as the historical naive kernels, so for
//! finite inputs the blocked path is **bit-identical** to them — golden
//! fixtures, thread-count invariance, and the chunked-predict equality
//! tests all hold without re-blessing. The narrow kernel follows the same
//! rule (see `gemm_narrow` for why it may drop the naive `a == 0` skip).
//! The per-op ULP budgets in `adamel-oracle` are nonetheless widened by a
//! per-[`KC`]-panel term (DESIGN.md §15) so a future kernel may split the
//! `k` reduction across panels without a budget change.

use crate::{parallel, Matrix};
use std::cell::Cell;

/// Microkernel tile height: rows of `A` (and `C`) per register tile.
pub const MR: usize = 4;

/// Microkernel tile width: columns of `B` (and `C`) per register tile.
///
/// `MR * NR = 32` accumulators fit the 16 x 128-bit registers of baseline
/// x86-64 with room for the broadcast and load lanes.
pub const NR: usize = 8;

/// Depth of one packed `k` slab; bounds the packed-`A`/`B` panel footprint
/// (`MR*KC` and `NR*KC` f32 respectively) to L1-friendly sizes.
pub const KC: usize = 256;

/// Rows of `C` per dispatch block: each worker packs at most `MC x KC`
/// elements of `A` at a time (~128 KiB), and thread partitioning happens on
/// [`MC`]-row boundaries so results never depend on the worker count.
pub const MC: usize = 64;

/// FLOP floor (`2*n*k*m`) below which the packing overhead is not worth it
/// and callers keep the naive loops. Both paths are bit-identical, so the
/// threshold is purely a performance knob.
pub const BLOCKED_MIN_FLOPS: usize = 1 << 13;

/// True when the blocked path should handle an `(n,k) x (k,m)` product.
///
/// Degenerate tiles (fewer rows than [`MR`] or columns than [`NR`]) waste
/// most of the padded microkernel, so they stay on the naive loops too.
#[inline]
pub fn use_blocked(n: usize, k: usize, m: usize) -> bool {
    n >= MR && m >= NR && 2usize.saturating_mul(n * k).saturating_mul(m) >= BLOCKED_MIN_FLOPS
}

/// True when a blocked `(n,k) x (k,m)` product is short and wide enough to
/// run transposed, as `Cᵀ = Bᵀ · Aᵀ`.
///
/// Thread partitioning splits `C` into [`MC`]-row blocks, so a product with
/// fewer than [`MC`] rows is one block and runs on one worker however wide
/// it is — the training batch's classifier `(16 x F·H')·(F·H' x H_hidden)`
/// and its `G·W1ᵀ` backward. Transposed, the wide side becomes the row
/// side and splits into at least two blocks.
#[inline]
pub fn use_transposed(n: usize, k: usize, m: usize) -> bool {
    use_blocked(n, k, m) && n < MC && m >= 2 * MC
}

/// A logical `rows x cols` view over a row-major backing slice: element
/// `(i, j)` lives at `data[i * rs + j * cs]`. Transposed operands are
/// expressed by swapping the strides; only packing ever reads through them.
pub(crate) struct Operand<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

impl Operand<'_> {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

thread_local! {
    /// Per-thread packed-`A` arena: taken at block entry, restored (with its
    /// grown capacity) on exit, so steady-state packing is allocation-free.
    static PACK_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread packed-`B` arena for the dispatching thread.
    static PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread `Cᵀ` arena for the dispatching thread's transposed runs.
    static TRANSPOSED_C: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// A right operand packed once into the [`NR`]-lane column panels the
/// blocked kernel reads, for reuse across every product against the same
/// matrix. `ParamSet::packed` keeps one beside each weight so
/// compiled-plan replays skip the per-call `B` pack.
pub struct PackedB {
    k: usize,
    m: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs a row-major `k x m` matrix.
    pub fn new(b: &Matrix) -> Self {
        let (k, m) = b.shape();
        let mut panels = Vec::new();
        pack_b(k, m, &Operand { data: b.as_slice(), rs: m, cs: 1 }, &mut panels);
        Self { k, m, panels }
    }

    /// Rows of the packed matrix (the product's inner dimension).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix (the product's output width).
    pub fn cols(&self) -> usize {
        self.m
    }

    /// Bytes held by the packed panels (zero-padded to whole [`NR`] lanes).
    pub fn bytes(&self) -> u64 {
        (self.panels.capacity() * 4) as u64
    }
}

/// Settles the empty cases every kernel shares: nothing to write when
/// `n` or `m` is zero, and an exact zero output when `k` is. Returns true
/// when `out` is final.
fn degenerate(k: usize, out: &mut [f32]) -> bool {
    if out.is_empty() {
        return true;
    }
    if k == 0 {
        out.fill(0.0);
        return true;
    }
    false
}

/// Computes `out = A · B` for logical `(n,k) x (k,m)` operands, fully
/// overwriting the row-major `out` (length `n * m`). `B` is packed per call
/// into the dispatching thread's arena; a [short-wide](use_transposed)
/// product runs as `Cᵀ = Bᵀ · Aᵀ` and is transposed back.
pub(crate) fn gemm(
    n: usize,
    k: usize,
    m: usize,
    a: &Operand<'_>,
    b: &Operand<'_>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), n * m, "gemm: output buffer shape mismatch");
    if degenerate(k, out) {
        return;
    }
    if use_transposed(n, k, m) {
        // Swapping an operand's strides transposes it; `Bᵀ` is packed per
        // worker as `A` panels and the small `Aᵀ` once as the `B` pack.
        let bt = Operand { data: b.data, rs: b.cs, cs: b.rs };
        let at = Operand { data: a.data, rs: a.cs, cs: a.rs };
        let mut ct = TRANSPOSED_C.with(Cell::take);
        ct.clear();
        ct.resize(m * n, 0.0);
        adamel_obs::mem::observe("tensor.gemm.transposed_c.bytes", (ct.capacity() * 4) as u64);
        gemm_packed(k, n, &bt, &at, &mut ct);
        for (i, row) in out.chunks_exact_mut(m).enumerate() {
            for (o, &v) in row.iter_mut().zip(ct.iter().skip(i).step_by(n)) {
                *o = v;
            }
        }
        TRANSPOSED_C.with(|c| c.set(ct));
        return;
    }
    gemm_packed(k, m, a, b, out);
}

/// The per-call-pack body of [`gemm`], in the orientation it was given.
fn gemm_packed(k: usize, m: usize, a: &Operand<'_>, b: &Operand<'_>, out: &mut [f32]) {
    // Pack B once, on the dispatching thread; workers share it read-only.
    let mut bbuf = PACK_B.with(Cell::take);
    pack_b(k, m, b, &mut bbuf);
    // Absolute arena observations: each thread's arena is retained at its
    // grown capacity, so capacity *is* the footprint. `pack_a` reports the
    // max across workers (every worker observes the same gauge).
    adamel_obs::mem::observe("tensor.gemm.pack_b.bytes", (bbuf.capacity() * 4) as u64);
    run_blocked(k, m, a, &bbuf, out);
    PACK_B.with(|c| c.set(bbuf));
}

/// [`gemm`] against a `B` packed ahead of time: `out = A · B` for a logical
/// `(n, b.rows())` `A`. Same kernel body, so the result is bit-identical to
/// the per-call pack.
pub(crate) fn gemm_prepacked(n: usize, a: &Operand<'_>, b: &PackedB, out: &mut [f32]) {
    debug_assert_eq!(out.len(), n * b.m, "gemm_prepacked: output buffer shape mismatch");
    if degenerate(b.k, out) {
        return;
    }
    run_blocked(b.k, b.m, a, &b.panels, out);
}

/// The blocked kernel body shared by both `B` sources: `MC`-row blocks of
/// `out` dispatched across workers, each packing its own `A` panels.
fn run_blocked(k: usize, m: usize, a: &Operand<'_>, bpacked: &[f32], out: &mut [f32]) {
    parallel::parallel_for_row_blocks(out, m, MC, 2 * k * m, |i0, c_block| {
        let mut abuf = PACK_A.with(Cell::take);
        gemm_block(i0, c_block.len() / m, k, m, a, bpacked, c_block, &mut abuf);
        adamel_obs::mem::observe("tensor.gemm.pack_a.bytes", (abuf.capacity() * 4) as u64);
        PACK_A.with(|c| c.set(abuf));
    });
}

/// Rows of `A` the narrow kernel keeps in flight: eight independent
/// accumulator chains per output column hide the add latency that a
/// one-row loop serializes on.
const NARROW_ROWS: usize = 8;

/// `out = A · B` for row-major `(n,k)` `A` and a narrow row-major `(k,m)`
/// `B` with `m < NR` — the attention energies and the classifier's output
/// layer, which the blocked kernel would pad to a full [`NR`] tile.
///
/// Rows are interleaved [`NARROW_ROWS`] at a time, but every output element
/// still has one accumulator fed in ascending-`k` order. Unlike the naive
/// loop it does not skip `a == 0.0`; for finite `B` that skip only ever adds
/// `±0.0` to an accumulator that starts at `+0.0` and so is never `-0.0`,
/// which leaves it unchanged — the result is bit-identical to the naive
/// loop, by the same argument the blocked path's zero-padded edges rely on.
pub(crate) fn gemm_narrow(n: usize, k: usize, m: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(m < NR, "gemm_narrow: {m} columns is not narrow");
    debug_assert_eq!(out.len(), n * m, "gemm_narrow: output buffer shape mismatch");
    if degenerate(k, out) {
        return;
    }
    parallel::parallel_for_row_blocks(out, m, NARROW_ROWS, 2 * k * m, |i0, c_block| {
        let rows = c_block.len() / m;
        let a_block = &a[i0 * k..(i0 + rows) * k];
        if rows == NARROW_ROWS {
            narrow_tile::<NARROW_ROWS>(a_block, k, m, b, c_block);
        } else {
            for (a_row, c_row) in a_block.chunks_exact(k).zip(c_block.chunks_exact_mut(m)) {
                narrow_tile::<1>(a_row, k, m, b, c_row);
            }
        }
    });
}

/// `R` rows of the narrow product: `c[r][l] = Σ_p a[r][p] * b[p][l]`, one
/// accumulator per element, ascending `p`. Columns run one at a time so the
/// `R` accumulators stay in registers; the `R x k` slab of `A` stays in L1
/// across them.
#[inline]
fn narrow_tile<const R: usize>(a: &[f32], k: usize, m: usize, b: &[f32], c: &mut [f32]) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    for l in 0..m {
        let mut acc = [0.0f32; R];
        for (p, bp) in b.iter().skip(l).step_by(m).enumerate() {
            for (slot, row) in acc.iter_mut().zip(&rows) {
                *slot += row[p] * bp;
            }
        }
        for (r, v) in acc.into_iter().enumerate() {
            c[r * m + l] = v;
        }
    }
}

/// Packs `B` into `NR`-lane column panels: lane `l` of panel `jp` at depth
/// `p` is `B[p, jp*NR + l]`, with out-of-range lanes zeroed so edge tiles
/// accumulate exact `±0.0` products that are never stored.
fn pack_b(k: usize, m: usize, b: &Operand<'_>, buf: &mut Vec<f32>) {
    adamel_obs::trace_count!("gemm.pack_b", 1);
    let panels = m.div_ceil(NR);
    buf.clear();
    buf.resize(panels * k * NR, 0.0);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(m - j0);
        let panel = &mut buf[jp * k * NR..(jp + 1) * k * NR];
        for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
            for (l, slot) in row.iter_mut().enumerate() {
                *slot = if l < w { b.at(p, j0 + l) } else { 0.0 };
            }
        }
    }
}

/// Packs rows `i0 .. i0+rows` of `A` over depths `pc .. pc+kc` into
/// `MR`-row panels: `panel[p_local * MR + r] = A[i0 + ip*MR + r, pc + p_local]`,
/// zero-padding rows past the block edge.
fn pack_a(a: &Operand<'_>, i0: usize, rows: usize, pc: usize, kc: usize, buf: &mut Vec<f32>) {
    let panels = rows.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, 0.0);
    for ip in 0..panels {
        let r0 = ip * MR;
        let h = MR.min(rows - r0);
        let panel = &mut buf[ip * kc * MR..(ip + 1) * kc * MR];
        for (p, col) in panel.chunks_exact_mut(MR).enumerate() {
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < h { a.at(i0 + r0 + r, pc + p) } else { 0.0 };
            }
        }
    }
}

/// One worker's share: all `KC` slabs over an `MC`-bounded row block of `C`.
/// Slabs run in ascending `pc` order so each `C` element sees its products
/// in exactly the naive kernels' ascending-`k` order.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    i0: usize,
    rows: usize,
    k: usize,
    m: usize,
    a: &Operand<'_>,
    bpacked: &[f32],
    c: &mut [f32],
    abuf: &mut Vec<f32>,
) {
    let jpanels = m.div_ceil(NR);
    let ipanels = rows.div_ceil(MR);
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        pack_a(a, i0, rows, pc, kc, abuf);
        let first = pc == 0;
        for jp in 0..jpanels {
            let bpanel = &bpacked[jp * k * NR + pc * NR..jp * k * NR + (pc + kc) * NR];
            let j0 = jp * NR;
            let jw = NR.min(m - j0);
            for ip in 0..ipanels {
                let apanel = &abuf[ip * kc * MR..(ip + 1) * kc * MR];
                let iw = MR.min(rows - ip * MR);
                microkernel(apanel, bpanel, c, ip * MR, j0, iw, jw, m, first);
            }
        }
        pc += kc;
    }
}

/// The register tile: `acc[r][l] (+)= Σ_p apanel[p][r] * bpanel[p][l]` with
/// one rounded multiply-add per step. `first` selects zero-init over a `C`
/// reload so depth-0 starts from `+0.0` exactly like the naive kernels.
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ci: usize,
    cj: usize,
    iw: usize,
    jw: usize,
    ldc: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, accr) in acc.iter_mut().enumerate().take(iw) {
            let crow = &c[(ci + r) * ldc + cj..(ci + r) * ldc + cj + jw];
            accr[..jw].copy_from_slice(crow);
        }
    }
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (l, slot) in accr.iter_mut().enumerate() {
                *slot += av * brow[l];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(iw) {
        let crow = &mut c[(ci + r) * ldc + cj..(ci + r) * ldc + cj + jw];
        crow.copy_from_slice(&accr[..jw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::parallel::with_threads;

    /// Deterministic pseudo-random fill (splitmix-style) in [-2, 2).
    fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 30;
            state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            state ^= state >> 27;
            state = state.wrapping_mul(0x94d0_49bb_1331_11eb);
            state ^= state >> 31;
            (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    /// The historical naive kernel, reimplemented locally (exact-zero skip
    /// included) so the blocked path is pinned to the exact accumulation
    /// order, not just "close".
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for p in 0..k {
                let av = a.get(i, p);
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let v = out.get(i, j) + av * b.get(p, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    #[test]
    fn blocked_is_bit_identical_to_naive_across_edges() {
        // Shapes straddle every tile boundary: MR/NR/KC/MC ±1 plus ragged
        // primes. Bit-equality (not tolerance) is the contract.
        for &(n, k, m) in &[
            (MR, 3, NR),
            (MR + 1, KC - 1, NR + 1),
            (MR * 3 + 1, KC + 1, NR * 2 + 3),
            (MC - 1, 7, NR),
            (MC + 1, 5, NR * 2),
            (17, KC, 13),
        ] {
            let a = fill(n, k, (n * 1000 + k) as u64);
            let b = fill(k, m, (k * 1000 + m) as u64);
            assert!(use_blocked(n, k, m) || 2 * n * k * m < BLOCKED_MIN_FLOPS);
            let mut out = vec![0.0f32; n * m];
            gemm(
                n,
                k,
                m,
                &Operand { data: a.as_slice(), rs: k, cs: 1 },
                &Operand { data: b.as_slice(), rs: m, cs: 1 },
                &mut out,
            );
            let reference = naive(&a, &b);
            assert_eq!(out.as_slice(), reference.as_slice(), "shape ({n},{k},{m})");
        }
    }

    #[test]
    fn blocked_is_thread_count_invariant() {
        let (n, k, m) = (MC * 2 + 3, KC + 5, NR * 3 + 1);
        let a = fill(n, k, 11);
        let b = fill(k, m, 13);
        let run = |threads: usize| {
            let mut out = vec![0.0f32; n * m];
            with_threads(threads, || {
                gemm(
                    n,
                    k,
                    m,
                    &Operand { data: a.as_slice(), rs: k, cs: 1 },
                    &Operand { data: b.as_slice(), rs: m, cs: 1 },
                    &mut out,
                )
            });
            out
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    fn plain<'a>(m: &'a Matrix) -> Operand<'a> {
        Operand { data: m.as_slice(), rs: m.cols(), cs: 1 }
    }

    #[test]
    fn prepacked_matches_per_call_pack_and_naive_at_every_thread_count() {
        for &(n, k, m) in &[
            (MR, 3, NR),
            (MR - 1, 5, NR - 1),
            (MR + 1, KC - 1, NR + 1),
            (MR * 3 + 1, KC + 1, NR * 2 + 3),
            (MC - 1, 7, NR),
            (MC + 1, KC * 2 + 3, NR * 2),
            (17, KC, 13),
        ] {
            let a = fill(n, k, (n * 7 + k) as u64);
            let b = fill(k, m, (k * 7 + m) as u64);
            let packed = PackedB::new(&b);
            assert_eq!((packed.rows(), packed.cols()), (k, m));
            let reference = naive(&a, &b);
            for threads in [1, 2, 4, 8] {
                let mut per_call = vec![0.0f32; n * m];
                let mut prepacked = vec![f32::NAN; n * m];
                with_threads(threads, || {
                    gemm(n, k, m, &plain(&a), &plain(&b), &mut per_call);
                    gemm_prepacked(n, &plain(&a), &packed, &mut prepacked);
                });
                let what = format!("shape ({n},{k},{m}) @{threads}t");
                assert_eq!(prepacked, per_call, "{what}: prepacked vs per-call pack");
                assert_eq!(prepacked.as_slice(), reference.as_slice(), "{what}: vs naive");
            }
        }
    }

    #[test]
    fn short_wide_runs_transposed_with_the_naive_bits_at_every_thread_count() {
        // Each variant's operand layout, transposed again by the swap: the
        // plain product, `Aᵀ·B` and `A·Bᵀ` strides.
        for &(n, k, m) in
            &[(16, 4608, 256), (16, 256, 4608), (MR, KC + 1, 2 * MC + 3), (MC - 1, 33, 2 * MC)]
        {
            assert!(use_transposed(n, k, m), "({n},{k},{m}) must take the transposed path");
            let a = fill(n, k, (n * 13 + k) as u64);
            let b = fill(k, m, (k * 13 + m) as u64);
            let (at, bt) = (a.transpose(), b.transpose());
            let reference = naive(&a, &b);
            let layouts = [
                (plain(&a), plain(&b)),
                (Operand { data: at.as_slice(), rs: 1, cs: n }, plain(&b)),
                (plain(&a), Operand { data: bt.as_slice(), rs: 1, cs: k }),
            ];
            for (v, (la, lb)) in layouts.iter().enumerate() {
                for threads in [1, 2, 4, 8] {
                    let mut out = vec![f32::NAN; n * m];
                    with_threads(threads, || gemm(n, k, m, la, lb, &mut out));
                    assert_eq!(
                        out.as_slice(),
                        reference.as_slice(),
                        "layout {v} shape ({n},{k},{m}) @{threads}t"
                    );
                }
            }
        }
        assert!(!use_transposed(MC, 8, 4 * MC), "MC rows already split into blocks");
        assert!(!use_transposed(MC - 1, 8, 2 * MC - 1), "one block of width is not wide");
    }

    #[test]
    fn narrow_kernel_is_bit_identical_to_naive() {
        // Signed zeros and subnormals in A: the naive loop skips `a == 0`
        // while the narrow kernel adds the ±0 product, which must not show.
        let specials = [0.0f32, -0.0, f32::MIN_POSITIVE / 4.0, -f32::MIN_POSITIVE / 3.0, 1e-40];
        for m in 1..NR {
            for &(n, k) in &[(1, 1), (3, 5), (NARROW_ROWS + 1, 33), (27, 256), (61, KC + 7)] {
                let mut a = fill(n, k, (n * 31 + k + m) as u64);
                for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                    if i % 3 == 0 {
                        *v = specials[(i / 3) % specials.len()];
                    }
                }
                let b = fill(k, m, (k * 31 + m) as u64);
                let reference = naive(&a, &b);
                for threads in [1, 2, 4, 8] {
                    let mut out = vec![f32::NAN; n * m];
                    with_threads(threads, || {
                        gemm_narrow(n, k, m, a.as_slice(), b.as_slice(), &mut out)
                    });
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out),
                        bits(reference.as_slice()),
                        "shape ({n},{k},{m}) @{threads}t"
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_kernel_writes_zeros_for_empty_inner_dimension() {
        let mut out = vec![7.0f32; 9 * 3];
        gemm_narrow(9, 0, 3, &[], &[], &mut out);
        assert!(out.iter().all(|&v| v.to_bits() == 0));
    }

    #[test]
    fn zero_inner_dimension_zeroes_stale_output() {
        let mut out = vec![7.0f32; 4 * NR];
        gemm(
            4,
            0,
            NR,
            &Operand { data: &[], rs: 0, cs: 1 },
            &Operand { data: &[], rs: NR, cs: 1 },
            &mut out,
        );
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
