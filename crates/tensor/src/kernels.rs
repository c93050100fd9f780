//! Dedicated compute kernels for the model hot path.
//!
//! Every kernel in this module writes into a **caller-provided output
//! slice** — no kernel allocates. That discipline is what lets the autodiff
//! [`crate::Graph`] run steady-state forward/backward passes without
//! touching the allocator: the tape draws output buffers from its
//! [`crate::TensorPool`] and hands the raw slices here.
//!
//! The module ships two matmul implementations:
//!
//! * [`matmul_naive_into`] — the textbook `i-j-k` dot-product loop. It is
//!   the *parity reference*: property tests assert the optimised kernels
//!   match it elementwise, and `crates/bench/benches/tensor_ops.rs` reports
//!   the blocked kernel's speedup over it at model shapes.
//! * [`matmul_into`] — cache-blocked `i-k-j` kernel with a 4-wide unroll
//!   over the inner dimension, the discipline of BLIS-style micro-kernels
//!   scaled down to the paper's small-and-many workloads.
//!
//! plus transposed-operand variants: [`matmul_tn_into`] (axpy-style, used
//! by the backward pass for `dB = Aᵀ G`) and [`matmul_nt_into`] (per-element
//! dot products, scratch-free; kept parity-tested, but the tape computes
//! `dA = G Bᵀ` by transposing into a pooled scratch and calling the blocked
//! kernel instead — vertical SIMD beats horizontal dot reductions at model
//! shapes). The same applies to the fused attention score kernel
//! ([`attention_scores_into`]): it transposes `K` into a caller-provided
//! scratch once, runs the blocked kernel, and folds scale + mask into the
//! epilogue sweep. A fused conv1d + bias + activation
//! ([`conv1d_fused_into`], with [`conv1d_backward_into`] for training)
//! rounds out the set. Its batched forms run the publish block:
//! [`conv1d_fused_batched_into`], the TEL gate pair
//! [`conv1d_gate_batched_into`] and the layer-0 projection bank
//! [`conv1d_projection_bank_into`] hold each output row in register-sized
//! column chunks across the whole fold, bit-identical per member to
//! [`conv1d_fused_into`].

use crate::tensor::PadMode;

/// Cache-block edge (in elements) for [`matmul_into`]. Chosen so one block
/// of `A` plus the touched rows of `B` fit comfortably in L1 for `f32`.
pub const MATMUL_BLOCK: usize = 64;

// ---------------------------------------------------------------------
// Transcendental selectors — the only place the `simd` feature changes
// *bits*. Everything else the feature flips (lane-array loop bodies) is
// an order-preserving restructure of the same arithmetic.
// ---------------------------------------------------------------------

/// `e^x` on the model value path: libm (bit-exact with the committed
/// goldens) on the scalar build, the vectorisable polynomial
/// [`crate::simd::exp_approx`] when the `simd` feature is on. Both honour
/// the masked-softmax underflow contract: the result is **exactly `0.0`**
/// for every `x ≤ -104` (libm) resp. `x < -87.34` (polynomial, which
/// flushes would-be subnormal outputs to zero).
#[inline]
pub fn exp_f32(x: f32) -> f32 {
    #[cfg(feature = "simd")]
    {
        crate::simd::exp_approx(x)
    }
    #[cfg(not(feature = "simd"))]
    {
        x.exp()
    }
}

/// `tanh x` on the model value path — libm on the scalar build, the
/// rational polynomial [`crate::simd::tanh_approx`] under `simd`.
#[inline]
pub fn tanh_f32(x: f32) -> f32 {
    #[cfg(feature = "simd")]
    {
        crate::simd::tanh_approx(x)
    }
    #[cfg(not(feature = "simd"))]
    {
        x.tanh()
    }
}

/// Activation fused into the kernel epilogues.
///
/// Only activations whose derivative is expressible **in terms of the
/// output** are included — that is what lets a conv + bias + activation
/// collapse into a single tape node whose backward needs no stashed
/// pre-activation values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No activation (`y = x`).
    Identity,
    /// Rectified linear unit (`y = max(x, 0)`).
    Relu,
    /// Logistic sigmoid (`y = 1 / (1 + e^{-x})`).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + exp_f32(-x)),
            Activation::Tanh => tanh_f32(x),
        }
    }

    /// Derivative `dy/dx` expressed through the *output* `y = f(x)`.
    #[inline]
    pub fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Four-row axpy: `o[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]`,
/// the inner loop body shared by the blocked matmul family.
///
/// Both implementations evaluate the identical left-to-right per-element
/// expression — the `simd` build only *groups* `j` into [`crate::simd::LANES`]-wide
/// blocks (explicit lane structure LLVM lowers to packed loads/FMA-free
/// mul-adds), it never reassociates the `k` accumulation, so the two
/// builds are **bit-identical** here.
#[cfg(feature = "simd")]
#[inline]
fn axpy4(o_row: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    const L: usize = crate::simd::LANES;
    let mut o_it = o_row.chunks_exact_mut(L);
    let mut b0_it = b0.chunks_exact(L);
    let mut b1_it = b1.chunks_exact(L);
    let mut b2_it = b2.chunks_exact(L);
    let mut b3_it = b3.chunks_exact(L);
    for ((((o, c0), c1), c2), c3) in o_it
        .by_ref()
        .zip(b0_it.by_ref())
        .zip(b1_it.by_ref())
        .zip(b2_it.by_ref())
        .zip(b3_it.by_ref())
    {
        for l in 0..L {
            o[l] += a[0] * c0[l] + a[1] * c1[l] + a[2] * c2[l] + a[3] * c3[l];
        }
    }
    let o_rem = o_it.into_remainder();
    let (r0, r1) = (b0_it.remainder(), b1_it.remainder());
    let (r2, r3) = (b2_it.remainder(), b3_it.remainder());
    for (j, o) in o_rem.iter_mut().enumerate() {
        *o += a[0] * r0[j] + a[1] * r1[j] + a[2] * r2[j] + a[3] * r3[j];
    }
}

#[cfg(not(feature = "simd"))]
#[inline]
fn axpy4(o_row: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    for (j, o) in o_row.iter_mut().enumerate() {
        *o += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
    }
}

/// Single-row axpy `o[j] += av · b[j]` (callers apply the zero-skip). Same
/// bit-identity argument as [`axpy4`].
#[cfg(feature = "simd")]
#[inline]
fn axpy1(o_row: &mut [f32], av: f32, b_row: &[f32]) {
    const L: usize = crate::simd::LANES;
    let mut o_it = o_row.chunks_exact_mut(L);
    let mut b_it = b_row.chunks_exact(L);
    for (o, c) in o_it.by_ref().zip(b_it.by_ref()) {
        for l in 0..L {
            o[l] += av * c[l];
        }
    }
    for (o, &bv) in o_it.into_remainder().iter_mut().zip(b_it.remainder()) {
        *o += av * bv;
    }
}

#[cfg(not(feature = "simd"))]
#[inline]
fn axpy1(o_row: &mut [f32], av: f32, b_row: &[f32]) {
    for (o, &bv) in o_row.iter_mut().zip(b_row) {
        *o += av * bv;
    }
}

#[inline]
fn check_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &[f32]) {
    assert_eq!(a.len(), m * k, "matmul: lhs buffer is {} not {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "matmul: rhs buffer is {} not {k}x{n}", b.len());
    assert_eq!(out.len(), m * n, "matmul: out buffer is {} not {m}x{n}", out.len());
}

/// Reference matmul `out[m,n] = a[m,k] @ b[k,n]` in the textbook `i-j-k`
/// dot-product order. Slow on purpose — it is the behaviourally obvious
/// baseline the optimised kernels are parity-tested against.
pub fn matmul_naive_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    check_matmul(a, b, m, k, n, out);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Blocked/unrolled matmul `out[m,n] = a[m,k] @ b[k,n]`.
///
/// Loop order is `i-k-j` (the innermost walk is sequential over the output
/// row and one row of `b`, which LLVM vectorises), tiled into
/// [`MATMUL_BLOCK`]-sized blocks over `i` and `k` so the working set stays
/// cache-resident, with the `k` loop unrolled 4-wide to amortise the loads
/// of `a`. Handles any shape, including non-multiples of the block size.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    check_matmul(a, b, m, k, n, out);
    if k <= MATMUL_BLOCK {
        return matmul_small_k(a, b, m, k, n, out);
    }
    out.fill(0.0);
    for i0 in (0..m).step_by(MATMUL_BLOCK) {
        let i1 = (i0 + MATMUL_BLOCK).min(m);
        for p0 in (0..k).step_by(MATMUL_BLOCK) {
            let p1 = (p0 + MATMUL_BLOCK).min(k);
            for i in i0..i1 {
                let a_row = &a[i * k..(i + 1) * k];
                let o_row = &mut out[i * n..(i + 1) * n];
                let mut p = p0;
                while p + 4 <= p1 {
                    let a4 = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
                    let b0 = &b[p * n..(p + 1) * n];
                    let b1 = &b[(p + 1) * n..(p + 2) * n];
                    let b2 = &b[(p + 2) * n..(p + 3) * n];
                    let b3 = &b[(p + 3) * n..(p + 4) * n];
                    axpy4(o_row, a4, b0, b1, b2, b3);
                    p += 4;
                }
                while p < p1 {
                    let av = a_row[p];
                    if av != 0.0 {
                        axpy1(o_row, av, &b[p * n..(p + 1) * n]);
                    }
                    p += 1;
                }
            }
        }
    }
}

/// Register-tiled matmul for `k` within one cache block (every hot model
/// shape). Replays the blocked kernel's exact per-element accumulation —
/// `k` walked in increasing 4-wide groups with the identical left-to-right
/// group expression, zero-skip only on the `k % 4` tail — but holds each
/// [`crate::simd::LANES`]-wide output chunk in a stack accumulator across
/// the **whole** `k` loop instead of loading/storing `o_row` once per
/// group. Same additions in the same order ⇒ bit-identical to
/// [`matmul_into`]'s blocked path on both feature builds; only the memory
/// traffic changes (~2·k·n fewer row bytes moved per output row).
fn matmul_small_k(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    const L: usize = crate::simd::LANES;
    debug_assert!(k <= MATMUL_BLOCK);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 + L <= n {
            let mut acc = [0.0f32; L];
            let mut p = 0;
            while p + 4 <= k {
                let a4 = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
                let b0 = &b[p * n + j0..p * n + j0 + L];
                let b1 = &b[(p + 1) * n + j0..(p + 1) * n + j0 + L];
                let b2 = &b[(p + 2) * n + j0..(p + 2) * n + j0 + L];
                let b3 = &b[(p + 3) * n + j0..(p + 3) * n + j0 + L];
                for l in 0..L {
                    acc[l] += a4[0] * b0[l] + a4[1] * b1[l] + a4[2] * b2[l] + a4[3] * b3[l];
                }
                p += 4;
            }
            while p < k {
                let av = a_row[p];
                if av != 0.0 {
                    let br = &b[p * n + j0..p * n + j0 + L];
                    for l in 0..L {
                        acc[l] += av * br[l];
                    }
                }
                p += 1;
            }
            o_row[j0..j0 + L].copy_from_slice(&acc);
            j0 += L;
        }
        // `n % LANES` columns: scalar accumulator, same k order per element.
        for (j, o) in o_row.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            let mut p = 0;
            while p + 4 <= k {
                acc += a_row[p] * b[p * n + j]
                    + a_row[p + 1] * b[(p + 1) * n + j]
                    + a_row[p + 2] * b[(p + 2) * n + j]
                    + a_row[p + 3] * b[(p + 3) * n + j];
                p += 4;
            }
            while p < k {
                let av = a_row[p];
                if av != 0.0 {
                    acc += av * b[p * n + j];
                }
                p += 1;
            }
            *o = acc;
        }
    }
}

/// Causal-prefix variant of [`matmul_small_k`] for the fused attention
/// kernel: row `i` computes only the [`crate::simd::LANES`]-wide chunks
/// whose start lies inside the causal prefix `0..=i` (plus in-prefix
/// `n % LANES` remainder columns) and gathers the prefix max while each
/// chunk is still in registers — roughly a third of the score GEMM's MACs
/// never run. Every entry it **does** write uses the identical group
/// expression and `k` order as [`matmul_small_k`], so computed entries are
/// bit-identical to the full GEMM's; skipped entries hold stale buffer
/// junk that the caller's softmax never reads into a sum (the padded exp
/// map may transform them, but the masked-tail `fill(0.0)` overwrites the
/// whole region before the kernel returns). `max` is a rounding-free
/// reduction, so `row_prefix_max[i]` equals `max_fold(&row[..=i])` bit for
/// bit.
fn matmul_causal_small_k(
    a: &[f32],
    b: &[f32],
    t: usize,
    k: usize,
    out: &mut [f32],
    row_prefix_max: &mut [f32],
) {
    const L: usize = crate::simd::LANES;
    debug_assert!(k <= MATMUL_BLOCK);
    debug_assert!(row_prefix_max.len() >= t);
    let n = t;
    for i in 0..t {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        let prefix = i + 1;
        let mut rmax = f32::NEG_INFINITY;
        let mut j0 = 0;
        while j0 + L <= n && j0 < prefix {
            let mut acc = [0.0f32; L];
            let mut p = 0;
            while p + 4 <= k {
                let a4 = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
                let b0 = &b[p * n + j0..p * n + j0 + L];
                let b1 = &b[(p + 1) * n + j0..(p + 1) * n + j0 + L];
                let b2 = &b[(p + 2) * n + j0..(p + 2) * n + j0 + L];
                let b3 = &b[(p + 3) * n + j0..(p + 3) * n + j0 + L];
                for l in 0..L {
                    acc[l] += a4[0] * b0[l] + a4[1] * b1[l] + a4[2] * b2[l] + a4[3] * b3[l];
                }
                p += 4;
            }
            while p < k {
                let av = a_row[p];
                if av != 0.0 {
                    let br = &b[p * n + j0..p * n + j0 + L];
                    for l in 0..L {
                        acc[l] += av * br[l];
                    }
                }
                p += 1;
            }
            // Lanes of this chunk inside the causal prefix (column ≤ i).
            let live = prefix.saturating_sub(j0).min(L);
            for &v in acc[..live].iter() {
                rmax = rmax.max(v);
            }
            o_row[j0..j0 + L].copy_from_slice(&acc);
            j0 += L;
        }
        // In-prefix `n % LANES` remainder columns: scalar accumulator,
        // same `k` order per element. Empty when the chunk loop stopped at
        // the prefix boundary rather than the column count.
        for (j, o) in o_row.iter_mut().enumerate().skip(j0).take(prefix.saturating_sub(j0)) {
            let mut acc = 0.0f32;
            let mut p = 0;
            while p + 4 <= k {
                acc += a_row[p] * b[p * n + j]
                    + a_row[p + 1] * b[(p + 1) * n + j]
                    + a_row[p + 2] * b[(p + 2) * n + j]
                    + a_row[p + 3] * b[(p + 3) * n + j];
                p += 4;
            }
            while p < k {
                let av = a_row[p];
                if av != 0.0 {
                    acc += av * b[p * n + j];
                }
                p += 1;
            }
            rmax = rmax.max(acc);
            *o = acc;
        }
        row_prefix_max[i] = rmax;
    }
}

/// `out[m,n] = a[m,k] @ b[n,k]ᵀ` — matmul with a row-major `b` used as if
/// transposed, as a 4-accumulator dot product per output element. This is
/// the **scratch-free** variant: it needs no workspace, but horizontal dot
/// reductions vectorise worse than the blocked kernel's axpy loops, so the
/// tape's backward pass instead transposes `b` into a pooled scratch and
/// calls [`matmul_into`]. Kept (and parity-tested) for callers without
/// scratch space.
pub fn matmul_nt_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_nt: lhs buffer is {} not {m}x{k}", a.len());
    assert_eq!(b.len(), n * k, "matmul_nt: rhs buffer is {} not {n}x{k}", b.len());
    assert_eq!(out.len(), m * n, "matmul_nt: out buffer is {} not {m}x{n}", out.len());
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            *o = dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `out[m,n] = a[r,m]ᵀ @ b[r,n]` — matmul with a row-major `a` used as if
/// transposed, accumulated as a sum of outer products so every inner walk
/// stays sequential. The backward pass uses it for `dB = Aᵀ @ G`.
pub fn matmul_tn_into(a: &[f32], b: &[f32], r: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), r * m, "matmul_tn: lhs buffer is {} not {r}x{m}", a.len());
    assert_eq!(b.len(), r * n, "matmul_tn: rhs buffer is {} not {r}x{n}", b.len());
    assert_eq!(out.len(), m * n, "matmul_tn: out buffer is {} not {m}x{n}", out.len());
    out.fill(0.0);
    for i in 0..r {
        let a_row = &a[i * m..(i + 1) * m];
        let b_row = &b[i * n..(i + 1) * n];
        for (q, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy1(&mut out[q * n..(q + 1) * n], av, b_row);
        }
    }
}

/// Multi-accumulator dot product of two equal-length slices. The `simd`
/// build widens to [`crate::simd::LANES`] parallel accumulators (a different —
/// but fixed and deterministic — reduction grouping than the 4-wide scalar
/// fallback, which is why [`matmul_nt_into`] sits in the tolerance tier of
/// the test wall rather than the bit-exact one).
#[cfg(feature = "simd")]
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const L: usize = crate::simd::LANES;
    let mut acc = [0.0f32; L];
    let mut a_it = a.chunks_exact(L);
    let mut b_it = b.chunks_exact(L);
    for (ca, cb) in a_it.by_ref().zip(b_it.by_ref()) {
        for l in 0..L {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_it.remainder().iter().zip(b_it.remainder()) {
        tail += x * y;
    }
    acc.iter().sum::<f32>() + tail
}

/// 4-accumulator dot product of two equal-length slices.
#[cfg(not(feature = "simd"))]
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Transpose `a[m,n]` into `out[n,m]`.
pub fn transpose_into(a: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * n, "transpose: buffer is {} not {m}x{n}", a.len());
    assert_eq!(out.len(), m * n, "transpose: out buffer is {} not {n}x{m}", out.len());
    for i in 0..m {
        let a_row = &a[i * n..(i + 1) * n];
        for (j, &v) in a_row.iter().enumerate() {
            out[j * m + i] = v;
        }
    }
}

/// Fused attention scores `out[t_q, t_k] = scale · (q @ kᵀ) + mask`:
/// the `Q Kᵀ / √C + M` of the CAU in one kernel dispatch, with the scale
/// and mask folded into the epilogue instead of separate tensor passes.
/// `q: [t_q, c]`, `k: [t_k, c]`, `mask: [t_q, t_k]` (additive, typically
/// `{0, -1e9}` causal entries).
///
/// `kt_scratch` is a caller-provided `t_k · c` workspace (the tape hands a
/// pooled buffer): `k` is transposed into it once so the product runs
/// through the axpy-style blocked kernel, which vectorises far better at
/// model shapes than per-element dot products against `k`'s rows.
#[allow(clippy::too_many_arguments)]
pub fn attention_scores_into(
    q: &[f32],
    k: &[f32],
    t_q: usize,
    t_k: usize,
    c: usize,
    scale: f32,
    mask: Option<&[f32]>,
    kt_scratch: &mut [f32],
    out: &mut [f32],
) {
    assert_eq!(q.len(), t_q * c, "attention: q buffer is {} not {t_q}x{c}", q.len());
    assert_eq!(k.len(), t_k * c, "attention: k buffer is {} not {t_k}x{c}", k.len());
    assert_eq!(out.len(), t_q * t_k, "attention: out buffer is {} not {t_q}x{t_k}", out.len());
    assert_eq!(
        kt_scratch.len(),
        t_k * c,
        "attention: scratch buffer is {} not {c}x{t_k}",
        kt_scratch.len()
    );
    if let Some(m) = mask {
        assert_eq!(m.len(), t_q * t_k, "attention: mask buffer is {} not {t_q}x{t_k}", m.len());
    }
    transpose_into(k, t_k, c, kt_scratch);
    matmul_into(q, kt_scratch, t_q, c, t_k, out);
    match mask {
        Some(m) => {
            for (o, &mv) in out.iter_mut().zip(m) {
                *o = *o * scale + mv;
            }
        }
        None => {
            for o in out.iter_mut() {
                *o *= scale;
            }
        }
    }
}

/// Batched matmul with a **shared** right-hand side: one blocked GEMM over
/// `bt` stacked left operands. `a: [bt · m, k]` (the `bt` per-request
/// matrices stacked along rows), `b: [k, n]`, `out: [bt · m, n]`.
///
/// This is the batch-dispatch primitive of the serving fast path: because
/// [`matmul_into`] computes every output **row** independently (the cache
/// blocking runs over `i` and `k`, never across rows' accumulators), the
/// stacked call is **bit-identical** to `bt` separate `matmul_into` calls —
/// same per-element summation order — while paying the kernel prologue once
/// and keeping `b` hot in cache across the whole batch.
pub fn matmul_batched_into(
    a: &[f32],
    b: &[f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), bt * m * k, "matmul_batched: lhs buffer is {} not {bt}x{m}x{k}", a.len());
    assert_eq!(
        out.len(),
        bt * m * n,
        "matmul_batched: out buffer is {} not {bt}x{m}x{n}",
        out.len()
    );
    matmul_into(a, b, bt * m, k, n, out);
}

/// Strided batched matmul: `out[b] = a[b] @ rhs[b]` for `bt` independent
/// operand pairs laid out contiguously (`a: [bt, m, k]`, `rhs: [bt, k, n]`,
/// `out: [bt, m, n]` flattened). Each member dispatches to the blocked
/// kernel, so every segment is bit-identical to a standalone
/// [`matmul_into`] call. Used where both operands differ per batch member
/// (e.g. `attn @ V` across a batch of attention heads).
pub fn matmul_strided_into(
    a: &[f32],
    b: &[f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), bt * m * k, "matmul_strided: lhs buffer is {} not {bt}x{m}x{k}", a.len());
    assert_eq!(b.len(), bt * k * n, "matmul_strided: rhs buffer is {} not {bt}x{k}x{n}", b.len());
    assert_eq!(
        out.len(),
        bt * m * n,
        "matmul_strided: out buffer is {} not {bt}x{m}x{n}",
        out.len()
    );
    for i in 0..bt {
        matmul_into(
            &a[i * m * k..(i + 1) * m * k],
            &b[i * k * n..(i + 1) * k * n],
            m,
            k,
            n,
            &mut out[i * m * n..(i + 1) * m * n],
        );
    }
}

/// Fused **causal** attention probabilities:
/// `out = softmax_rows(scale · (q @ kᵀ) + M)` where `M` is the standard
/// causal mask (`0` on/below the diagonal, `-1e9` above). One kernel
/// dispatch replaces the scores + mask + softmax pipeline, and only the
/// lower triangle is ever computed.
///
/// **Bit-exactness contract.** The result is element-wise identical to
/// [`attention_scores_into`] with the `{0, -1e9}` causal mask followed by a
/// per-row [`crate::tensor::softmax_in_place`]:
///
/// * the row max over the causal prefix equals the full-row max (masked
///   entries are strictly smaller — screened below);
/// * masked entries satisfy `x - max ≤ -1e9 + 2·10⁸ ≪ -104`, so their
///   `exp` underflows to exactly `0.0`; trailing `+ 0.0` terms never change
///   the sum's bits, and `0.0 · inv == 0.0` reproduces their output.
///
/// A lane-parallel *screen pass* over the **operands** dispatches between
/// two implementations:
///
/// * **fast path** (`q`, `k` finite with `2·c·max|q|·max|k|·scale < 1e8`,
///   a conservative bound every non-exploded model clears by orders of
///   magnitude): the prefix-only softmax above, whose identity to the
///   unfused pipeline follows from the underflow argument — and since the
///   masked scores are provably irrelevant, the fused GEMM skips the
///   strict upper triangle entirely (~a third of its MACs);
/// * **slow path** (any `NaN`/`±inf` operand, or magnitudes that could
///   keep a masked `exp` from underflowing): the kernel *materialises* the
///   masked pipeline literally — full GEMM, scale, add the `{0, -1e9}`
///   causal mask, run [`crate::tensor::softmax_in_place`] per row — so the
///   bit-identity contract holds **unconditionally**, including degenerate
///   rows mixing `NaN`/`±inf` with finite scores (proptest-pinned).
///
/// The screen replaces the release-mode magnitude `assert!` this kernel
/// used to run per call on the hottest serving path: out-of-contract
/// inputs now take the exact-but-slower path instead of panicking. Builds
/// with the `paranoid` feature still panic, restoring the old tripwire
/// for debugging numerically exploded models.
///
/// `kt_scratch` is a caller-provided `t · c` workspace as in
/// [`attention_scores_into`]; `q, k: [t, c]`, `out: [t, t]`.
pub fn attention_probs_causal_into(
    q: &[f32],
    k: &[f32],
    t: usize,
    c: usize,
    scale: f32,
    kt_scratch: &mut [f32],
    out: &mut [f32],
) {
    assert_eq!(q.len(), t * c, "attention_probs: q buffer is {} not {t}x{c}", q.len());
    assert_eq!(k.len(), t * c, "attention_probs: k buffer is {} not {t}x{c}", k.len());
    assert_eq!(out.len(), t * t, "attention_probs: out buffer is {} not {t}x{t}", out.len());
    assert_eq!(
        kt_scratch.len(),
        t * c,
        "attention_probs: scratch is {} not {c}x{t}",
        kt_scratch.len()
    );
    // Per-row causal-prefix maxes, gathered inside the fused GEMM's store
    // epilogue (register-resident, no extra pass). Stack-bounded; shapes
    // beyond it take the unfused GEMM and recompute maxes per row below.
    const RMAX_CAP: usize = 256;
    let mut rmax_buf = [f32::NEG_INFINITY; RMAX_CAP];
    let fused = c <= MATMUL_BLOCK && t <= RMAX_CAP;
    // The *screen* that dispatches between the two implementations runs
    // over the **operands**, not the computed scores: the prefix-only fast
    // path is bit-identical to the masked pipeline only when every scaled
    // score — masked region included — sits far below the 1e9 mask offset
    // (so masked `exp`s underflow to exactly 0.0) and no score is
    // NaN/±inf. Both follow from the operand bound: with `q` and `k`
    // finite, `|score| ≤ c · max|q| · max|k|` in exact arithmetic, and the
    // blocked accumulation's rounding inflates that by far less than the
    // 2× margin below, so `2·c·max|q|·max|k|·scale < 1e8` implies every
    // `|score·scale| < 1e8` with no overflow to ±inf along the way.
    // Screening inputs (2·t·c elements) instead of scores (t² elements)
    // is cheaper AND frees the fast-path GEMM from computing the masked
    // upper triangle at all — ~a third of its MACs. The trade: magnitudes
    // between the conservative bound and the true score maximum now take
    // the slow path, which is bit-identical anyway (only exploded models
    // get near either threshold).
    //
    // `poison` is NaN iff any operand is non-finite — a property no
    // accumulation order can change; `worst` is an exact grouping-free
    // `max` reduction.
    let (worst_q, poison_q) = crate::simd::screen_abs_max(q, 1.0);
    let (worst_k, poison_k) = crate::simd::screen_abs_max(k, 1.0);
    let bound = 2.0 * (c as f32) * worst_q * worst_k * scale;
    // `scale > 0.0` guards the max/scale commute in the fast path below
    // (every real caller passes `1/√c`; a zero/negative/NaN scale takes
    // the literal pipeline instead). A NaN/±inf anywhere makes `bound`
    // NaN/±inf, which fails the `<` compare and lands in the slow path.
    let in_contract = poison_q == 0.0 && poison_k == 0.0 && bound < 1e8 && scale > 0.0;
    // The old release-mode tripwire for numerically exploded models,
    // now opt-in: the dispatch below keeps parity without it.
    #[cfg(feature = "paranoid")]
    assert!(
        in_contract,
        "attention_probs_causal: operand magnitudes |q|≤{worst_q} |k|≤{worst_k} \
         (poison {poison_q}/{poison_k}) outside the fast-path underflow contract"
    );
    transpose_into(k, t, c, kt_scratch);
    if in_contract && fused {
        matmul_causal_small_k(q, kt_scratch, t, c, out, &mut rmax_buf);
    } else {
        matmul_into(q, kt_scratch, t, c, t, out);
    }
    if in_contract {
        for r in 0..t {
            let o_row = &mut out[r * t..(r + 1) * t];
            let prefix = r + 1;
            // Row max over the causal prefix == full-row max of the
            // masked pipeline: masked entries there are `score - 1e9`
            // with |score| < 1e8 (screened above), strictly below any
            // unmasked entry. Finite because the screen passed.
            //
            // The max is taken over the RAW prefix and scaled once:
            // rounding is monotone and `scale > 0` (screened), so
            // `max_j round(x_j·s) == round((max_j x_j)·s)` — the same bits
            // the unfused pipeline gets from scaling first. That lets the
            // scale ride inside the exp map below (`round(x·s)` then
            // subtract: the identical two rounding steps, Rust never
            // contracts them into an FMA) instead of a separate pass. The
            // fused GEMM already collected the raw prefix max per row.
            let max =
                if fused { rmax_buf[r] } else { crate::simd::max_fold(&o_row[..prefix]) } * scale;
            // Exponentiate as a standalone map (lets the polynomial
            // `exp_f32` vectorise), zero the masked tail, then reduce the
            // FULL row through `simd::sum_fold`. The unfused pipeline's
            // masked entries underflow to exact `+0.0` (screened scores
            // make `score·scale - 1e9` sail past the flush threshold) and
            // its `softmax_in_place` sums the whole t-length row through
            // the same `sum_fold` — identical bit vector, identical
            // grouping, identical sum. The tail must be zeroed *before*
            // the reduce for that to hold.
            //
            // The map runs over a LANES-padded prefix so no row pays a
            // scalar epilogue: the pad entries are raw scores the causal
            // GEMM computed past the diagonal (or, past its last chunk,
            // stale buffer junk — possibly NaN); their exp is garbage that
            // the tail fill overwrites before anything reads it.
            let padded = ((prefix + crate::simd::LANES - 1) & !(crate::simd::LANES - 1)).min(t);
            for x in o_row[..padded].iter_mut() {
                *x = exp_f32(*x * scale - max);
            }
            o_row[prefix..].fill(0.0);
            let sum = crate::simd::sum_fold(o_row);
            // `sum >= exp(0) = 1` (the max element maps to exactly 1.0), so
            // `inv` is finite and the zero tail stays exact `+0.0` — the
            // same bits the unfused pipeline's normalise pass produces.
            let inv = 1.0 / sum;
            for x in o_row[..prefix].iter_mut() {
                *x *= inv;
            }
        }
    } else {
        // Out-of-contract scores (non-finite, or huge enough that a
        // masked exp might not underflow): run the unfused pipeline
        // verbatim — scale + additive causal mask exactly as
        // [`attention_scores_into`] applies them, then the shared row
        // softmax — so the bit-identity contract holds by construction
        // on *every* input, degenerate rows included.
        for r in 0..t {
            let o_row = &mut out[r * t..(r + 1) * t];
            let prefix = r + 1;
            for x in o_row[..prefix].iter_mut() {
                *x = *x * scale + 0.0;
            }
            for x in o_row[prefix..].iter_mut() {
                *x = *x * scale + -1e9;
            }
            crate::tensor::softmax_in_place(o_row);
        }
    }
}

/// Lower-triangular matmul `out[t,n] = a[t,t] @ b[t,n]` for a left operand
/// whose strict upper triangle is **exactly zero** (causal attention
/// probabilities). Bit-identical to [`matmul_into`] on the same input: the
/// kernel replays the same k-blocked 4-unrolled accumulation but skips
/// unroll groups that lie entirely in the zero region (their contribution
/// is a `±0.0` add, which never changes the accumulator), and the zero
/// tail entries are skipped by the same `!= 0.0` test the blocked kernel
/// applies. Roughly halves the MACs of the `probs @ V` stage.
pub fn matmul_tri_lower_into(a: &[f32], b: &[f32], t: usize, n: usize, out: &mut [f32]) {
    check_matmul(a, b, t, t, n, out);
    // Debug-mode contract check: the strict upper triangle must be exactly
    // zero, or the skipped groups would silently drop real contributions
    // (while autodiff backward passes still differentiate the full product).
    #[cfg(debug_assertions)]
    for i in 0..t {
        for (j, &v) in a[i * t..(i + 1) * t].iter().enumerate().skip(i + 1) {
            debug_assert!(
                v == 0.0,
                "matmul_tri_lower: nonzero strict-upper entry {v} at ({i}, {j})"
            );
        }
    }
    out.fill(0.0);
    const L: usize = crate::simd::LANES;
    for i in 0..t {
        let a_row = &a[i * t..(i + 1) * t];
        let o_row = &mut out[i * n..(i + 1) * n];
        // Live prefix of row i is 0..=i. Group region: every 4-wide group
        // the blocked kernel would touch — start ≤ i AND fully inside t.
        // Entries past the diagonal inside the last group are exact zeros
        // and ride through the group expression as `+ 0·b`, exactly as the
        // blocked kernel computes them.
        let g_end = ((i / 4) * 4 + 4).min(t & !3);
        // Tail region (`t % 4` entries, or a diagonal group that no longer
        // fits a full 4): the blocked kernel zero-skips these; beyond the
        // diagonal they are all zero, so the scan stops at `i`.
        let tail_end = (i + 1).min(t);
        // Register-tiled chunks, as in [`matmul_small_k`]: identical group
        // expression and k order, accumulator lives on the stack.
        let mut j0 = 0;
        while j0 + L <= n {
            let mut acc = [0.0f32; L];
            let mut p = 0;
            while p < g_end {
                let a4 = [a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]];
                let b0 = &b[p * n + j0..p * n + j0 + L];
                let b1 = &b[(p + 1) * n + j0..(p + 1) * n + j0 + L];
                let b2 = &b[(p + 2) * n + j0..(p + 2) * n + j0 + L];
                let b3 = &b[(p + 3) * n + j0..(p + 3) * n + j0 + L];
                for l in 0..L {
                    acc[l] += a4[0] * b0[l] + a4[1] * b1[l] + a4[2] * b2[l] + a4[3] * b3[l];
                }
                p += 4;
            }
            for (p, &av) in a_row.iter().enumerate().take(tail_end).skip(g_end) {
                if av != 0.0 {
                    let br = &b[p * n + j0..p * n + j0 + L];
                    for l in 0..L {
                        acc[l] += av * br[l];
                    }
                }
            }
            o_row[j0..j0 + L].copy_from_slice(&acc);
            j0 += L;
        }
        for (j, o) in o_row.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            let mut p = 0;
            while p < g_end {
                acc += a_row[p] * b[p * n + j]
                    + a_row[p + 1] * b[(p + 1) * n + j]
                    + a_row[p + 2] * b[(p + 2) * n + j]
                    + a_row[p + 3] * b[(p + 3) * n + j];
                p += 4;
            }
            for (p, &av) in a_row.iter().enumerate().take(tail_end).skip(g_end) {
                if av != 0.0 {
                    acc += av * b[p * n + j];
                }
            }
            *o = acc;
        }
    }
}

/// Left zero-padding implied by a [`PadMode`] for kernel width `k`.
#[inline]
pub fn conv_left_pad(k: usize, pad: PadMode) -> usize {
    match pad {
        PadMode::Same => (k - 1) / 2,
        PadMode::Causal => k - 1,
    }
}

/// Fused 1-D convolution + bias + activation over the time axis:
/// `out[t, o] = act( Σ_{dk,i} x[t+dk-left, i] · w[dk, i, o] + bias[o] )`
/// for `x: [t_len, c_in]`, `w: [kw, c_in, c_out]`, `out: [t_len, c_out]`.
///
/// The accumulation walks `w`'s innermost (`c_out`) axis sequentially per
/// tap so the inner loop vectorises; bias and activation are applied in one
/// epilogue sweep instead of as separate tape nodes.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_fused_into(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    t_len: usize,
    c_in: usize,
    c_out: usize,
    kw: usize,
    pad: PadMode,
    act: Activation,
    out: &mut [f32],
) {
    assert_eq!(x.len(), t_len * c_in, "conv1d: x buffer is {} not {t_len}x{c_in}", x.len());
    assert_eq!(
        w.len(),
        kw * c_in * c_out,
        "conv1d: w buffer is {} not {kw}x{c_in}x{c_out}",
        w.len()
    );
    assert_eq!(out.len(), t_len * c_out, "conv1d: out buffer is {} not {t_len}x{c_out}", out.len());
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "conv1d: bias length {} != c_out {c_out}", b.len());
    }
    let left = conv_left_pad(kw, pad);
    out.fill(0.0);
    for t in 0..t_len {
        let o_row = &mut out[t * c_out..(t + 1) * c_out];
        for dk in 0..kw {
            // Input time index contributing through kernel tap dk.
            let src = t as isize + dk as isize - left as isize;
            if src < 0 || src >= t_len as isize {
                continue;
            }
            let x_row = &x[src as usize * c_in..(src as usize + 1) * c_in];
            let w_tap = &w[dk * c_in * c_out..(dk + 1) * c_in * c_out];
            for (i, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                axpy1(o_row, xv, &w_tap[i * c_out..(i + 1) * c_out]);
            }
        }
        match bias {
            Some(b) => {
                for (o, &bv) in o_row.iter_mut().zip(b) {
                    *o = act.apply(*o + bv);
                }
            }
            None => {
                if act != Activation::Identity {
                    for o in o_row.iter_mut() {
                        *o = act.apply(*o);
                    }
                }
            }
        }
    }
}

// Column-chunk widths of the register-accumulator conv kernels. Each
// output row is folded in chunks of this many columns (the last piece split
// into power-of-two chunks), so every accumulator is a fixed-size lane
// array that stays in registers at any `c_out`. A width trades register
// pressure against independent add chains per input channel (each 4-lane
// SSE register is one chain with 4 cycles of add latency). Each width was
// measured at both model shapes, 32 members with T = 24 (serve: C = 8,
// K = 2; paper: C = 32, K = 4).

/// [`conv1d_fused_batched_into`], one kernel: 32 lanes give 8 chains;
/// 8-lane chunks leave 2 and were 1.6× slower at `c_out = 32`.
const SINGLE_CHUNK: usize = 32;

/// [`conv1d_gate_batched_into`], two kernels: 8 lanes each.
const GATE_CHUNK: usize = 8;

/// [`conv1d_projection_bank_into`]: 16 lanes for each of Q, K and V plus
/// the two gate scalars, 50 accumulators. At C = 32 the bank took 456 µs
/// against 470 µs for the five separate convs; 8-lane chunks took 512 µs
/// (too few chains), and an unchunked walk would hold 96 accumulators, far
/// past the 16 SSE registers.
const BANK_CHUNK: usize = 16;

/// Expand `$body` once per column chunk of a `$c_out`-wide output row:
/// full `$chunk`-lane chunks (a power of two ≤ 32), then the
/// `c_out % $chunk` tail as power-of-two chunks, widest first. Inside
/// `$body`, `$w` is the chunk width as a `const` and `$j0` its first
/// column, so every width folds in fixed-size lane arrays, with neither a
/// runtime-length accumulator nor a scalar tail loop.
macro_rules! column_chunks {
    ($c_out:expr, $chunk:expr, |$j0:ident, $w:ident| $body:block) => {{
        const CHUNK: usize = $chunk;
        const _: () = assert!(CHUNK.is_power_of_two() && CHUNK <= 32);
        let c_out: usize = $c_out;
        let mut $j0 = 0usize;
        while $j0 + CHUNK <= c_out {
            const $w: usize = CHUNK;
            $body
            $j0 += CHUNK;
        }
        column_chunks!(@tail c_out, CHUNK, $j0, $w, $body, 16, 8, 4, 2, 1);
    }};
    (@tail $c_out:ident, $chunk:ident, $j0:ident, $w:ident, $body:block, $($half:literal),+) => {
        $(
            if $half < $chunk && ($c_out - $j0) & $half != 0 {
                const $w: usize = $half;
                $body
                $j0 += $half;
            }
        )+
    };
}

/// Time-axis geometry of one conv member: `t_len` steps of `c_in`
/// channels in, `c_out` channels out, kernel width `kw` with `left`
/// zero-padding steps before the first input row.
#[derive(Clone, Copy)]
struct ConvGeom {
    t_len: usize,
    c_in: usize,
    c_out: usize,
    kw: usize,
    left: usize,
}

impl ConvGeom {
    fn new(t_len: usize, c_in: usize, c_out: usize, kw: usize, pad: PadMode) -> Self {
        Self { t_len, c_in, c_out, kw, left: conv_left_pad(kw, pad) }
    }

    /// The taps `dk` of output row `t` whose input row lies inside
    /// `0..t_len`; taps on the zero padding contribute nothing.
    #[inline(always)]
    fn taps(&self, t: usize) -> std::ops::Range<usize> {
        self.left.saturating_sub(t)..self.kw.min(self.t_len + self.left - t)
    }
}

/// Fold one input row into `N` banks' `W`-lane accumulators:
/// `acc[b][l] += x_row[ci] · taps[b][ci·c_out + j0 + l]` for `ci`
/// ascending, where `taps[b]` is one `[c_in, c_out]` kernel tap of bank
/// `b`. Each accumulator element sees exactly the adds, in the order, that
/// [`conv1d_fused_into`]'s axpy walk makes over that tap.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn fold_row<const W: usize, const N: usize>(
    acc: &mut [[f32; W]; N],
    x_row: &[f32],
    taps: [&[f32]; N],
    c_out: usize,
    j0: usize,
) {
    for (ci, &xv) in x_row.iter().enumerate() {
        let at = ci * c_out + j0;
        for b in 0..N {
            let w_row = &taps[b][at..at + W];
            for l in 0..W {
                acc[b][l] += xv * w_row[l];
            }
        }
    }
}

/// Output row `t`'s whole `(dk, ci)` reduction for columns `j0..j0 + W`
/// of `N` same-geometry kernels `ws[b]: [kw, c_in, c_out]` on one input
/// walk: taps in increasing `dk`, channels in increasing `ci`.
#[inline(always)]
fn fold_chunk<const W: usize, const N: usize>(
    xm: &[f32],
    ws: [&[f32]; N],
    geo: &ConvGeom,
    t: usize,
    j0: usize,
) -> [[f32; W]; N] {
    let mut acc = [[0.0f32; W]; N];
    let tap = geo.c_in * geo.c_out;
    for dk in geo.taps(t) {
        let src = t + dk - geo.left;
        let x_row = &xm[src * geo.c_in..(src + 1) * geo.c_in];
        fold_row(&mut acc, x_row, ws.map(|w| &w[dk * tap..(dk + 1) * tap]), geo.c_out, j0);
    }
    acc
}

/// Store one chunk's pre-activations `(acc + 0.0) + bias`. The `+ 0.0`
/// turns a `-0.0` accumulator into the `+0.0` that
/// [`conv1d_fused_into`] produces (it skips zero inputs; these kernels
/// fold them, which is exact for finite kernels and cheaper than the
/// unpredictable branch on ~50%-sparse gated inputs); it is the identity on
/// every other value.
#[inline(always)]
fn store_chunk<const W: usize>(dst: &mut [f32], acc: &[f32; W], bias: Option<&[f32]>) {
    let dst = &mut dst[..W];
    match bias {
        Some(b) => {
            for ((d, &a), &bv) in dst.iter_mut().zip(acc).zip(&b[..W]) {
                *d = (a + 0.0) + bv;
            }
        }
        None => {
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d = a + 0.0;
            }
        }
    }
}

/// Apply `act` to every element of `xs` as one flat map. The `match` sits
/// outside the loop, so each arm is a branch-free body that vectorises
/// (the `simd` build's polynomial `exp`/`tanh` included).
fn activate_in_place(act: Activation, xs: &mut [f32]) {
    match act {
        Activation::Identity => {}
        Activation::Relu => xs.iter_mut().for_each(|x| *x = Activation::Relu.apply(*x)),
        Activation::Sigmoid => xs.iter_mut().for_each(|x| *x = Activation::Sigmoid.apply(*x)),
        Activation::Tanh => xs.iter_mut().for_each(|x| *x = Activation::Tanh.apply(*x)),
    }
}

/// Batched fused conv1d over `bt` stacked members: `x: [bt, t_len, c_in]`,
/// shared `w: [kw, c_in, c_out]`, `out: [bt, t_len, c_out]`. Every member's
/// output is **bit-identical** to [`conv1d_fused_into`] on that member:
/// each element folds `x[src, ci] · w[dk, ci, o]` over the same increasing
/// `(dk, ci)` order, in a register accumulator instead of an output row
/// loaded and stored once per tap (the per-tap row traffic is where the
/// per-node kernel's time goes).
#[allow(clippy::too_many_arguments)]
pub fn conv1d_fused_batched_into(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    bt: usize,
    t_len: usize,
    c_in: usize,
    c_out: usize,
    kw: usize,
    pad: PadMode,
    act: Activation,
    out: &mut [f32],
) {
    assert_eq!(x.len(), bt * t_len * c_in, "conv1d batched: x buffer");
    assert_eq!(w.len(), kw * c_in * c_out, "conv1d batched: w buffer");
    assert_eq!(out.len(), bt * t_len * c_out, "conv1d batched: out buffer");
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "conv1d batched: bias length");
    }
    let geo = ConvGeom::new(t_len, c_in, c_out, kw, pad);
    for (xm, om) in x.chunks_exact(t_len * c_in).zip(out.chunks_exact_mut(t_len * c_out)) {
        for t in 0..t_len {
            let o_row = &mut om[t * c_out..(t + 1) * c_out];
            column_chunks!(c_out, SINGLE_CHUNK, |j0, W| {
                let [acc] = fold_chunk::<W, 1>(xm, [w], &geo, t, j0);
                store_chunk(&mut o_row[j0..], &acc, bias.map(|b| &b[j0..]));
            });
        }
        // Pre-activations are stored; the activation runs as one flat map.
        activate_in_place(act, om);
    }
}

/// Batched **gated conv pair** (the TEL pattern
/// `ReLU(x ⋆ w_c + b_c) ⊙ σ(x ⋆ w_d + b_d)`) over `bt` stacked members:
/// `x: [bt, t_len, c_in]`, both kernels `[kw, c_in, c_out]`, biases
/// `[c_out]`, `out: [bt, t_len, c_out]`.
///
/// Both banks fold each input element into their register accumulators on
/// one walk. The capture pre-activations are stored in `out`, the denoise
/// ones in `den_scratch` (`t_len · c_out`, reused per member; the tape
/// hands a pooled buffer). Then `ReLU(c) · σ(d)` runs as one flat,
/// branch-free map over the member, so the `simd` build's polynomial `exp`
/// vectorises.
///
/// Member `i` is elementwise bit-identical to two [`conv1d_fused_into`]
/// passes (ReLU / Sigmoid epilogues) multiplied together: each accumulator
/// replays that kernel's `(dk, ci)` fold, and the epilogue is the same
/// per-element expression wherever it runs.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_gate_batched_into(
    x: &[f32],
    w_c: &[f32],
    b_c: &[f32],
    w_d: &[f32],
    b_d: &[f32],
    bt: usize,
    t_len: usize,
    c_in: usize,
    c_out: usize,
    kw: usize,
    pad: PadMode,
    den_scratch: &mut [f32],
    out: &mut [f32],
) {
    assert_eq!(x.len(), bt * t_len * c_in, "conv1d gate batched: x buffer");
    assert_eq!(w_c.len(), kw * c_in * c_out, "conv1d gate batched: w_c buffer");
    assert_eq!(w_d.len(), kw * c_in * c_out, "conv1d gate batched: w_d buffer");
    assert_eq!(b_c.len(), c_out, "conv1d gate batched: b_c length");
    assert_eq!(b_d.len(), c_out, "conv1d gate batched: b_d length");
    assert_eq!(den_scratch.len(), t_len * c_out, "conv1d gate batched: scratch buffer");
    assert_eq!(out.len(), bt * t_len * c_out, "conv1d gate batched: out buffer");
    let geo = ConvGeom::new(t_len, c_in, c_out, kw, pad);
    for (xm, om) in x.chunks_exact(t_len * c_in).zip(out.chunks_exact_mut(t_len * c_out)) {
        for t in 0..t_len {
            let row = t * c_out;
            column_chunks!(c_out, GATE_CHUNK, |j0, W| {
                let [cap, den] = fold_chunk::<W, 2>(xm, [w_c, w_d], &geo, t, j0);
                store_chunk(&mut om[row + j0..], &cap, Some(&b_c[j0..]));
                store_chunk(&mut den_scratch[row + j0..], &den, Some(&b_d[j0..]));
            });
        }
        for (o, &d) in om.iter_mut().zip(den_scratch.iter()) {
            *o = Activation::Relu.apply(*o) * Activation::Sigmoid.apply(d);
        }
    }
}

/// The five layer-0 projection kernels of one ITA layer, read by
/// [`conv1d_projection_bank_into`]. Each is a `(kernel, bias)` pair of a
/// causal conv over `c_in` input channels: Q and K are `[kw, c_in, c_out]`,
/// V is `[1, c_in, c_out]` (biases `[c_out]`), and the two aggregation
/// gate projections are `[1, c_in, 1]` (biases `[1]`).
#[derive(Clone, Copy)]
pub struct ProjectionBank<'a> {
    /// Width of the Q and K kernels.
    pub kw: usize,
    /// Query kernel and bias.
    pub q: (&'a [f32], &'a [f32]),
    /// Key kernel and bias.
    pub k: (&'a [f32], &'a [f32]),
    /// Value kernel and bias.
    pub v: (&'a [f32], &'a [f32]),
    /// Gate source kernel and bias.
    pub gate_src: (&'a [f32], &'a [f32]),
    /// Gate destination kernel and bias.
    pub gate_dst: (&'a [f32], &'a [f32]),
}

/// Output buffers of [`conv1d_projection_bank_into`]: Q/K/V are
/// `[bt, t_len, c_out]`, the gate projections `[bt, t_len, 1]`.
pub struct ProjectionLanes<'a> {
    /// Query projections.
    pub q: &'a mut [f32],
    /// Key projections.
    pub k: &'a mut [f32],
    /// Value projections.
    pub v: &'a mut [f32],
    /// Gate source projections.
    pub gate_src: &'a mut [f32],
    /// Gate destination projections.
    pub gate_dst: &'a mut [f32],
}

/// All five layer-0 projections of `bt` stacked members
/// `x: [bt, t_len, c_in]` in one kernel that walks each member's rows once.
///
/// Output row `t` of a causal width-`kw` conv reads input rows
/// `t - kw + 1 ..= t`, and the width-1 V and gate kernels read row `t`
/// alone. So for each column chunk the kernel folds the earlier rows into
/// the Q and K accumulators, then folds row `t` into Q, K and V, and, on
/// the first chunk, into the two single-column gate accumulators as well.
/// Chunks are 16 lanes wide (`BANK_CHUNK`), which bounds the live
/// accumulators at `3 · BANK_CHUNK + 2` whatever `c_out` is.
///
/// Every output element folds the same terms in the same increasing
/// `(dk, ci)` order as its own [`conv1d_fused_into`] call with an
/// `Identity` epilogue, and stores `(acc + 0.0) + bias`, so each lane is
/// bit-identical to the five separate convs.
pub fn conv1d_projection_bank_into(
    x: &[f32],
    bank: &ProjectionBank<'_>,
    bt: usize,
    t_len: usize,
    c_in: usize,
    c_out: usize,
    out: ProjectionLanes<'_>,
) {
    let kw = bank.kw;
    assert!(kw > 0, "projection bank: kernel width must be positive");
    assert_eq!(x.len(), bt * t_len * c_in, "projection bank: x buffer");
    for (name, (w, b), taps, width) in [
        ("q", bank.q, kw, c_out),
        ("k", bank.k, kw, c_out),
        ("v", bank.v, 1, c_out),
        ("gate_src", bank.gate_src, 1, 1),
        ("gate_dst", bank.gate_dst, 1, 1),
    ] {
        assert_eq!(w.len(), taps * c_in * width, "projection bank: {name} kernel");
        assert_eq!(b.len(), width, "projection bank: {name} bias");
    }
    for (name, len, width) in [
        ("q", out.q.len(), c_out),
        ("k", out.k.len(), c_out),
        ("v", out.v.len(), c_out),
        ("gate_src", out.gate_src.len(), 1),
        ("gate_dst", out.gate_dst.len(), 1),
    ] {
        assert_eq!(len, bt * t_len * width, "projection bank: {name} out buffer");
    }
    let ((wq, bq), (wk, bk), (wv, bv)) = (bank.q, bank.k, bank.v);
    let ((ws, bs), (wd, bd)) = (bank.gate_src, bank.gate_dst);
    let left = kw - 1;
    let tap = c_in * c_out;
    // The last Q/K tap reads the same input row `t` as V and the gates.
    let (wq_t, wk_t) = (&wq[left * tap..], &wk[left * tap..]);
    for i in 0..bt {
        let xm = &x[i * t_len * c_in..(i + 1) * t_len * c_in];
        let lanes = i * t_len * c_out..(i + 1) * t_len * c_out;
        let (q, k, v) = (&mut out.q[lanes.clone()], &mut out.k[lanes.clone()], &mut out.v[lanes]);
        let gs = &mut out.gate_src[i * t_len..(i + 1) * t_len];
        let gd = &mut out.gate_dst[i * t_len..(i + 1) * t_len];
        for t in 0..t_len {
            let x_t = &xm[t * c_in..(t + 1) * c_in];
            let row = t * c_out;
            column_chunks!(c_out, BANK_CHUNK, |j0, W| {
                let mut qk = [[0.0f32; W]; 2];
                for dk in left.saturating_sub(t)..left {
                    let src = t + dk - left;
                    let taps = [&wq[dk * tap..(dk + 1) * tap], &wk[dk * tap..(dk + 1) * tap]];
                    fold_row(&mut qk, &xm[src * c_in..(src + 1) * c_in], taps, c_out, j0);
                }
                let mut acc = [qk[0], qk[1], [0.0f32; W]];
                if j0 == 0 {
                    // First chunk: the single-column gate accumulators
                    // ride along on the same walk over row `t`.
                    let (mut gs_acc, mut gd_acc) = (0.0f32, 0.0f32);
                    for ((ci, &xv), (&ws_v, &wd_v)) in x_t.iter().enumerate().zip(ws.iter().zip(wd))
                    {
                        let at = ci * c_out;
                        for (a, w_t) in acc.iter_mut().zip([wq_t, wk_t, wv]) {
                            let w_row = &w_t[at..at + W];
                            for l in 0..W {
                                a[l] += xv * w_row[l];
                            }
                        }
                        gs_acc += xv * ws_v;
                        gd_acc += xv * wd_v;
                    }
                    gs[t] = (gs_acc + 0.0) + bs[0];
                    gd[t] = (gd_acc + 0.0) + bd[0];
                } else {
                    fold_row(&mut acc, x_t, [wq_t, wk_t, wv], c_out, j0);
                }
                let [aq, ak, av] = &acc;
                store_chunk(&mut q[row + j0..], aq, Some(&bq[j0..]));
                store_chunk(&mut k[row + j0..], ak, Some(&bk[j0..]));
                store_chunk(&mut v[row + j0..], av, Some(&bv[j0..]));
            });
        }
    }
}

/// Gradients of the (pre-activation) conv1d with respect to input, kernel
/// and bias, written into caller buffers. `gout` must already be the
/// gradient at the **pre-activation** output (callers of the fused kernel
/// first multiply the upstream gradient by
/// [`Activation::grad_from_output`]). Buffers are overwritten.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_backward_into(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    t_len: usize,
    c_in: usize,
    c_out: usize,
    kw: usize,
    pad: PadMode,
    dx: &mut [f32],
    dw: &mut [f32],
    db: &mut [f32],
) {
    assert_eq!(gout.len(), t_len * c_out, "conv1d_backward: bad upstream shape");
    assert_eq!(dx.len(), t_len * c_in, "conv1d_backward: dx buffer");
    assert_eq!(dw.len(), kw * c_in * c_out, "conv1d_backward: dw buffer");
    assert_eq!(db.len(), c_out, "conv1d_backward: db buffer");
    let left = conv_left_pad(kw, pad);
    dx.fill(0.0);
    dw.fill(0.0);
    db.fill(0.0);
    for t in 0..t_len {
        let g_row = &gout[t * c_out..(t + 1) * c_out];
        for (o, &gv) in g_row.iter().enumerate() {
            if gv == 0.0 {
                continue;
            }
            db[o] += gv;
        }
        for dk in 0..kw {
            let src = t as isize + dk as isize - left as isize;
            if src < 0 || src >= t_len as isize {
                continue;
            }
            let src = src as usize;
            let x_row = &x[src * c_in..(src + 1) * c_in];
            let dx_row = &mut dx[src * c_in..(src + 1) * c_in];
            let w_tap = &w[dk * c_in * c_out..(dk + 1) * c_in * c_out];
            let dw_tap = &mut dw[dk * c_in * c_out..(dk + 1) * c_in * c_out];
            for i in 0..c_in {
                let w_row = &w_tap[i * c_out..(i + 1) * c_out];
                let dw_row = &mut dw_tap[i * c_out..(i + 1) * c_out];
                let xv = x_row[i];
                let mut acc = 0.0f32;
                for ((&gv, &wv), dwv) in g_row.iter().zip(w_row).zip(dw_row.iter_mut()) {
                    acc += gv * wv;
                    *dwv += gv * xv;
                }
                dx_row[i] += acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randv(n: usize, seed: u64) -> Vec<f32> {
        Tensor::randn(vec![n], 1.0, &mut StdRng::seed_from_u64(seed)).into_data()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol + 1e-4 * y.abs(), "{what}[{i}]: {x} vs {y}");
        }
    }

    /// MASKED-EXP UNDERFLOW CONTRACT — the bit-exactness of the fused
    /// causal softmax rests on `exp_f32(x) == 0.0` **exactly** for every
    /// masked score `x ≤ -1e9 + 2·10⁸`: a masked entry contributes
    /// `+ 0.0` to the row sum and renormalises to `0.0 · inv == 0.0`.
    /// Both transcendental selections (libm `exp` on the scalar build,
    /// the polynomial on the simd build) must honour it.
    #[test]
    fn masked_exp_underflows_to_exact_zero() {
        // The worst-case masked argument the screen admits (score 1e8,
        // mask -1e9, max +1e8) and progressively deeper ones. Values in
        // the subnormal window (-87.3 … -104) are deliberately NOT pinned:
        // libm `exp` returns subnormals there while the polynomial
        // flushes — both are well below any masked argument.
        for x in [-8e8f32, -1e9, -1e9 - 2e8, -1e4, -200.0] {
            assert_eq!(
                exp_f32(x).to_bits(),
                0.0f32.to_bits(),
                "exp_f32({x}) must underflow to exactly +0.0"
            );
        }
        // Sanity on the live side of the cliff: normal arguments stay
        // positive, so real attention weights never collapse.
        assert!(exp_f32(-80.0) > 0.0);
        assert_eq!(exp_f32(0.0), 1.0);
    }

    /// Blocked matmul matches the naive reference at shapes straddling the
    /// block size (the proptest suite covers random shapes on top).
    #[test]
    fn blocked_matmul_parity_at_boundary_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (24, 32, 24),
            (MATMUL_BLOCK - 1, MATMUL_BLOCK, MATMUL_BLOCK + 1),
            (MATMUL_BLOCK + 3, 2 * MATMUL_BLOCK + 1, 7),
        ] {
            let a = randv(m * k, 1 + m as u64);
            let b = randv(k * n, 2 + n as u64);
            let mut naive = vec![0.0; m * n];
            let mut blocked = vec![0.0; m * n];
            matmul_naive_into(&a, &b, m, k, n, &mut naive);
            matmul_into(&a, &b, m, k, n, &mut blocked);
            assert_close(&blocked, &naive, 1e-3, &format!("matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        let (m, k, n) = (5, 7, 3);
        let a = randv(m * k, 3);
        let bt = randv(n * k, 4); // b stored as [n, k]
        let mut bt_t = vec![0.0; k * n];
        transpose_into(&bt, n, k, &mut bt_t);
        let mut want = vec![0.0; m * n];
        matmul_naive_into(&a, &bt_t, m, k, n, &mut want);
        let mut got = vec![0.0; m * n];
        matmul_nt_into(&a, &bt, m, k, n, &mut got);
        assert_close(&got, &want, 1e-4, "matmul_nt");

        let at = randv(k * m, 5); // a stored as [k, m]
        let b = randv(k * n, 6);
        let mut at_t = vec![0.0; m * k];
        transpose_into(&at, k, m, &mut at_t);
        let mut want = vec![0.0; m * n];
        matmul_naive_into(&at_t, &b, m, k, n, &mut want);
        let mut got = vec![0.0; m * n];
        matmul_tn_into(&at, &b, k, m, n, &mut got);
        assert_close(&got, &want, 1e-4, "matmul_tn");
    }

    #[test]
    fn transpose_into_roundtrip() {
        let (m, n) = (4, 6);
        let a = randv(m * n, 9);
        let mut t = vec![0.0; m * n];
        let mut back = vec![0.0; m * n];
        transpose_into(&a, m, n, &mut t);
        transpose_into(&t, n, m, &mut back);
        assert_eq!(a, back);
    }

    #[test]
    fn attention_scores_match_unfused_pipeline() {
        let (tq, tk, c) = (6, 6, 8);
        let q = randv(tq * c, 11);
        let k = randv(tk * c, 12);
        let mut mask = vec![0.0f32; tq * tk];
        for i in 0..tq {
            for j in (i + 1)..tk {
                mask[i * tk + j] = -1e9;
            }
        }
        let scale = 1.0 / (c as f32).sqrt();
        // Unfused: transpose, naive matmul, scale, mask add.
        let mut kt = vec![0.0; tk * c];
        transpose_into(&k, tk, c, &mut kt);
        let mut want = vec![0.0; tq * tk];
        matmul_naive_into(&q, &kt, tq, c, tk, &mut want);
        for (w, &m) in want.iter_mut().zip(&mask) {
            *w = *w * scale + m;
        }
        let mut scratch = vec![0.0; tk * c];
        let mut got = vec![0.0; tq * tk];
        attention_scores_into(&q, &k, tq, tk, c, scale, Some(&mask), &mut scratch, &mut got);
        assert_close(&got, &want, 1e-4, "attention_scores");
        // Unmasked variant against its own unmasked reference.
        let mut want2 = vec![0.0; tq * tk];
        matmul_naive_into(&q, &kt, tq, c, tk, &mut want2);
        for w in want2.iter_mut() {
            *w *= scale;
        }
        let mut got2 = vec![0.0; tq * tk];
        attention_scores_into(&q, &k, tq, tk, c, scale, None, &mut scratch, &mut got2);
        assert_close(&got2, &want2, 1e-4, "attention_scores unmasked");
    }

    #[test]
    fn fused_conv_matches_reference_plus_epilogue() {
        let (t_len, c_in, c_out, kw) = (9, 3, 4, 3);
        let x = Tensor::randn(vec![t_len, c_in], 1.0, &mut StdRng::seed_from_u64(21));
        let w = Tensor::randn(vec![kw, c_in, c_out], 0.5, &mut StdRng::seed_from_u64(22));
        let b = Tensor::randn(vec![c_out], 0.5, &mut StdRng::seed_from_u64(23));
        for pad in [PadMode::Same, PadMode::Causal] {
            for act in
                [Activation::Identity, Activation::Relu, Activation::Sigmoid, Activation::Tanh]
            {
                let want = crate::tensor::conv1d(&x, &w, Some(&b), pad).map(|v| act.apply(v));
                let mut got = vec![0.0; t_len * c_out];
                conv1d_fused_into(
                    x.data(),
                    w.data(),
                    Some(b.data()),
                    t_len,
                    c_in,
                    c_out,
                    kw,
                    pad,
                    act,
                    &mut got,
                );
                assert_close(&got, want.data(), 1e-4, &format!("conv {pad:?} {act:?}"));
            }
        }
    }

    #[test]
    fn conv_backward_into_matches_allocating_wrapper() {
        let (t_len, c_in, c_out, kw) = (7, 2, 3, 4);
        let x = Tensor::randn(vec![t_len, c_in], 1.0, &mut StdRng::seed_from_u64(31));
        let w = Tensor::randn(vec![kw, c_in, c_out], 0.5, &mut StdRng::seed_from_u64(32));
        let g = Tensor::randn(vec![t_len, c_out], 1.0, &mut StdRng::seed_from_u64(33));
        for pad in [PadMode::Same, PadMode::Causal] {
            let (dx, dw, db) = crate::tensor::conv1d_backward(&x, &w, &g, pad);
            let mut dx2 = vec![0.0; t_len * c_in];
            let mut dw2 = vec![0.0; kw * c_in * c_out];
            let mut db2 = vec![0.0; c_out];
            conv1d_backward_into(
                x.data(),
                w.data(),
                g.data(),
                t_len,
                c_in,
                c_out,
                kw,
                pad,
                &mut dx2,
                &mut dw2,
                &mut db2,
            );
            assert_close(&dx2, dx.data(), 1e-4, "dx");
            assert_close(&dw2, dw.data(), 1e-4, "dw");
            assert_close(&db2, db.data(), 1e-4, "db");
        }
    }

    /// The batched entry point (one GEMM over stacked left operands) is
    /// **bit-identical** to the per-member loop — the exact-parity contract
    /// the batched serving path is built on.
    #[test]
    fn batched_matmul_is_bit_identical_to_looped() {
        for &(bt, m, k, n) in &[(1usize, 3usize, 5usize, 4usize), (4, 1, 24, 3), (3, 24, 8, 24)] {
            let a = randv(bt * m * k, 51 + bt as u64);
            let b = randv(k * n, 52 + n as u64);
            let mut batched = vec![0.0; bt * m * n];
            matmul_batched_into(&a, &b, bt, m, k, n, &mut batched);
            let mut looped = vec![0.0; bt * m * n];
            for i in 0..bt {
                matmul_into(
                    &a[i * m * k..(i + 1) * m * k],
                    &b,
                    m,
                    k,
                    n,
                    &mut looped[i * m * n..(i + 1) * m * n],
                );
            }
            assert_eq!(batched, looped, "batched GEMM diverged at {bt}x{m}x{k}x{n}");
        }
    }

    #[test]
    fn strided_matmul_is_bit_identical_to_looped() {
        let (bt, m, k, n) = (3usize, 6usize, 6usize, 4usize);
        let a = randv(bt * m * k, 61);
        let b = randv(bt * k * n, 62);
        let mut strided = vec![0.0; bt * m * n];
        matmul_strided_into(&a, &b, bt, m, k, n, &mut strided);
        let mut looped = vec![0.0; bt * m * n];
        for i in 0..bt {
            matmul_into(
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
                m,
                k,
                n,
                &mut looped[i * m * n..(i + 1) * m * n],
            );
        }
        assert_eq!(strided, looped);
    }

    /// The fused causal-probability kernel is **bit-identical** to the
    /// unfused scores (+causal mask) → softmax pipeline, for sizes
    /// straddling the matmul block boundary.
    #[test]
    fn causal_probs_are_bit_identical_to_unfused_pipeline() {
        for &(t, c) in &[(1usize, 1usize), (6, 8), (24, 8), (7, MATMUL_BLOCK + 3)] {
            let q = randv(t * c, 71 + t as u64);
            let k = randv(t * c, 72 + c as u64);
            let mut mask = vec![0.0f32; t * t];
            for i in 0..t {
                for j in (i + 1)..t {
                    mask[i * t + j] = -1e9;
                }
            }
            let scale = 1.0 / (c as f32).sqrt();
            let mut scratch = vec![0.0; t * c];
            let mut want = vec![0.0; t * t];
            attention_scores_into(&q, &k, t, t, c, scale, Some(&mask), &mut scratch, &mut want);
            for row in want.chunks_mut(t) {
                crate::tensor::softmax_in_place(row);
            }
            let mut got = vec![0.0; t * t];
            attention_probs_causal_into(&q, &k, t, c, scale, &mut scratch, &mut got);
            assert_eq!(got, want, "causal probs diverged at t={t} c={c}");
        }
    }

    /// The triangular matmul is bit-identical to the blocked kernel on a
    /// left operand with an exactly-zero strict upper triangle.
    #[test]
    fn tri_matmul_is_bit_identical_to_blocked_on_causal_probs() {
        for &(t, n) in &[(1usize, 1usize), (6, 8), (24, 8), (23, 5), (MATMUL_BLOCK + 5, 7)] {
            let mut probs = randv(t * t, 91 + t as u64);
            for i in 0..t {
                for j in (i + 1)..t {
                    probs[i * t + j] = 0.0;
                }
            }
            let b = randv(t * n, 92 + n as u64);
            let mut want = vec![0.0; t * n];
            matmul_into(&probs, &b, t, t, n, &mut want);
            let mut got = vec![0.0; t * n];
            matmul_tri_lower_into(&probs, &b, t, n, &mut got);
            assert_eq!(got, want, "tri matmul diverged at t={t} n={n}");
        }
    }

    #[test]
    fn causal_probs_rows_are_distributions_with_zero_future() {
        let (t, c) = (10usize, 8usize);
        let q = randv(t * c, 81);
        let k = randv(t * c, 82);
        let mut scratch = vec![0.0; t * c];
        let mut probs = vec![0.0; t * t];
        attention_probs_causal_into(
            &q,
            &k,
            t,
            c,
            1.0 / (c as f32).sqrt(),
            &mut scratch,
            &mut probs,
        );
        for r in 0..t {
            let row = &probs[r * t..(r + 1) * t];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(row[r + 1..].iter().all(|&x| x == 0.0), "future leak in row {r}");
        }
    }

    #[test]
    fn activation_grads_match_finite_difference() {
        for act in [Activation::Identity, Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            for &x in &[-1.7f32, -0.3, 0.4, 2.1] {
                let eps = 1e-3;
                let num = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let ana = act.grad_from_output(act.apply(x));
                assert!((num - ana).abs() < 1e-2, "{act:?} at {x}: {ana} vs {num}");
            }
        }
    }
}
