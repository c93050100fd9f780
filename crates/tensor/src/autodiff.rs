//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation as a node holding its output
//! value, its parent node ids and a backward closure mapping the upstream
//! gradient to per-parent gradient contributions. Calling [`Graph::backward`]
//! walks the tape in reverse topological order (which is simply reverse
//! insertion order) and accumulates gradients.
//!
//! The design mirrors what the paper obtains from Keras/AGL: one tape per
//! mini-batch, discarded after the optimiser step. Trainable parameters live
//! outside the graph (in `gaia-nn`'s `ParamStore`) and are *bound* into the
//! tape as leaves via [`Graph::bind_param`]; their gradients are harvested
//! after `backward` through [`Graph::param_grads`].
//!
//! ## Buffer reuse
//!
//! Every operation dispatches its compute to [`crate::kernels`] and draws
//! its output buffer from the tape's [`TensorPool`]. [`Graph::reset`]
//! recycles every node value and gradient back into the pool, so repeat
//! forward (and backward) passes over the same shapes perform **zero**
//! fresh heap allocations — see [`Graph::fresh_buffer_allocs`]. This is the
//! steady state serving workers and trainer chunks run in.

use crate::kernels::{self, Activation};
use crate::pool::TensorPool;
use crate::tensor::{softmax_in_place, PadMode, Tensor};

/// Identifier of a node on the tape.
pub type VarId = usize;

type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor], &Tensor, &mut TensorPool) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<VarId>,
    backward: Option<BackwardFn>,
}

/// Elementwise combine into a preallocated output (shape-checked).
fn zip_into(out: &mut Tensor, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch {:?} vs {:?}", a.shape(), b.shape());
    debug_assert_eq!(out.len(), a.len());
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
}

/// Elementwise map into a preallocated output.
fn map_into(out: &mut Tensor, a: &Tensor, f: impl Fn(f32) -> f32) {
    debug_assert_eq!(out.len(), a.len());
    for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
        *o = f(x);
    }
}

/// The autodiff tape. Create one per forward/backward pass, or reuse one
/// across passes with [`Graph::reset`] to keep its buffer pool warm.
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// `(external key, leaf var)` pairs registered through [`Graph::bind_param`].
    bindings: Vec<(usize, VarId)>,
    /// When false the tape skips recording parents and backward closures —
    /// forward-only inference tapes pay no bookkeeping cost.
    record: bool,
    /// Recycled output buffers, keyed by element count.
    pool: TensorPool,
}

impl Default for Graph {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            bindings: Vec::new(),
            record: true,
            pool: TensorPool::new(),
        }
    }
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty forward-only tape: operations still compute values but record no
    /// parents or backward closures, so [`Graph::backward`] is unavailable.
    /// This is the serving hot path's tape — cheaper per op and fully
    /// reusable via [`Graph::reset`].
    pub fn for_inference() -> Self {
        Self { record: false, ..Self::default() }
    }

    /// True when this tape records backward closures.
    pub fn records_grads(&self) -> bool {
        self.record
    }

    /// Clear the tape for a fresh forward pass, returning every node value
    /// and gradient buffer to the pool so the next pass reuses them. The
    /// record/inference mode is preserved.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.recycle(node.value);
        }
        for grad in self.grads.drain(..).flatten() {
            self.pool.recycle(grad);
        }
        self.bindings.clear();
    }

    /// Number of fresh heap buffers this tape has ever had to allocate (pool
    /// misses). Flat across repeat passes on a reset tape = the zero-alloc
    /// steady state.
    pub fn fresh_buffer_allocs(&self) -> usize {
        self.pool.fresh_allocs()
    }

    /// Number of output buffers served by recycling (pool hits).
    pub fn buffer_reuses(&self) -> usize {
        self.pool.reuses()
    }

    /// Draw a pooled buffer of `shape` for a kernel whose output never
    /// becomes a tape node (its contents are unspecified; the kernel must
    /// write every element). Hand it back with [`Graph::recycle_scratch`]
    /// so the next pass reuses it.
    pub fn alloc_scratch(&mut self, shape: &[usize]) -> Tensor {
        self.pool.alloc(shape)
    }

    /// Return a buffer drawn with [`Graph::alloc_scratch`] to the pool.
    pub fn recycle_scratch(&mut self, t: Tensor) {
        self.pool.recycle(t);
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Record a leaf (no parents, no backward).
    fn push(&mut self, value: Tensor, parents: Vec<VarId>, backward: Option<BackwardFn>) -> VarId {
        for &p in &parents {
            debug_assert!(p < self.nodes.len(), "parent {p} out of range");
        }
        let (parents, backward) =
            if self.record { (parents, backward) } else { (Vec::new(), None) };
        self.nodes.push(Node { value, parents, backward });
        self.nodes.len() - 1
    }

    /// Record an operation node. The parent list and boxed backward closure
    /// are only constructed **when this tape records gradients**: on a
    /// forward-only inference tape neither allocation happens, keeping the
    /// serving request path free of per-op bookkeeping mallocs.
    fn push_op(
        &mut self,
        value: Tensor,
        parents: &[VarId],
        backward: impl FnOnce() -> BackwardFn,
    ) -> VarId {
        for &p in parents {
            debug_assert!(p < self.nodes.len(), "parent {p} out of range");
        }
        let (parents, backward) =
            if self.record { (parents.to_vec(), Some(backward())) } else { (Vec::new(), None) };
        self.nodes.push(Node { value, parents, backward });
        self.nodes.len() - 1
    }

    /// Insert a non-trainable constant leaf, taking ownership of `value`.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push(value, vec![], None)
    }

    /// Insert a constant leaf as a pooled **copy** of `value` — the
    /// zero-steady-state-alloc way to feed cached/stored tensors into a
    /// reused tape (the buffer comes from and returns to the pool).
    pub fn constant_from(&mut self, value: &Tensor) -> VarId {
        let v = self.pool.alloc_copy(value);
        self.push(v, vec![], None)
    }

    /// Insert a constant leaf of `shape` from a flat slice (pooled buffer).
    pub fn constant_slice(&mut self, shape: &[usize], data: &[f32]) -> VarId {
        let v = self.pool.alloc_from_slice(shape, data);
        self.push(v, vec![], None)
    }

    /// Insert a constant-filled leaf of `shape` (pooled buffer).
    pub fn constant_full(&mut self, shape: &[usize], value: f32) -> VarId {
        let v = self.pool.alloc_full(shape, value);
        self.push(v, vec![], None)
    }

    /// Insert a constant leaf of `shape` whose pooled buffer is written by
    /// `fill` — for values that must be decoded into the tape (e.g. a
    /// quantized cache entry) without a staging allocation. `fill` receives
    /// the whole buffer and must write every element.
    pub fn constant_fill(&mut self, shape: &[usize], fill: impl FnOnce(&mut [f32])) -> VarId {
        let mut v = self.pool.alloc(shape);
        fill(v.data_mut());
        self.push(v, vec![], None)
    }

    /// Insert a trainable leaf identified by an external `key` (typically a
    /// `ParamStore` slot). The gradient for this leaf can be retrieved with
    /// [`Graph::param_grads`] after [`Graph::backward`].
    pub fn bind_param(&mut self, key: usize, value: Tensor) -> VarId {
        let id = self.push(value, vec![], None);
        self.bindings.push((key, id));
        id
    }

    /// [`Graph::bind_param`] from a reference: the leaf holds a pooled copy.
    pub fn bind_param_from(&mut self, key: usize, value: &Tensor) -> VarId {
        let v = self.pool.alloc_copy(value);
        let id = self.push(v, vec![], None);
        self.bindings.push((key, id));
        id
    }

    /// Forward value of a node.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id].value
    }

    /// Gradient of a node (populated by [`Graph::backward`]).
    pub fn grad(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Iterate over `(external key, gradient)` pairs of bound parameters that
    /// received a gradient during the last [`Graph::backward`] call.
    pub fn param_grads(&self) -> impl Iterator<Item = (usize, &Tensor)> {
        self.bindings.iter().filter_map(move |&(key, var)| self.grad(var).map(|g| (key, g)))
    }

    // ------------------------------------------------------------------
    // Elementwise / arithmetic ops
    // ------------------------------------------------------------------

    /// `a + b` (same shape).
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let mut v = self.pool.alloc(self.nodes[a].value.shape());
        zip_into(&mut v, &self.nodes[a].value, &self.nodes[b].value, |x, y| x + y);
        self.push_op(v, &[a, b], || {
            Box::new(|g, _, _, pool| vec![pool.alloc_copy(g), pool.alloc_copy(g)])
        })
    }

    /// Sum of several same-shape tensors (n-ary [`Graph::add`], used for
    /// neighbourhood aggregation).
    pub fn sum_vars(&mut self, xs: &[VarId]) -> VarId {
        assert!(!xs.is_empty(), "sum_vars: empty input");
        let mut v = self.pool.alloc_copy(&self.nodes[xs[0]].value);
        for &x in &xs[1..] {
            let xv = &self.nodes[x].value;
            assert_eq!(v.shape(), xv.shape(), "sum_vars: shape mismatch");
            for (o, &s) in v.data_mut().iter_mut().zip(xv.data()) {
                *o += s;
            }
        }
        let n = xs.len();
        self.push_op(v, xs, || {
            Box::new(move |g, _, _, pool| (0..n).map(|_| pool.alloc_copy(g)).collect())
        })
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let mut v = self.pool.alloc(self.nodes[a].value.shape());
        zip_into(&mut v, &self.nodes[a].value, &self.nodes[b].value, |x, y| x - y);
        self.push_op(v, &[a, b], || {
            Box::new(|g, _, _, pool| {
                let da = pool.alloc_copy(g);
                let mut db = pool.alloc(g.shape());
                map_into(&mut db, g, |x| -x);
                vec![da, db]
            })
        })
    }

    /// Hadamard product `a ⊙ b` (same shape) — Eq. (7) of the paper.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let mut v = self.pool.alloc(self.nodes[a].value.shape());
        zip_into(&mut v, &self.nodes[a].value, &self.nodes[b].value, |x, y| x * y);
        self.push_op(v, &[a, b], || {
            Box::new(|g, inputs, _, pool| {
                let mut da = pool.alloc(g.shape());
                zip_into(&mut da, g, inputs[1], |gv, y| gv * y);
                let mut db = pool.alloc(g.shape());
                zip_into(&mut db, g, inputs[0], |gv, x| gv * x);
                vec![da, db]
            })
        })
    }

    /// Multiply by a compile-time scalar constant.
    pub fn scale(&mut self, a: VarId, alpha: f32) -> VarId {
        let mut v = self.pool.alloc(self.nodes[a].value.shape());
        map_into(&mut v, &self.nodes[a].value, |x| x * alpha);
        self.push_op(v, &[a], || {
            Box::new(move |g, _, _, pool| {
                let mut dx = pool.alloc(g.shape());
                map_into(&mut dx, g, |x| x * alpha);
                vec![dx]
            })
        })
    }

    /// Elementwise multiply by a constant tensor (dropout masks, padding masks).
    pub fn mul_const(&mut self, a: VarId, mask: Tensor) -> VarId {
        let mut v = self.pool.alloc(self.nodes[a].value.shape());
        zip_into(&mut v, &self.nodes[a].value, &mask, |x, m| x * m);
        self.push_op(v, &[a], || {
            Box::new(move |g, _, _, pool| {
                let mut dx = pool.alloc(g.shape());
                zip_into(&mut dx, g, &mask, |gv, m| gv * m);
                vec![dx]
            })
        })
    }

    /// Broadcast-multiply tensor `x` by the 1-element tensor `s` —
    /// used for attention-weighted aggregation `α_{u,v} · CAU(·)`.
    pub fn mul_scalar(&mut self, x: VarId, s: VarId) -> VarId {
        assert_eq!(self.nodes[s].value.len(), 1, "mul_scalar: s must be scalar");
        let sv = self.nodes[s].value.data()[0];
        let mut v = self.pool.alloc(self.nodes[x].value.shape());
        map_into(&mut v, &self.nodes[x].value, |x| x * sv);
        self.push_op(v, &[x, s], || {
            Box::new(|g, inputs, _, pool| {
                let s = inputs[1].data()[0];
                let mut dx = pool.alloc(g.shape());
                map_into(&mut dx, g, |gv| gv * s);
                let mut dot = 0.0;
                for (&gv, &xv) in g.data().iter().zip(inputs[0].data()) {
                    dot += gv * xv;
                }
                let ds = pool.alloc_full(&[1], dot);
                vec![dx, ds]
            })
        })
    }

    /// Broadcast-add a bias `b: [c]` (or `[1, c]`) to every row of `x: [r, c]`.
    pub fn add_bias(&mut self, x: VarId, b: VarId) -> VarId {
        let mut v = self.pool.alloc(self.nodes[x].value.shape());
        {
            let xv = &self.nodes[x].value;
            let bv = &self.nodes[b].value;
            let c = xv.cols();
            assert_eq!(bv.len(), c, "add_bias: bias len {} != cols {}", bv.len(), c);
            for (o_row, x_row) in v.data_mut().chunks_mut(c).zip(xv.data().chunks(c)) {
                for ((o, &x), &bvv) in o_row.iter_mut().zip(x_row).zip(bv.data()) {
                    *o = x + bvv;
                }
            }
        }
        self.push_op(v, &[x, b], || {
            Box::new(|g, inputs, _, pool| {
                let c = g.cols();
                let dx = pool.alloc_copy(g);
                let mut db = pool.alloc_zeroed(inputs[1].shape());
                for g_row in g.data().chunks(c) {
                    for (d, &gv) in db.data_mut().iter_mut().zip(g_row) {
                        *d += gv;
                    }
                }
                vec![dx, db]
            })
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra ops
    // ------------------------------------------------------------------

    /// Matrix product `a[m,k] @ b[k,n]`, via the blocked kernel. Backward
    /// computes `dB` with the axpy-style `matmul_tn_into` kernel and `dA`
    /// via a pooled scratch transpose plus the blocked kernel.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let (m, k) = {
            let av = &self.nodes[a].value;
            (av.rows(), av.cols())
        };
        let (k2, n) = {
            let bv = &self.nodes[b].value;
            (bv.rows(), bv.cols())
        };
        assert_eq!(k, k2, "matmul: inner dims differ [{m},{k}] x [{k2},{n}]");
        let mut v = self.pool.alloc(&[m, n]);
        kernels::matmul_into(
            self.nodes[a].value.data(),
            self.nodes[b].value.data(),
            m,
            k,
            n,
            v.data_mut(),
        );
        self.push_op(v, &[a, b], || {
            Box::new(|g, inputs, _, pool| {
                let (a, b) = (inputs[0], inputs[1]);
                let (m, k) = (a.rows(), a.cols());
                let n = b.cols();
                // dA = G Bᵀ through a pooled transpose + the blocked kernel
                // (axpy-style inner loops beat per-element dots here).
                let mut bt = pool.alloc(&[n, k]);
                kernels::transpose_into(b.data(), k, n, bt.data_mut());
                let mut da = pool.alloc(&[m, k]);
                kernels::matmul_into(g.data(), bt.data(), m, n, k, da.data_mut());
                pool.recycle(bt);
                let mut db = pool.alloc(&[k, n]);
                kernels::matmul_tn_into(a.data(), g.data(), m, k, n, db.data_mut());
                vec![da, db]
            })
        })
    }

    /// Fused dense layer `act(x[m,k] @ w[k,n] (+ b))` as **one** tape node:
    /// matmul, bias broadcast and activation collapse into a single kernel
    /// dispatch, and the backward pass reads the activation derivative off
    /// the stored output (all [`Activation`]s are output-expressible).
    pub fn linear(&mut self, x: VarId, w: VarId, b: Option<VarId>, act: Activation) -> VarId {
        let (m, k) = {
            let xv = &self.nodes[x].value;
            (xv.rows(), xv.cols())
        };
        let (k2, n) = {
            let wv = &self.nodes[w].value;
            (wv.rows(), wv.cols())
        };
        assert_eq!(k, k2, "linear: inner dims differ [{m},{k}] x [{k2},{n}]");
        if let Some(bid) = b {
            assert_eq!(self.nodes[bid].value.len(), n, "linear: bias len != out dim {n}");
        }
        let mut v = self.pool.alloc(&[m, n]);
        kernels::matmul_into(
            self.nodes[x].value.data(),
            self.nodes[w].value.data(),
            m,
            k,
            n,
            v.data_mut(),
        );
        // Epilogue: bias + activation in one sweep.
        match b {
            Some(bid) => {
                let bv = &self.nodes[bid].value;
                for o_row in v.data_mut().chunks_mut(n) {
                    for (o, &bvv) in o_row.iter_mut().zip(bv.data()) {
                        *o = act.apply(*o + bvv);
                    }
                }
            }
            None => {
                if act != Activation::Identity {
                    for o in v.data_mut().iter_mut() {
                        *o = act.apply(*o);
                    }
                }
            }
        }
        let has_bias = b.is_some();
        let parents_arr = [x, w, b.unwrap_or(0)];
        let parents = &parents_arr[..if has_bias { 3 } else { 2 }];
        self.push_op(v, parents, || {
            Box::new(move |g, inputs, out, pool| {
                let (x, w) = (inputs[0], inputs[1]);
                let (m, k) = (x.rows(), x.cols());
                let n = w.cols();
                // Gradient at the pre-activation output.
                let mut dpre_t: Option<Tensor> = None;
                let dpre: &Tensor = if act == Activation::Identity {
                    g
                } else {
                    let mut t = pool.alloc(g.shape());
                    zip_into(&mut t, g, out, |gv, y| gv * act.grad_from_output(y));
                    dpre_t.insert(t)
                };
                let mut wt = pool.alloc(&[n, k]);
                kernels::transpose_into(w.data(), k, n, wt.data_mut());
                let mut dx = pool.alloc(&[m, k]);
                kernels::matmul_into(dpre.data(), wt.data(), m, n, k, dx.data_mut());
                pool.recycle(wt);
                let mut dw = pool.alloc(&[k, n]);
                kernels::matmul_tn_into(x.data(), dpre.data(), m, k, n, dw.data_mut());
                let mut contributions = vec![dx, dw];
                if has_bias {
                    let mut db = pool.alloc_zeroed(inputs[2].shape());
                    for row in dpre.data().chunks(n) {
                        for (d, &gv) in db.data_mut().iter_mut().zip(row) {
                            *d += gv;
                        }
                    }
                    contributions.push(db);
                }
                if let Some(t) = dpre_t {
                    pool.recycle(t);
                }
                contributions
            })
        })
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let (m, n) = {
            let av = &self.nodes[a].value;
            (av.rows(), av.cols())
        };
        let mut v = self.pool.alloc(&[n, m]);
        kernels::transpose_into(self.nodes[a].value.data(), m, n, v.data_mut());
        self.push_op(v, &[a], || {
            Box::new(|g, _, _, pool| {
                let (m, n) = (g.rows(), g.cols());
                let mut dx = pool.alloc(&[n, m]);
                kernels::transpose_into(g.data(), m, n, dx.data_mut());
                vec![dx]
            })
        })
    }

    /// Reshape (free reinterpretation of the buffer).
    pub fn reshape(&mut self, a: VarId, shape: Vec<usize>) -> VarId {
        let old_shape = self.nodes[a].value.shape().to_vec();
        let v = self.pool.alloc_from_slice(&shape, self.nodes[a].value.data());
        self.push_op(v, &[a], || {
            Box::new(move |g, _, _, pool| vec![pool.alloc_from_slice(&old_shape, g.data())])
        })
    }

    /// Concatenate rank-2 tensors along columns — the `||` operator of Eqs
    /// (4)-(6).
    pub fn concat_cols(&mut self, xs: &[VarId]) -> VarId {
        assert!(!xs.is_empty(), "concat_cols: no parts");
        let rows = self.nodes[xs[0]].value.rows();
        let widths: Vec<usize> = xs
            .iter()
            .map(|&x| {
                let p = &self.nodes[x].value;
                assert_eq!(p.rows(), rows, "concat_cols: row mismatch");
                p.cols()
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut v = self.pool.alloc(&[rows, total]);
        {
            let out = v.data_mut();
            for r in 0..rows {
                let mut offset = r * total;
                for &x in xs {
                    let row = self.nodes[x].value.row(r);
                    out[offset..offset + row.len()].copy_from_slice(row);
                    offset += row.len();
                }
            }
        }
        self.push_op(v, xs, || {
            Box::new(move |g, _, _, pool| {
                let rows = g.rows();
                let total = g.cols();
                let mut out = Vec::with_capacity(widths.len());
                let mut offset = 0;
                for &w in &widths {
                    let mut piece = pool.alloc(&[rows, w]);
                    for r in 0..rows {
                        let src = &g.data()[r * total + offset..r * total + offset + w];
                        piece.data_mut()[r * w..(r + 1) * w].copy_from_slice(src);
                    }
                    out.push(piece);
                    offset += w;
                }
                out
            })
        })
    }

    /// Mean over rows of `x: [r, c]`, producing `[1, c]` (readout pooling).
    pub fn mean_rows(&mut self, x: VarId) -> VarId {
        let (rows, cols) = {
            let xv = &self.nodes[x].value;
            (xv.rows(), xv.cols())
        };
        let mut v = self.pool.alloc_zeroed(&[1, cols]);
        {
            let inv = 1.0 / rows as f32;
            let out = v.data_mut();
            for row in self.nodes[x].value.data().chunks(cols) {
                for (o, &xv) in out.iter_mut().zip(row) {
                    *o += xv * inv;
                }
            }
        }
        self.push_op(v, &[x], || {
            Box::new(move |g, _, _, pool| {
                let mut dx = pool.alloc(&[rows, cols]);
                let inv = 1.0 / rows as f32;
                for dx_row in dx.data_mut().chunks_mut(cols) {
                    for (d, &gv) in dx_row.iter_mut().zip(g.data()) {
                        *d = gv * inv;
                    }
                }
                vec![dx]
            })
        })
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Pointwise activation as one tape node; the backward pass evaluates
    /// the derivative from the stored output.
    fn activation(&mut self, a: VarId, act: Activation) -> VarId {
        let mut v = self.pool.alloc(self.nodes[a].value.shape());
        map_into(&mut v, &self.nodes[a].value, |x| act.apply(x));
        self.push_op(v, &[a], || {
            Box::new(move |g, _, out, pool| {
                let mut dx = pool.alloc(g.shape());
                zip_into(&mut dx, g, out, |gv, y| gv * act.grad_from_output(y));
                vec![dx]
            })
        })
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        self.activation(a, Activation::Relu)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.activation(a, Activation::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.activation(a, Activation::Tanh)
    }

    // ------------------------------------------------------------------
    // Convolution & attention ops
    // ------------------------------------------------------------------

    /// Differentiable 1-D convolution along the time axis. `x: [T, c_in]`,
    /// `w: [k, c_in, c_out]`, optional `b: [c_out]`. Equivalent to
    /// [`Graph::conv1d_act`] with [`Activation::Identity`].
    pub fn conv1d(&mut self, x: VarId, w: VarId, b: Option<VarId>, pad: PadMode) -> VarId {
        self.conv1d_act(x, w, b, pad, Activation::Identity)
    }

    /// Fused 1-D convolution + bias + activation as **one** tape node,
    /// dispatched to [`kernels::conv1d_fused_into`]. The backward pass
    /// multiplies the upstream gradient by the activation derivative (read
    /// off the stored output) before running the convolution backward
    /// kernel.
    pub fn conv1d_act(
        &mut self,
        x: VarId,
        w: VarId,
        b: Option<VarId>,
        pad: PadMode,
        act: Activation,
    ) -> VarId {
        let (t_len, c_in) = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 2, "conv1d: x must be [T, c_in]");
            (xv.shape()[0], xv.shape()[1])
        };
        let (kw, wc_in, c_out) = {
            let wv = &self.nodes[w].value;
            assert_eq!(wv.shape().len(), 3, "conv1d: w must be [k, c_in, c_out]");
            (wv.shape()[0], wv.shape()[1], wv.shape()[2])
        };
        assert_eq!(c_in, wc_in, "conv1d: channel mismatch x has {c_in}, w has {wc_in}");
        let mut v = self.pool.alloc(&[t_len, c_out]);
        kernels::conv1d_fused_into(
            self.nodes[x].value.data(),
            self.nodes[w].value.data(),
            b.map(|bid| self.nodes[bid].value.data()),
            t_len,
            c_in,
            c_out,
            kw,
            pad,
            act,
            v.data_mut(),
        );
        let has_bias = b.is_some();
        let parents_arr = [x, w, b.unwrap_or(0)];
        let parents = &parents_arr[..if has_bias { 3 } else { 2 }];
        self.push_op(v, parents, || {
            Box::new(move |g, inputs, out, pool| {
                let (x, w) = (inputs[0], inputs[1]);
                let (t_len, c_in) = (x.shape()[0], x.shape()[1]);
                let (kw, c_out) = (w.shape()[0], w.shape()[2]);
                let mut dpre_t: Option<Tensor> = None;
                let dpre: &Tensor = if act == Activation::Identity {
                    g
                } else {
                    let mut t = pool.alloc(g.shape());
                    zip_into(&mut t, g, out, |gv, y| gv * act.grad_from_output(y));
                    dpre_t.insert(t)
                };
                let mut dx = pool.alloc(&[t_len, c_in]);
                let mut dw = pool.alloc(&[kw, c_in, c_out]);
                let mut db = pool.alloc(&[c_out]);
                kernels::conv1d_backward_into(
                    x.data(),
                    w.data(),
                    dpre.data(),
                    t_len,
                    c_in,
                    c_out,
                    kw,
                    pad,
                    dx.data_mut(),
                    dw.data_mut(),
                    db.data_mut(),
                );
                if let Some(t) = dpre_t {
                    pool.recycle(t);
                }
                if has_bias {
                    vec![dx, dw, db]
                } else {
                    pool.recycle(db);
                    vec![dx, dw]
                }
            })
        })
    }

    /// Fused attention scores `scale · q kᵀ + mask` as one tape node —
    /// the `Q Kᵀ / √C + M` of the CAU without separate transpose, scale or
    /// mask tape nodes (`kᵀ` lives only in a pooled scratch inside the
    /// kernel). `q: [t_q, c]`, `k: [t_k, c]`, `mask: [t_q, t_k]` additive
    /// (no gradient flows through it).
    pub fn attention_scores(
        &mut self,
        q: VarId,
        k: VarId,
        scale: f32,
        mask: Option<&Tensor>,
    ) -> VarId {
        let (t_q, c) = {
            let qv = &self.nodes[q].value;
            (qv.rows(), qv.cols())
        };
        let (t_k, c2) = {
            let kv = &self.nodes[k].value;
            (kv.rows(), kv.cols())
        };
        assert_eq!(c, c2, "attention_scores: channel mismatch {c} vs {c2}");
        if let Some(m) = mask {
            assert_eq!(m.shape(), &[t_q, t_k], "attention_scores: mask must be [{t_q},{t_k}]");
        }
        let mut v = self.pool.alloc(&[t_q, t_k]);
        let mut kt = self.pool.alloc(&[c, t_k]);
        kernels::attention_scores_into(
            self.nodes[q].value.data(),
            self.nodes[k].value.data(),
            t_q,
            t_k,
            c,
            scale,
            mask.map(|m| m.data()),
            kt.data_mut(),
            v.data_mut(),
        );
        self.pool.recycle(kt);
        self.push_op(v, &[q, k], || {
            Box::new(move |g, inputs, _, pool| {
                let (q, k) = (inputs[0], inputs[1]);
                let (t_q, c) = (q.rows(), q.cols());
                let t_k = k.rows();
                // dQ = scale · G K, dK = scale · Gᵀ Q.
                let mut dq = pool.alloc(&[t_q, c]);
                kernels::matmul_into(g.data(), k.data(), t_q, t_k, c, dq.data_mut());
                for x in dq.data_mut().iter_mut() {
                    *x *= scale;
                }
                let mut dk = pool.alloc(&[t_k, c]);
                kernels::matmul_tn_into(g.data(), q.data(), t_q, t_k, c, dk.data_mut());
                for x in dk.data_mut().iter_mut() {
                    *x *= scale;
                }
                vec![dq, dk]
            })
        })
    }

    // ------------------------------------------------------------------
    // Batched ops (leading batch dimension)
    // ------------------------------------------------------------------
    //
    // Batched tensors are rank-3 `[bt, r, c]`: `bt` same-shape rank-2
    // members stacked contiguously. Every batched op is **bit-identical**
    // per member to its per-request counterpart (same kernels, same
    // summation order), which is the contract `predict_batch_with`'s
    // parity proptests pin: batching changes how much work one tape node
    // amortises, never the arithmetic.

    /// Stack `bt` same-shape rank-2 tensors into one `[bt, r, c]` batch
    /// node (the glue that assembles per-request values for batched
    /// dispatch). Repeating a [`VarId`] is allowed; its gradient receives
    /// every copy's contribution.
    pub fn stack_rows(&mut self, xs: &[VarId]) -> VarId {
        assert!(!xs.is_empty(), "stack_rows: empty input");
        let shape = self.nodes[xs[0]].value.shape().to_vec();
        assert_eq!(shape.len(), 2, "stack_rows: members must be rank-2, got {shape:?}");
        let (r, c) = (shape[0], shape[1]);
        let mut v = self.pool.alloc(&[xs.len(), r, c]);
        for (i, &x) in xs.iter().enumerate() {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape(), &shape[..], "stack_rows: member {i} shape mismatch");
            v.data_mut()[i * r * c..(i + 1) * r * c].copy_from_slice(xv.data());
        }
        let bt = xs.len();
        self.push_op(v, xs, || {
            Box::new(move |g, _, _, pool| {
                (0..bt)
                    .map(|i| pool.alloc_from_slice(&[r, c], &g.data()[i * r * c..(i + 1) * r * c]))
                    .collect()
            })
        })
    }

    /// Extract member `i` of a `[bt, r, c]` batch node as a rank-2
    /// `[r, c]` tensor (the inverse glue: hands one request's result back
    /// to its per-request consumers).
    pub fn slice_batch(&mut self, x: VarId, i: usize) -> VarId {
        let (bt, r, c) = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 3, "slice_batch: expects [bt, r, c]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        assert!(i < bt, "slice_batch: member {i} out of {bt}");
        let v = self
            .pool
            .alloc_from_slice(&[r, c], &self.nodes[x].value.data()[i * r * c..(i + 1) * r * c]);
        self.push_op(v, &[x], || {
            Box::new(move |g, _, _, pool| {
                let mut dx = pool.alloc_zeroed(&[bt, r, c]);
                dx.data_mut()[i * r * c..(i + 1) * r * c].copy_from_slice(g.data());
                vec![dx]
            })
        })
    }

    /// Concatenate `[bt, r, cᵢ]` batch nodes along the last axis into
    /// `[bt, r, Σcᵢ]` — the batched counterpart of [`Graph::concat_cols`].
    /// Pure row-wise copies, so every member is bit-identical to running
    /// `concat_cols` on that member's rank-2 slices.
    pub fn concat_cols_batched(&mut self, xs: &[VarId]) -> VarId {
        assert!(!xs.is_empty(), "concat_cols_batched: no parts");
        let (bt, rows) = {
            let shape = self.nodes[xs[0]].value.shape();
            assert_eq!(shape.len(), 3, "concat_cols_batched: parts must be [bt, r, c]");
            (shape[0], shape[1])
        };
        let widths: Vec<usize> = xs
            .iter()
            .map(|&x| {
                let p = self.nodes[x].value.shape();
                assert_eq!(p.len(), 3, "concat_cols_batched: parts must be [bt, r, c]");
                assert_eq!((p[0], p[1]), (bt, rows), "concat_cols_batched: member mismatch");
                p[2]
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut v = self.pool.alloc(&[bt, rows, total]);
        {
            let out = v.data_mut();
            for r in 0..bt * rows {
                let mut offset = r * total;
                for (&x, &w) in xs.iter().zip(&widths) {
                    let src = &self.nodes[x].value.data()[r * w..(r + 1) * w];
                    out[offset..offset + w].copy_from_slice(src);
                    offset += w;
                }
            }
        }
        self.push_op(v, xs, || {
            Box::new(move |g, _, _, pool| {
                let mut out = Vec::with_capacity(widths.len());
                let mut offset = 0;
                for &w in &widths {
                    let mut piece = pool.alloc(&[bt, rows, w]);
                    for r in 0..bt * rows {
                        let src = &g.data()[r * total + offset..r * total + offset + w];
                        piece.data_mut()[r * w..(r + 1) * w].copy_from_slice(src);
                    }
                    out.push(piece);
                    offset += w;
                }
                out
            })
        })
    }

    /// Batched fused dense layer `act(x[bt,m,k] @ w[k,n] (+ b))` as one
    /// tape node and one blocked GEMM. Per member this is bit-identical to
    /// [`Graph::linear`] (the GEMM computes rows independently, and the
    /// bias/activation epilogue is elementwise).
    pub fn linear_batched(
        &mut self,
        x: VarId,
        w: VarId,
        b: Option<VarId>,
        act: Activation,
    ) -> VarId {
        let (bt, m, k) = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 3, "linear_batched: x must be [bt, m, k]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        let (k2, n) = {
            let wv = &self.nodes[w].value;
            (wv.rows(), wv.cols())
        };
        assert_eq!(k, k2, "linear_batched: inner dims differ [{bt},{m},{k}] x [{k2},{n}]");
        if let Some(bid) = b {
            assert_eq!(self.nodes[bid].value.len(), n, "linear_batched: bias len != out dim {n}");
        }
        let mut v = self.pool.alloc(&[bt, m, n]);
        kernels::matmul_batched_into(
            self.nodes[x].value.data(),
            self.nodes[w].value.data(),
            bt,
            m,
            k,
            n,
            v.data_mut(),
        );
        match b {
            Some(bid) => {
                let bv = &self.nodes[bid].value;
                for o_row in v.data_mut().chunks_mut(n) {
                    for (o, &bvv) in o_row.iter_mut().zip(bv.data()) {
                        *o = act.apply(*o + bvv);
                    }
                }
            }
            None => {
                if act != Activation::Identity {
                    for o in v.data_mut().iter_mut() {
                        *o = act.apply(*o);
                    }
                }
            }
        }
        let has_bias = b.is_some();
        let parents_arr = [x, w, b.unwrap_or(0)];
        let parents = &parents_arr[..if has_bias { 3 } else { 2 }];
        self.push_op(v, parents, || {
            Box::new(move |g, inputs, out, pool| {
                let rows = bt * m;
                // Gradient at the pre-activation output.
                let mut dpre_t: Option<Tensor> = None;
                let dpre: &Tensor = if act == Activation::Identity {
                    g
                } else {
                    let mut t = pool.alloc(g.shape());
                    zip_into(&mut t, g, out, |gv, y| gv * act.grad_from_output(y));
                    dpre_t.insert(t)
                };
                let w = inputs[1];
                let mut wt = pool.alloc(&[n, k]);
                kernels::transpose_into(w.data(), k, n, wt.data_mut());
                let mut dx = pool.alloc(&[bt, m, k]);
                kernels::matmul_into(dpre.data(), wt.data(), rows, n, k, dx.data_mut());
                pool.recycle(wt);
                let mut dw = pool.alloc(&[k, n]);
                kernels::matmul_tn_into(inputs[0].data(), dpre.data(), rows, k, n, dw.data_mut());
                let mut contributions = vec![dx, dw];
                if has_bias {
                    let mut db = pool.alloc_zeroed(inputs[2].shape());
                    for row in dpre.data().chunks(n) {
                        for (d, &gv) in db.data_mut().iter_mut().zip(row) {
                            *d += gv;
                        }
                    }
                    contributions.push(db);
                }
                if let Some(t) = dpre_t {
                    pool.recycle(t);
                }
                contributions
            })
        })
    }

    /// Strided batched matmul `x: [bt, m, k] @ y: [bt, k, n] → [bt, m, n]`
    /// where **both** operands differ per member (e.g. `attn @ V`). Each
    /// member dispatches to the blocked kernel — bit-identical per member
    /// to [`Graph::matmul`].
    pub fn matmul_strided(&mut self, x: VarId, y: VarId) -> VarId {
        self.matmul_strided_impl(x, y, false)
    }

    /// [`Graph::matmul_strided`] for a **causal-probability** left operand:
    /// every `x` member is square with an exactly-zero strict upper
    /// triangle (e.g. the output of
    /// [`Graph::attention_probs_causal_batched`]), so the forward pass
    /// dispatches to [`kernels::matmul_tri_lower_into`] — bit-identical,
    /// roughly half the MACs. The backward pass is the full strided one.
    pub fn matmul_strided_tri(&mut self, x: VarId, y: VarId) -> VarId {
        self.matmul_strided_impl(x, y, true)
    }

    fn matmul_strided_impl(&mut self, x: VarId, y: VarId, tri: bool) -> VarId {
        let (bt, m, k) = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 3, "matmul_strided: x must be [bt, m, k]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        let (bt2, k2, n) = {
            let yv = &self.nodes[y].value;
            assert_eq!(yv.shape().len(), 3, "matmul_strided: y must be [bt, k, n]");
            (yv.shape()[0], yv.shape()[1], yv.shape()[2])
        };
        assert_eq!(bt, bt2, "matmul_strided: batch mismatch {bt} vs {bt2}");
        assert_eq!(k, k2, "matmul_strided: inner dims differ");
        if tri {
            assert_eq!(m, k, "matmul_strided_tri: left members must be square, got [{m},{k}]");
        }
        let mut v = self.pool.alloc(&[bt, m, n]);
        if tri {
            for i in 0..bt {
                kernels::matmul_tri_lower_into(
                    &self.nodes[x].value.data()[i * m * k..(i + 1) * m * k],
                    &self.nodes[y].value.data()[i * k * n..(i + 1) * k * n],
                    m,
                    n,
                    &mut v.data_mut()[i * m * n..(i + 1) * m * n],
                );
            }
        } else {
            kernels::matmul_strided_into(
                self.nodes[x].value.data(),
                self.nodes[y].value.data(),
                bt,
                m,
                k,
                n,
                v.data_mut(),
            );
        }
        self.push_op(v, &[x, y], || {
            Box::new(move |g, inputs, _, pool| {
                let (x, y) = (inputs[0], inputs[1]);
                let mut dx = pool.alloc(&[bt, m, k]);
                let mut dy = pool.alloc(&[bt, k, n]);
                let mut yt = pool.alloc(&[n, k]);
                for i in 0..bt {
                    let gseg = &g.data()[i * m * n..(i + 1) * m * n];
                    // dX_b = G_b Y_bᵀ via a pooled transpose + blocked GEMM.
                    kernels::transpose_into(
                        &y.data()[i * k * n..(i + 1) * k * n],
                        k,
                        n,
                        yt.data_mut(),
                    );
                    kernels::matmul_into(
                        gseg,
                        yt.data(),
                        m,
                        n,
                        k,
                        &mut dx.data_mut()[i * m * k..(i + 1) * m * k],
                    );
                    // dY_b = X_bᵀ G_b.
                    kernels::matmul_tn_into(
                        &x.data()[i * m * k..(i + 1) * m * k],
                        gseg,
                        m,
                        k,
                        n,
                        &mut dy.data_mut()[i * k * n..(i + 1) * k * n],
                    );
                }
                pool.recycle(yt);
                vec![dx, dy]
            })
        })
    }

    /// Batched fused attention scores with a **shared query**:
    /// `out[b] = scale · (q @ k[b]ᵀ) + mask` for `q: [t_q, c]`,
    /// `k: [bt, t_k, c]`, `out: [bt, t_q, t_k]`. One tape node per batch
    /// instead of per pair; each member runs the same fused kernel as
    /// [`Graph::attention_scores`], so values are bit-identical per member.
    pub fn attention_scores_batched(
        &mut self,
        q: VarId,
        k: VarId,
        scale: f32,
        mask: Option<&Tensor>,
    ) -> VarId {
        let (t_q, c) = {
            let qv = &self.nodes[q].value;
            (qv.rows(), qv.cols())
        };
        let (bt, t_k, c2) = {
            let kv = &self.nodes[k].value;
            assert_eq!(kv.shape().len(), 3, "attention_scores_batched: k must be [bt, t_k, c]");
            (kv.shape()[0], kv.shape()[1], kv.shape()[2])
        };
        assert_eq!(c, c2, "attention_scores_batched: channel mismatch {c} vs {c2}");
        if let Some(m) = mask {
            assert_eq!(m.shape(), &[t_q, t_k], "attention_scores_batched: bad mask shape");
        }
        let mut v = self.pool.alloc(&[bt, t_q, t_k]);
        let mut kt = self.pool.alloc(&[c, t_k]);
        for i in 0..bt {
            kernels::attention_scores_into(
                self.nodes[q].value.data(),
                &self.nodes[k].value.data()[i * t_k * c..(i + 1) * t_k * c],
                t_q,
                t_k,
                c,
                scale,
                mask.map(|m| m.data()),
                kt.data_mut(),
                &mut v.data_mut()[i * t_q * t_k..(i + 1) * t_q * t_k],
            );
        }
        self.pool.recycle(kt);
        self.push_op(v, &[q, k], || {
            Box::new(move |g, inputs, _, pool| {
                let (q, k) = (inputs[0], inputs[1]);
                let mut dq = pool.alloc_zeroed(&[t_q, c]);
                let mut dk = pool.alloc(&[bt, t_k, c]);
                let mut seg = pool.alloc(&[t_q, c]);
                for i in 0..bt {
                    let gseg = &g.data()[i * t_q * t_k..(i + 1) * t_q * t_k];
                    let kseg = &k.data()[i * t_k * c..(i + 1) * t_k * c];
                    // dQ += scale · G_b K_b (shared query accumulates).
                    kernels::matmul_into(gseg, kseg, t_q, t_k, c, seg.data_mut());
                    for (d, &s) in dq.data_mut().iter_mut().zip(seg.data()) {
                        *d += scale * s;
                    }
                    // dK_b = scale · G_bᵀ Q.
                    let dkseg = &mut dk.data_mut()[i * t_k * c..(i + 1) * t_k * c];
                    kernels::matmul_tn_into(gseg, q.data(), t_q, t_k, c, dkseg);
                    for x in dkseg.iter_mut() {
                        *x *= scale;
                    }
                }
                pool.recycle(seg);
                vec![dq, dk]
            })
        })
    }

    /// Batched **fused causal attention probabilities** with a shared
    /// query: `out[b] = softmax_rows(scale · (q @ k[b]ᵀ) + M_causal)` in
    /// one tape node, dispatched to
    /// [`kernels::attention_probs_causal_into`]. Bit-identical per member
    /// to [`Graph::attention_scores`] with the causal mask followed by
    /// [`Graph::softmax_rows`] — but the masked upper triangle is never
    /// computed, which roughly halves the scores + softmax cost.
    pub fn attention_probs_causal_batched(&mut self, q: VarId, k: VarId, scale: f32) -> VarId {
        let (t, c) = {
            let qv = &self.nodes[q].value;
            (qv.rows(), qv.cols())
        };
        let (bt, t_k, c2) = {
            let kv = &self.nodes[k].value;
            assert_eq!(kv.shape().len(), 3, "attention_probs_causal: k must be [bt, t, c]");
            (kv.shape()[0], kv.shape()[1], kv.shape()[2])
        };
        assert_eq!(t, t_k, "attention_probs_causal: square attention needs t_q == t_k");
        assert_eq!(c, c2, "attention_probs_causal: channel mismatch {c} vs {c2}");
        let mut v = self.pool.alloc(&[bt, t, t]);
        let mut kt = self.pool.alloc(&[c, t]);
        for i in 0..bt {
            kernels::attention_probs_causal_into(
                self.nodes[q].value.data(),
                &self.nodes[k].value.data()[i * t * c..(i + 1) * t * c],
                t,
                c,
                scale,
                kt.data_mut(),
                &mut v.data_mut()[i * t * t..(i + 1) * t * t],
            );
        }
        self.pool.recycle(kt);
        self.push_op(v, &[q, k], || {
            Box::new(move |g, inputs, out, pool| {
                let (q, k) = (inputs[0], inputs[1]);
                let mut dq = pool.alloc_zeroed(&[t, c]);
                let mut dk = pool.alloc(&[bt, t, c]);
                let mut ds = pool.alloc(&[t, t]);
                let mut seg = pool.alloc(&[t, c]);
                for i in 0..bt {
                    let gseg = &g.data()[i * t * t..(i + 1) * t * t];
                    let pseg = &out.data()[i * t * t..(i + 1) * t * t];
                    // Softmax-rows backward: dS = P ∘ (G − Σ_j G P). Masked
                    // positions have P = 0, so dS vanishes there.
                    for r in 0..t {
                        let g_row = &gseg[r * t..(r + 1) * t];
                        let p_row = &pseg[r * t..(r + 1) * t];
                        let mut dot = 0.0;
                        for (&gv, &pv) in g_row.iter().zip(p_row) {
                            dot += gv * pv;
                        }
                        for (d, (&gv, &pv)) in ds.data_mut()[r * t..(r + 1) * t]
                            .iter_mut()
                            .zip(g_row.iter().zip(p_row))
                        {
                            *d = pv * (gv - dot);
                        }
                    }
                    let kseg = &k.data()[i * t * c..(i + 1) * t * c];
                    // dQ += scale · dS K_b; dK_b = scale · dSᵀ Q.
                    kernels::matmul_into(ds.data(), kseg, t, t, c, seg.data_mut());
                    for (d, &s) in dq.data_mut().iter_mut().zip(seg.data()) {
                        *d += scale * s;
                    }
                    let dkseg = &mut dk.data_mut()[i * t * c..(i + 1) * t * c];
                    kernels::matmul_tn_into(ds.data(), q.data(), t, t, c, dkseg);
                    for x in dkseg.iter_mut() {
                        *x *= scale;
                    }
                }
                pool.recycle(ds);
                pool.recycle(seg);
                vec![dq, dk]
            })
        })
    }

    /// Batched fused 1-D convolution + bias + activation over a
    /// `[bt, T, c_in]` batch: each member runs
    /// [`kernels::conv1d_fused_into`] on its own time axis (no leakage
    /// across members), so values are bit-identical per member to
    /// [`Graph::conv1d_act`], while the whole batch is one tape node and
    /// one weight bind.
    pub fn conv1d_act_batched(
        &mut self,
        x: VarId,
        w: VarId,
        b: Option<VarId>,
        pad: PadMode,
        act: Activation,
    ) -> VarId {
        let (bt, t_len, c_in) = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 3, "conv1d_act_batched: x must be [bt, T, c_in]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        let (kw, wc_in, c_out) = {
            let wv = &self.nodes[w].value;
            assert_eq!(wv.shape().len(), 3, "conv1d_act_batched: w must be [k, c_in, c_out]");
            (wv.shape()[0], wv.shape()[1], wv.shape()[2])
        };
        assert_eq!(c_in, wc_in, "conv1d_act_batched: channel mismatch {c_in} vs {wc_in}");
        let mut v = self.pool.alloc(&[bt, t_len, c_out]);
        kernels::conv1d_fused_batched_into(
            self.nodes[x].value.data(),
            self.nodes[w].value.data(),
            b.map(|bid| self.nodes[bid].value.data()),
            bt,
            t_len,
            c_in,
            c_out,
            kw,
            pad,
            act,
            v.data_mut(),
        );
        let has_bias = b.is_some();
        let parents_arr = [x, w, b.unwrap_or(0)];
        let parents = &parents_arr[..if has_bias { 3 } else { 2 }];
        self.push_op(v, parents, || {
            Box::new(move |g, inputs, out, pool| {
                let (x, w) = (inputs[0], inputs[1]);
                let mut dpre_t: Option<Tensor> = None;
                let dpre: &Tensor = if act == Activation::Identity {
                    g
                } else {
                    let mut t = pool.alloc(g.shape());
                    zip_into(&mut t, g, out, |gv, y| gv * act.grad_from_output(y));
                    dpre_t.insert(t)
                };
                let mut dx = pool.alloc(&[bt, t_len, c_in]);
                let mut dw = pool.alloc_zeroed(&[kw, c_in, c_out]);
                let mut db = pool.alloc_zeroed(&[c_out]);
                let mut dw_seg = pool.alloc(&[kw, c_in, c_out]);
                let mut db_seg = pool.alloc(&[c_out]);
                for i in 0..bt {
                    kernels::conv1d_backward_into(
                        &x.data()[i * t_len * c_in..(i + 1) * t_len * c_in],
                        w.data(),
                        &dpre.data()[i * t_len * c_out..(i + 1) * t_len * c_out],
                        t_len,
                        c_in,
                        c_out,
                        kw,
                        pad,
                        &mut dx.data_mut()[i * t_len * c_in..(i + 1) * t_len * c_in],
                        dw_seg.data_mut(),
                        db_seg.data_mut(),
                    );
                    for (d, &s) in dw.data_mut().iter_mut().zip(dw_seg.data()) {
                        *d += s;
                    }
                    for (d, &s) in db.data_mut().iter_mut().zip(db_seg.data()) {
                        *d += s;
                    }
                }
                pool.recycle(dw_seg);
                pool.recycle(db_seg);
                if let Some(t) = dpre_t {
                    pool.recycle(t);
                }
                if has_bias {
                    vec![dx, dw, db]
                } else {
                    pool.recycle(db);
                    vec![dx, dw]
                }
            })
        })
    }

    /// Batched gated conv pair — the TEL pattern
    /// `ReLU(x ⋆ w_c + b_c) ⊙ σ(x ⋆ w_d + b_d)` as **one** kernel pass
    /// ([`kernels::conv1d_gate_batched_into`]): both banks fold each input
    /// element into register accumulators on a single walk, and the gate
    /// product runs as one flat map per member over the stashed
    /// pre-activations (the denoise half in a one-member pooled scratch),
    /// so no batch-sized pre-gate tensor is materialised on the tape.
    /// Elementwise bit-identical to the composition
    /// `mul(conv1d_act(x, w_c, b_c, Relu), conv1d_act(x, w_d, b_d, Sigmoid))`.
    ///
    /// Backward recomputes both pre-activation tensors (one Identity conv
    /// pass each — the trade for not storing them on the forward), then
    /// routes `gout · σ(d) · ReLU'` and `gout · ReLU(c) · σ'` through the
    /// standard conv backward, exactly as the unfused graph would.
    pub fn conv1d_gate_batched(
        &mut self,
        x: VarId,
        w_c: VarId,
        b_c: VarId,
        w_d: VarId,
        b_d: VarId,
        pad: PadMode,
    ) -> VarId {
        let (bt, t_len, c_in) = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 3, "conv1d_gate_batched: x must be [bt, T, c_in]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        let (kw, wc_in, c_out) = {
            let wv = &self.nodes[w_c].value;
            assert_eq!(wv.shape().len(), 3, "conv1d_gate_batched: w must be [k, c_in, c_out]");
            (wv.shape()[0], wv.shape()[1], wv.shape()[2])
        };
        assert_eq!(c_in, wc_in, "conv1d_gate_batched: channel mismatch {c_in} vs {wc_in}");
        assert_eq!(
            self.nodes[w_d].value.shape(),
            self.nodes[w_c].value.shape(),
            "conv1d_gate_batched: bank kernels must share geometry"
        );
        let mut v = self.pool.alloc(&[bt, t_len, c_out]);
        let mut den = self.pool.alloc(&[t_len, c_out]);
        kernels::conv1d_gate_batched_into(
            self.nodes[x].value.data(),
            self.nodes[w_c].value.data(),
            self.nodes[b_c].value.data(),
            self.nodes[w_d].value.data(),
            self.nodes[b_d].value.data(),
            bt,
            t_len,
            c_in,
            c_out,
            kw,
            pad,
            den.data_mut(),
            v.data_mut(),
        );
        self.pool.recycle(den);
        self.push_op(v, &[x, w_c, b_c, w_d, b_d], || {
            Box::new(move |g, inputs, _, pool| {
                let (x, wc, bc, wd, bd) = (inputs[0], inputs[1], inputs[2], inputs[3], inputs[4]);
                // Recompute both pre-activation tensors.
                let mut pre_c = pool.alloc(g.shape());
                let mut pre_d = pool.alloc(g.shape());
                for (pre, w, b) in [(&mut pre_c, wc, bc), (&mut pre_d, wd, bd)] {
                    kernels::conv1d_fused_batched_into(
                        x.data(),
                        w.data(),
                        Some(b.data()),
                        bt,
                        t_len,
                        c_in,
                        c_out,
                        kw,
                        pad,
                        Activation::Identity,
                        pre.data_mut(),
                    );
                }
                // Gradients at each branch's pre-activation output.
                let mut dpre_c = pool.alloc(g.shape());
                let mut dpre_d = pool.alloc(g.shape());
                for i in 0..g.len() {
                    let gv = g.data()[i];
                    let cap = Activation::Relu.apply(pre_c.data()[i]);
                    let den = Activation::Sigmoid.apply(pre_d.data()[i]);
                    dpre_c.data_mut()[i] = gv * den * Activation::Relu.grad_from_output(cap);
                    dpre_d.data_mut()[i] = gv * cap * Activation::Sigmoid.grad_from_output(den);
                }
                pool.recycle(pre_c);
                pool.recycle(pre_d);
                let mut dx = pool.alloc_zeroed(&[bt, t_len, c_in]);
                let mut dwc = pool.alloc_zeroed(&[kw, c_in, c_out]);
                let mut dbc = pool.alloc_zeroed(&[c_out]);
                let mut dwd = pool.alloc_zeroed(&[kw, c_in, c_out]);
                let mut dbd = pool.alloc_zeroed(&[c_out]);
                let mut dx_seg = pool.alloc(&[t_len, c_in]);
                let mut dw_seg = pool.alloc(&[kw, c_in, c_out]);
                let mut db_seg = pool.alloc(&[c_out]);
                for (dpre, w, dw, db) in
                    [(&dpre_c, wc, &mut dwc, &mut dbc), (&dpre_d, wd, &mut dwd, &mut dbd)]
                {
                    for i in 0..bt {
                        kernels::conv1d_backward_into(
                            &x.data()[i * t_len * c_in..(i + 1) * t_len * c_in],
                            w.data(),
                            &dpre.data()[i * t_len * c_out..(i + 1) * t_len * c_out],
                            t_len,
                            c_in,
                            c_out,
                            kw,
                            pad,
                            dx_seg.data_mut(),
                            dw_seg.data_mut(),
                            db_seg.data_mut(),
                        );
                        let dst = &mut dx.data_mut()[i * t_len * c_in..(i + 1) * t_len * c_in];
                        for (d, &s) in dst.iter_mut().zip(dx_seg.data()) {
                            *d += s;
                        }
                        for (d, &s) in dw.data_mut().iter_mut().zip(dw_seg.data()) {
                            *d += s;
                        }
                        for (d, &s) in db.data_mut().iter_mut().zip(db_seg.data()) {
                            *d += s;
                        }
                    }
                }
                pool.recycle(dx_seg);
                pool.recycle(dw_seg);
                pool.recycle(db_seg);
                pool.recycle(dpre_c);
                pool.recycle(dpre_d);
                vec![dx, dwc, dbc, dwd, dbd]
            })
        })
    }

    /// Gather elements of a rank-1 vector by index: `out[i] = x[idx[i]]`
    /// (batched counterpart of [`Graph::index_vec`], e.g. per-edge-type
    /// bias lookups across a whole neighbour set). Backward scatter-adds.
    pub fn gather_vec(&mut self, x: VarId, idx: &[usize]) -> VarId {
        let n = {
            let xv = &self.nodes[x].value;
            assert_eq!(xv.shape().len(), 1, "gather_vec: expects rank-1");
            xv.len()
        };
        for &i in idx {
            assert!(i < n, "gather_vec: index {i} out of {n}");
        }
        let mut v = self.pool.alloc(&[idx.len()]);
        for (o, &i) in v.data_mut().iter_mut().zip(idx) {
            *o = self.nodes[x].value.data()[i];
        }
        let idx = idx.to_vec();
        self.push_op(v, &[x], || {
            Box::new(move |g, _, _, pool| {
                let mut dx = pool.alloc_zeroed(&[n]);
                for (&gv, &i) in g.data().iter().zip(&idx) {
                    dx.data_mut()[i] += gv;
                }
                vec![dx]
            })
        })
    }

    /// Row-wise softmax with an optional additive mask (entries of `-1e9`
    /// suppress positions — the `M` matrix of the CAU that blocks rightward
    /// attention).
    pub fn softmax_rows(&mut self, x: VarId, mask: Option<&Tensor>) -> VarId {
        let (rows, cols) = {
            let xv = &self.nodes[x].value;
            (xv.rows(), xv.cols())
        };
        let mut v = self.pool.alloc_copy(&self.nodes[x].value);
        if let Some(m) = mask {
            assert_eq!(m.shape(), v.shape(), "softmax mask shape mismatch");
            for (o, &mv) in v.data_mut().iter_mut().zip(m.data()) {
                *o += mv;
            }
        }
        for row in v.data_mut().chunks_mut(cols) {
            softmax_in_place(row);
        }
        self.push_op(v, &[x], || {
            Box::new(move |g, _, out, pool| {
                // dL/dx_j = s_j * (g_j - sum_k g_k s_k) per row.
                let mut dx = pool.alloc(&[rows, cols]);
                for ((dx_row, g_row), o_row) in dx
                    .data_mut()
                    .chunks_mut(cols)
                    .zip(g.data().chunks(cols))
                    .zip(out.data().chunks(cols))
                {
                    let mut dot = 0.0;
                    for (&gv, &ov) in g_row.iter().zip(o_row) {
                        dot += gv * ov;
                    }
                    for ((d, &gv), &ov) in dx_row.iter_mut().zip(g_row).zip(o_row) {
                        *d = ov * (gv - dot);
                    }
                }
                vec![dx]
            })
        })
    }

    /// Stack `n` scalar nodes into a `[n]` vector (attention logits over a
    /// neighbour set).
    pub fn stack_scalars(&mut self, xs: &[VarId]) -> VarId {
        let n = xs.len();
        let mut v = self.pool.alloc(&[n]);
        for (o, &x) in v.data_mut().iter_mut().zip(xs) {
            let t = &self.nodes[x].value;
            assert_eq!(t.len(), 1, "stack_scalars: non-scalar input of shape {:?}", t.shape());
            *o = t.data()[0];
        }
        self.push_op(v, xs, || {
            Box::new(move |g, _, _, pool| {
                (0..n).map(|i| pool.alloc_full(&[1], g.data()[i])).collect()
            })
        })
    }

    /// Softmax over a `[n]` vector (neighbour attention normalisation,
    /// Eq. for `α_{u,v}`).
    pub fn softmax_vec(&mut self, x: VarId) -> VarId {
        assert_eq!(self.nodes[x].value.shape().len(), 1, "softmax_vec: expects rank-1");
        let mut v = self.pool.alloc_copy(&self.nodes[x].value);
        softmax_in_place(v.data_mut());
        self.push_op(v, &[x], || {
            Box::new(|g, _, out, pool| {
                let mut dot = 0.0;
                for (gv, ov) in g.data().iter().zip(out.data()) {
                    dot += gv * ov;
                }
                let mut dx = pool.alloc(g.shape());
                zip_into(&mut dx, out, g, |o, gv| o * (gv - dot));
                vec![dx]
            })
        })
    }

    /// Extract element `i` of a rank-1 vector as a scalar node.
    pub fn index_vec(&mut self, x: VarId, i: usize) -> VarId {
        let xv = &self.nodes[x].value;
        assert_eq!(xv.shape().len(), 1, "index_vec: expects rank-1");
        let n = xv.len();
        assert!(i < n, "index_vec: {i} out of {n}");
        let value = xv.data()[i];
        let v = self.pool.alloc_full(&[1], value);
        self.push_op(v, &[x], || {
            Box::new(move |g, _, _, pool| {
                let mut dx = pool.alloc_zeroed(&[n]);
                dx.data_mut()[i] = g.data()[0];
                vec![dx]
            })
        })
    }

    /// Row-wise layer normalisation with affine parameters:
    /// `y = (x - mean_row) / sqrt(var_row + eps) * gamma + beta` for
    /// `x: [r, c]`, `gamma, beta: [c]`. Exact backward through the
    /// normalisation statistics.
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f32) -> VarId {
        let (rows, cols) = {
            let xv = &self.nodes[x].value;
            (xv.rows(), xv.cols())
        };
        assert_eq!(self.nodes[gamma].value.len(), cols, "layer_norm: gamma len");
        assert_eq!(self.nodes[beta].value.len(), cols, "layer_norm: beta len");
        let mut out = self.pool.alloc(&[rows, cols]);
        {
            let xv = &self.nodes[x].value;
            let gv = self.nodes[gamma].value.data();
            let bv = self.nodes[beta].value.data();
            for (o_row, row) in out.data_mut().chunks_mut(cols).zip(xv.data().chunks(cols)) {
                let mean: f32 = row.iter().sum::<f32>() / cols as f32;
                let var: f32 =
                    row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                let inv = 1.0 / (var + eps).sqrt();
                for (c, o) in o_row.iter_mut().enumerate() {
                    *o = (row[c] - mean) * inv * gv[c] + bv[c];
                }
            }
        }
        self.push_op(out, &[x, gamma, beta], || {
            Box::new(move |g, inputs, _, pool| {
                let x = inputs[0];
                let gamma = inputs[1];
                let (rows, cols) = (x.rows(), x.cols());
                let mut dx = pool.alloc(&[rows, cols]);
                let mut dgamma = pool.alloc_zeroed(&[cols]);
                let mut dbeta = pool.alloc_zeroed(&[cols]);
                // Per-row scratch, recycled after the loop.
                let mut xhat = pool.alloc(&[cols]);
                let mut gg = pool.alloc(&[cols]);
                for r in 0..rows {
                    let row = x.row(r);
                    let g_row = &g.data()[r * cols..(r + 1) * cols];
                    let mean: f32 = row.iter().sum::<f32>() / cols as f32;
                    let var: f32 =
                        row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                    let inv = 1.0 / (var + eps).sqrt();
                    for c in 0..cols {
                        xhat.data_mut()[c] = (row[c] - mean) * inv;
                        gg.data_mut()[c] = g_row[c] * gamma.data()[c];
                    }
                    let mean_gg: f32 = gg.data().iter().sum::<f32>() / cols as f32;
                    let mean_gg_xhat: f32 =
                        gg.data().iter().zip(xhat.data()).map(|(a, b)| a * b).sum::<f32>()
                            / cols as f32;
                    let dx_row = &mut dx.data_mut()[r * cols..(r + 1) * cols];
                    for c in 0..cols {
                        dx_row[c] = (gg.data()[c] - mean_gg - xhat.data()[c] * mean_gg_xhat) * inv;
                        dgamma.data_mut()[c] += g_row[c] * xhat.data()[c];
                        dbeta.data_mut()[c] += g_row[c];
                    }
                }
                pool.recycle(xhat);
                pool.recycle(gg);
                vec![dx, dgamma, dbeta]
            })
        })
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `[1]` tensor.
    pub fn sum_all(&mut self, x: VarId) -> VarId {
        let total = self.nodes[x].value.sum();
        let shape = self.nodes[x].value.shape().to_vec();
        let v = self.pool.alloc_full(&[1], total);
        self.push_op(v, &[x], || {
            Box::new(move |g, _, _, pool| vec![pool.alloc_full(&shape, g.data()[0])])
        })
    }

    /// Mean-squared-error loss against a constant target (Eq. 10).
    pub fn mse(&mut self, pred: VarId, target: &Tensor) -> VarId {
        let pv = &self.nodes[pred].value;
        assert_eq!(pv.shape(), target.shape(), "mse: shape mismatch");
        let n = pv.len() as f32;
        let mut sq = 0.0;
        for (&p, &t) in pv.data().iter().zip(target.data()) {
            sq += (p - t) * (p - t);
        }
        let v = self.pool.alloc_full(&[1], sq / n);
        let target = target.clone();
        self.push_op(v, &[pred], || {
            Box::new(move |g, inputs, _, pool| {
                let n = inputs[0].len() as f32;
                let scale = 2.0 * g.data()[0] / n;
                let mut dx = pool.alloc(inputs[0].shape());
                zip_into(&mut dx, inputs[0], &target, |p, t| (p - t) * scale);
                vec![dx]
            })
        })
    }

    // ------------------------------------------------------------------
    // Backward pass
    // ------------------------------------------------------------------

    /// Run reverse-mode differentiation from `root` (seeded with ones).
    /// Typically `root` is a scalar loss. Gradient buffers are drawn from
    /// and returned to the tape's pool, so repeat passes on a reset tape
    /// allocate nothing.
    ///
    /// # Panics
    /// Panics on a tape built with [`Graph::for_inference`] — forward-only
    /// tapes record no backward closures.
    pub fn backward(&mut self, root: VarId) {
        assert!(self.record, "Graph::backward called on a forward-only inference tape");
        // Reclaim the previous pass's gradient buffers, keep the Vec.
        let mut grads = std::mem::take(&mut self.grads);
        for grad in grads.drain(..).flatten() {
            self.pool.recycle(grad);
        }
        grads.resize_with(self.nodes.len(), || None);
        grads[root] = Some(self.pool.alloc_full(self.nodes[root].value.shape(), 1.0));
        let mut inputs: Vec<&Tensor> = Vec::new();
        for id in (0..=root).rev() {
            let Some(gout) = grads[id].take() else { continue };
            let node = &self.nodes[id];
            if let Some(backward) = &node.backward {
                inputs.clear();
                inputs.extend(node.parents.iter().map(|&p| &self.nodes[p].value));
                let contributions = backward(&gout, &inputs, &node.value, &mut self.pool);
                debug_assert_eq!(contributions.len(), node.parents.len());
                for (&p, dg) in node.parents.iter().zip(contributions) {
                    match &mut grads[p] {
                        Some(acc) => {
                            acc.add_assign_scaled(&dg, 1.0);
                            self.pool.recycle(dg);
                        }
                        slot => *slot = Some(dg),
                    }
                }
                self.pool.recycle(gout);
            } else {
                // Leaves keep their gradient for param harvesting.
                grads[id] = Some(gout);
            }
        }
        self.grads = grads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numeric gradient of `f` w.r.t. one leaf by central differences.
    fn numeric_grad(
        build: &dyn Fn(&mut Graph, &[Tensor]) -> VarId,
        inputs: &[Tensor],
        wrt: usize,
    ) -> Tensor {
        let eps = 1e-2f32;
        let mut grad = Tensor::zeros(inputs[wrt].shape().to_vec());
        for i in 0..inputs[wrt].len() {
            let mut plus = inputs.to_vec();
            plus[wrt].data_mut()[i] += eps;
            let mut minus = inputs.to_vec();
            minus[wrt].data_mut()[i] -= eps;
            let mut gp = Graph::new();
            let rp = build(&mut gp, &plus);
            let mut gm = Graph::new();
            let rm = build(&mut gm, &minus);
            grad.data_mut()[i] = (gp.value(rp).data()[0] - gm.value(rm).data()[0]) / (2.0 * eps);
        }
        grad
    }

    /// Check analytic vs numeric gradients for every input leaf.
    fn check(build: &dyn Fn(&mut Graph, &[Tensor]) -> VarId, inputs: &[Tensor], tol: f32) {
        let mut g = Graph::new();
        let root = build(&mut g, inputs);
        assert_eq!(g.value(root).len(), 1, "check expects a scalar output");
        g.backward(root);
        for (k, input) in inputs.iter().enumerate() {
            let numeric = numeric_grad(build, inputs, k);
            let analytic = g
                .param_grads()
                .find(|&(key, _)| key == k)
                .map(|(_, t)| t.clone())
                .unwrap_or_else(|| Tensor::zeros(input.shape().to_vec()));
            for i in 0..numeric.len() {
                let (a, n) = (analytic.data()[i], numeric.data()[i]);
                assert!(
                    (a - n).abs() < tol + 0.05 * n.abs(),
                    "input {k} elem {i}: analytic {a} vs numeric {n}"
                );
            }
        }
    }

    fn rand_inputs(shapes: &[Vec<usize>], seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        shapes.iter().map(|s| Tensor::randn(s.clone(), 0.7, &mut rng)).collect()
    }

    fn bind_all(g: &mut Graph, inputs: &[Tensor]) -> Vec<VarId> {
        inputs.iter().enumerate().map(|(k, t)| g.bind_param(k, t.clone())).collect()
    }

    #[test]
    fn grad_add_mul_chain() {
        let inputs = rand_inputs(&[vec![3, 2], vec![3, 2], vec![3, 2]], 1);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let s = g.add(v[0], v[1]);
                let p = g.mul(s, v[2]);
                g.sum_all(p)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        let inputs = rand_inputs(&[vec![3, 4], vec![4, 2]], 2);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let m = g.matmul(v[0], v[1]);
                g.sum_all(m)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_transpose_and_reshape() {
        let inputs = rand_inputs(&[vec![3, 4]], 3);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let t = g.transpose(v[0]);
                let r = g.reshape(t, vec![2, 6]);
                let rl = g.relu(r);
                g.sum_all(rl)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_nonlinearities() {
        let inputs = rand_inputs(&[vec![4, 3]], 4);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let s = g.sigmoid(v[0]);
                let t = g.tanh(s);
                let sq = g.mul(t, t);
                g.sum_all(sq)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_add_bias() {
        let inputs = rand_inputs(&[vec![4, 3], vec![3]], 5);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let y = g.add_bias(v[0], v[1]);
                let y = g.tanh(y);
                g.sum_all(y)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_concat_cols() {
        let inputs = rand_inputs(&[vec![3, 2], vec![3, 3]], 6);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let c = g.concat_cols(&[v[0], v[1]]);
                let s = g.sigmoid(c);
                g.sum_all(s)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_conv1d_same_and_causal() {
        for (seed, pad) in [(7, PadMode::Same), (8, PadMode::Causal)] {
            let inputs = rand_inputs(&[vec![6, 2], vec![3, 2, 2], vec![2]], seed);
            check(
                &|g, ins| {
                    let v = bind_all(g, ins);
                    let y = g.conv1d(v[0], v[1], Some(v[2]), pad);
                    let y = g.tanh(y);
                    g.sum_all(y)
                },
                &inputs,
                2e-2,
            );
        }
    }

    /// The fused conv+bias+activation node must match the unfused pipeline
    /// in value AND gradient for every activation.
    #[test]
    fn grad_conv1d_act_fused_matches_unfused() {
        for (seed, act) in
            [(14, Activation::Relu), (15, Activation::Sigmoid), (16, Activation::Tanh)]
        {
            let inputs = rand_inputs(&[vec![6, 2], vec![3, 2, 2], vec![2]], seed);
            // Gradient correctness of the fused node itself.
            check(
                &|g, ins| {
                    let v = bind_all(g, ins);
                    let y = g.conv1d_act(v[0], v[1], Some(v[2]), PadMode::Causal, act);
                    g.sum_all(y)
                },
                &inputs,
                2e-2,
            );
            // Value parity with the unfused pipeline.
            let mut g1 = Graph::new();
            let v1 = bind_all(&mut g1, &inputs);
            let y1 = g1.conv1d_act(v1[0], v1[1], Some(v1[2]), PadMode::Same, act);
            let mut g2 = Graph::new();
            let v2 = bind_all(&mut g2, &inputs);
            let conv = g2.conv1d(v2[0], v2[1], Some(v2[2]), PadMode::Same);
            let y2 = match act {
                Activation::Relu => g2.relu(conv),
                Activation::Sigmoid => g2.sigmoid(conv),
                Activation::Tanh => g2.tanh(conv),
                Activation::Identity => conv,
            };
            for (a, b) in g1.value(y1).data().iter().zip(g2.value(y2).data()) {
                assert!((a - b).abs() < 1e-5, "fused {act:?} diverged: {a} vs {b}");
            }
        }
    }

    /// The fused linear node (matmul+bias+activation) must match the
    /// unfused pipeline in value and pass the numeric gradient check.
    #[test]
    fn grad_linear_fused_matches_unfused() {
        for (seed, act) in [
            (24, Activation::Identity),
            (25, Activation::Relu),
            (26, Activation::Sigmoid),
            (27, Activation::Tanh),
        ] {
            let inputs = rand_inputs(&[vec![4, 3], vec![3, 2], vec![2]], seed);
            check(
                &|g, ins| {
                    let v = bind_all(g, ins);
                    let y = g.linear(v[0], v[1], Some(v[2]), act);
                    g.sum_all(y)
                },
                &inputs,
                2e-2,
            );
            // No-bias variant gradient check.
            let nb = rand_inputs(&[vec![4, 3], vec![3, 2]], seed ^ 99);
            check(
                &|g, ins| {
                    let v = bind_all(g, ins);
                    let y = g.linear(v[0], v[1], None, act);
                    g.sum_all(y)
                },
                &nb,
                2e-2,
            );
            // Value parity with matmul + add_bias + activation.
            let mut g1 = Graph::new();
            let v1 = bind_all(&mut g1, &inputs);
            let y1 = g1.linear(v1[0], v1[1], Some(v1[2]), act);
            let mut g2 = Graph::new();
            let v2 = bind_all(&mut g2, &inputs);
            let mm = g2.matmul(v2[0], v2[1]);
            let wb = g2.add_bias(mm, v2[2]);
            let y2 = match act {
                Activation::Identity => wb,
                Activation::Relu => g2.relu(wb),
                Activation::Sigmoid => g2.sigmoid(wb),
                Activation::Tanh => g2.tanh(wb),
            };
            for (a, b) in g1.value(y1).data().iter().zip(g2.value(y2).data()) {
                assert!((a - b).abs() < 1e-5, "fused linear {act:?} diverged: {a} vs {b}");
            }
        }
    }

    /// The fused attention-score node must match transpose+matmul+scale+mask
    /// in value and pass the numeric gradient check.
    #[test]
    fn grad_attention_scores_fused_matches_unfused() {
        let t = 5;
        let inputs = rand_inputs(&[vec![t, 3], vec![t, 3]], 33);
        let mut mask = Tensor::zeros(vec![t, t]);
        for r in 0..t {
            for c in (r + 1)..t {
                *mask.at_mut(r, c) = -1e9;
            }
        }
        let scale = 1.0 / (3.0f32).sqrt();
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let scores = g.attention_scores(v[0], v[1], scale, None);
                let sm = g.softmax_rows(scores, None);
                let sq = g.mul(sm, sm);
                g.sum_all(sq)
            },
            &inputs,
            2e-2,
        );
        // Value parity, masked: fused scores + plain softmax must equal the
        // legacy matmul/scale + masked softmax pipeline.
        let mut g1 = Graph::new();
        let v1 = bind_all(&mut g1, &inputs);
        let s1 = g1.attention_scores(v1[0], v1[1], scale, Some(&mask));
        let a1 = g1.softmax_rows(s1, None);
        let mut g2 = Graph::new();
        let v2 = bind_all(&mut g2, &inputs);
        let kt = g2.transpose(v2[1]);
        let logits = g2.matmul(v2[0], kt);
        let scaled = g2.scale(logits, scale);
        let a2 = g2.softmax_rows(scaled, Some(&mask));
        for (a, b) in g1.value(a1).data().iter().zip(g2.value(a2).data()) {
            assert!((a - b).abs() < 1e-5, "fused attention diverged: {a} vs {b}");
        }
    }

    #[test]
    fn grad_softmax_rows_masked() {
        let inputs = rand_inputs(&[vec![4, 4]], 9);
        // Causal mask like the CAU's M.
        let mut mask = Tensor::zeros(vec![4, 4]);
        for r in 0..4 {
            for c in (r + 1)..4 {
                *mask.at_mut(r, c) = -1e9;
            }
        }
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let s = g.softmax_rows(v[0], Some(&mask));
                let sq = g.mul(s, s);
                g.sum_all(sq)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_attention_block() {
        // Full scaled-dot-product attention with causal mask — exactly the CAU
        // core — checked end to end.
        let inputs = rand_inputs(&[vec![5, 3], vec![5, 3], vec![5, 3]], 10);
        let t = 5;
        let mut mask = Tensor::zeros(vec![t, t]);
        for r in 0..t {
            for c in (r + 1)..t {
                *mask.at_mut(r, c) = -1e9;
            }
        }
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let kt = g.transpose(v[1]);
                let logits = g.matmul(v[0], kt);
                let scaled = g.scale(logits, 1.0 / (3.0f32).sqrt());
                let attn = g.softmax_rows(scaled, Some(&mask));
                let out = g.matmul(attn, v[2]);
                let out = g.tanh(out);
                g.sum_all(out)
            },
            &inputs,
            2e-2,
        );
    }

    #[test]
    fn grad_stack_softmax_weighted_sum() {
        // The α-weighted neighbour aggregation pattern of Eq. (8).
        let inputs = rand_inputs(&[vec![1], vec![1], vec![3, 2], vec![3, 2]], 11);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let logits = g.stack_scalars(&[v[0], v[1]]);
                let alphas = g.softmax_vec(logits);
                let a0 = g.index_vec(alphas, 0);
                let a1 = g.index_vec(alphas, 1);
                let w0 = g.mul_scalar(v[2], a0);
                let w1 = g.mul_scalar(v[3], a1);
                let agg = g.add(w0, w1);
                let agg = g.tanh(agg);
                g.sum_all(agg)
            },
            &inputs,
            2e-2,
        );
    }

    #[test]
    fn grad_slice_and_mean_rows() {
        let inputs = rand_inputs(&[vec![6, 3]], 12);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let stacked = g.reshape(v[0], vec![2, 3, 3]);
                let s = g.slice_batch(stacked, 1);
                let m = g.mean_rows(s);
                let m = g.sigmoid(m);
                g.sum_all(m)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        let inputs = rand_inputs(&[vec![3, 4], vec![4], vec![4]], 21);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let y = g.layer_norm(v[0], v[1], v[2], 1e-5);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            &inputs,
            3e-2,
        );
    }

    #[test]
    fn layer_norm_rows_are_standardised() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![2, 4], vec![1., 2., 3., 4., 10., 20., 30., 40.]));
        let gamma = g.constant(Tensor::ones(vec![4]));
        let beta = g.constant(Tensor::zeros(vec![4]));
        let y = g.layer_norm(x, gamma, beta, 1e-6);
        for r in 0..2 {
            let row = g.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn grad_mse() {
        let inputs = rand_inputs(&[vec![1, 4]], 13);
        let target = Tensor::from_vec(vec![1, 4], vec![0.3, -0.1, 0.8, 0.0]);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                g.mse(v[0], &target)
            },
            &inputs,
            1e-2,
        );
    }

    #[test]
    fn grad_fanout_accumulates() {
        // One leaf feeding two consumers must receive both contributions:
        // d/dx sum(x*x + x) = 2x + 1.
        let x = Tensor::from_vec(vec![2], vec![1.5, -0.5]);
        let mut g = Graph::new();
        let v = g.bind_param(0, x.clone());
        let sq = g.mul(v, v);
        let s = g.add(sq, v);
        let loss = g.sum_all(s);
        g.backward(loss);
        let grad = g.grad(v).unwrap();
        assert!((grad.data()[0] - 4.0).abs() < 1e-5);
        assert!((grad.data()[1] - 0.0).abs() < 1e-5);
    }

    #[test]
    fn param_grads_only_reports_reached_leaves() {
        let mut g = Graph::new();
        let a = g.bind_param(0, Tensor::scalar(1.0));
        let _unused = g.bind_param(1, Tensor::scalar(2.0));
        let loss = g.sum_all(a);
        g.backward(loss);
        let keys: Vec<usize> = g.param_grads().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0]);
    }

    #[test]
    fn mul_scalar_broadcast() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]));
        let s = g.constant(Tensor::scalar(0.5));
        let y = g.mul_scalar(x, s);
        assert_eq!(g.value(y).data(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn sum_vars_matches_fold() {
        let mut g = Graph::new();
        let xs: Vec<VarId> = (0..4).map(|i| g.constant(Tensor::full(vec![2], i as f32))).collect();
        let s = g.sum_vars(&xs);
        assert_eq!(g.value(s).data(), &[6.0, 6.0]);
    }

    /// Composite-tape gradient check: conv1d → layer_norm → QKᵀ softmax
    /// attention → mse in ONE tape, exercising gradient flow across op
    /// boundaries the per-op tests cannot see.
    #[test]
    fn grad_composite_conv_norm_attention_pipeline() {
        let t_len = 5;
        let c = 3;
        let inputs = rand_inputs(
            &[
                vec![t_len, c], // x
                vec![2, c, c],  // conv kernel
                vec![c],        // layer-norm gamma
                vec![c],        // layer-norm beta
                vec![c, c],     // query projection
                vec![c, c],     // key projection
            ],
            41,
        );
        let target = Tensor::randn(vec![t_len, c], 0.5, &mut StdRng::seed_from_u64(42));
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let conv = g.conv1d(v[0], v[1], None, PadMode::Causal);
                let normed = g.layer_norm(conv, v[2], v[3], 1e-5);
                let q = g.matmul(normed, v[4]);
                let k = g.matmul(normed, v[5]);
                let kt = g.transpose(k);
                let logits = g.matmul(q, kt);
                let attn = g.softmax_rows(logits, None);
                let out = g.matmul(attn, normed);
                g.mse(out, &target)
            },
            &inputs,
            2e-2,
        );
    }

    /// A forward-only tape computes exactly the same values as a recording
    /// tape, and a reused (reset) tape matches a fresh one bit for bit.
    #[test]
    fn inference_tape_matches_recording_tape_and_survives_reset() {
        let inputs = rand_inputs(&[vec![4, 3], vec![3, 2]], 77);
        let run = |g: &mut Graph| {
            let a = g.constant(inputs[0].clone());
            let b = g.constant(inputs[1].clone());
            let m = g.matmul(a, b);
            let s = g.sigmoid(m);
            let out = g.sum_all(s);
            g.value(out).data().to_vec()
        };
        let mut recording = Graph::new();
        let expected = run(&mut recording);
        let mut inference = Graph::for_inference();
        assert!(!inference.records_grads());
        assert_eq!(run(&mut inference), expected);
        // Reset keeps the mode and produces identical values on reuse.
        for _ in 0..3 {
            inference.reset();
            assert!(inference.is_empty());
            assert_eq!(run(&mut inference), expected);
            assert!(!inference.records_grads());
        }
    }

    /// THE steady-state contract of this PR: a reused (reset) inference tape
    /// allocates **zero** fresh buffers after its first pass — every output
    /// tensor of every op is served from the pool.
    #[test]
    fn reset_inference_tape_reaches_zero_alloc_steady_state() {
        let inputs = rand_inputs(&[vec![6, 4], vec![4, 4], vec![4, 4], vec![4]], 88);
        let mask = {
            let mut m = Tensor::zeros(vec![6, 6]);
            for r in 0..6 {
                for c in (r + 1)..6 {
                    *m.at_mut(r, c) = -1e9;
                }
            }
            m
        };
        let mut g = Graph::for_inference();
        let run = |g: &mut Graph| {
            // A representative slice of the model's op mix.
            let x = g.constant_from(&inputs[0]);
            let wq = g.constant_from(&inputs[1]);
            let wk = g.constant_from(&inputs[2]);
            let b = g.constant_from(&inputs[3]);
            let q = g.linear(x, wq, Some(b), Activation::Identity);
            let k = g.linear(x, wk, None, Activation::Tanh);
            let scores = g.attention_scores(q, k, 0.5, Some(&mask));
            let attn = g.softmax_rows(scores, None);
            let out = g.matmul(attn, x);
            let pooled = g.mean_rows(out);
            let act = g.sigmoid(pooled);
            g.value(act).data().to_vec()
        };
        let first = run(&mut g);
        let allocs_after_warmup = g.fresh_buffer_allocs();
        for _ in 0..5 {
            g.reset();
            assert_eq!(run(&mut g), first, "reused tape must be bit-identical");
            assert_eq!(
                g.fresh_buffer_allocs(),
                allocs_after_warmup,
                "steady-state forward pass allocated a fresh buffer"
            );
        }
        assert!(g.buffer_reuses() > 0);
    }

    /// Forward + backward on a reset recording tape also reaches the
    /// zero-fresh-alloc steady state (gradient buffers recycle too).
    #[test]
    fn reset_training_tape_reaches_zero_alloc_steady_state() {
        let inputs = rand_inputs(&[vec![5, 2], vec![3, 2, 3], vec![3], vec![3, 2]], 89);
        let target = Tensor::zeros(vec![5, 2]);
        let mut g = Graph::new();
        let run = |g: &mut Graph| {
            g.reset();
            let x = g.bind_param_from(0, &inputs[0]);
            let w = g.bind_param_from(1, &inputs[1]);
            let b = g.bind_param_from(2, &inputs[2]);
            let wo = g.bind_param_from(3, &inputs[3]);
            let h = g.conv1d_act(x, w, Some(b), PadMode::Causal, Activation::Relu);
            let y = g.linear(h, wo, None, Activation::Identity);
            let loss = g.mse(y, &target);
            g.backward(loss);
            g.param_grads().map(|(_, t)| t.data().to_vec()).collect::<Vec<_>>()
        };
        let first = run(&mut g);
        let allocs_after_warmup = g.fresh_buffer_allocs();
        for _ in 0..3 {
            let again = run(&mut g);
            assert_eq!(again, first, "reused training tape must be bit-identical");
            assert_eq!(
                g.fresh_buffer_allocs(),
                allocs_after_warmup,
                "steady-state forward+backward allocated a fresh buffer"
            );
        }
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn backward_panics_on_inference_tape() {
        let mut g = Graph::for_inference();
        let x = g.constant(Tensor::scalar(1.0));
        let y = g.sigmoid(x);
        g.backward(y);
    }

    #[test]
    fn reset_recording_tape_gives_fresh_gradients() {
        let mut g = Graph::new();
        for _ in 0..2 {
            g.reset();
            let v = g.bind_param(0, Tensor::from_vec(vec![2], vec![1.0, 2.0]));
            let sq = g.mul(v, v);
            let loss = g.sum_all(sq);
            g.backward(loss);
            let grads: Vec<f32> = g.param_grads().flat_map(|(_, t)| t.data().to_vec()).collect();
            assert_eq!(grads, vec![2.0, 4.0]);
        }
    }

    /// stack_rows → slice_batch is the identity per member, and gradients
    /// flow through both (including a repeated parent, whose gradient must
    /// accumulate every copy's contribution).
    #[test]
    fn stack_and_slice_roundtrip_with_grads() {
        let inputs = rand_inputs(&[vec![3, 2], vec![3, 2]], 101);
        let mut g = Graph::new();
        let a = g.bind_param(0, inputs[0].clone());
        let b = g.bind_param(1, inputs[1].clone());
        let stacked = g.stack_rows(&[a, b, a]);
        assert_eq!(g.value(stacked).shape(), &[3, 3, 2]);
        for (i, src) in [a, b, a].into_iter().enumerate() {
            let s = g.slice_batch(stacked, i);
            assert_eq!(g.value(s).data(), g.value(src).data(), "member {i} diverged");
        }
        // d/da sum(stack([a, b, a])) = 2, d/db = 1 (a appears twice).
        let loss = g.sum_all(stacked);
        g.backward(loss);
        assert!(g.grad(a).unwrap().data().iter().all(|&x| (x - 2.0).abs() < 1e-6));
        assert!(g.grad(b).unwrap().data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    /// Batched nodes are **bit-identical** per member to their per-request
    /// counterparts — the exact-parity contract of the batched serving
    /// path, checked at the tape level for every batched op.
    #[test]
    fn batched_nodes_are_bit_identical_to_per_member_ops() {
        let (bt, t, c, n) = (3usize, 6usize, 8usize, 4usize);
        let members = rand_inputs(&[vec![t, c], vec![t, c], vec![t, c]], 111);
        let w = rand_inputs(&[vec![c, n]], 112).remove(0);
        let bias = rand_inputs(&[vec![n]], 113).remove(0);
        let conv_w = rand_inputs(&[vec![3, c, c]], 114).remove(0);
        let conv_b = rand_inputs(&[vec![c]], 115).remove(0);
        let q = rand_inputs(&[vec![t, c]], 116).remove(0);
        let scale = 1.0 / (c as f32).sqrt();
        let mut mask = Tensor::zeros(vec![t, t]);
        for r in 0..t {
            for cc in (r + 1)..t {
                *mask.at_mut(r, cc) = -1e9;
            }
        }

        let mut g = Graph::new();
        let vars: Vec<VarId> = members.iter().map(|m| g.constant(m.clone())).collect();
        let wv = g.constant(w.clone());
        let bv = g.constant(bias.clone());
        let cwv = g.constant(conv_w.clone());
        let cbv = g.constant(conv_b.clone());
        let qv = g.constant(q.clone());
        let stacked = g.stack_rows(&vars);

        // linear_batched vs per-member linear.
        let lb = g.linear_batched(stacked, wv, Some(bv), Activation::Tanh);
        for (i, &m) in vars.iter().enumerate() {
            let single = g.linear(m, wv, Some(bv), Activation::Tanh);
            let seg = &g.value(lb).data()[i * t * n..(i + 1) * t * n];
            assert_eq!(seg, g.value(single).data(), "linear_batched member {i}");
        }

        // conv1d_act_batched vs per-member conv1d_act.
        let cb = g.conv1d_act_batched(stacked, cwv, Some(cbv), PadMode::Causal, Activation::Relu);
        for (i, &m) in vars.iter().enumerate() {
            let single = g.conv1d_act(m, cwv, Some(cbv), PadMode::Causal, Activation::Relu);
            let seg = &g.value(cb).data()[i * t * c..(i + 1) * t * c];
            assert_eq!(seg, g.value(single).data(), "conv1d_act_batched member {i}");
        }

        // attention_scores_batched (shared q) vs per-member fused scores.
        let sb = g.attention_scores_batched(qv, stacked, scale, Some(&mask));
        for (i, &m) in vars.iter().enumerate() {
            let single = g.attention_scores(qv, m, scale, Some(&mask));
            let seg = &g.value(sb).data()[i * t * t..(i + 1) * t * t];
            assert_eq!(seg, g.value(single).data(), "attention_scores_batched member {i}");
        }

        // attention_probs_causal_batched vs scores + masked softmax.
        let pb = g.attention_probs_causal_batched(qv, stacked, scale);
        for (i, &m) in vars.iter().enumerate() {
            let scores = g.attention_scores(qv, m, scale, Some(&mask));
            let probs = g.softmax_rows(scores, None);
            let seg = &g.value(pb).data()[i * t * t..(i + 1) * t * t];
            assert_eq!(seg, g.value(probs).data(), "attention_probs_causal member {i}");
        }

        // matmul_strided vs per-member matmul (probs @ values).
        let ms = g.matmul_strided(pb, stacked);
        for (i, &m) in vars.iter().enumerate() {
            let p = g.slice_batch(pb, i);
            let single = g.matmul(p, m);
            let seg = &g.value(ms).data()[i * t * c..(i + 1) * t * c];
            assert_eq!(seg, g.value(single).data(), "matmul_strided member {i}");
        }

        // linear_batched (one GEMM, no bias) vs per-member matmul.
        let mb = g.linear_batched(stacked, wv, None, Activation::Identity);
        for (i, &m) in vars.iter().enumerate() {
            let single = g.matmul(m, wv);
            let seg = &g.value(mb).data()[i * t * n..(i + 1) * t * n];
            assert_eq!(seg, g.value(single).data(), "linear_batched member {i}");
        }
        assert_eq!(g.value(mb).shape(), &[bt, t, n]);
    }

    #[test]
    fn grad_linear_batched() {
        let inputs = rand_inputs(&[vec![2, 3, 4], vec![4, 2], vec![2]], 121);
        for act in [Activation::Identity, Activation::Sigmoid] {
            check(
                &|g, ins| {
                    let v = bind_all(g, ins);
                    let y = g.linear_batched(v[0], v[1], Some(v[2]), act);
                    g.sum_all(y)
                },
                &inputs,
                2e-2,
            );
        }
    }

    #[test]
    fn grad_conv1d_act_batched() {
        let inputs = rand_inputs(&[vec![2, 5, 3], vec![3, 3, 2], vec![2]], 122);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let y =
                    g.conv1d_act_batched(v[0], v[1], Some(v[2]), PadMode::Causal, Activation::Tanh);
                g.sum_all(y)
            },
            &inputs,
            2e-2,
        );
    }

    #[test]
    fn grad_matmul_strided_and_stack_slice() {
        let inputs = rand_inputs(&[vec![2, 3, 4], vec![2, 4, 2]], 123);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let y = g.matmul_strided(v[0], v[1]);
                let first = g.slice_batch(y, 0);
                let second = g.slice_batch(y, 1);
                let s = g.add(first, second);
                let s = g.tanh(s);
                g.sum_all(s)
            },
            &inputs,
            2e-2,
        );
    }

    #[test]
    fn grad_attention_scores_batched_shared_q() {
        let inputs = rand_inputs(&[vec![4, 3], vec![2, 4, 3]], 124);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let s = g.attention_scores_batched(v[0], v[1], 0.5, None);
                let sq = g.mul(s, s);
                g.sum_all(sq)
            },
            &inputs,
            2e-2,
        );
    }

    #[test]
    fn grad_attention_probs_causal_batched() {
        let inputs = rand_inputs(&[vec![4, 3], vec![2, 4, 3]], 125);
        check(
            &|g, ins| {
                let v = bind_all(g, ins);
                let p = g.attention_probs_causal_batched(v[0], v[1], 0.6);
                let sq = g.mul(p, p);
                g.sum_all(sq)
            },
            &inputs,
            3e-2,
        );
    }

    #[test]
    fn grad_gather_vec_scatter_adds() {
        let x = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let mut g = Graph::new();
        let v = g.bind_param(0, x);
        let picked = g.gather_vec(v, &[2, 0, 2]);
        assert_eq!(g.value(picked).data(), &[3.0, 1.0, 3.0]);
        let loss = g.sum_all(picked);
        g.backward(loss);
        assert_eq!(g.grad(v).unwrap().data(), &[1.0, 0.0, 2.0]);
    }

    /// Batched ops draw from the pool too: a reused inference tape running
    /// a batched op mix reaches the zero-fresh-alloc steady state.
    #[test]
    fn batched_ops_reach_zero_alloc_steady_state() {
        let inputs = rand_inputs(&[vec![5, 4], vec![5, 4], vec![4, 3], vec![5, 4]], 126);
        let mut g = Graph::for_inference();
        let run = |g: &mut Graph| {
            let a = g.constant_from(&inputs[0]);
            let b = g.constant_from(&inputs[1]);
            let w = g.constant_from(&inputs[2]);
            let q = g.constant_from(&inputs[3]);
            let stacked = g.stack_rows(&[a, b]);
            let probs = g.attention_probs_causal_batched(q, stacked, 0.5);
            let msgs = g.matmul_strided(probs, stacked);
            let proj = g.linear_batched(msgs, w, None, Activation::Identity);
            let first = g.slice_batch(proj, 0);
            g.value(first).data().to_vec()
        };
        let expected = run(&mut g);
        g.reset();
        let _ = run(&mut g);
        let warm = g.fresh_buffer_allocs();
        for _ in 0..4 {
            g.reset();
            assert_eq!(run(&mut g), expected, "reused batched tape must be bit-identical");
            assert_eq!(g.fresh_buffer_allocs(), warm, "batched steady state allocated");
        }
    }

    /// The same composite tape is bit-deterministic: identical seeds give
    /// identical losses and gradients across two independent constructions.
    #[test]
    fn composite_tape_is_deterministic() {
        let run = || {
            let inputs = rand_inputs(&[vec![4, 2], vec![2, 2, 2]], 7);
            let mut g = Graph::new();
            let x = g.bind_param(0, inputs[0].clone());
            let w = g.bind_param(1, inputs[1].clone());
            let conv = g.conv1d(x, w, None, PadMode::Same);
            let act = g.tanh(conv);
            let loss = g.sum_all(act);
            g.backward(loss);
            let grads: Vec<Vec<f32>> = g.param_grads().map(|(_, t)| t.data().to_vec()).collect();
            (g.value(loss).data().to_vec(), grads)
        };
        assert_eq!(run(), run());
    }
}
