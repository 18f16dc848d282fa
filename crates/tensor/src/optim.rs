//! Optimisers over a [`ParamStore`].
//!
//! Parameters persist across optimisation steps while the graph on the
//! autograd tape is re-recorded each step (define-by-run, on a recycled
//! [`Tape`]). The store owns the parameter matrices; the model copies them
//! into the tape's leaves every step, runs backward, and the optimiser
//! reads the gradients straight from the tape.
//!
//! [`Tape`]: crate::autograd::Tape

use crate::matrix::Matrix;

/// Named, indexable collection of learnable parameter matrices.
#[derive(Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
}

/// Handle to one parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

impl ParamId {
    /// The parameter's dense registration index — valid as a direct slot
    /// into per-parameter arrays sized by [`ParamStore::len`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Read access to a parameter's current value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access (used by optimisers and tests).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store has no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Total bytes of all parameters (memory accounting).
    pub fn nbytes(&self) -> usize {
        self.values.iter().map(Matrix::nbytes).sum()
    }
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate α.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability term ε.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// The Adam optimiser (Kingma & Ba) — the paper optimises every EA model
/// with Adam for 100 epochs per mini-batch.
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: i32,
}

impl Adam {
    /// Creates Adam state matching the shapes in `store`.
    pub fn new(cfg: AdamConfig, store: &ParamStore) -> Self {
        let m = store
            .ids()
            .map(|id| Matrix::zeros(store.get(id).rows(), store.get(id).cols()))
            .collect::<Vec<_>>();
        let v = m.clone();
        Self { cfg, m, v, t: 0 }
    }

    /// Applies one update step. `grads[i]` must correspond to the `i`-th
    /// registered parameter and may be `None` for parameters untouched this
    /// step (their moments still decay, matching reference implementations).
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Option<&Matrix>]) {
        assert_eq!(grads.len(), store.len(), "one grad slot per parameter");
        self.t += 1;
        let b1t = 1.0 - self.cfg.beta1.powi(self.t);
        let b2t = 1.0 - self.cfg.beta2.powi(self.t);
        for (i, id) in store.ids().enumerate() {
            let Some(g) = grads[i] else { continue };
            let p = store.get_mut(id);
            assert_eq!(p.shape(), g.shape(), "grad shape mismatch for param {i}");
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for (((pv, gv), mv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
            {
                *mv = self.cfg.beta1 * *mv + (1.0 - self.cfg.beta1) * gv;
                *vv = self.cfg.beta2 * *vv + (1.0 - self.cfg.beta2) * gv * gv;
                let mhat = *mv / b1t;
                let vhat = *vv / b2t;
                *pv -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }

    /// Bytes of optimiser state (memory accounting).
    pub fn nbytes(&self) -> usize {
        self.m.iter().chain(&self.v).map(Matrix::nbytes).sum()
    }
}

/// Plain stochastic gradient descent, for tests and ablations.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Applies one SGD step.
    pub fn step(&self, store: &mut ParamStore, grads: &[Option<&Matrix>]) {
        assert_eq!(grads.len(), store.len(), "one grad slot per parameter");
        for (i, id) in store.ids().enumerate() {
            if let Some(g) = grads[i] {
                store.get_mut(id).add_scaled_assign(g, -self.lr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;

    /// Minimises f(x) = ||x - target||² and checks convergence.
    fn quadratic_descent(
        mut optimise: impl FnMut(&mut ParamStore, &[Option<&Matrix>], usize),
    ) -> f32 {
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let mut store = ParamStore::new();
        let id = store.register("x", Matrix::zeros(1, 3));
        let mut tape = Tape::new();
        for step in 0..400 {
            tape.reset();
            let x = tape.param(store.get(id));
            let t = tape.constant(&target);
            let d = tape.sub(x, t);
            let sq = tape.mul_elem(d, d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            optimise(&mut store, &[tape.grad(x)], step);
        }
        store.get(id).sub(&target).frobenius()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam: Option<Adam> = None;
        let err = quadratic_descent(|store, grads, _| {
            let a = adam.get_or_insert_with(|| {
                Adam::new(
                    AdamConfig {
                        lr: 0.05,
                        ..Default::default()
                    },
                    store,
                )
            });
            a.step(store, grads);
        });
        assert!(err < 1e-2, "adam residual {err}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let sgd = Sgd { lr: 0.1 };
        let err = quadratic_descent(|store, grads, _| sgd.step(store, grads));
        assert!(err < 1e-3, "sgd residual {err}");
    }

    #[test]
    fn adam_skips_missing_grads() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 1, vec![5.0]));
        let mut adam = Adam::new(AdamConfig::default(), &store);
        adam.step(&mut store, &[None]);
        assert_eq!(store.get(id)[(0, 0)], 5.0);
    }

    #[test]
    #[should_panic(expected = "one grad slot per parameter")]
    fn adam_checks_grad_count() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::zeros(1, 1));
        let mut adam = Adam::new(AdamConfig::default(), &store);
        adam.step(&mut store, &[]);
    }

    #[test]
    fn store_bookkeeping() {
        let mut store = ParamStore::new();
        assert!(store.is_empty());
        let id = store.register("emb", Matrix::zeros(10, 4));
        assert_eq!(store.len(), 1);
        assert_eq!(store.name(id), "emb");
        assert_eq!(store.nbytes(), 160);
    }
}
