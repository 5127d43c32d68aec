//! Minimal dense-matrix support for the GNN's manual backprop.

use minijson::Json;
use rand::rngs::SmallRng;
use rand::Rng;

/// A row-major dense `f32` matrix (vectors are `rows x 1`).
#[derive(Clone, Debug)]
pub struct Tensor {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` entries.
    pub data: Vec<f32>,
}

impl Tensor {
    pub(crate) fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("rows".into(), Json::Num(self.rows as f64)),
            ("cols".into(), Json::Num(self.cols as f64)),
            (
                "data".into(),
                Json::Arr(self.data.iter().map(|&x| Json::Num(f64::from(x))).collect()),
            ),
        ])
    }

    pub(crate) fn from_json_value(v: &Json) -> Result<Tensor, minijson::Error> {
        let t = Tensor {
            rows: v.field("rows")?.as_usize()?,
            cols: v.field("cols")?.as_usize()?,
            data: v
                .field("data")?
                .as_arr()?
                .iter()
                .map(Json::as_f32)
                .collect::<Result<_, _>>()?,
        };
        if t.data.len() != t.rows * t.cols {
            return Err(minijson::Error {
                msg: format!(
                    "tensor data length {} != {} x {}",
                    t.data.len(),
                    t.rows,
                    t.cols
                ),
                pos: 0,
            });
        }
        Ok(t)
    }

    /// An all-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Glorot-uniform initialization.
    pub fn glorot(rows: usize, cols: usize, rng: &mut SmallRng) -> Tensor {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Tensor {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|_| rng.gen_range(-limit..limit))
                .collect(),
        }
    }

    /// Element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// `out += self * x` for a column vector `x` (`len == cols`),
    /// writing into `out` (`len == rows`).
    pub fn matvec_add(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        #[allow(clippy::needless_range_loop)] // r indexes rows of the flat buffer
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            out[r] += acc;
        }
    }

    /// `out += self^T * g` (`g.len() == rows`, `out.len() == cols`).
    pub fn tmatvec_add(&self, g: &[f32], out: &mut [f32]) {
        debug_assert_eq!(g.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        #[allow(clippy::needless_range_loop)] // r indexes rows of the flat buffer
        for r in 0..self.rows {
            let gv = g[r];
            if gv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * gv;
            }
        }
    }

    /// Rank-1 accumulation `self += g ⊗ x` (`g.len() == rows`,
    /// `x.len() == cols`).
    pub fn outer_add(&mut self, g: &[f32], x: &[f32]) {
        debug_assert_eq!(g.len(), self.rows);
        debug_assert_eq!(x.len(), self.cols);
        #[allow(clippy::needless_range_loop)] // r indexes rows of the flat buffer
        for r in 0..self.rows {
            let gv = g[r];
            if gv == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, xv) in row.iter_mut().zip(x) {
                *o += gv * xv;
            }
        }
    }

    /// Sets every entry to zero.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }
}

/// Adam optimizer state for a list of tensors.
#[derive(Clone, Debug)]
pub struct Adam {
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: i32,
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// Creates optimizer state shaped like `params`.
    pub fn new(params: &[Tensor], lr: f32) -> Adam {
        Adam {
            m: params.iter().map(|p| vec![0.0; p.data.len()]).collect(),
            v: params.iter().map(|p| vec![0.0; p.data.len()]).collect(),
            t: 0,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Applies one Adam update of `params` from `grads`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from construction time.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), self.m.len(), "parameter count changed");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        for (i, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            assert_eq!(p.data.len(), g.data.len(), "gradient shape mismatch");
            for (j, (pv, gv)) in p.data.iter_mut().zip(&g.data).enumerate() {
                let m = &mut self.m[i][j];
                let v = &mut self.v[i][j];
                *m = self.beta1 * *m + (1.0 - self.beta1) * gv;
                *v = self.beta2 * *v + (1.0 - self.beta2) * gv * gv;
                let mh = *m / b1t;
                let vh = *v / b2t;
                *pv -= self.lr * mh / (vh.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_and_transpose() {
        let mut t = Tensor::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        t.data.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 2];
        t.matvec_add(&[1.0, 0.0, -1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0]);
        let mut back = vec![0.0; 3];
        t.tmatvec_add(&[1.0, 1.0], &mut back);
        assert_eq!(back, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_accumulates() {
        let mut g = Tensor::zeros(2, 2);
        g.outer_add(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(g.data, vec![3.0, 4.0, 6.0, 8.0]);
        g.clear();
        assert!(g.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize (x - 3)^2 via Adam on a 1x1 tensor.
        let mut params = vec![Tensor::zeros(1, 1)];
        let mut adam = Adam::new(&params, 0.1);
        for _ in 0..500 {
            let x = params[0].data[0];
            let grad = Tensor {
                rows: 1,
                cols: 1,
                data: vec![2.0 * (x - 3.0)],
            };
            adam.step(&mut params, &[grad]);
        }
        assert!((params[0].data[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = Tensor::glorot(8, 8, &mut rng);
        let limit = (6.0f32 / 16.0).sqrt();
        assert!(t.data.iter().all(|v| v.abs() <= limit));
        assert!(t.data.iter().any(|&v| v != 0.0));
    }
}
