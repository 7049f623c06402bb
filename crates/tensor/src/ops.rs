//! Activation functions and small neural-network cells.
//!
//! These are the element-wise nonlinearities and the GRU cell the four GNN
//! benchmarks need. All functions are plain `f32` math so that both the
//! functional reference models and the accelerator's functional datapath
//! produce identical values.

use crate::{Matrix, TensorError};

/// Rectified linear unit: `max(0, x)`.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with the conventional GAT slope of 0.2 for negative inputs.
#[inline]
pub fn leaky_relu(x: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        0.2 * x
    }
}

/// Logistic sigmoid `1 / (1 + e^-x)`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Row-wise softmax, in place.
///
/// Uses the numerically stable max-subtraction formulation. Rows of zero
/// width are left untouched.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for i in 0..m.rows() {
        let row = m.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Dense fully-connected layer: `act(x · w + b)`.
///
/// `x` is `n × in`, `w` is `in × out`, and `b` (if given) is a length-`out`
/// bias. This is the operation the paper's DNA executes for each dequeued
/// DNQ entry.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes are inconsistent.
pub fn linear(
    x: &Matrix,
    w: &Matrix,
    b: Option<&[f32]>,
    act: Activation,
) -> Result<Matrix, TensorError> {
    let mut y = x.matmul(w)?;
    if let Some(bias) = b {
        y.add_row_bias(bias)?;
    }
    act.apply_inplace(&mut y);
    Ok(y)
}

/// The activations supported by the DNA model and the functional references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No nonlinearity.
    #[default]
    None,
    /// [`relu`].
    Relu,
    /// [`leaky_relu`] (slope 0.2).
    LeakyRelu,
    /// [`sigmoid`].
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => relu(x),
            Activation::LeakyRelu => leaky_relu(x),
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Applies the activation element-wise, in place.
    pub fn apply_inplace(self, m: &mut Matrix) {
        if self != Activation::None {
            m.map_inplace(|v| self.apply(v));
        }
    }
}

/// A gated recurrent unit (GRU) cell, used as the vertex-update function of
/// the MPNN benchmark (Gilmer et al. use a GRU update for QM9).
///
/// All weight matrices are `hidden × hidden` for the recurrent path and
/// `input × hidden` for the input path.
///
/// # Example
///
/// ```
/// use gnna_tensor::ops::GruCell;
/// use gnna_tensor::Matrix;
///
/// # fn main() -> Result<(), gnna_tensor::TensorError> {
/// let cell = GruCell::with_constant(2, 2, 0.1);
/// let h = Matrix::zeros(3, 2);
/// let x = Matrix::filled(3, 2, 1.0);
/// let h2 = cell.step(&x, &h)?;
/// assert_eq!(h2.shape(), (3, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    /// Input-to-reset weights, `input × hidden`.
    pub w_r: Matrix,
    /// Input-to-update weights, `input × hidden`.
    pub w_z: Matrix,
    /// Input-to-candidate weights, `input × hidden`.
    pub w_h: Matrix,
    /// Hidden-to-reset weights, `hidden × hidden`.
    pub u_r: Matrix,
    /// Hidden-to-update weights, `hidden × hidden`.
    pub u_z: Matrix,
    /// Hidden-to-candidate weights, `hidden × hidden`.
    pub u_h: Matrix,
}

impl GruCell {
    /// Creates a GRU cell whose six weight matrices are all filled with
    /// `value` — useful for deterministic tests.
    pub fn with_constant(input: usize, hidden: usize, value: f32) -> Self {
        GruCell {
            w_r: Matrix::filled(input, hidden, value),
            w_z: Matrix::filled(input, hidden, value),
            w_h: Matrix::filled(input, hidden, value),
            u_r: Matrix::filled(hidden, hidden, value),
            u_z: Matrix::filled(hidden, hidden, value),
            u_h: Matrix::filled(hidden, hidden, value),
        }
    }

    /// Input dimensionality this cell expects.
    pub fn input_dim(&self) -> usize {
        self.w_r.rows()
    }

    /// Hidden-state dimensionality this cell maintains.
    pub fn hidden_dim(&self) -> usize {
        self.u_r.rows()
    }

    /// Number of multiply–accumulate operations one `step` performs per row.
    ///
    /// Used by the analytic baseline models and the DNA occupancy model.
    pub fn macs_per_row(&self) -> u64 {
        let i = self.input_dim() as u64;
        let h = self.hidden_dim() as u64;
        3 * (i * h + h * h)
    }

    /// One GRU step: `h' = (1 - z) ⊙ h + z ⊙ tanh(x·W_h + (r ⊙ h)·U_h)`.
    ///
    /// `x` is `n × input`, `h` is `n × hidden`; returns the new `n × hidden`
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes are inconsistent.
    pub fn step(&self, x: &Matrix, h: &Matrix) -> Result<Matrix, TensorError> {
        let mut r = x.matmul(&self.w_r)?.add(&h.matmul(&self.u_r)?)?;
        r.map_inplace(sigmoid);
        let mut z = x.matmul(&self.w_z)?.add(&h.matmul(&self.u_z)?)?;
        z.map_inplace(sigmoid);

        // r ⊙ h
        let mut rh = h.clone();
        for i in 0..rh.rows() {
            let rrow = r.row(i).to_vec();
            for (v, rv) in rh.row_mut(i).iter_mut().zip(rrow) {
                *v *= rv;
            }
        }
        let mut candidate = x.matmul(&self.w_h)?.add(&rh.matmul(&self.u_h)?)?;
        candidate.map_inplace(f32::tanh);

        let mut out = Matrix::zeros(h.rows(), h.cols());
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let zv = z.get(i, j);
                out.set(i, j, (1.0 - zv) * h.get(i, j) + zv * candidate.get(i, j));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_leaky() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(leaky_relu(-1.0), -0.2);
        assert_eq!(leaky_relu(3.0), 3.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        softmax_rows_inplace(&mut m);
        for i in 0..m.rows() {
            let s: f32 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
            assert!(m.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut m = Matrix::from_rows(&[&[1000.0, 1000.0]]).unwrap();
        softmax_rows_inplace(&mut m);
        assert!((m.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn linear_with_bias_and_relu() {
        let x = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let w = Matrix::identity(2);
        let y = linear(&x, &w, Some(&[0.5, 0.5]), Activation::Relu).unwrap();
        assert_eq!(y.row(0), &[1.5, 0.0]);
    }

    #[test]
    fn activation_apply_matches_scalar_fns() {
        for x in [-2.0f32, -0.5, 0.0, 0.5, 2.0] {
            assert_eq!(Activation::Relu.apply(x), relu(x));
            assert_eq!(Activation::LeakyRelu.apply(x), leaky_relu(x));
            assert_eq!(Activation::Sigmoid.apply(x), sigmoid(x));
            assert_eq!(Activation::Tanh.apply(x), x.tanh());
            assert_eq!(Activation::None.apply(x), x);
        }
    }

    #[test]
    fn gru_zero_weights_is_half_decay() {
        // With all-zero weights: r = z = sigmoid(0) = 0.5, candidate =
        // tanh(0) = 0, so h' = 0.5 * h.
        let cell = GruCell::with_constant(2, 2, 0.0);
        let h = Matrix::filled(1, 2, 4.0);
        let x = Matrix::zeros(1, 2);
        let h2 = cell.step(&x, &h).unwrap();
        assert!((h2.get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gru_shapes_and_macs() {
        let cell = GruCell::with_constant(3, 5, 0.01);
        assert_eq!(cell.input_dim(), 3);
        assert_eq!(cell.hidden_dim(), 5);
        assert_eq!(cell.macs_per_row(), 3 * (15 + 25));
        let x = Matrix::zeros(7, 3);
        let h = Matrix::zeros(7, 5);
        assert_eq!(cell.step(&x, &h).unwrap().shape(), (7, 5));
    }

    #[test]
    fn gru_rejects_bad_shapes() {
        let cell = GruCell::with_constant(3, 5, 0.01);
        let x = Matrix::zeros(7, 4); // wrong input dim
        let h = Matrix::zeros(7, 5);
        assert!(cell.step(&x, &h).is_err());
    }

    #[test]
    fn gru_state_stays_bounded() {
        // GRU output is a convex combination of h and tanh(..) ∈ [-1, 1];
        // starting from a bounded state it must stay within those bounds.
        let cell = GruCell::with_constant(2, 2, 0.3);
        let mut h = Matrix::filled(1, 2, 0.9);
        let x = Matrix::filled(1, 2, 1.0);
        for _ in 0..50 {
            h = cell.step(&x, &h).unwrap();
            assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-5));
        }
    }
}
