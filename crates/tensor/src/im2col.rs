//! im2col-based convolution: the standard GEMM lowering.
//!
//! The direct loops in [`crate::conv2d`] are simple and exact; for larger
//! batches the cache-friendly route is to unfold every receptive field into
//! a row of a matrix and run one matrix multiplication. Both paths are kept:
//! [`conv2d_gemm`] is bit-compatible with `conv2d` (same accumulation
//! order per output element up to float reassociation) and is what the
//! `Conv2d` layer uses for batches past a size threshold.

use crate::gemm::{gemm, transpose_into};
use crate::{workspace, Tensor, TensorError, Workspace};

/// Validates im2col operands and returns `(n, c, h, w)`.
fn im2col_dims(
    input: &Tensor,
    kh: usize,
    kw: usize,
) -> Result<(usize, usize, usize, usize), TensorError> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.shape().rank() });
    }
    let d = input.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    if kh == 0 || kw == 0 || kh > h || kw > w {
        return Err(TensorError::ShapeMismatch { expected: vec![h, w], actual: vec![kh, kw] });
    }
    Ok((n, c, h, w))
}

/// The unfold loop shared by [`im2col`] and [`conv2d_gemm_with`]: writes
/// every element of `out` (callers may pass recycled scratch).
#[allow(clippy::too_many_arguments)]
fn unfold_into(x: &[f32], n: usize, c: usize, h: usize, w: usize, kh: usize, kw: usize, out: &mut [f32]) {
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let cols = c * kh * kw;
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * cols;
                for ic in 0..c {
                    for ky in 0..kh {
                        let src = ((b * c + ic) * h + oy + ky) * w + ox;
                        let dst = row + (ic * kh + ky) * kw;
                        out[dst..dst + kw].copy_from_slice(&x[src..src + kw]);
                    }
                }
            }
        }
    }
}

/// Unfolds `[n, c, h, w]` into the im2col matrix
/// `[n·oh·ow, c·kh·kw]` for a valid stride-1 convolution with a `kh×kw`
/// kernel.
///
/// # Errors
///
/// Returns a rank/shape error when the input is not rank 4 or smaller than
/// the kernel.
pub fn im2col(input: &Tensor, kh: usize, kw: usize) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = im2col_dims(input, kh, kw)?;
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let cols = c * kh * kw;
    let mut out = vec![0.0f32; n * oh * ow * cols];
    unfold_into(input.data(), n, c, h, w, kh, kw, &mut out);
    Tensor::from_vec(out, &[n * oh * ow, cols])
}

/// [`im2col`] writing into a preallocated output tensor whose buffer is
/// grown (never shrunk) to fit. With a warmed buffer the call performs no
/// allocations; every element is overwritten.
///
/// # Errors
///
/// Same conditions as [`im2col`].
pub fn im2col_with(input: &Tensor, kh: usize, kw: usize, out: &mut Tensor) -> Result<(), TensorError> {
    let (n, c, h, w) = im2col_dims(input, kh, kw)?;
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let cols = c * kh * kw;
    out.reshape_in_place_for_kernel(&[n * oh * ow, cols]);
    unfold_into(input.data(), n, c, h, w, kh, kw, out.data_mut());
    Ok(())
}

/// Valid stride-1 convolution through the im2col + GEMM route. Produces the
/// same result as [`crate::conv2d`] up to floating-point reassociation,
/// drawing all scratch from this thread's shared [`Workspace`].
///
/// # Errors
///
/// Same conditions as [`crate::conv2d`].
pub fn conv2d_gemm(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    workspace::with_thread_local(|ws| conv2d_gemm_with(input, weight, bias, ws))
}

/// [`conv2d_gemm`] drawing the im2col matrix, the packed kernel matrix and
/// the GEMM product from the caller's [`Workspace`]: in steady state the
/// only allocation is the returned output tensor.
///
/// # Errors
///
/// Same conditions as [`crate::conv2d`].
pub fn conv2d_gemm_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: weight.shape().rank() });
    }
    let wd = weight.shape().dims();
    let (cout, cin, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let d = input.shape().dims();
    if input.shape().rank() != 4 || d[1] != cin {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d[0], cin, d[2], d[3]],
            actual: d.to_vec(),
        });
    }
    if bias.shape().dims() != [cout] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![cout],
            actual: bias.shape().dims().to_vec(),
        });
    }
    let (n, h, w) = (d[0], d[2], d[3]);
    im2col_dims(input, kh, kw)?;
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let (rows, k) = (n * oh * ow, cin * kh * kw);

    // cols = im2col(input): [n·oh·ow, cin·kh·kw], recycled scratch.
    let mut cols = ws.take(rows * k);
    unfold_into(input.data(), n, cin, h, w, kh, kw, &mut cols);
    // wmat = weight.reshape([cout, k]).transpose(): [k, cout].
    let mut wmat = ws.take(k * cout);
    transpose_into(weight.data(), &mut wmat, cout, k);
    // prod = cols · wmat + bias: [n·oh·ow, cout].
    let mut prod = ws.take_zeroed(rows * cout);
    gemm(&cols, &wmat, &mut prod, rows, k, cout, ws);
    for row in prod.chunks_exact_mut(cout) {
        for (v, &bv) in row.iter_mut().zip(bias.data()) {
            *v += bv;
        }
    }
    // Rearrange [n·oh·ow, cout] → [n, cout, oh, ow].
    let mut out = vec![0.0f32; n * cout * oh * ow];
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let src = ((b * oh + oy) * ow + ox) * cout;
                for oc in 0..cout {
                    out[((b * cout + oc) * oh + oy) * ow + ox] = prod[src + oc];
                }
            }
        }
    }
    ws.give(cols);
    ws.give(wmat);
    ws.give(prod);
    Tensor::from_vec(out, &[n, cout, oh, ow])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv2d;
    use crate::gemm::{naive_gemm, DIRECT_FLOP_LIMIT};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn im2col_unfolds_known_windows() {
        // 1x1x3x3 input, 2x2 kernel → 4 windows of 4 values.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let cols = im2col(&x, 2, 2).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        assert_eq!(&cols.data()[..4], &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(&cols.data()[12..], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[3, 2, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 2, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.1, &mut rng);
        let direct = conv2d(&x, &w, &b).unwrap();
        let gemm = conv2d_gemm(&x, &w, &b).unwrap();
        assert_eq!(direct.shape(), gemm.shape());
        for (a, g) in direct.data().iter().zip(gemm.data()) {
            assert!((a - g).abs() < 1e-4, "{a} vs {g}");
        }
    }

    /// `conv2d_gemm_with` on a shape above the direct-GEMM limit must
    /// reproduce, bit for bit, im2col + the frozen naive GEMM + bias and
    /// the `[n, cout, oh, ow]` layout change. Half the inputs are zero
    /// (post-ReLU) so the blocked kernel's zero-skip runs too.
    #[test]
    fn gemm_conv_matches_frozen_reference_bitwise() {
        let (n, cin, cout, ks, hw) = (2, 8, 16, 3, 16);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[n, cin, hw, hw], 1.0, &mut rng).map(|v| v.max(0.0));
        let w = Tensor::randn(&[cout, cin, ks, ks], 0.5, &mut rng);
        let bias = Tensor::randn(&[cout], 0.1, &mut rng);
        let (oh, k) = (hw - ks + 1, cin * ks * ks);
        let rows = n * oh * oh;
        assert!(rows * k * cout > DIRECT_FLOP_LIMIT, "shape must take the blocked path");

        let cols = im2col(&x, ks, ks).unwrap();
        let mut wmat = vec![0.0f32; k * cout];
        for r in 0..cout {
            for c in 0..k {
                wmat[c * cout + r] = w.data()[r * k + c];
            }
        }
        let mut prod = vec![0.0f32; rows * cout];
        naive_gemm(cols.data(), &wmat, &mut prod, rows, k, cout);
        let mut want = vec![0.0f32; rows * cout];
        for (r, row) in prod.chunks_exact(cout).enumerate() {
            let (b, pixel) = (r / (oh * oh), r % (oh * oh));
            for (oc, (&v, &bv)) in row.iter().zip(bias.data()).enumerate() {
                want[(b * cout + oc) * oh * oh + pixel] = v + bv;
            }
        }

        let got = conv2d_gemm_with(&x, &w, &bias, &mut Workspace::new()).unwrap();
        assert_eq!(got.shape().dims(), &[n, cout, oh, oh]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want), bits(got.data()));
    }

    #[test]
    fn gemm_conv_validates_shapes_like_direct() {
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let w = Tensor::ones(&[3, 1, 2, 2]); // wrong in-channels
        let b = Tensor::zeros(&[3]);
        assert!(conv2d_gemm(&x, &w, &b).is_err());
        let w = Tensor::ones(&[3, 2, 2, 2]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d_gemm(&x, &w, &bad_bias).is_err());
        assert!(im2col(&x, 9, 9).is_err());
    }

    #[test]
    fn single_pixel_kernel_is_a_channel_mix() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 3, 1, 1], 1.0, &mut rng);
        let b = Tensor::zeros(&[2]);
        let direct = conv2d(&x, &w, &b).unwrap();
        let gemm = conv2d_gemm(&x, &w, &b).unwrap();
        for (a, g) in direct.data().iter().zip(gemm.data()) {
            assert!((a - g).abs() < 1e-4);
        }
    }
}
