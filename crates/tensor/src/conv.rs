//! Convolution and pooling kernels (NCHW layout) via im2col.
//!
//! Sized for the reproduction's `cnn_lite` models: correctness and
//! determinism first, with the matmul stage reusing the parallel kernels in
//! [`crate::ops`] — and therefore the SIMD micro-kernel layer
//! ([`crate::simd`]) backing them.

use crate::ops::{matmul_into, matmul_nt_into, matmul_tn_into};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (ignored by pooling).
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "kernel {} does not fit padded input {ph}×{pw}",
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }
}

/// Unfolds one image `[C, H, W]` into a `[C·K·K, OH·OW]` column matrix.
pub fn im2col(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, cols: &mut [f32]) {
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    assert_eq!(img.len(), c * h * w, "image size mismatch");
    assert_eq!(cols.len(), c * k * k * oh * ow, "cols size mismatch");
    let pad = spec.padding as isize;
    let stride = spec.stride;
    let mut row = 0usize;
    for ch in 0..c {
        let plane = &img[ch * h * w..(ch + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let out_row = &mut cols[row * oh * ow..(row + 1) * oh * ow];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    for ox in 0..ow {
                        let ix = (ox * stride) as isize + kx as isize - pad;
                        out_row[idx] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            plane[iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Folds a `[C·K·K, OH·OW]` column matrix back into an image, accumulating
/// overlapping contributions (the adjoint of [`im2col`]).
pub fn col2im(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, img: &mut [f32]) {
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    assert_eq!(img.len(), c * h * w, "image size mismatch");
    assert_eq!(cols.len(), c * k * k * oh * ow, "cols size mismatch");
    let pad = spec.padding as isize;
    let stride = spec.stride;
    let mut row = 0usize;
    for ch in 0..c {
        let plane = &mut img[ch * h * w..(ch + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let in_row = &cols[row * oh * ow..(row + 1) * oh * ow];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    for ox in 0..ow {
                        let ix = (ox * stride) as isize + kx as isize - pad;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            plane[iy as usize * w + ix as usize] += in_row[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Forward convolution.
///
/// * `input` — `[N, C_in, H, W]`
/// * `weight` — `[C_out, C_in · K · K]` (pre-flattened filter bank)
/// * `bias` — `[C_out]`
///
/// Returns `([N, C_out, OH, OW], per-sample column matrices)`; the columns
/// are retained for the backward pass.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> (Tensor, Vec<Vec<f32>>) {
    let n = input.dims()[0];
    let cin = spec.in_channels;
    let cout = spec.out_channels;
    let k = spec.kernel;
    assert_eq!(input.len(), n * cin * h * w, "conv input size mismatch");
    assert_eq!(
        weight.dims(),
        &[cout, cin * k * k],
        "conv weight shape mismatch"
    );
    assert_eq!(bias.len(), cout, "conv bias shape mismatch");
    let (oh, ow) = spec.out_hw(h, w);
    let col_rows = cin * k * k;
    let col_cols = oh * ow;

    let mut out = Tensor::zeros_scratch(&[n, cout, oh, ow]);
    let mut saved_cols = Vec::with_capacity(n);
    for i in 0..n {
        let img = &input.data()[i * cin * h * w..(i + 1) * cin * h * w];
        let mut cols = crate::scratch::take_zeroed(col_rows * col_cols);
        im2col(img, cin, h, w, spec, &mut cols);
        let out_slice = &mut out.data_mut()[i * cout * col_cols..(i + 1) * cout * col_cols];
        matmul_into(weight.data(), &cols, out_slice, cout, col_rows, col_cols);
        for (co, plane) in out_slice.chunks_mut(col_cols).enumerate() {
            crate::simd::add_scalar(plane, bias.data()[co]);
        }
        saved_cols.push(cols);
    }
    (out, saved_cols)
}

/// Backward convolution. Returns `(d_input, d_weight, d_bias)`, with
/// `d_input` computed only when `input_grad` is set: a network's first
/// layer has no consumer for it, and skipping it drops the `Wᵀ·dY` GEMM
/// and the `col2im` fold. The parameter gradients are the same bits either
/// way.
///
/// Consumes the per-sample column matrices saved by [`conv2d_forward`] and
/// recycles their storage into the scratch arena.
pub fn conv2d_backward(
    d_out: &Tensor,
    weight: &Tensor,
    saved_cols: Vec<Vec<f32>>,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    input_grad: bool,
) -> (Option<Tensor>, Tensor, Tensor) {
    let n = d_out.dims()[0];
    let cin = spec.in_channels;
    let cout = spec.out_channels;
    let k = spec.kernel;
    let (oh, ow) = spec.out_hw(h, w);
    let col_rows = cin * k * k;
    let col_cols = oh * ow;
    assert_eq!(d_out.len(), n * cout * col_cols, "conv d_out size mismatch");
    assert_eq!(saved_cols.len(), n, "saved_cols batch mismatch");

    let mut d_input = input_grad.then(|| Tensor::zeros_scratch(&[n, cin, h, w]));
    let mut d_weight = Tensor::zeros_scratch(&[cout, col_rows]);
    let mut d_bias = Tensor::zeros_scratch(&[cout]);

    for (i, cols) in saved_cols.into_iter().enumerate() {
        let dy = &d_out.data()[i * cout * col_cols..(i + 1) * cout * col_cols];
        // dW += dY · colsᵀ  (dY: [cout, col_cols], cols: [col_rows, col_cols])
        matmul_nt_into(dy, &cols, d_weight.data_mut(), cout, col_cols, col_rows);
        // d_bias += row sums of dY
        for (co, plane) in dy.chunks(col_cols).enumerate() {
            d_bias.data_mut()[co] += plane.iter().sum::<f32>();
        }
        crate::scratch::recycle(cols);
        if let Some(d_input) = d_input.as_mut() {
            // dCols = Wᵀ · dY  ([col_rows, col_cols])
            let mut d_cols = crate::scratch::take_zeroed(col_rows * col_cols);
            matmul_tn_into(weight.data(), dy, &mut d_cols, col_rows, cout, col_cols);
            let d_img = &mut d_input.data_mut()[i * cin * h * w..(i + 1) * cin * h * w];
            col2im(&d_cols, cin, h, w, spec, d_img);
            crate::scratch::recycle(d_cols);
        }
    }
    (d_input, d_weight, d_bias)
}

/// Forward max pooling over `[N, C, H, W]` with a `k × k` window and stride
/// `k` (non-overlapping). Returns the pooled tensor and flat argmax indices
/// (into the input) used by the backward pass.
pub fn maxpool2d_forward(input: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "maxpool expects NCHW input");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        k > 0 && h >= k && w >= k,
        "pool window {k} too large for {h}×{w}"
    );
    let oh = h / k;
    let ow = w / k;
    let mut out = Tensor::zeros_scratch(&[n, c, oh, ow]);
    let mut argmax = vec![0u32; n * c * oh * ow];
    let src = input.data();
    let dst = out.data_mut();
    for img in 0..n * c {
        let plane = &src[img * h * w..];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for dy in 0..k {
                    for dx in 0..k {
                        let iy = oy * k + dy;
                        let ix = ox * k + dx;
                        let idx = iy * w + ix;
                        let v = plane[idx];
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                let o = img * oh * ow + oy * ow + ox;
                dst[o] = best;
                argmax[o] = (img * h * w + best_idx) as u32;
            }
        }
    }
    (out, argmax)
}

/// Backward max pooling: routes each output gradient to its argmax input.
pub fn maxpool2d_backward(d_out: &Tensor, argmax: &[u32], input_len: usize) -> Tensor {
    assert_eq!(d_out.len(), argmax.len(), "argmax/d_out length mismatch");
    let mut d_in = crate::scratch::take_zeroed(input_len);
    for (g, &idx) in d_out.data().iter().zip(argmax.iter()) {
        d_in[idx as usize] += g;
    }
    let dims = d_out.dims();
    // Shape is restored by the caller (who knows H and W); return flat here.
    Tensor::from_vec(d_in, &[dims[0], input_len / dims[0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    /// Direct (quadruple-loop) convolution for cross-checking.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        h: usize,
        w: usize,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let n = input.dims()[0];
        let (oh, ow) = spec.out_hw(h, w);
        let k = spec.kernel;
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for i in 0..n {
            for co in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[co];
                        for ci in 0..spec.in_channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        let iv = input.data()[((i * spec.in_channels + ci) * h
                                            + iy as usize)
                                            * w
                                            + ix as usize];
                                        let wv = weight.data()[co * spec.in_channels * k * k
                                            + ci * k * k
                                            + ky * k
                                            + kx];
                                        acc += iv * wv;
                                    }
                                }
                            }
                        }
                        out.data_mut()[((i * spec.out_channels + co) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_hw_formula() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(spec.out_hw(8, 8), (8, 8));
        let spec2 = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(spec2.out_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_conv_matches_naive() {
        let mut rng = rng_for(10, 1);
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (h, w) = (6, 5);
        let input = Tensor::randn(&mut rng, &[2, 3, h, w], 0.0, 1.0);
        let weight = Tensor::randn(&mut rng, &[4, 3 * 9], 0.0, 0.5);
        let bias = Tensor::randn(&mut rng, &[4], 0.0, 0.1);
        let (got, _) = conv2d_forward(&input, &weight, &bias, h, w, &spec);
        let want = naive_conv(&input, &weight, &bias, h, w, &spec);
        assert_eq!(got.dims(), want.dims());
        for (g, e) in got.data().iter().zip(want.data().iter()) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn strided_no_padding_conv_matches_naive() {
        let mut rng = rng_for(11, 1);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let (h, w) = (8, 8);
        let input = Tensor::randn(&mut rng, &[1, 2, h, w], 0.0, 1.0);
        let weight = Tensor::randn(&mut rng, &[3, 2 * 4], 0.0, 0.5);
        let bias = Tensor::zeros(&[3]);
        let (got, _) = conv2d_forward(&input, &weight, &bias, h, w, &spec);
        let want = naive_conv(&input, &weight, &bias, h, w, &spec);
        for (g, e) in got.data().iter().zip(want.data().iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> must equal <x, col2im(y)> — the defining property of
        // the adjoint, which backprop correctness relies on.
        let mut rng = rng_for(12, 1);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (c, h, w) = (2, 5, 4);
        let (oh, ow) = spec.out_hw(h, w);
        let x = Tensor::randn(&mut rng, &[c, h, w], 0.0, 1.0);
        let y = Tensor::randn(&mut rng, &[c * 9, oh * ow], 0.0, 1.0);
        let mut cols = vec![0.0f32; c * 9 * oh * ow];
        im2col(x.data(), c, h, w, &spec, &mut cols);
        let lhs: f64 = cols
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(y.data(), c, h, w, &spec, &mut back);
        let rhs: f64 = x
            .data()
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_gradients_match_finite_differences() {
        let mut rng = rng_for(13, 1);
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (h, w) = (4, 4);
        let input = Tensor::randn(&mut rng, &[1, 1, h, w], 0.0, 1.0);
        let mut weight = Tensor::randn(&mut rng, &[2, 9], 0.0, 0.5);
        let bias = Tensor::zeros(&[2]);

        // Loss = sum(conv(input)); d_out = ones.
        let (out, cols) = conv2d_forward(&input, &weight, &bias, h, w, &spec);
        let d_out = Tensor::ones(out.dims());
        let (_, d_w, d_b) = conv2d_backward(&d_out, &weight, cols, h, w, &spec, false);

        let eps = 1e-3f32;
        for wi in [0usize, 4, 8, 13] {
            let orig = weight.data()[wi];
            weight.data_mut()[wi] = orig + eps;
            let (out_p, _) = conv2d_forward(&input, &weight, &bias, h, w, &spec);
            weight.data_mut()[wi] = orig - eps;
            let (out_m, _) = conv2d_forward(&input, &weight, &bias, h, w, &spec);
            weight.data_mut()[wi] = orig;
            let num = (out_p.sum() - out_m.sum()) / (2.0 * eps);
            let ana = d_w.data()[wi];
            assert!(
                (num - ana).abs() < 2e-2,
                "dW[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient of sum-loss is simply the number of output pixels.
        let (oh, ow) = spec.out_hw(h, w);
        for b in d_b.data() {
            assert!((b - (oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 1.0, //
                0.0, 0.0, 9.0, 1.0, //
                0.0, 7.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        );
        let (out, argmax) = maxpool2d_forward(&input, 2);
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[3.0, 5.0, 7.0, 9.0]);
        let d_out = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]);
        let d_in = maxpool2d_backward(&d_out, &argmax, 16);
        let expect_hot = [4usize, 2, 13, 10];
        for (i, v) in d_in.data().iter().enumerate() {
            let want = if expect_hot.contains(&i) { 1.0 } else { 0.0 };
            assert_eq!(*v, want, "at {i}");
        }
    }
}
