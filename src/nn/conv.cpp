#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/parallel.hpp"
#include "core/workspace.hpp"
#include "tensor/gemm.hpp"

namespace comdml::nn {

namespace {

/// Output columns [lo, hi) whose k taps all fall inside an input row of
/// width w; columns outside it have at least one tap in the padding.
struct InteriorColumns {
  int64_t lo, hi;
};

InteriorColumns interior_columns(int64_t w, int64_t k, int64_t stride,
                                 int64_t pad, int64_t wo) {
  // ox*stride - pad >= 0 and ox*stride - pad + k <= w.
  const int64_t lo = std::min(wo, (pad + stride - 1) / stride);
  const int64_t hi =
      w + pad >= k ? std::clamp((w + pad - k) / stride + 1, lo, wo) : lo;
  return {lo, hi};
}

/// Unrolls one sample x_c [cin,h,w] into col [ho*wo, cin*k*k] (row-major):
/// row r = oy*wo + ox holds the receptive field of output position (oy,ox),
/// column c = (ci*k + ky)*k + kx — the flattened-weight column order.
/// Walks one input row (ci, iy) at a time across every output column, so
/// only the border columns test their taps against the row's extent.
void im2col(const float* xc, int64_t cin, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t pad, int64_t ho, int64_t wo, float* col) {
  const int64_t ckk = cin * k * k;
  const InteriorColumns inner = interior_columns(w, k, stride, pad, wo);
  for (int64_t oy = 0; oy < ho; ++oy) {
    const int64_t iy0 = oy * stride - pad;
    for (int64_t ci = 0; ci < cin; ++ci) {
      for (int64_t ky = 0; ky < k; ++ky) {
        const int64_t iy = iy0 + ky;
        // Tap row (ci, ky) of output position (oy, ox) is dst[ox*ckk ..].
        float* dst = col + oy * wo * ckk + (ci * k + ky) * k;
        if (iy < 0 || iy >= h) {
          for (int64_t ox = 0; ox < wo; ++ox)
            for (int64_t kx = 0; kx < k; ++kx) dst[ox * ckk + kx] = 0.0f;
          continue;
        }
        const float* src = xc + (ci * h + iy) * w;
        const auto border = [&](int64_t ox) {
          for (int64_t kx = 0; kx < k; ++kx) {
            const int64_t ix = ox * stride - pad + kx;
            dst[ox * ckk + kx] = (ix < 0 || ix >= w) ? 0.0f : src[ix];
          }
        };
        for (int64_t ox = 0; ox < inner.lo; ++ox) border(ox);
        for (int64_t ox = inner.lo; ox < inner.hi; ++ox) {
          const float* s = src + ox * stride - pad;
          float* d = dst + ox * ckk;
          for (int64_t kx = 0; kx < k; ++kx) d[kx] = s[kx];
        }
        for (int64_t ox = inner.hi; ox < wo; ++ox) border(ox);
      }
    }
  }
}

/// Scatter-adds dcol [ho*wo, cin*k*k] back into one sample gradient
/// dx_c [cin,h,w], in im2col's walk order. Each dx element gathers its
/// overlapping-window terms in ascending (oy, ox) order — for one oy only
/// one ky reaches its row — so the accumulation is deterministic.
void col2im(const float* dcol, int64_t cin, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t pad, int64_t ho, int64_t wo, float* dxc) {
  const int64_t ckk = cin * k * k;
  const InteriorColumns inner = interior_columns(w, k, stride, pad, wo);
  for (int64_t oy = 0; oy < ho; ++oy) {
    const int64_t iy0 = oy * stride - pad;
    for (int64_t ci = 0; ci < cin; ++ci) {
      for (int64_t ky = 0; ky < k; ++ky) {
        const int64_t iy = iy0 + ky;
        if (iy < 0 || iy >= h) continue;
        const float* src = dcol + oy * wo * ckk + (ci * k + ky) * k;
        float* dst = dxc + (ci * h + iy) * w;
        const auto border = [&](int64_t ox) {
          for (int64_t kx = 0; kx < k; ++kx) {
            const int64_t ix = ox * stride - pad + kx;
            if (ix >= 0 && ix < w) dst[ix] += src[ox * ckk + kx];
          }
        };
        for (int64_t ox = 0; ox < inner.lo; ++ox) border(ox);
        for (int64_t ox = inner.lo; ox < inner.hi; ++ox) {
          const float* s = src + ox * ckk;
          float* d = dst + ox * stride - pad;
          for (int64_t kx = 0; kx < k; ++kx) d[kx] += s[kx];
        }
        for (int64_t ox = inner.hi; ox < wo; ++ox) border(ox);
      }
    }
  }
}

/// Scatter one sample's GEMM output block [how, cout] into the layer
/// output layout [cout, how].
void transpose_to_chw(const float* src, int64_t how, int64_t cout,
                      float* dst) {
  for (int64_t co = 0; co < cout; ++co)
    for (int64_t p = 0; p < how; ++p) dst[co * how + p] = src[p * cout + co];
}

/// Cap on a pass's batch-sized arena scratch (all slabs combined): beyond
/// it forward falls back to the per-sample GEMM loop and backward unrolls
/// the batch in chunks, instead of growing the workspace arena unboundedly.
constexpr int64_t kMaxBatchedScratchBytes = int64_t{256} << 20;

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_("conv.weight",
              rng.he_normal({out_channels, in_channels, kernel, kernel},
                            in_channels * kernel * kernel)) {
  COMDML_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
               stride > 0 && padding >= 0);
}

std::string Conv2d::kind() const {
  std::ostringstream os;
  os << "conv" << k_ << "x" << k_;
  return os.str();
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  COMDML_REQUIRE(x.rank() == 4 && x.dim(1) == cin_,
                 "conv: expected [N," << cin_ << ",H,W], got "
                                      << tensor::shape_str(x.shape()));
  cached_input_ = x;
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t ho = out_extent(h), wo = out_extent(w);
  COMDML_REQUIRE(ho > 0 && wo > 0, "conv: input " << h << "x" << w
                                                  << " too small for kernel");
  Tensor y({n, cout_, ho, wo});
  const int64_t how = ho * wo;
  const int64_t ckk = cin_ * k_ * k_;
  // weight is [cout, cin, k, k] row-major == [cout, ckk] flattened.
  const float* wp = weight_.value.flat().data();
  const float* xp = x.flat().data();
  float* yp = y.flat().data();

  // One multi-sample GEMM per layer: every sample's receptive fields are
  // unrolled into a single [N*ho*wo, cin*k*k] slab and multiplied against
  // W^T in one call, so the packed W panel is amortized over the whole
  // batch and the GEMM parallelizes over N*ho*wo rows instead of running
  // inline per sample. Element dot products accumulate over the same
  // ascending-k order as the per-sample GEMM, so results are bit-identical
  // to it (and across thread counts — the dispatch below may pick either
  // path without changing a bit). The batched orientation pays a
  // [ho*wo, cout] -> [cout, ho*wo] scatter per sample, so it is used when
  // the per-sample loop cannot feed the pool (fewer samples than
  // threads); with enough samples the sample-parallel loop keeps the old
  // transpose-free layout. Oversized batches always take the per-sample
  // loop instead of growing the arena past the slab cap.
  const int64_t col_elems = n * how * ckk;
  // Live scratch of this path: col_all + yt.
  if (n < core::num_threads() &&
      (col_elems + n * how * cout_) *
              static_cast<int64_t>(sizeof(float)) <=
          kMaxBatchedScratchBytes) {
    core::Scratch<float> col_all(col_elems);
    float* colp = col_all.data();
    core::parallel_for(0, n, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t in = lo; in < hi; ++in)
        im2col(xp + in * cin_ * h * w, cin_, h, w, k_, stride_, pad_, ho, wo,
               colp + in * how * ckk);
    });
    // yt [N*ho*wo, cout] = col_all @ W^T, then scatter each sample's
    // [ho*wo, cout] block into the [cout, ho*wo] output layout.
    core::Scratch<float> yt(n * how * cout_);
    tensor::gemm_nt(colp, wp, yt.data(), n * how, ckk, cout_);
    const float* ytp = yt.data();
    core::parallel_for(0, n, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t in = lo; in < hi; ++in)
        transpose_to_chw(ytp + in * how * cout_, how, cout_,
                         yp + in * cout_ * how);
    });
    return y;
  }

  // Fallback: im2col + GEMM per sample; samples fan out to the pool, the
  // GEMM inside a worker runs inline (nested parallel regions are serial).
  core::parallel_for(0, n, 1, [&](int64_t lo, int64_t hi) {
    core::Scratch<float> col(how * ckk);
    for (int64_t in = lo; in < hi; ++in) {
      im2col(xp + in * cin_ * h * w, cin_, h, w, k_, stride_, pad_, ho, wo,
             col.data());
      // y_n [cout, ho*wo] = W [cout, ckk] @ col^T (col stored [ho*wo, ckk])
      tensor::gemm_nt(wp, col.data(), yp + in * cout_ * how, cout_, ckk, how);
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out, /*input_grad=*/true);
}

void Conv2d::backward_params(const Tensor& grad_out) {
  (void)backward_impl(grad_out, /*input_grad=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_out, bool input_grad) {
  COMDML_CHECK(!cached_input_.empty());
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t ho = out_extent(h), wo = out_extent(w);
  COMDML_REQUIRE(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                     grad_out.dim(1) == cout_ && grad_out.dim(2) == ho &&
                     grad_out.dim(3) == wo,
                 "conv backward: bad grad shape "
                     << tensor::shape_str(grad_out.shape()));

  const int64_t how = ho * wo;
  const int64_t ckk = cin_ * k_ * k_;
  // weight is [cout, cin, k, k] row-major == [cout, ckk] flattened.
  const float* wp = weight_.value.flat().data();
  const float* xp = x.flat().data();
  const float* gp = grad_out.flat().data();
  float* dwp = weight_.grad.flat().data();

  // dW [cout, cin*k*k] += G_n [cout, ho*wo] @ col_n [ho*wo, cin*k*k], one
  // accumulating GEMM per sample in sample order. Each call picks up dW
  // where the previous one stored it, and both micro-kernels keep every
  // element's running sum in a float register seeded from C, so each dW
  // element runs one ascending-k multiply-add chain over (sample,
  // position): the chain a single reduction GEMM over all samples would
  // run, without gathering G into [N*ho*wo, cout] first. Samples are
  // unrolled in chunks whose col slab fits the scratch cap (the whole
  // batch unless it is oversized); a chunk's im2col runs sample-parallel,
  // its GEMMs in sample order, so dW is bit-identical at every thread count
  // and chunk size.
  const int64_t col_bytes = how * ckk * static_cast<int64_t>(sizeof(float));
  const int64_t chunk =
      std::clamp<int64_t>(kMaxBatchedScratchBytes / col_bytes, 1, n);
  {
    core::Scratch<float> col(chunk * how * ckk);
    float* colp = col.data();
    for (int64_t n0 = 0; n0 < n; n0 += chunk) {
      const int64_t n1 = std::min(n, n0 + chunk);
      core::parallel_for(n0, n1, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t in = lo; in < hi; ++in)
          im2col(xp + in * cin_ * h * w, cin_, h, w, k_, stride_, pad_, ho,
                 wo, colp + (in - n0) * how * ckk);
      });
      for (int64_t in = n0; in < n1; ++in)
        tensor::gemm_nn(gp + in * cout_ * how, colp + (in - n0) * how * ckk,
                        dwp, cout_, how, ckk, /*accumulate=*/true);
    }
  }
  if (!input_grad) return {};

  // dx_n = col2im(G_n^T @ W): samples write disjoint dx slices, and each
  // dcol element sums over cout in ascending order whatever the partition.
  Tensor dx(x.shape());
  float* dxp = dx.flat().data();
  core::parallel_for(0, n, 1, [&](int64_t lo, int64_t hi) {
    core::Scratch<float> dcol(how * ckk);
    for (int64_t in = lo; in < hi; ++in) {
      tensor::gemm_tn(gp + in * cout_ * how, wp, dcol.data(), how, cout_,
                      ckk);  // dcol [ho*wo, cin*k*k]
      col2im(dcol.data(), cin_, h, w, k_, stride_, pad_, ho, wo,
             dxp + in * cin_ * h * w);
    }
  });
  return dx;
}

Tensor conv2d_reference_forward(const Tensor& x, const Tensor& w,
                                int64_t stride, int64_t padding) {
  COMDML_REQUIRE(x.rank() == 4 && w.rank() == 4 && x.dim(1) == w.dim(1),
                 "conv reference: bad shapes "
                     << tensor::shape_str(x.shape()) << " * "
                     << tensor::shape_str(w.shape()));
  const int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t ho = (h + 2 * padding - k) / stride + 1;
  const int64_t wo = (ww + 2 * padding - k) / stride + 1;
  COMDML_REQUIRE(ho > 0 && wo > 0, "conv reference: input too small");
  Tensor y({n, cout, ho, wo});
  const float* xp = x.flat().data();
  const float* wp = w.flat().data();
  float* yp = y.flat().data();
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          double acc = 0.0;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xc = xp + ((in * cin + ci) * h) * ww;
            const float* wc = wp + ((co * cin + ci) * k) * k;
            for (int64_t ky = 0; ky < k; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= ww) continue;
                acc += double(xc[iy * ww + ix]) * wc[ky * k + kx];
              }
            }
          }
          yp[((in * cout + co) * ho + oy) * wo + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

Tensor conv2d_reference_backward(const Tensor& x, const Tensor& w,
                                 const Tensor& grad_out, int64_t stride,
                                 int64_t padding, Tensor& dw) {
  COMDML_REQUIRE(x.rank() == 4 && w.rank() == 4 && grad_out.rank() == 4 &&
                     dw.shape() == w.shape(),
                 "conv reference backward: bad shapes");
  const int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  Tensor dx(x.shape());
  const float* xp = x.flat().data();
  const float* wp = w.flat().data();
  const float* gp = grad_out.flat().data();
  float* dxp = dx.flat().data();
  float* dwp = dw.flat().data();
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* gc = gp + ((in * cout + co) * ho) * wo;
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          const float g = gc[oy * wo + ox];
          if (g == 0.0f) continue;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xc = xp + ((in * cin + ci) * h) * ww;
            float* dxc = dxp + ((in * cin + ci) * h) * ww;
            const float* wc = wp + ((co * cin + ci) * k) * k;
            float* dwc = dwp + ((co * cin + ci) * k) * k;
            for (int64_t ky = 0; ky < k; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= ww) continue;
                dwc[ky * k + kx] += g * xc[iy * ww + ix];
                dxc[iy * ww + ix] += g * wc[ky * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
}

LayerCost Conv2d::cost(const Shape& in_shape) const {
  COMDML_REQUIRE(in_shape.size() == 3 && in_shape[0] == cin_,
                 "conv cost: expected [" << cin_ << ",H,W]");
  const int64_t ho = out_extent(in_shape[1]), wo = out_extent(in_shape[2]);
  LayerCost c;
  c.flops_forward = 2.0 * double(k_ * k_) * double(cin_) * double(cout_) *
                    double(ho) * double(wo);
  c.flops_backward = 2.0 * c.flops_forward;  // dX pass + dW pass
  c.param_bytes =
      cout_ * cin_ * k_ * k_ * static_cast<int64_t>(sizeof(float));
  c.out_bytes = cout_ * ho * wo * static_cast<int64_t>(sizeof(float));
  c.out_shape = {cout_, ho, wo};
  return c;
}

}  // namespace comdml::nn
