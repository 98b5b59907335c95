/* hcg_conv.c — 1-D / 2-D full convolution implementation library for HCG.
 *
 * 1-D signature: kernel(const T* a, int na, const T* b, int nb, T* out)
 * producing the full convolution of length na + nb - 1.
 *
 * Implementations:
 *   conv_direct  : textbook shift-multiply-accumulate (general fallback)
 *   conv_blocked : 8 outputs summed in registers; gcc -O2 vectorizes it
 *   conv_fft     : pointwise product of zero-padded radix-2 FFTs; wins for
 *                  long kernels, loses for short ones — the Figure-1-style
 *                  crossover Algorithm 1's pre-calculation discovers.
 *
 * Self-contained; private helpers carry the hcg_conv_priv_ prefix.
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifndef HCG_CONV_C_INCLUDED
#define HCG_CONV_C_INCLUDED

static void hcg_conv_priv_fft(double* a, int n, int inverse) {
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) {
      double tr = a[2 * i], ti = a[2 * i + 1];
      a[2 * i] = a[2 * j];
      a[2 * i + 1] = a[2 * j + 1];
      a[2 * j] = tr;
      a[2 * j + 1] = ti;
    }
  }
  for (int len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / (double)len;
    const double wr = cos(ang), wi = sin(ang);
    for (int i = 0; i < n; i += len) {
      double cr = 1.0, ci = 0.0;
      for (int j = 0; j < len / 2; ++j) {
        double* u = a + 2 * (i + j);
        double* v = a + 2 * (i + j + len / 2);
        const double vr = v[0] * cr - v[1] * ci;
        const double vi = v[0] * ci + v[1] * cr;
        const double ur = u[0], ui = u[1];
        u[0] = ur + vr;
        u[1] = ui + vi;
        v[0] = ur - vr;
        v[1] = ui - vi;
        const double ncr = cr * wr - ci * wi;
        ci = cr * wi + ci * wr;
        cr = ncr;
      }
    }
  }
}

#define HCG_CONV_DEFINE(T, SUF)                                               \
  void hcg_conv_direct_##SUF(const T* a, int na, const T* b, int nb,          \
                             T* out) {                                        \
    const int nout = na + nb - 1;                                             \
    for (int k = 0; k < nout; ++k) {                                          \
      double acc = 0.0;                                                       \
      const int lo = k - nb + 1 > 0 ? k - nb + 1 : 0;                         \
      const int hi = k < na - 1 ? k : na - 1;                                 \
      for (int i = lo; i <= hi; ++i) {                                        \
        acc += (double)a[i] * (double)b[k - i];                               \
      }                                                                       \
      out[k] = (T)acc;                                                        \
    }                                                                         \
  }                                                                           \
                                                                              \
  /* out[k] summed over taps j ascending, valid terms only. */                \
  static T hcg_conv_priv_at_##SUF(const T* a, int na, const T* b, int nb,     \
                                  int k) {                                    \
    const int lo = k - na + 1 > 0 ? k - na + 1 : 0;                           \
    const int hi = k < nb - 1 ? k : nb - 1;                                   \
    T acc = (T)0;                                                             \
    for (int j = lo; j <= hi; ++j) acc += b[j] * a[k - j];                    \
    return acc;                                                               \
  }                                                                           \
                                                                              \
  /* Outputs nb-1..na-1 see every tap: blocks of 8 of them keep their sums    \
   * in registers, one broadcast multiply-add per tap.  The head and tail     \
   * use the helper, whose per-output order is the block's. */                \
  void hcg_conv_blocked_##SUF(const T* restrict a, int na,                    \
                              const T* restrict b, int nb, T* restrict out) { \
    const int nout = na + nb - 1;                                             \
    int k = 0;                                                                \
    for (; k < nb - 1; ++k) out[k] = hcg_conv_priv_at_##SUF(a, na, b, nb, k); \
    for (; k + 8 <= na; k += 8) {                                             \
      T acc[8] = {0};                                                         \
      for (int j = 0; j < nb; ++j) {                                          \
        const T w = b[j];                                                     \
        const T* x = a + k - j;                                               \
        for (int l = 0; l < 8; ++l) acc[l] += w * x[l];                       \
      }                                                                       \
      for (int l = 0; l < 8; ++l) out[k + l] = acc[l];                        \
    }                                                                         \
    for (; k < nout; ++k) out[k] = hcg_conv_priv_at_##SUF(a, na, b, nb, k);   \
  }                                                                           \
                                                                              \
  void hcg_conv_fft_##SUF(const T* a, int na, const T* b, int nb, T* out) {   \
    const int nout = na + nb - 1;                                             \
    int m = 1;                                                                \
    while (m < nout) m <<= 1;                                                 \
    double* fa = (double*)calloc((size_t)m * 2, sizeof(double));              \
    double* fb = (double*)calloc((size_t)m * 2, sizeof(double));              \
    for (int i = 0; i < na; ++i) fa[2 * i] = a[i];                            \
    for (int i = 0; i < nb; ++i) fb[2 * i] = b[i];                            \
    hcg_conv_priv_fft(fa, m, 0);                                              \
    hcg_conv_priv_fft(fb, m, 0);                                              \
    for (int i = 0; i < m; ++i) {                                             \
      const double ar = fa[2 * i], ai = fa[2 * i + 1];                        \
      const double br = fb[2 * i], bi = fb[2 * i + 1];                        \
      fa[2 * i] = ar * br - ai * bi;                                          \
      fa[2 * i + 1] = ar * bi + ai * br;                                      \
    }                                                                         \
    hcg_conv_priv_fft(fa, m, 1);                                              \
    for (int k = 0; k < nout; ++k) out[k] = (T)(fa[2 * k] / m);               \
    free(fa);                                                                 \
    free(fb);                                                                 \
  }                                                                           \
                                                                              \
  /* 2-D full convolution, direct form. */                                    \
  void hcg_conv2d_direct_##SUF(const T* a, int ar, int ac, const T* b,        \
                               int br, int bc, T* out) {                      \
    const int orows = ar + br - 1, ocols = ac + bc - 1;                       \
    for (int r = 0; r < orows; ++r) {                                         \
      for (int c = 0; c < ocols; ++c) {                                       \
        double acc = 0.0;                                                     \
        const int ilo = r - br + 1 > 0 ? r - br + 1 : 0;                      \
        const int ihi = r < ar - 1 ? r : ar - 1;                              \
        const int plo = c - bc + 1 > 0 ? c - bc + 1 : 0;                      \
        const int phi = c < ac - 1 ? c : ac - 1;                              \
        for (int i = ilo; i <= ihi; ++i) {                                    \
          for (int p = plo; p <= phi; ++p) {                                  \
            acc += (double)a[i * ac + p] * (double)b[(r - i) * bc + (c - p)]; \
          }                                                                   \
        }                                                                     \
        out[r * ocols + c] = (T)acc;                                          \
      }                                                                       \
    }                                                                         \
  }

HCG_CONV_DEFINE(float, f32)
HCG_CONV_DEFINE(double, f64)

#undef HCG_CONV_DEFINE

#endif /* HCG_CONV_C_INCLUDED */
