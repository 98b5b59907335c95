/* Generated by hcg for model 'ifarm64_dup'.
 * ABI: void ifarm64_dup_init(void);
 *      void ifarm64_dup_step(const void* const* inputs, void* const* outputs); */
#include <stdint.h>
#include <string.h>
#include <math.h>
#include "hcg_neon_sim.h"

/* ---- intensive-actor kernel library (embedded) ---- */
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

/* hcg_dct.c — DCT implementation library for HCG.
 *
 * Transform convention (matching the HCG interpreter oracle):
 *   DCT-II:  X[k] = sum_n x[n] cos(pi/N * (n+0.5) * k)          (unnormalized)
 *   IDCT:    x[n] = (X[0]/2 + sum_{k>0} X[k] cos(pi/N*k*(n+0.5))) * 2/N
 * so IDCT(DCT(x)) == x.
 *
 * Implementations per transform:
 *   *_naive : O(n^2) cosine sum, any n (the generic fallback)
 *   *_lee   : Lee's recursive split, O(n log n), n = 2^k
 *   dct_fft : Makhoul reorder + complex radix-2 FFT, O(n log n), n = 2^k
 *
 * Instantiated for float (_f32) and double (_f64) via the macro block at
 * the bottom.  Self-contained; private helpers carry the hcg_dct_priv_
 * prefix.
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifndef HCG_DCT_C_INCLUDED
#define HCG_DCT_C_INCLUDED

#define HCG_DCT_DEFINE(T, SUF)                                                \
  /* cos(pi/n*(t+0.5)*k) == ctab[(2t+1)*k mod 4n] with ctab over pi/(2n);   \
   * the table keeps libm out of the O(n^2) loop, the realistic quality of  \
   * a generator's generic fallback. */                                     \
  static double* hcg_dct_priv_costab_##SUF(int n) {                          \
    double* ctab = (double*)malloc((size_t)n * 4 * sizeof(double));          \
    for (int j = 0; j < 4 * n; ++j) {                                        \
      ctab[j] = cos(M_PI * (double)j / (2.0 * n));                           \
    }                                                                        \
    return ctab;                                                             \
  }                                                                          \
                                                                              \
  void hcg_dct_naive_##SUF(const T* in, T* out, int n) {                      \
    double* ctab = hcg_dct_priv_costab_##SUF(n);                              \
    for (int k = 0; k < n; ++k) {                                             \
      double acc = 0.0;                                                       \
      /* (2t+1)*k mod 4n: starts at k, steps by 2k */                         \
      long long idx = k;                                                      \
      const long long step = 2LL * k;                                         \
      for (int t = 0; t < n; ++t) {                                           \
        acc += (double)in[t] * ctab[idx];                                     \
        idx += step;                                                          \
        if (idx >= 4LL * n) idx -= 4LL * n;                                   \
      }                                                                       \
      out[k] = (T)acc;                                                        \
    }                                                                         \
    free(ctab);                                                               \
  }                                                                           \
                                                                              \
  void hcg_idct_naive_##SUF(const T* in, T* out, int n) {                     \
    double* ctab = hcg_dct_priv_costab_##SUF(n);                              \
    for (int t = 0; t < n; ++t) {                                             \
      double acc = (double)in[0] / 2.0;                                       \
      long long idx = 2LL * t + 1;                                            \
      const long long step = 2LL * t + 1;                                     \
      for (int k = 1; k < n; ++k) {                                           \
        acc += (double)in[k] * ctab[idx];                                     \
        idx += step;                                                          \
        while (idx >= 4LL * n) idx -= 4LL * n;                                \
      }                                                                       \
      out[t] = (T)(acc * 2.0 / n);                                            \
    }                                                                         \
    free(ctab);                                                               \
  }                                                                           \
                                                                              \
  /* Lee's DCT-II recursion: data transformed in place, scratch size n. */    \
  static void hcg_dct_priv_lee2_##SUF(T* data, T* scratch, int n) {           \
    if (n == 1) return;                                                       \
    const int h = n / 2;                                                      \
    for (int i = 0; i < h; ++i) {                                             \
      const double a = data[i], b = data[n - 1 - i];                          \
      scratch[i] = (T)(a + b);                                                \
      scratch[h + i] =                                                        \
          (T)((a - b) / (2.0 * cos(M_PI * (i + 0.5) / (double)n)));           \
    }                                                                         \
    hcg_dct_priv_lee2_##SUF(scratch, data, h);                                \
    hcg_dct_priv_lee2_##SUF(scratch + h, data, h);                            \
    for (int i = 0; i < h - 1; ++i) {                                         \
      data[2 * i] = scratch[i];                                               \
      data[2 * i + 1] = (T)(scratch[h + i] + scratch[h + i + 1]);             \
    }                                                                         \
    data[n - 2] = scratch[h - 1];                                             \
    data[n - 1] = scratch[n - 1];                                             \
  }                                                                           \
                                                                              \
  void hcg_dct_lee_##SUF(const T* in, T* out, int n) {                        \
    T* scratch = (T*)malloc((size_t)n * sizeof(T));                           \
    memcpy(out, in, (size_t)n * sizeof(T));                                   \
    hcg_dct_priv_lee2_##SUF(out, scratch, n);                                 \
    free(scratch);                                                            \
  }                                                                           \
                                                                              \
  /* Lee's DCT-III recursion (inverse), X[0] already halved by caller. */     \
  static void hcg_dct_priv_lee3_##SUF(T* data, T* scratch, int n) {           \
    if (n == 1) return;                                                       \
    const int h = n / 2;                                                      \
    scratch[0] = data[0];                                                     \
    scratch[h] = data[1];                                                     \
    for (int i = 2, idx = 1; i < n; i += 2, ++idx) {                          \
      scratch[idx] = data[i];                                                 \
      scratch[h + idx] = (T)(data[i - 1] + data[i + 1]);                      \
    }                                                                         \
    hcg_dct_priv_lee3_##SUF(scratch, data, h);                                \
    hcg_dct_priv_lee3_##SUF(scratch + h, data, h);                            \
    for (int i = 0; i < h; ++i) {                                             \
      const double x = scratch[i];                                            \
      const double y =                                                        \
          scratch[h + i] / (2.0 * cos(M_PI * (i + 0.5) / (double)n));         \
      data[i] = (T)(x + y);                                                   \
      data[n - 1 - i] = (T)(x - y);                                           \
    }                                                                         \
  }                                                                           \
                                                                              \
  void hcg_idct_lee_##SUF(const T* in, T* out, int n) {                       \
    T* scratch = (T*)malloc((size_t)n * sizeof(T));                           \
    memcpy(out, in, (size_t)n * sizeof(T));                                   \
    out[0] = (T)(out[0] / 2.0);                                               \
    hcg_dct_priv_lee3_##SUF(out, scratch, n);                                 \
    const double s = 2.0 / (double)n;                                         \
    for (int i = 0; i < n; ++i) out[i] = (T)(out[i] * s);                     \
    free(scratch);                                                            \
  }                                                                           \
                                                                              \
  /* Complex radix-2 FFT core used by the Makhoul DCT (double math). */       \
  static void hcg_dct_priv_fft_##SUF(double* a, int n) {                      \
    for (int i = 1, j = 0; i < n; ++i) {                                      \
      int bit = n >> 1;                                                       \
      for (; j & bit; bit >>= 1) j ^= bit;                                    \
      j |= bit;                                                               \
      if (i < j) {                                                            \
        double tr = a[2 * i], ti = a[2 * i + 1];                              \
        a[2 * i] = a[2 * j];                                                  \
        a[2 * i + 1] = a[2 * j + 1];                                          \
        a[2 * j] = tr;                                                        \
        a[2 * j + 1] = ti;                                                    \
      }                                                                       \
    }                                                                         \
    for (int len = 2; len <= n; len <<= 1) {                                  \
      const double ang = -2.0 * M_PI / (double)len;                           \
      const double wr = cos(ang), wi = sin(ang);                              \
      for (int i = 0; i < n; i += len) {                                      \
        double cr = 1.0, ci = 0.0;                                            \
        for (int j = 0; j < len / 2; ++j) {                                   \
          double* u = a + 2 * (i + j);                                        \
          double* v = a + 2 * (i + j + len / 2);                              \
          const double vr = v[0] * cr - v[1] * ci;                            \
          const double vi = v[0] * ci + v[1] * cr;                            \
          const double ur = u[0], ui = u[1];                                  \
          u[0] = ur + vr;                                                     \
          u[1] = ui + vi;                                                     \
          v[0] = ur - vr;                                                     \
          v[1] = ui - vi;                                                     \
          const double ncr = cr * wr - ci * wi;                               \
          ci = cr * wi + ci * wr;                                             \
          cr = ncr;                                                           \
        }                                                                     \
      }                                                                       \
    }                                                                         \
  }                                                                           \
                                                                              \
  /* Makhoul: X[k] = Re(exp(-i*pi*k/(2N)) * FFT(reordered x)[k]). */          \
  void hcg_dct_fft_##SUF(const T* in, T* out, int n) {                        \
    if (n == 1) { /* DCT-II of a single sample is the identity */             \
      out[0] = in[0];                                                         \
      return;                                                                 \
    }                                                                         \
    double* v = (double*)calloc((size_t)n * 2, sizeof(double));               \
    for (int i = 0; i < n / 2; ++i) {                                         \
      v[2 * i] = in[2 * i];                                                   \
      v[2 * (n - 1 - i)] = in[2 * i + 1];                                     \
    }                                                                         \
    hcg_dct_priv_fft_##SUF(v, n);                                             \
    for (int k = 0; k < n; ++k) {                                             \
      const double theta = M_PI * k / (2.0 * n);                              \
      out[k] = (T)(v[2 * k] * cos(theta) + v[2 * k + 1] * sin(theta));        \
    }                                                                         \
    free(v);                                                                  \
  }                                                                           \
                                                                              \
  /* 2-D DCT, row-column. */                                                  \
  void hcg_dct2d_naive_##SUF(const T* in, T* out, int rows, int cols) {       \
    T* col_in = (T*)calloc((size_t)rows, sizeof(T));                          \
    T* col_out = (T*)calloc((size_t)rows, sizeof(T));                        \
    for (int r = 0; r < rows; ++r) {                                          \
      hcg_dct_naive_##SUF(in + (size_t)r * cols, out + (size_t)r * cols,      \
                          cols);                                              \
    }                                                                         \
    for (int c = 0; c < cols; ++c) {                                          \
      for (int r = 0; r < rows; ++r) col_in[r] = out[(size_t)r * cols + c];   \
      hcg_dct_naive_##SUF(col_in, col_out, rows);                             \
      for (int r = 0; r < rows; ++r) out[(size_t)r * cols + c] = col_out[r];  \
    }                                                                         \
    free(col_in);                                                             \
    free(col_out);                                                            \
  }                                                                           \
                                                                              \
  void hcg_dct2d_lee_##SUF(const T* in, T* out, int rows, int cols) {         \
    T* col_in = (T*)calloc((size_t)rows, sizeof(T));                          \
    T* col_out = (T*)calloc((size_t)rows, sizeof(T));                        \
    for (int r = 0; r < rows; ++r) {                                          \
      hcg_dct_lee_##SUF(in + (size_t)r * cols, out + (size_t)r * cols, cols); \
    }                                                                         \
    for (int c = 0; c < cols; ++c) {                                          \
      for (int r = 0; r < rows; ++r) col_in[r] = out[(size_t)r * cols + c];   \
      hcg_dct_lee_##SUF(col_in, col_out, rows);                               \
      for (int r = 0; r < rows; ++r) out[(size_t)r * cols + c] = col_out[r];  \
    }                                                                         \
    free(col_in);                                                             \
    free(col_out);                                                            \
  }

HCG_DCT_DEFINE(float, f32)
HCG_DCT_DEFINE(double, f64)

#undef HCG_DCT_DEFINE

#endif /* HCG_DCT_C_INCLUDED */

/* hcg_fft.c — the FFT implementation library for HCG's intensive-actor
 * synthesis (paper Figure 1: one actor, many implementations whose relative
 * speed depends on the input scale).
 *
 * All kernels share the signature
 *     void kernel(const float* in, float* out, int n, int inverse);
 * operating on interleaved complex data (re, im pairs).  Inverse transforms
 * include the 1/n normalization.  Each file in this library is fully
 * self-contained (only libc) because generated code embeds it verbatim;
 * private helpers are prefixed hcg_fft_priv_ to avoid collisions when
 * several kernel files are embedded into one translation unit.
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifndef HCG_FFT_C_INCLUDED
#define HCG_FFT_C_INCLUDED

/* ------------------------------------------------------------------ */
/* Naive O(n^2) DFT — the "generic function" a conventional generator  */
/* emits; also the general fallback implementation (any n).            */
/* ------------------------------------------------------------------ */
void hcg_fft_dft(const float* in, float* out, int n, int inverse) {
  /* One table of the n roots of unity keeps libm out of the O(n^2) loop —
   * this is the quality of "generic function" a production generator emits. */
  double* tw = (double*)malloc((size_t)n * 2 * sizeof(double));
  const double sign = inverse ? 2.0 : -2.0;
  for (int j = 0; j < n; ++j) {
    const double angle = sign * M_PI * (double)j / (double)n;
    tw[2 * j] = cos(angle);
    tw[2 * j + 1] = sin(angle);
  }
  for (int k = 0; k < n; ++k) {
    double re = 0.0, im = 0.0;
    long long idx = 0;
    for (int t = 0; t < n; ++t) {
      const double c = tw[2 * idx], s = tw[2 * idx + 1];
      const double xr = in[2 * t], xi = in[2 * t + 1];
      re += xr * c - xi * s;
      im += xr * s + xi * c;
      idx += k;
      if (idx >= n) idx -= n;
    }
    if (inverse) {
      re /= n;
      im /= n;
    }
    out[2 * k] = (float)re;
    out[2 * k + 1] = (float)im;
  }
  free(tw);
}

/* ------------------------------------------------------------------ */
/* Iterative radix-2 (n = 2^k), bit-reversal + butterfly stages.  One  */
/* table of n/2 roots serves every stage via stride indexing, trading  */
/* O(n) memory for exact single-rotation twiddles.                     */
/* ------------------------------------------------------------------ */
static void hcg_fft_priv_radix2_core(float* a, int n, int inverse) {
  /* Bit-reversal permutation. */
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) {
      float tr = a[2 * i], ti = a[2 * i + 1];
      a[2 * i] = a[2 * j];
      a[2 * i + 1] = a[2 * j + 1];
      a[2 * j] = tr;
      a[2 * j + 1] = ti;
    }
  }
  const int half = n / 2;
  float* tw = (float*)malloc((size_t)(half > 0 ? half : 1) * 2 * sizeof(float));
  const double ang0 = (inverse ? 2.0 : -2.0) * M_PI / (double)n;
  for (int j = 0; j < half; ++j) {
    tw[2 * j] = (float)cos(ang0 * j);
    tw[2 * j + 1] = (float)sin(ang0 * j);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const int stride = n / len;  /* w_len^j == w_n^(j*stride) */
    for (int i = 0; i < n; i += len) {
      for (int j = 0; j < len / 2; ++j) {
        const float wr = tw[2 * (j * stride)];
        const float wi = tw[2 * (j * stride) + 1];
        float* u = a + 2 * (i + j);
        float* v = a + 2 * (i + j + len / 2);
        const float vr = v[0] * wr - v[1] * wi;
        const float vi = v[0] * wi + v[1] * wr;
        const float ur = u[0], ui = u[1];
        u[0] = ur + vr;
        u[1] = ui + vi;
        v[0] = ur - vr;
        v[1] = ui - vi;
      }
    }
  }
  free(tw);
}

void hcg_fft_radix2_tab(const float* in, float* out, int n, int inverse) {
  memcpy(out, in, (size_t)n * 2 * sizeof(float));
  hcg_fft_priv_radix2_core(out, n, inverse);
  if (inverse) {
    const float s = 1.0f / (float)n;
    for (int i = 0; i < 2 * n; ++i) out[i] *= s;
  }
}

/* ------------------------------------------------------------------ */
/* Iterative radix-4 DIF (n = 4^k) with base-4 digit reversal.         */
/* ------------------------------------------------------------------ */
static void hcg_fft_priv_digit4_reverse(float* a, int n) {
  for (int i = 0; i < n; ++i) {
    int rev = 0;
    for (int t = i, m = n; m > 1; m >>= 2) {
      rev = (rev << 2) | (t & 3);
      t >>= 2;
    }
    if (i < rev) {
      float tr = a[2 * i], ti = a[2 * i + 1];
      a[2 * i] = a[2 * rev];
      a[2 * i + 1] = a[2 * rev + 1];
      a[2 * rev] = tr;
      a[2 * rev + 1] = ti;
    }
  }
}

void hcg_fft_radix4(const float* in, float* out, int n, int inverse) {
  memcpy(out, in, (size_t)n * 2 * sizeof(float));
  /* i-multiplier sign: forward uses -i, inverse uses +i. */
  const double isign = inverse ? 1.0 : -1.0;
  for (int len = n; len >= 4; len >>= 2) {
    const int q = len / 4;
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / (double)len;
    for (int base = 0; base < n; base += len) {
      for (int k = 0; k < q; ++k) {
        float* p0 = out + 2 * (base + k);
        float* p1 = out + 2 * (base + k + q);
        float* p2 = out + 2 * (base + k + 2 * q);
        float* p3 = out + 2 * (base + k + 3 * q);
        const double ar = p0[0], ai = p0[1];
        const double br = p1[0], bi = p1[1];
        const double cr = p2[0], ci = p2[1];
        const double dr = p3[0], di = p3[1];
        /* t0 = a + c, t1 = a - c, t2 = b + d, t3 = (b - d) * (+-i) */
        const double t0r = ar + cr, t0i = ai + ci;
        const double t1r = ar - cr, t1i = ai - ci;
        const double t2r = br + dr, t2i = bi + di;
        /* (b-d) * isign*i : (x + iy) * i = -y + ix */
        const double sbr = br - dr, sbi = bi - di;
        const double t3r = -isign * sbi, t3i = isign * sbr;
        /* y0 = t0 + t2                     -> slot k   (twiddle^0)   */
        /* y1 = (t1 + t3) * w^k             -> slot k+q               */
        /* y2 = (t0 - t2) * w^2k            -> slot k+2q              */
        /* y3 = (t1 - t3) * w^3k            -> slot k+3q              */
        const double y0r = t0r + t2r, y0i = t0i + t2i;
        const double y1r = t1r + t3r, y1i = t1i + t3i;
        const double y2r = t0r - t2r, y2i = t0i - t2i;
        const double y3r = t1r - t3r, y3i = t1i - t3i;
        const double w1r = cos(ang * k), w1i = sin(ang * k);
        const double w2r = cos(ang * 2 * k), w2i = sin(ang * 2 * k);
        const double w3r = cos(ang * 3 * k), w3i = sin(ang * 3 * k);
        p0[0] = (float)y0r;
        p0[1] = (float)y0i;
        p1[0] = (float)(y1r * w1r - y1i * w1i);
        p1[1] = (float)(y1r * w1i + y1i * w1r);
        p2[0] = (float)(y2r * w2r - y2i * w2i);
        p2[1] = (float)(y2r * w2i + y2i * w2r);
        p3[0] = (float)(y3r * w3r - y3i * w3i);
        p3[1] = (float)(y3r * w3i + y3i * w3r);
      }
    }
  }
  hcg_fft_priv_digit4_reverse(out, n);
  if (inverse) {
    const float s = 1.0f / (float)n;
    for (int i = 0; i < 2 * n; ++i) out[i] *= s;
  }
}

/* ------------------------------------------------------------------ */
/* Recursive mixed-radix Cooley-Tukey (Mix-FFT style).  Splits on the  */
/* smallest prime factor; prime sizes fall back to a direct DFT, so it */
/* handles any n.                                                      */
/* ------------------------------------------------------------------ */
static int hcg_fft_priv_smallest_factor(int n) {
  if (n % 2 == 0) return 2;
  for (int r = 3; r * r <= n; r += 2) {
    if (n % r == 0) return r;
  }
  return n;
}

/* out <- DFT of in (stride s complex elements), recursive. */
static void hcg_fft_priv_mixed_rec(const float* in, float* out, int n, int s,
                                   int inverse) {
  if (n == 1) {
    out[0] = in[0];
    out[1] = in[1];
    return;
  }
  const int r = hcg_fft_priv_smallest_factor(n);
  const int m = n / r;
  /* Roots-of-unity table for this level (also used by the prime fallback). */
  double* tw = (double*)malloc((size_t)n * 2 * sizeof(double));
  const double sign = inverse ? 2.0 : -2.0;
  for (int j = 0; j < n; ++j) {
    const double angle = sign * M_PI * (double)j / (double)n;
    tw[2 * j] = cos(angle);
    tw[2 * j + 1] = sin(angle);
  }
  if (r == n) {
    /* Prime size: direct DFT over the strided input. */
    for (int k = 0; k < n; ++k) {
      double re = 0.0, im = 0.0;
      long long idx = 0;
      for (int t = 0; t < n; ++t) {
        const double c = tw[2 * idx], si = tw[2 * idx + 1];
        const double xr = in[2 * t * s], xi = in[2 * t * s + 1];
        re += xr * c - xi * si;
        im += xr * si + xi * c;
        idx += k;
        if (idx >= n) idx -= n;
      }
      out[2 * k] = (float)re;
      out[2 * k + 1] = (float)im;
    }
    free(tw);
    return;
  }
  /* r sub-DFTs of size m over decimated inputs. */
  for (int i = 0; i < r; ++i) {
    hcg_fft_priv_mixed_rec(in + 2 * i * s, out + 2 * i * m, m, s * r, inverse);
  }
  /* Combine with twiddles: X[k2 + j*m] = sum_i sub_i[k2] * w^(i*(k2+j*m)). */
  float* tmp = (float*)malloc((size_t)n * 2 * sizeof(float));
  for (int k2 = 0; k2 < m; ++k2) {
    for (int j = 0; j < r; ++j) {
      const int k = k2 + j * m;
      double re = 0.0, im = 0.0;
      long long idx = 0;
      for (int i = 0; i < r; ++i) {
        const double c = tw[2 * idx], si = tw[2 * idx + 1];
        const double xr = out[2 * (i * m + k2)], xi = out[2 * (i * m + k2) + 1];
        re += xr * c - xi * si;
        im += xr * si + xi * c;
        idx += k;
        while (idx >= n) idx -= n;
      }
      tmp[2 * k] = (float)re;
      tmp[2 * k + 1] = (float)im;
    }
  }
  memcpy(out, tmp, (size_t)n * 2 * sizeof(float));
  free(tmp);
  free(tw);
}

void hcg_fft_mixed(const float* in, float* out, int n, int inverse) {
  hcg_fft_priv_mixed_rec(in, out, n, 1, inverse);
  if (inverse) {
    const float s = 1.0f / (float)n;
    for (int i = 0; i < 2 * n; ++i) out[i] *= s;
  }
}

/* ------------------------------------------------------------------ */
/* Bluestein chirp-z transform: any n via a power-of-two convolution.  */
/* ------------------------------------------------------------------ */
void hcg_fft_bluestein(const float* in, float* out, int n, int inverse) {
  int m = 1;
  while (m < 2 * n - 1) m <<= 1;

  float* a = (float*)calloc((size_t)m * 2, sizeof(float));
  float* b = (float*)calloc((size_t)m * 2, sizeof(float));
  const double sign = inverse ? 1.0 : -1.0;

  /* chirp[k] = exp(sign * i*pi*k^2/n); k^2 taken mod 2n keeps angles exact */
  for (int k = 0; k < n; ++k) {
    const long long k2 = ((long long)k * k) % (2LL * n);
    const double angle = sign * M_PI * (double)k2 / (double)n;
    const double cr = cos(angle), ci = sin(angle);
    /* a[k] = x[k] * chirp[k] */
    a[2 * k] = (float)(in[2 * k] * cr - in[2 * k + 1] * ci);
    a[2 * k + 1] = (float)(in[2 * k] * ci + in[2 * k + 1] * cr);
    /* b[k] = conj(chirp[k]); b is symmetric: b[m-k] = b[k] */
    b[2 * k] = (float)cr;
    b[2 * k + 1] = (float)-ci;
    if (k != 0) {
      b[2 * (m - k)] = (float)cr;
      b[2 * (m - k) + 1] = (float)-ci;
    }
  }

  hcg_fft_priv_radix2_core(a, m, 0);
  hcg_fft_priv_radix2_core(b, m, 0);
  for (int k = 0; k < m; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    a[2 * k] = (float)(ar * br - ai * bi);
    a[2 * k + 1] = (float)(ar * bi + ai * br);
  }
  hcg_fft_priv_radix2_core(a, m, 1);
  const double inv_m = 1.0 / (double)m;

  for (int k = 0; k < n; ++k) {
    const long long k2 = ((long long)k * k) % (2LL * n);
    const double angle = sign * M_PI * (double)k2 / (double)n;
    const double cr = cos(angle), ci = sin(angle);
    const double vr = a[2 * k] * inv_m, vi = a[2 * k + 1] * inv_m;
    double rr = vr * cr - vi * ci;
    double ri = vr * ci + vi * cr;
    if (inverse) {
      rr /= n;
      ri /= n;
    }
    out[2 * k] = (float)rr;
    out[2 * k + 1] = (float)ri;
  }
  free(a);
  free(b);
}

/* ------------------------------------------------------------------ */
/* 2-D transforms (row-column).                                        */
/* ------------------------------------------------------------------ */
void hcg_fft2d_dft(const float* in, float* out, int rows, int cols,
                   int inverse) {
  float* col_in = (float*)calloc((size_t)rows * 2, sizeof(float));
  float* col_out = (float*)calloc((size_t)rows * 2, sizeof(float));
  for (int r = 0; r < rows; ++r) {
    hcg_fft_dft(in + (size_t)r * cols * 2, out + (size_t)r * cols * 2, cols,
                inverse);
  }
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) {
      col_in[2 * r] = out[((size_t)r * cols + c) * 2];
      col_in[2 * r + 1] = out[((size_t)r * cols + c) * 2 + 1];
    }
    hcg_fft_dft(col_in, col_out, rows, inverse);
    for (int r = 0; r < rows; ++r) {
      out[((size_t)r * cols + c) * 2] = col_out[2 * r];
      out[((size_t)r * cols + c) * 2 + 1] = col_out[2 * r + 1];
    }
  }
  free(col_in);
  free(col_out);
}

void hcg_fft2d_radix2(const float* in, float* out, int rows, int cols,
                      int inverse) {
  float* col_buf = (float*)malloc((size_t)rows * 2 * sizeof(float));
  for (int r = 0; r < rows; ++r) {
    hcg_fft_radix2_tab(in + (size_t)r * cols * 2, out + (size_t)r * cols * 2,
                       cols, inverse);
  }
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) {
      col_buf[2 * r] = out[((size_t)r * cols + c) * 2];
      col_buf[2 * r + 1] = out[((size_t)r * cols + c) * 2 + 1];
    }
    hcg_fft_priv_radix2_core(col_buf, rows, inverse);
    const float s = inverse ? 1.0f / (float)rows : 1.0f;
    for (int r = 0; r < rows; ++r) {
      out[((size_t)r * cols + c) * 2] = col_buf[2 * r] * s;
      out[((size_t)r * cols + c) * 2 + 1] = col_buf[2 * r + 1] * s;
    }
  }
  free(col_buf);
}

#endif /* HCG_FFT_C_INCLUDED */

/* hcg_mat.c — small-matrix implementation library for HCG (paper Table 1(a):
 * 2x2 / 3x3 / 4x4 multiplication, inversion, determinant).
 *
 * Signatures (n x n row-major):
 *   matmul: kernel(const T* a, const T* b, T* out, int n)
 *   matinv: kernel(const T* a, T* out, int n)
 *   matdet: kernel(const T* a, T* out, int n)   — out is a 1-element buffer
 *
 * Implementations: *_generic works for any n (the fallback the conventional
 * generators use); *_unrolled / *_adjugate / *_direct are the specialized
 * n<=4 forms Algorithm 1 selects; *_blocked is the vectorized n>=16 form.
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifndef HCG_MAT_C_INCLUDED
#define HCG_MAT_C_INCLUDED

#define HCG_MAT_DEFINE(T, SUF)                                                \
  void hcg_matmul_generic_##SUF(const T* a, const T* b, T* out, int n) {      \
    for (int r = 0; r < n; ++r) {                                             \
      for (int c = 0; c < n; ++c) {                                           \
        double acc = 0.0;                                                     \
        for (int k = 0; k < n; ++k) {                                         \
          acc += (double)a[r * n + k] * (double)b[k * n + c];                 \
        }                                                                     \
        out[r * n + c] = (T)acc;                                              \
      }                                                                       \
    }                                                                         \
  }                                                                           \
                                                                              \
  void hcg_matmul_unrolled_##SUF(const T* a, const T* b, T* out, int n) {     \
    if (n == 2) {                                                             \
      out[0] = (T)(a[0] * b[0] + a[1] * b[2]);                                \
      out[1] = (T)(a[0] * b[1] + a[1] * b[3]);                                \
      out[2] = (T)(a[2] * b[0] + a[3] * b[2]);                                \
      out[3] = (T)(a[2] * b[1] + a[3] * b[3]);                                \
    } else if (n == 3) {                                                      \
      for (int r = 0; r < 3; ++r) {                                           \
        const T a0 = a[3 * r], a1 = a[3 * r + 1], a2 = a[3 * r + 2];          \
        out[3 * r + 0] = (T)(a0 * b[0] + a1 * b[3] + a2 * b[6]);              \
        out[3 * r + 1] = (T)(a0 * b[1] + a1 * b[4] + a2 * b[7]);              \
        out[3 * r + 2] = (T)(a0 * b[2] + a1 * b[5] + a2 * b[8]);              \
      }                                                                       \
    } else { /* n == 4 */                                                     \
      for (int r = 0; r < 4; ++r) {                                           \
        const T a0 = a[4 * r], a1 = a[4 * r + 1];                             \
        const T a2 = a[4 * r + 2], a3 = a[4 * r + 3];                         \
        for (int c = 0; c < 4; ++c) {                                         \
          out[4 * r + c] = (T)(a0 * b[c] + a1 * b[4 + c] + a2 * b[8 + c] +    \
                               a3 * b[12 + c]);                               \
        }                                                                     \
      }                                                                       \
    }                                                                         \
  }                                                                           \
                                                                              \
  void hcg_matdet_gauss_##SUF(const T* a, T* out, int n) {                    \
    double* m = (double*)malloc((size_t)n * n * sizeof(double));              \
    for (int i = 0; i < n * n; ++i) m[i] = a[i];                              \
    double det = 1.0;                                                         \
    for (int col = 0; col < n; ++col) {                                       \
      int pivot = col;                                                        \
      for (int r = col + 1; r < n; ++r) {                                     \
        if (fabs(m[r * n + col]) > fabs(m[pivot * n + col])) pivot = r;       \
      }                                                                       \
      if (m[pivot * n + col] == 0.0) {                                        \
        det = 0.0;                                                            \
        break;                                                                \
      }                                                                       \
      if (pivot != col) {                                                     \
        det = -det;                                                           \
        for (int c = 0; c < n; ++c) {                                         \
          double t = m[pivot * n + c];                                        \
          m[pivot * n + c] = m[col * n + c];                                  \
          m[col * n + c] = t;                                                 \
        }                                                                     \
      }                                                                       \
      det *= m[col * n + col];                                                \
      for (int r = col + 1; r < n; ++r) {                                     \
        const double f = m[r * n + col] / m[col * n + col];                   \
        for (int c = col; c < n; ++c) m[r * n + c] -= f * m[col * n + c];     \
      }                                                                       \
    }                                                                         \
    free(m);                                                                  \
    out[0] = (T)det;                                                          \
  }                                                                           \
                                                                              \
  static double hcg_mat_priv_det3_##SUF(const T* a) {                         \
    return (double)a[0] * ((double)a[4] * a[8] - (double)a[5] * a[7]) -       \
           (double)a[1] * ((double)a[3] * a[8] - (double)a[5] * a[6]) +       \
           (double)a[2] * ((double)a[3] * a[7] - (double)a[4] * a[6]);        \
  }                                                                           \
                                                                              \
  void hcg_matdet_direct_##SUF(const T* a, T* out, int n) {                   \
    if (n == 2) {                                                             \
      out[0] = (T)((double)a[0] * a[3] - (double)a[1] * a[2]);                \
    } else if (n == 3) {                                                      \
      out[0] = (T)hcg_mat_priv_det3_##SUF(a);                                 \
    } else { /* n == 4: cofactor expansion along the first row */             \
      double det = 0.0;                                                       \
      for (int c = 0; c < 4; ++c) {                                           \
        T minor[9];                                                           \
        int idx = 0;                                                          \
        for (int r = 1; r < 4; ++r) {                                         \
          for (int cc = 0; cc < 4; ++cc) {                                    \
            if (cc == c) continue;                                            \
            minor[idx++] = a[r * 4 + cc];                                     \
          }                                                                   \
        }                                                                     \
        const double cof = hcg_mat_priv_det3_##SUF(minor);                    \
        det += (c % 2 == 0 ? 1.0 : -1.0) * (double)a[c] * cof;                \
      }                                                                       \
      out[0] = (T)det;                                                        \
    }                                                                         \
  }                                                                           \
                                                                              \
  void hcg_matinv_gauss_##SUF(const T* a, T* out, int n) {                    \
    double* m = (double*)malloc((size_t)n * 2 * n * sizeof(double));          \
    for (int r = 0; r < n; ++r) {                                             \
      for (int c = 0; c < n; ++c) m[r * 2 * n + c] = a[r * n + c];            \
      for (int c = 0; c < n; ++c) m[r * 2 * n + n + c] = (r == c) ? 1.0 : 0.0;\
    }                                                                         \
    for (int col = 0; col < n; ++col) {                                       \
      int pivot = col;                                                        \
      for (int r = col + 1; r < n; ++r) {                                     \
        if (fabs(m[r * 2 * n + col]) > fabs(m[pivot * 2 * n + col]))          \
          pivot = r;                                                          \
      }                                                                       \
      if (pivot != col) {                                                     \
        for (int c = 0; c < 2 * n; ++c) {                                     \
          double t = m[pivot * 2 * n + c];                                    \
          m[pivot * 2 * n + c] = m[col * 2 * n + c];                          \
          m[col * 2 * n + c] = t;                                             \
        }                                                                     \
      }                                                                       \
      const double inv = 1.0 / m[col * 2 * n + col];                          \
      for (int c = 0; c < 2 * n; ++c) m[col * 2 * n + c] *= inv;              \
      for (int r = 0; r < n; ++r) {                                           \
        if (r == col) continue;                                               \
        const double f = m[r * 2 * n + col];                                  \
        if (f == 0.0) continue;                                               \
        for (int c = 0; c < 2 * n; ++c) {                                     \
          m[r * 2 * n + c] -= f * m[col * 2 * n + c];                         \
        }                                                                     \
      }                                                                       \
    }                                                                         \
    for (int r = 0; r < n; ++r) {                                             \
      for (int c = 0; c < n; ++c) out[r * n + c] = (T)m[r * 2 * n + n + c];   \
    }                                                                         \
    free(m);                                                                  \
  }                                                                           \
                                                                              \
  /* Analytic adjugate inverse for n <= 4. */                                 \
  void hcg_matinv_adjugate_##SUF(const T* a, T* out, int n) {                 \
    if (n == 2) {                                                             \
      const double det = (double)a[0] * a[3] - (double)a[1] * a[2];           \
      const double inv = 1.0 / det;                                           \
      out[0] = (T)(a[3] * inv);                                               \
      out[1] = (T)(-a[1] * inv);                                              \
      out[2] = (T)(-a[2] * inv);                                              \
      out[3] = (T)(a[0] * inv);                                               \
    } else if (n == 3) {                                                      \
      const double det = hcg_mat_priv_det3_##SUF(a);                          \
      const double inv = 1.0 / det;                                           \
      out[0] = (T)(((double)a[4] * a[8] - (double)a[5] * a[7]) * inv);        \
      out[1] = (T)(((double)a[2] * a[7] - (double)a[1] * a[8]) * inv);        \
      out[2] = (T)(((double)a[1] * a[5] - (double)a[2] * a[4]) * inv);        \
      out[3] = (T)(((double)a[5] * a[6] - (double)a[3] * a[8]) * inv);        \
      out[4] = (T)(((double)a[0] * a[8] - (double)a[2] * a[6]) * inv);        \
      out[5] = (T)(((double)a[2] * a[3] - (double)a[0] * a[5]) * inv);        \
      out[6] = (T)(((double)a[3] * a[7] - (double)a[4] * a[6]) * inv);        \
      out[7] = (T)(((double)a[1] * a[6] - (double)a[0] * a[7]) * inv);        \
      out[8] = (T)(((double)a[0] * a[4] - (double)a[1] * a[3]) * inv);        \
    } else { /* n == 4: blockwise via cofactors of 3x3 minors */              \
      double cof[16];                                                         \
      for (int r = 0; r < 4; ++r) {                                           \
        for (int c = 0; c < 4; ++c) {                                         \
          T minor[9];                                                         \
          int idx = 0;                                                        \
          for (int rr = 0; rr < 4; ++rr) {                                    \
            if (rr == r) continue;                                            \
            for (int cc = 0; cc < 4; ++cc) {                                  \
              if (cc == c) continue;                                          \
              minor[idx++] = a[rr * 4 + cc];                                  \
            }                                                                 \
          }                                                                   \
          const double sign = ((r + c) % 2 == 0) ? 1.0 : -1.0;                \
          cof[r * 4 + c] = sign * hcg_mat_priv_det3_##SUF(minor);             \
        }                                                                     \
      }                                                                       \
      const double det = (double)a[0] * cof[0] + (double)a[1] * cof[1] +      \
                         (double)a[2] * cof[2] + (double)a[3] * cof[3];       \
      const double inv = 1.0 / det;                                           \
      for (int r = 0; r < 4; ++r) {                                           \
        for (int c = 0; c < 4; ++c) {                                         \
          out[r * 4 + c] = (T)(cof[c * 4 + r] * inv); /* adjugate = cof^T */  \
        }                                                                     \
      }                                                                       \
    }                                                                         \
  }

HCG_MAT_DEFINE(float, f32)
HCG_MAT_DEFINE(double, f64)

#undef HCG_MAT_DEFINE

/* 8-column blocks of a row summed in registers over all of k (gcc -O2
 * vectorizes the j loop), then the n % 8 tail; k ascends from 0 in T. */
#define HCG_MAT_BLOCKED_DEFINE(T, SUF)                                        \
  void hcg_matmul_blocked_##SUF(const T* restrict a, const T* restrict b,     \
                                T* restrict out, int n) {                     \
    for (int r = 0; r < n; ++r) {                                             \
      const T* arow = a + r * n;                                              \
      T* orow = out + r * n;                                                  \
      int c = 0;                                                              \
      for (; c + 8 <= n; c += 8) {                                            \
        T acc[8] = {0};                                                       \
        for (int k = 0; k < n; ++k) {                                         \
          const T av = arow[k];                                               \
          const T* brow = b + k * n + c;                                      \
          for (int j = 0; j < 8; ++j) acc[j] += av * brow[j];                 \
        }                                                                     \
        for (int j = 0; j < 8; ++j) orow[c + j] = acc[j];                     \
      }                                                                       \
      for (; c < n; ++c) {                                                    \
        T acc = (T)0;                                                         \
        for (int k = 0; k < n; ++k) acc += arow[k] * b[k * n + c];            \
        orow[c] = acc;                                                        \
      }                                                                       \
    }                                                                         \
  }

HCG_MAT_BLOCKED_DEFINE(float, f32)
HCG_MAT_BLOCKED_DEFINE(double, f64)

#undef HCG_MAT_BLOCKED_DEFINE

#endif /* HCG_MAT_C_INCLUDED */

/* ---- signal buffers ---- */
static float buf0[271];
static const float sig_taps2[4] = {0.000000f, 0.036162f, 0.067429f, 0.089570f};
static const float sig_taps6[8] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f};
static const float sig_taps10[12] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f};
static const float sig_taps14[16] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f, -0.096313f, -0.099524f, -0.089265f, -0.066924f};
static const float sig_taps18[4] = {0.000000f, 0.036162f, 0.067429f, 0.089570f};
static const float sig_taps22[8] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f};
static const float sig_taps26[12] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f};
static const float sig_taps30[16] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f, -0.096313f, -0.099524f, -0.089265f, -0.066924f};
static const float sig_taps34[4] = {0.000000f, 0.036162f, 0.067429f, 0.089570f};
static const float sig_taps38[8] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f};
static const float sig_taps42[12] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f};
static const float sig_taps46[16] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f, -0.096313f, -0.099524f, -0.089265f, -0.066924f};
static const float sig_taps50[4] = {0.000000f, 0.036162f, 0.067429f, 0.089570f};
static const float sig_taps54[8] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f};
static const float sig_taps58[12] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f};
static const float sig_taps62[16] = {0.000000f, 0.036162f, 0.067429f, 0.089570f, 0.099588f, 0.096128f, 0.079657f, 0.052404f, 0.018060f, -0.018729f, -0.052984f, -0.080067f, -0.096313f, -0.099524f, -0.089265f, -0.066924f};

void ifarm64_dup_init(void) {
}

void ifarm64_dup_step(const void* const* inputs, void* const* outputs) {
  const float* in_x0 = (const float*)inputs[0];
  const float* in_x1 = (const float*)inputs[1];
  const float* in_x2 = (const float*)inputs[2];
  const float* in_a3 = (const float*)inputs[3];
  const float* in_c3 = (const float*)inputs[4];
  const float* in_x4 = (const float*)inputs[5];
  const float* in_x5 = (const float*)inputs[6];
  const float* in_x6 = (const float*)inputs[7];
  const float* in_a7 = (const float*)inputs[8];
  const float* in_c7 = (const float*)inputs[9];
  const float* in_x8 = (const float*)inputs[10];
  const float* in_x9 = (const float*)inputs[11];
  const float* in_x10 = (const float*)inputs[12];
  const float* in_a11 = (const float*)inputs[13];
  const float* in_c11 = (const float*)inputs[14];
  const float* in_x12 = (const float*)inputs[15];
  const float* in_x13 = (const float*)inputs[16];
  const float* in_x14 = (const float*)inputs[17];
  const float* in_a15 = (const float*)inputs[18];
  const float* in_c15 = (const float*)inputs[19];
  const float* in_x16 = (const float*)inputs[20];
  const float* in_x17 = (const float*)inputs[21];
  const float* in_x18 = (const float*)inputs[22];
  const float* in_a19 = (const float*)inputs[23];
  const float* in_c19 = (const float*)inputs[24];
  const float* in_x20 = (const float*)inputs[25];
  const float* in_x21 = (const float*)inputs[26];
  const float* in_x22 = (const float*)inputs[27];
  const float* in_a23 = (const float*)inputs[28];
  const float* in_c23 = (const float*)inputs[29];
  const float* in_x24 = (const float*)inputs[30];
  const float* in_x25 = (const float*)inputs[31];
  const float* in_x26 = (const float*)inputs[32];
  const float* in_a27 = (const float*)inputs[33];
  const float* in_c27 = (const float*)inputs[34];
  const float* in_x28 = (const float*)inputs[35];
  const float* in_x29 = (const float*)inputs[36];
  const float* in_x30 = (const float*)inputs[37];
  const float* in_a31 = (const float*)inputs[38];
  const float* in_c31 = (const float*)inputs[39];
  const float* in_x32 = (const float*)inputs[40];
  const float* in_x33 = (const float*)inputs[41];
  const float* in_x34 = (const float*)inputs[42];
  const float* in_a35 = (const float*)inputs[43];
  const float* in_c35 = (const float*)inputs[44];
  const float* in_x36 = (const float*)inputs[45];
  const float* in_x37 = (const float*)inputs[46];
  const float* in_x38 = (const float*)inputs[47];
  const float* in_a39 = (const float*)inputs[48];
  const float* in_c39 = (const float*)inputs[49];
  const float* in_x40 = (const float*)inputs[50];
  const float* in_x41 = (const float*)inputs[51];
  const float* in_x42 = (const float*)inputs[52];
  const float* in_a43 = (const float*)inputs[53];
  const float* in_c43 = (const float*)inputs[54];
  const float* in_x44 = (const float*)inputs[55];
  const float* in_x45 = (const float*)inputs[56];
  const float* in_x46 = (const float*)inputs[57];
  const float* in_a47 = (const float*)inputs[58];
  const float* in_c47 = (const float*)inputs[59];
  const float* in_x48 = (const float*)inputs[60];
  const float* in_x49 = (const float*)inputs[61];
  const float* in_x50 = (const float*)inputs[62];
  const float* in_a51 = (const float*)inputs[63];
  const float* in_c51 = (const float*)inputs[64];
  const float* in_x52 = (const float*)inputs[65];
  const float* in_x53 = (const float*)inputs[66];
  const float* in_x54 = (const float*)inputs[67];
  const float* in_a55 = (const float*)inputs[68];
  const float* in_c55 = (const float*)inputs[69];
  const float* in_x56 = (const float*)inputs[70];
  const float* in_x57 = (const float*)inputs[71];
  const float* in_x58 = (const float*)inputs[72];
  const float* in_a59 = (const float*)inputs[73];
  const float* in_c59 = (const float*)inputs[74];
  const float* in_x60 = (const float*)inputs[75];
  const float* in_x61 = (const float*)inputs[76];
  const float* in_x62 = (const float*)inputs[77];
  const float* in_a63 = (const float*)inputs[78];
  const float* in_c63 = (const float*)inputs[79];
  float* out_y0 = (float*)outputs[0];
  float* out_y1 = (float*)outputs[1];
  float* out_y2 = (float*)outputs[2];
  float* out_y3 = (float*)outputs[3];
  float* out_y4 = (float*)outputs[4];
  float* out_y5 = (float*)outputs[5];
  float* out_y6 = (float*)outputs[6];
  float* out_y7 = (float*)outputs[7];
  float* out_y8 = (float*)outputs[8];
  float* out_y9 = (float*)outputs[9];
  float* out_y10 = (float*)outputs[10];
  float* out_y11 = (float*)outputs[11];
  float* out_y12 = (float*)outputs[12];
  float* out_y13 = (float*)outputs[13];
  float* out_y14 = (float*)outputs[14];
  float* out_y15 = (float*)outputs[15];
  float* out_y16 = (float*)outputs[16];
  float* out_y17 = (float*)outputs[17];
  float* out_y18 = (float*)outputs[18];
  float* out_y19 = (float*)outputs[19];
  float* out_y20 = (float*)outputs[20];
  float* out_y21 = (float*)outputs[21];
  float* out_y22 = (float*)outputs[22];
  float* out_y23 = (float*)outputs[23];
  float* out_y24 = (float*)outputs[24];
  float* out_y25 = (float*)outputs[25];
  float* out_y26 = (float*)outputs[26];
  float* out_y27 = (float*)outputs[27];
  float* out_y28 = (float*)outputs[28];
  float* out_y29 = (float*)outputs[29];
  float* out_y30 = (float*)outputs[30];
  float* out_y31 = (float*)outputs[31];
  float* out_y32 = (float*)outputs[32];
  float* out_y33 = (float*)outputs[33];
  float* out_y34 = (float*)outputs[34];
  float* out_y35 = (float*)outputs[35];
  float* out_y36 = (float*)outputs[36];
  float* out_y37 = (float*)outputs[37];
  float* out_y38 = (float*)outputs[38];
  float* out_y39 = (float*)outputs[39];
  float* out_y40 = (float*)outputs[40];
  float* out_y41 = (float*)outputs[41];
  float* out_y42 = (float*)outputs[42];
  float* out_y43 = (float*)outputs[43];
  float* out_y44 = (float*)outputs[44];
  float* out_y45 = (float*)outputs[45];
  float* out_y46 = (float*)outputs[46];
  float* out_y47 = (float*)outputs[47];
  float* out_y48 = (float*)outputs[48];
  float* out_y49 = (float*)outputs[49];
  float* out_y50 = (float*)outputs[50];
  float* out_y51 = (float*)outputs[51];
  float* out_y52 = (float*)outputs[52];
  float* out_y53 = (float*)outputs[53];
  float* out_y54 = (float*)outputs[54];
  float* out_y55 = (float*)outputs[55];
  float* out_y56 = (float*)outputs[56];
  float* out_y57 = (float*)outputs[57];
  float* out_y58 = (float*)outputs[58];
  float* out_y59 = (float*)outputs[59];
  float* out_y60 = (float*)outputs[60];
  float* out_y61 = (float*)outputs[61];
  float* out_y62 = (float*)outputs[62];
  float* out_y63 = (float*)outputs[63];

  hcg_fft_radix4(in_x0, out_y0, 4, 0);
  hcg_dct_lee_f32(in_x1, buf0, 8);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 8; i += 4) {
    float32x4_t dct1_b = vld1q_f32(&buf0[i]);
    float32x4_t g1_b = vmulq_n_f32(dct1_b, 0.500000f);
    vst1q_f32(&out_y1[i], g1_b);
  }
  hcg_conv_blocked_f32(in_x2, 256, sig_taps2, 4, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g2_s = buf0[i] * (float)0.500000f;
    out_y2[i] = g2_s;
  }
  for (int i = 3; i < 259; i += 4) {
    float32x4_t conv2_b = vld1q_f32(&buf0[i]);
    float32x4_t g2_b = vmulq_n_f32(conv2_b, 0.500000f);
    vst1q_f32(&out_y2[i], g2_b);
  }
  hcg_matmul_unrolled_f32(in_a3, in_c3, buf0, 2);
  /* batch region (1 actors) -> neon_sim SIMD */
  {
    const int i = 0;
    float32x4_t mm3_b = vld1q_f32(&buf0[i]);
    float32x4_t g3_b = vmulq_n_f32(mm3_b, 0.500000f);
    vst1q_f32(&out_y3[i], g3_b);
  }
  hcg_fft_radix2_tab(in_x4, out_y4, 8, 0);
  hcg_dct_fft_f32(in_x5, buf0, 16);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t dct5_b = vld1q_f32(&buf0[i]);
    float32x4_t g5_b = vmulq_n_f32(dct5_b, 0.500000f);
    vst1q_f32(&out_y5[i], g5_b);
  }
  hcg_conv_blocked_f32(in_x6, 256, sig_taps6, 8, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g6_s = buf0[i] * (float)0.500000f;
    out_y6[i] = g6_s;
  }
  for (int i = 3; i < 263; i += 4) {
    float32x4_t conv6_b = vld1q_f32(&buf0[i]);
    float32x4_t g6_b = vmulq_n_f32(conv6_b, 0.500000f);
    vst1q_f32(&out_y6[i], g6_b);
  }
  hcg_matmul_unrolled_f32(in_a7, in_c7, buf0, 3);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g7_s = buf0[i] * (float)0.500000f;
    out_y7[i] = g7_s;
  }
  for (int i = 1; i < 9; i += 4) {
    float32x4_t mm7_b = vld1q_f32(&buf0[i]);
    float32x4_t g7_b = vmulq_n_f32(mm7_b, 0.500000f);
    vst1q_f32(&out_y7[i], g7_b);
  }
  hcg_fft_dft(in_x8, out_y8, 12, 0);
  hcg_dct_naive_f32(in_x9, buf0, 24);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 24; i += 4) {
    float32x4_t dct9_b = vld1q_f32(&buf0[i]);
    float32x4_t g9_b = vmulq_n_f32(dct9_b, 0.500000f);
    vst1q_f32(&out_y9[i], g9_b);
  }
  hcg_conv_blocked_f32(in_x10, 256, sig_taps10, 12, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g10_s = buf0[i] * (float)0.500000f;
    out_y10[i] = g10_s;
  }
  for (int i = 3; i < 267; i += 4) {
    float32x4_t conv10_b = vld1q_f32(&buf0[i]);
    float32x4_t g10_b = vmulq_n_f32(conv10_b, 0.500000f);
    vst1q_f32(&out_y10[i], g10_b);
  }
  hcg_matmul_unrolled_f32(in_a11, in_c11, buf0, 4);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t mm11_b = vld1q_f32(&buf0[i]);
    float32x4_t g11_b = vmulq_n_f32(mm11_b, 0.500000f);
    vst1q_f32(&out_y11[i], g11_b);
  }
  hcg_fft_radix2_tab(in_x12, out_y12, 16, 0);
  hcg_dct_fft_f32(in_x13, buf0, 32);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 32; i += 4) {
    float32x4_t dct13_b = vld1q_f32(&buf0[i]);
    float32x4_t g13_b = vmulq_n_f32(dct13_b, 0.500000f);
    vst1q_f32(&out_y13[i], g13_b);
  }
  hcg_conv_blocked_f32(in_x14, 256, sig_taps14, 16, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g14_s = buf0[i] * (float)0.500000f;
    out_y14[i] = g14_s;
  }
  for (int i = 3; i < 271; i += 4) {
    float32x4_t conv14_b = vld1q_f32(&buf0[i]);
    float32x4_t g14_b = vmulq_n_f32(conv14_b, 0.500000f);
    vst1q_f32(&out_y14[i], g14_b);
  }
  hcg_matmul_generic_f32(in_a15, in_c15, buf0, 5);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g15_s = buf0[i] * (float)0.500000f;
    out_y15[i] = g15_s;
  }
  for (int i = 1; i < 25; i += 4) {
    float32x4_t mm15_b = vld1q_f32(&buf0[i]);
    float32x4_t g15_b = vmulq_n_f32(mm15_b, 0.500000f);
    vst1q_f32(&out_y15[i], g15_b);
  }
  hcg_fft_radix4(in_x16, out_y16, 4, 0);
  hcg_dct_lee_f32(in_x17, buf0, 8);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 8; i += 4) {
    float32x4_t dct17_b = vld1q_f32(&buf0[i]);
    float32x4_t g17_b = vmulq_n_f32(dct17_b, 0.500000f);
    vst1q_f32(&out_y17[i], g17_b);
  }
  hcg_conv_blocked_f32(in_x18, 256, sig_taps18, 4, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g18_s = buf0[i] * (float)0.500000f;
    out_y18[i] = g18_s;
  }
  for (int i = 3; i < 259; i += 4) {
    float32x4_t conv18_b = vld1q_f32(&buf0[i]);
    float32x4_t g18_b = vmulq_n_f32(conv18_b, 0.500000f);
    vst1q_f32(&out_y18[i], g18_b);
  }
  hcg_matmul_unrolled_f32(in_a19, in_c19, buf0, 2);
  /* batch region (1 actors) -> neon_sim SIMD */
  {
    const int i = 0;
    float32x4_t mm19_b = vld1q_f32(&buf0[i]);
    float32x4_t g19_b = vmulq_n_f32(mm19_b, 0.500000f);
    vst1q_f32(&out_y19[i], g19_b);
  }
  hcg_fft_radix2_tab(in_x20, out_y20, 8, 0);
  hcg_dct_fft_f32(in_x21, buf0, 16);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t dct21_b = vld1q_f32(&buf0[i]);
    float32x4_t g21_b = vmulq_n_f32(dct21_b, 0.500000f);
    vst1q_f32(&out_y21[i], g21_b);
  }
  hcg_conv_blocked_f32(in_x22, 256, sig_taps22, 8, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g22_s = buf0[i] * (float)0.500000f;
    out_y22[i] = g22_s;
  }
  for (int i = 3; i < 263; i += 4) {
    float32x4_t conv22_b = vld1q_f32(&buf0[i]);
    float32x4_t g22_b = vmulq_n_f32(conv22_b, 0.500000f);
    vst1q_f32(&out_y22[i], g22_b);
  }
  hcg_matmul_unrolled_f32(in_a23, in_c23, buf0, 3);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g23_s = buf0[i] * (float)0.500000f;
    out_y23[i] = g23_s;
  }
  for (int i = 1; i < 9; i += 4) {
    float32x4_t mm23_b = vld1q_f32(&buf0[i]);
    float32x4_t g23_b = vmulq_n_f32(mm23_b, 0.500000f);
    vst1q_f32(&out_y23[i], g23_b);
  }
  hcg_fft_dft(in_x24, out_y24, 12, 0);
  hcg_dct_naive_f32(in_x25, buf0, 24);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 24; i += 4) {
    float32x4_t dct25_b = vld1q_f32(&buf0[i]);
    float32x4_t g25_b = vmulq_n_f32(dct25_b, 0.500000f);
    vst1q_f32(&out_y25[i], g25_b);
  }
  hcg_conv_blocked_f32(in_x26, 256, sig_taps26, 12, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g26_s = buf0[i] * (float)0.500000f;
    out_y26[i] = g26_s;
  }
  for (int i = 3; i < 267; i += 4) {
    float32x4_t conv26_b = vld1q_f32(&buf0[i]);
    float32x4_t g26_b = vmulq_n_f32(conv26_b, 0.500000f);
    vst1q_f32(&out_y26[i], g26_b);
  }
  hcg_matmul_unrolled_f32(in_a27, in_c27, buf0, 4);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t mm27_b = vld1q_f32(&buf0[i]);
    float32x4_t g27_b = vmulq_n_f32(mm27_b, 0.500000f);
    vst1q_f32(&out_y27[i], g27_b);
  }
  hcg_fft_radix2_tab(in_x28, out_y28, 16, 0);
  hcg_dct_fft_f32(in_x29, buf0, 32);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 32; i += 4) {
    float32x4_t dct29_b = vld1q_f32(&buf0[i]);
    float32x4_t g29_b = vmulq_n_f32(dct29_b, 0.500000f);
    vst1q_f32(&out_y29[i], g29_b);
  }
  hcg_conv_blocked_f32(in_x30, 256, sig_taps30, 16, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g30_s = buf0[i] * (float)0.500000f;
    out_y30[i] = g30_s;
  }
  for (int i = 3; i < 271; i += 4) {
    float32x4_t conv30_b = vld1q_f32(&buf0[i]);
    float32x4_t g30_b = vmulq_n_f32(conv30_b, 0.500000f);
    vst1q_f32(&out_y30[i], g30_b);
  }
  hcg_matmul_generic_f32(in_a31, in_c31, buf0, 5);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g31_s = buf0[i] * (float)0.500000f;
    out_y31[i] = g31_s;
  }
  for (int i = 1; i < 25; i += 4) {
    float32x4_t mm31_b = vld1q_f32(&buf0[i]);
    float32x4_t g31_b = vmulq_n_f32(mm31_b, 0.500000f);
    vst1q_f32(&out_y31[i], g31_b);
  }
  hcg_fft_radix4(in_x32, out_y32, 4, 0);
  hcg_dct_lee_f32(in_x33, buf0, 8);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 8; i += 4) {
    float32x4_t dct33_b = vld1q_f32(&buf0[i]);
    float32x4_t g33_b = vmulq_n_f32(dct33_b, 0.500000f);
    vst1q_f32(&out_y33[i], g33_b);
  }
  hcg_conv_blocked_f32(in_x34, 256, sig_taps34, 4, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g34_s = buf0[i] * (float)0.500000f;
    out_y34[i] = g34_s;
  }
  for (int i = 3; i < 259; i += 4) {
    float32x4_t conv34_b = vld1q_f32(&buf0[i]);
    float32x4_t g34_b = vmulq_n_f32(conv34_b, 0.500000f);
    vst1q_f32(&out_y34[i], g34_b);
  }
  hcg_matmul_unrolled_f32(in_a35, in_c35, buf0, 2);
  /* batch region (1 actors) -> neon_sim SIMD */
  {
    const int i = 0;
    float32x4_t mm35_b = vld1q_f32(&buf0[i]);
    float32x4_t g35_b = vmulq_n_f32(mm35_b, 0.500000f);
    vst1q_f32(&out_y35[i], g35_b);
  }
  hcg_fft_radix2_tab(in_x36, out_y36, 8, 0);
  hcg_dct_fft_f32(in_x37, buf0, 16);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t dct37_b = vld1q_f32(&buf0[i]);
    float32x4_t g37_b = vmulq_n_f32(dct37_b, 0.500000f);
    vst1q_f32(&out_y37[i], g37_b);
  }
  hcg_conv_blocked_f32(in_x38, 256, sig_taps38, 8, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g38_s = buf0[i] * (float)0.500000f;
    out_y38[i] = g38_s;
  }
  for (int i = 3; i < 263; i += 4) {
    float32x4_t conv38_b = vld1q_f32(&buf0[i]);
    float32x4_t g38_b = vmulq_n_f32(conv38_b, 0.500000f);
    vst1q_f32(&out_y38[i], g38_b);
  }
  hcg_matmul_unrolled_f32(in_a39, in_c39, buf0, 3);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g39_s = buf0[i] * (float)0.500000f;
    out_y39[i] = g39_s;
  }
  for (int i = 1; i < 9; i += 4) {
    float32x4_t mm39_b = vld1q_f32(&buf0[i]);
    float32x4_t g39_b = vmulq_n_f32(mm39_b, 0.500000f);
    vst1q_f32(&out_y39[i], g39_b);
  }
  hcg_fft_dft(in_x40, out_y40, 12, 0);
  hcg_dct_naive_f32(in_x41, buf0, 24);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 24; i += 4) {
    float32x4_t dct41_b = vld1q_f32(&buf0[i]);
    float32x4_t g41_b = vmulq_n_f32(dct41_b, 0.500000f);
    vst1q_f32(&out_y41[i], g41_b);
  }
  hcg_conv_blocked_f32(in_x42, 256, sig_taps42, 12, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g42_s = buf0[i] * (float)0.500000f;
    out_y42[i] = g42_s;
  }
  for (int i = 3; i < 267; i += 4) {
    float32x4_t conv42_b = vld1q_f32(&buf0[i]);
    float32x4_t g42_b = vmulq_n_f32(conv42_b, 0.500000f);
    vst1q_f32(&out_y42[i], g42_b);
  }
  hcg_matmul_unrolled_f32(in_a43, in_c43, buf0, 4);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t mm43_b = vld1q_f32(&buf0[i]);
    float32x4_t g43_b = vmulq_n_f32(mm43_b, 0.500000f);
    vst1q_f32(&out_y43[i], g43_b);
  }
  hcg_fft_radix2_tab(in_x44, out_y44, 16, 0);
  hcg_dct_fft_f32(in_x45, buf0, 32);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 32; i += 4) {
    float32x4_t dct45_b = vld1q_f32(&buf0[i]);
    float32x4_t g45_b = vmulq_n_f32(dct45_b, 0.500000f);
    vst1q_f32(&out_y45[i], g45_b);
  }
  hcg_conv_blocked_f32(in_x46, 256, sig_taps46, 16, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g46_s = buf0[i] * (float)0.500000f;
    out_y46[i] = g46_s;
  }
  for (int i = 3; i < 271; i += 4) {
    float32x4_t conv46_b = vld1q_f32(&buf0[i]);
    float32x4_t g46_b = vmulq_n_f32(conv46_b, 0.500000f);
    vst1q_f32(&out_y46[i], g46_b);
  }
  hcg_matmul_generic_f32(in_a47, in_c47, buf0, 5);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g47_s = buf0[i] * (float)0.500000f;
    out_y47[i] = g47_s;
  }
  for (int i = 1; i < 25; i += 4) {
    float32x4_t mm47_b = vld1q_f32(&buf0[i]);
    float32x4_t g47_b = vmulq_n_f32(mm47_b, 0.500000f);
    vst1q_f32(&out_y47[i], g47_b);
  }
  hcg_fft_radix4(in_x48, out_y48, 4, 0);
  hcg_dct_lee_f32(in_x49, buf0, 8);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 8; i += 4) {
    float32x4_t dct49_b = vld1q_f32(&buf0[i]);
    float32x4_t g49_b = vmulq_n_f32(dct49_b, 0.500000f);
    vst1q_f32(&out_y49[i], g49_b);
  }
  hcg_conv_blocked_f32(in_x50, 256, sig_taps50, 4, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g50_s = buf0[i] * (float)0.500000f;
    out_y50[i] = g50_s;
  }
  for (int i = 3; i < 259; i += 4) {
    float32x4_t conv50_b = vld1q_f32(&buf0[i]);
    float32x4_t g50_b = vmulq_n_f32(conv50_b, 0.500000f);
    vst1q_f32(&out_y50[i], g50_b);
  }
  hcg_matmul_unrolled_f32(in_a51, in_c51, buf0, 2);
  /* batch region (1 actors) -> neon_sim SIMD */
  {
    const int i = 0;
    float32x4_t mm51_b = vld1q_f32(&buf0[i]);
    float32x4_t g51_b = vmulq_n_f32(mm51_b, 0.500000f);
    vst1q_f32(&out_y51[i], g51_b);
  }
  hcg_fft_radix2_tab(in_x52, out_y52, 8, 0);
  hcg_dct_fft_f32(in_x53, buf0, 16);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t dct53_b = vld1q_f32(&buf0[i]);
    float32x4_t g53_b = vmulq_n_f32(dct53_b, 0.500000f);
    vst1q_f32(&out_y53[i], g53_b);
  }
  hcg_conv_blocked_f32(in_x54, 256, sig_taps54, 8, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g54_s = buf0[i] * (float)0.500000f;
    out_y54[i] = g54_s;
  }
  for (int i = 3; i < 263; i += 4) {
    float32x4_t conv54_b = vld1q_f32(&buf0[i]);
    float32x4_t g54_b = vmulq_n_f32(conv54_b, 0.500000f);
    vst1q_f32(&out_y54[i], g54_b);
  }
  hcg_matmul_unrolled_f32(in_a55, in_c55, buf0, 3);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g55_s = buf0[i] * (float)0.500000f;
    out_y55[i] = g55_s;
  }
  for (int i = 1; i < 9; i += 4) {
    float32x4_t mm55_b = vld1q_f32(&buf0[i]);
    float32x4_t g55_b = vmulq_n_f32(mm55_b, 0.500000f);
    vst1q_f32(&out_y55[i], g55_b);
  }
  hcg_fft_dft(in_x56, out_y56, 12, 0);
  hcg_dct_naive_f32(in_x57, buf0, 24);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 24; i += 4) {
    float32x4_t dct57_b = vld1q_f32(&buf0[i]);
    float32x4_t g57_b = vmulq_n_f32(dct57_b, 0.500000f);
    vst1q_f32(&out_y57[i], g57_b);
  }
  hcg_conv_blocked_f32(in_x58, 256, sig_taps58, 12, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g58_s = buf0[i] * (float)0.500000f;
    out_y58[i] = g58_s;
  }
  for (int i = 3; i < 267; i += 4) {
    float32x4_t conv58_b = vld1q_f32(&buf0[i]);
    float32x4_t g58_b = vmulq_n_f32(conv58_b, 0.500000f);
    vst1q_f32(&out_y58[i], g58_b);
  }
  hcg_matmul_unrolled_f32(in_a59, in_c59, buf0, 4);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 16; i += 4) {
    float32x4_t mm59_b = vld1q_f32(&buf0[i]);
    float32x4_t g59_b = vmulq_n_f32(mm59_b, 0.500000f);
    vst1q_f32(&out_y59[i], g59_b);
  }
  hcg_fft_radix2_tab(in_x60, out_y60, 16, 0);
  hcg_dct_fft_f32(in_x61, buf0, 32);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 32; i += 4) {
    float32x4_t dct61_b = vld1q_f32(&buf0[i]);
    float32x4_t g61_b = vmulq_n_f32(dct61_b, 0.500000f);
    vst1q_f32(&out_y61[i], g61_b);
  }
  hcg_conv_blocked_f32(in_x62, 256, sig_taps62, 16, buf0);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 3; ++i) {
    float g62_s = buf0[i] * (float)0.500000f;
    out_y62[i] = g62_s;
  }
  for (int i = 3; i < 271; i += 4) {
    float32x4_t conv62_b = vld1q_f32(&buf0[i]);
    float32x4_t g62_b = vmulq_n_f32(conv62_b, 0.500000f);
    vst1q_f32(&out_y62[i], g62_b);
  }
  hcg_matmul_generic_f32(in_a63, in_c63, buf0, 5);
  /* batch region (1 actors) -> neon_sim SIMD */
  for (int i = 0; i < 1; ++i) {
    float g63_s = buf0[i] * (float)0.500000f;
    out_y63[i] = g63_s;
  }
  for (int i = 1; i < 25; i += 4) {
    float32x4_t mm63_b = vld1q_f32(&buf0[i]);
    float32x4_t g63_b = vmulq_n_f32(mm63_b, 0.500000f);
    vst1q_f32(&out_y63[i], g63_b);
  }
}
