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
