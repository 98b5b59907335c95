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
