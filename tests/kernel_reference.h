// Reference kernels for the matrix bit-equivalence tests.
//
// These are the element-wise, bounds-checked loops the entry-checked
// kernels of matrix.cc / decomp.cc replaced, kept verbatim in operation
// order. The tests run both on the same inputs and demand bit-equal outputs
// (NaN-aware: any NaN matches any NaN), so a rewrite that reorders a single
// floating-point operation fails here before it can move a golden trace.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "matrix/decomp.h"
#include "matrix/matrix.h"

namespace roboads::reference {

// ------------------------------------------------------ bitwise compare --

inline bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Empty string when equal, else a description of the first difference.
inline std::string diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return "shape";
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (!same_bits(a(i, j), b(i, j)))
        return "(" + std::to_string(i) + "," + std::to_string(j) +
               "): " + std::to_string(a(i, j)) + " vs " +
               std::to_string(b(i, j));
  return {};
}

inline std::string diff(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return "size";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i]))
      return "[" + std::to_string(i) + "]: " + std::to_string(a[i]) +
             " vs " + std::to_string(b[i]);
  return {};
}

// ------------------------------------------------------- matrix kernels --

inline Matrix product(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

inline Vector product(const Matrix& a, const Vector& x) {
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    out[i] = acc;
  }
  return out;
}

inline Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  return t;
}

inline void symmetrize(Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.cols(); ++j) {
      const double v = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = v;
      m(j, i) = v;
    }
  }
}

inline Matrix symmetrized(const Matrix& m) {
  Matrix s(m);
  symmetrize(s);
  return s;
}

inline void add(Matrix& c, const Matrix& rhs) {
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j) c(i, j) += rhs(i, j);
}

inline void subtract(Matrix& c, const Matrix& rhs) {
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j) c(i, j) -= rhs(i, j);
}

inline Matrix sandwich(const Matrix& a, const Matrix& s) {
  const Matrix as = product(a, s);
  Matrix c(a.rows(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += as(i, k) * a(j, k);
      c(i, j) = acc;
      c(j, i) = acc;
    }
  }
  return c;
}

inline void add_self_adjoint(Matrix& c, const Matrix& y, double alpha) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double s = alpha * (y(i, j) + y(j, i));
      c(i, j) += s;
      if (j != i) c(j, i) += s;
    }
  }
}

inline void sym_rank_k_update(Matrix& c, const Matrix& a, double alpha) {
  if (&c == &a) {
    const Matrix copy(a);
    reference::sym_rank_k_update(c, copy, alpha);
    return;
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * a(j, k);
      c(i, j) += alpha * acc;
      if (j != i) c(j, i) += alpha * acc;
    }
  }
}

// ------------------------------------------------------------ generators --

// Seeded matrices whose entries mix ordinary values with the cases a raw
// loop could get wrong: exact zeros (the product's skip), ±0, subnormals
// and, when `special` is set, ±Inf and NaN.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::size_t dim(std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng_);
  }

  // Dimension for test case `c`: 1..11 (inline storage), except every
  // tenth case, which spills to the heap (12 or 16).
  std::size_t kernel_dim(int c) {
    if (c % 10 == 9) return c % 20 == 9 ? 12 : 16;
    return dim(1, 11);
  }

  double value(bool special) {
    const int pick = std::uniform_int_distribution<int>(0, 19)(rng_);
    switch (pick) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::denorm_min() * 3.0;
      case 3: return -1e-310;
      case 4:
        if (special) return std::numeric_limits<double>::infinity();
        break;
      case 5:
        if (special) return -std::numeric_limits<double>::infinity();
        break;
      case 6:
        if (special) return std::numeric_limits<double>::quiet_NaN();
        break;
      default: break;
    }
    return std::uniform_real_distribution<double>(-2.0, 2.0)(rng_);
  }

  Matrix matrix(std::size_t rows, std::size_t cols, bool special) {
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) m(i, j) = value(special);
    return m;
  }

  Vector vector(std::size_t n, bool special) {
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = value(special);
    return v;
  }

  // Symmetric positive-definite (B Bᵀ + n·I, exactly symmetric), with
  // exact zeros sprinkled into B.
  Matrix spd(std::size_t n) {
    const Matrix b = matrix(n, n, false);
    Matrix s = product(b, transpose(b));
    for (std::size_t i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
    symmetrize(s);
    return s;
  }

  // Symmetric positive semi-definite of rank `r` < n (B Bᵀ with B n x r).
  Matrix psd(std::size_t n, std::size_t r) {
    const Matrix b = matrix(n, r, false);
    Matrix s = product(b, transpose(b));
    symmetrize(s);
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

// ------------------------------------------------------------- Cholesky --

struct CholeskyFactor {
  Matrix l;
  bool ok = false;
};

inline CholeskyFactor cholesky(const Matrix& a) {
  CholeskyFactor f{Matrix(a.rows(), a.cols()), true};
  Matrix& l = f.l;
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      f.ok = false;
      return f;
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return f;
}

inline Vector cholesky_solve(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * y[j];
    y[i] = acc / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l(j, ii) * x[j];
    x[ii] = acc / l(ii, ii);
  }
  return x;
}

inline Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vector xj = cholesky_solve(l, b.col(j));
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = xj[i];
  }
  return x;
}

inline double quadratic_form_spd(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(b);
  double acc2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * y[j];
    y[i] = acc / l(i, i);
    acc2 += y[i] * y[i];
  }
  return acc2;
}

// ------------------------------------------------------- symmetric eigen --

inline SymmetricEigen eigen_symmetric(const Matrix& a_in, double tol = 1e-13) {
  const std::size_t n = a_in.rows();
  Matrix a = symmetrized(a_in);
  Matrix v = Matrix::identity(n);

  const double scale = std::max(1.0, a.norm_inf());
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    if (std::sqrt(off) <= tol * scale) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tol * scale * 1e-3) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return a(i, i) > a(j, j); });

  SymmetricEigen out;
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i)
      out.eigenvectors(i, j) = v(i, order[j]);
  }
  return out;
}

// The SpdEigenFactor quantities as they were computed: the eigenpairs of
// the twice-symmetrized input, the support cutoff, and the pseudo-inverse
// through a materialized transpose.
struct SpdEigen {
  SymmetricEigen eig;
  double cutoff = 0.0;
  std::size_t rank = 0;

  SpdEigen(const Matrix& a, double rel_tol = 1e-10, bool dim_scaled = false)
      : eig(reference::eigen_symmetric(symmetrized(a))) {
    const std::size_t n = eig.eigenvalues.size();
    const double lam_max = n ? std::max(eig.eigenvalues[0], 0.0) : 0.0;
    const double scale =
        dim_scaled ? rel_tol * static_cast<double>(n) : rel_tol;
    cutoff = scale * std::max(lam_max, 1e-300);
    for (std::size_t i = 0; i < n; ++i)
      if (eig.eigenvalues[i] > cutoff) ++rank;
  }

  Matrix pseudo_inverse() const {
    Matrix scaled = eig.eigenvectors;
    for (std::size_t j = 0; j < scaled.cols(); ++j) {
      const double lam = eig.eigenvalues[j];
      const double inv = lam > cutoff ? 1.0 / lam : 0.0;
      for (std::size_t i = 0; i < scaled.rows(); ++i) scaled(i, j) *= inv;
    }
    Matrix out = product(scaled, transpose(eig.eigenvectors));
    symmetrize(out);
    return out;
  }

  Vector solve(const Vector& b) const {
    const std::size_t n = eig.eigenvalues.size();
    Vector x(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double lam = eig.eigenvalues[j];
      if (lam <= cutoff) continue;
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        proj += eig.eigenvectors(i, j) * b[i];
      const double w = proj / lam;
      for (std::size_t i = 0; i < n; ++i) x[i] += eig.eigenvectors(i, j) * w;
    }
    return x;
  }

  double quadratic_form(const Vector& b) const {
    const std::size_t n = eig.eigenvalues.size();
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lam = eig.eigenvalues[j];
      if (lam <= cutoff) continue;
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        proj += eig.eigenvectors(i, j) * b[i];
      acc += proj * proj / lam;
    }
    return acc;
  }
};

}  // namespace roboads::reference
