#include "matrix/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "kernel_reference.h"

namespace roboads {
namespace {

TEST(Vector, DefaultIsEmpty) {
  Vector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(Vector, SizedConstructionZeroFills) {
  Vector v(4);
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(Vector, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

TEST(Vector, OutOfRangeThrows) {
  Vector v{1.0};
  EXPECT_THROW(v[1], CheckError);
  const Vector& cv = v;
  EXPECT_THROW(cv[5], CheckError);
}

TEST(Vector, Arithmetic) {
  Vector a{1.0, 2.0};
  Vector b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vector{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vector{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vector{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vector{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vector{0.5, 1.0}));
  EXPECT_EQ(-a, (Vector{-1.0, -2.0}));
}

TEST(Vector, MismatchedArithmeticThrows) {
  Vector a{1.0, 2.0};
  Vector b{1.0};
  EXPECT_THROW(a + b, CheckError);
  EXPECT_THROW(a - b, CheckError);
  EXPECT_THROW(a.dot(b), CheckError);
}

TEST(Vector, DivisionByZeroThrows) {
  Vector a{1.0};
  EXPECT_THROW(a / 0.0, CheckError);
}

TEST(Vector, DotNormSum) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
}

TEST(Vector, SegmentRoundTrip) {
  Vector v{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(v.segment(1, 2), (Vector{2.0, 3.0}));
  v.set_segment(2, Vector{9.0, 8.0});
  EXPECT_EQ(v, (Vector{1.0, 2.0, 9.0, 8.0}));
  EXPECT_THROW(v.segment(3, 2), CheckError);
  EXPECT_THROW(v.set_segment(3, Vector{1.0, 1.0}), CheckError);
}

TEST(Vector, Concat) {
  Vector a{1.0};
  Vector b{2.0, 3.0};
  EXPECT_EQ(a.concat(b), (Vector{1.0, 2.0, 3.0}));
  EXPECT_EQ(Vector().concat(a), a);
}

TEST(Vector, AllFinite) {
  EXPECT_TRUE((Vector{1.0, -2.0}).all_finite());
  EXPECT_FALSE((Vector{1.0, std::nan("")}).all_finite());
  EXPECT_FALSE((Vector{INFINITY}).all_finite());
}

TEST(Vector, AsMatrixShapes) {
  Vector v{1.0, 2.0, 3.0};
  Matrix col = v.as_column();
  EXPECT_EQ(col.rows(), 3u);
  EXPECT_EQ(col.cols(), 1u);
  EXPECT_EQ(col(2, 0), 3.0);
  Matrix row = v.as_row();
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);
  EXPECT_EQ(row(0, 1), 2.0);
}

TEST(Vector, Streaming) {
  std::ostringstream os;
  os << Vector{1.0, 2.5};
  EXPECT_EQ(os.str(), "[1, 2.5]");
}

TEST(Matrix, InitializerListAndIndexing) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m(2, 0), CheckError);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), CheckError);
}

TEST(Matrix, IdentityAndDiagonal) {
  Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i.trace(), 3.0);

  Matrix d = Matrix::diagonal(Vector{2.0, 5.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 5.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, Outer) {
  Matrix o = Matrix::outer(Vector{1.0, 2.0}, Vector{3.0, 4.0, 5.0});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_EQ(o(1, 2), 10.0);
}

TEST(Matrix, Product) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a * b;
  EXPECT_EQ(c, (Matrix{{19.0, 22.0}, {43.0, 50.0}}));
  EXPECT_THROW(a * Matrix(3, 3), CheckError);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a * Vector({1.0, 1.0}), (Vector{3.0, 7.0}));
  EXPECT_THROW(a * Vector(3), CheckError);
}

TEST(Matrix, TransposeInvolution) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transpose(), a);
}

TEST(Matrix, BlockRoundTrip) {
  Matrix m(3, 3);
  m.set_block(1, 1, Matrix{{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m(2, 2), 4.0);
  EXPECT_EQ(m.block(1, 1, 2, 2), (Matrix{{1.0, 2.0}, {3.0, 4.0}}));
  EXPECT_THROW(m.block(2, 2, 2, 2), CheckError);
  EXPECT_THROW(m.set_block(2, 2, Matrix(2, 2)), CheckError);
}

TEST(Matrix, RowColDiagonal) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.row(1), (Vector{3.0, 4.0}));
  EXPECT_EQ(m.col(0), (Vector{1.0, 3.0}));
  EXPECT_EQ(m.diagonal_vector(), (Vector{1.0, 4.0}));
}

TEST(Matrix, SymmetryHelpers) {
  Matrix s{{1.0, 2.0}, {2.0, 5.0}};
  EXPECT_TRUE(s.is_symmetric());
  Matrix a{{1.0, 2.0}, {2.5, 5.0}};
  EXPECT_FALSE(a.is_symmetric());
  Matrix sym = a.symmetrized();
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_DOUBLE_EQ(sym(0, 1), 2.25);
  EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(Matrix, Stacking) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 4.0}};
  Matrix v = a.vstack(b);
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_EQ(v(1, 1), 4.0);
  Matrix h = a.hstack(b);
  EXPECT_EQ(h.cols(), 4u);
  EXPECT_EQ(h(0, 3), 4.0);
  // Stacking with empty is identity.
  EXPECT_EQ(Matrix().vstack(a), a);
  EXPECT_EQ(a.hstack(Matrix()), a);
  EXPECT_THROW(a.vstack(Matrix(1, 3)), CheckError);
  EXPECT_THROW(a.hstack(Matrix(2, 2)), CheckError);
}

TEST(Matrix, Norms) {
  Matrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.norm_inf(), 4.0);
}

TEST(Matrix, AllFinite) {
  Matrix m{{1.0, 2.0}};
  EXPECT_TRUE(m.all_finite());
  m(0, 0) = std::nan("");
  EXPECT_FALSE(m.all_finite());
}

TEST(Matrix, QuadraticForm) {
  Matrix m{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_DOUBLE_EQ(quadratic_form(m, Vector{1.0, 2.0}), 14.0);
  EXPECT_THROW(quadratic_form(m, Vector{1.0}), CheckError);
}

TEST(Matrix, SymmetrizeInPlaceMatchesSymmetrized) {
  Matrix a{{1.0, 2.0, -1.0}, {2.5, 5.0, 0.5}, {0.0, 1.5, 3.0}};
  const Matrix expected = a.symmetrized();
  a.symmetrize();
  EXPECT_EQ(a, expected);
  // Symmetrizing an exactly symmetric matrix is the identity, bit-for-bit:
  // (x + x) / 2 == x in IEEE arithmetic.
  const Matrix before = a;
  a.symmetrize();
  EXPECT_EQ(a, before);
}

TEST(Matrix, SandwichMatchesTripleProduct) {
  const Matrix a{{1.0, 2.0, 0.5}, {-1.0, 0.25, 3.0}};
  const Matrix s =
      Matrix{{2.0, 0.5, -0.25}, {0.5, 3.0, 1.0}, {-0.25, 1.0, 4.0}};
  const Matrix c = sandwich(a, s);
  const Matrix naive = a * s * a.transpose();
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(c(i, j), naive(i, j), 1e-12);
  // Exact symmetry, not just tolerance symmetry.
  EXPECT_EQ(c(0, 1), c(1, 0));
  EXPECT_THROW(sandwich(a, Matrix(2, 2)), CheckError);
}

TEST(Matrix, SymRankKUpdateAccumulates) {
  Matrix c(2, 2);
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  sym_rank_k_update(c, a, 0.5);
  const Matrix expected = a * a.transpose() * 0.5;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-12);
  EXPECT_EQ(c(0, 1), c(1, 0));
}

TEST(Matrix, SymRankKUpdateIsAliasingSafe) {
  // c and a as the same object: the update must read the pre-update values
  // of a, exactly as if a had been copied first.
  Matrix c{{1.0, 2.0}, {2.0, 5.0}};
  const Matrix a_copy = c;
  Matrix expected = a_copy;
  sym_rank_k_update(expected, a_copy, 1.0);
  sym_rank_k_update(c, c, 1.0);
  EXPECT_EQ(c, expected);
}

TEST(Matrix, AddSelfAdjointPreservesExactSymmetry) {
  Matrix c{{1.0, 0.5}, {0.5, 2.0}};
  const Matrix y{{0.1, 0.7}, {-0.3, 0.2}};
  add_self_adjoint(c, y, 2.0);
  EXPECT_NEAR(c(0, 0), 1.0 + 2.0 * (0.1 + 0.1), 1e-15);
  EXPECT_NEAR(c(0, 1), 0.5 + 2.0 * (0.7 - 0.3), 1e-15);
  // Mirrored pairs come from the same accumulated sum — bitwise equal.
  EXPECT_EQ(c(0, 1), c(1, 0));
  EXPECT_THROW(add_self_adjoint(c, Matrix(3, 3)), CheckError);
}

// Algebraic identities checked over a grid of shapes.
class MatrixAlgebraProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatrixAlgebraProperty, TransposeOfProduct) {
  const int seed = GetParam();
  // Deterministic pseudo-random fill without pulling in the Rng module.
  auto fill = [&](Matrix& m, int salt) {
    unsigned state = static_cast<unsigned>(seed * 7919 + salt);
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) {
        state = state * 1664525u + 1013904223u;
        m(i, j) = static_cast<double>(state % 2001) / 1000.0 - 1.0;
      }
  };
  Matrix a(3, 4), b(4, 2);
  fill(a, 1);
  fill(b, 2);
  const Matrix lhs = (a * b).transpose();
  const Matrix rhs = b.transpose() * a.transpose();
  ASSERT_EQ(lhs.rows(), rhs.rows());
  for (std::size_t i = 0; i < lhs.rows(); ++i)
    for (std::size_t j = 0; j < lhs.cols(); ++j)
      EXPECT_NEAR(lhs(i, j), rhs(i, j), 1e-12);
}

TEST_P(MatrixAlgebraProperty, DistributivityAndTrace) {
  const int seed = GetParam();
  auto fill = [&](Matrix& m, int salt) {
    unsigned state = static_cast<unsigned>(seed * 104729 + salt);
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) {
        state = state * 1664525u + 1013904223u;
        m(i, j) = static_cast<double>(state % 2001) / 1000.0 - 1.0;
      }
  };
  Matrix a(3, 3), b(3, 3), c(3, 3);
  fill(a, 1);
  fill(b, 2);
  fill(c, 3);
  const Matrix lhs = a * (b + c);
  const Matrix rhs = a * b + a * c;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(lhs(i, j), rhs(i, j), 1e-12);
  // trace(AB) == trace(BA)
  EXPECT_NEAR((a * b).trace(), (b * a).trace(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixAlgebraProperty,
                         ::testing::Range(0, 8));

// --- Entry-checked kernels ≡ the element-wise checked loops, bit for bit.
//
// Seeded random shapes from 1x1 to 11x11 (inline storage) plus 12x12 and
// 16x16 (heap storage, so the sanitizer passes see the raw loops on both),
// with entries drawn to include exact zeros, ±0, subnormals and — in the
// `special` rounds — ±Inf and NaN.

namespace ref = reference;

constexpr int kKernelCases = 80;

std::string shape_of(const Matrix& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

TEST(KernelBitEquivalence, MatrixProduct) {
  ref::Generator gen(101);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const std::size_t r = gen.kernel_dim(c);
      const std::size_t k = gen.kernel_dim(c);
      const std::size_t n = gen.kernel_dim(c);
      const Matrix a = gen.matrix(r, k, special);
      const Matrix b = gen.matrix(k, n, special);
      EXPECT_EQ(ref::diff(a * b, ref::product(a, b)), "")
          << shape_of(a) << " * " << shape_of(b);
    }
  }
}

TEST(KernelBitEquivalence, MatrixVectorProduct) {
  ref::Generator gen(102);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const Matrix a =
          gen.matrix(gen.kernel_dim(c), gen.kernel_dim(c), special);
      const Vector x = gen.vector(a.cols(), special);
      EXPECT_EQ(ref::diff(a * x, ref::product(a, x)), "") << shape_of(a);
    }
  }
}

TEST(KernelBitEquivalence, TransposeAndSymmetrize) {
  ref::Generator gen(103);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const Matrix a =
          gen.matrix(gen.kernel_dim(c), gen.kernel_dim(c), special);
      EXPECT_EQ(ref::diff(a.transpose(), ref::transpose(a)), "")
          << shape_of(a);
      const std::size_t n = gen.kernel_dim(c);
      const Matrix s = gen.matrix(n, n, special);
      EXPECT_EQ(ref::diff(s.symmetrized(), ref::symmetrized(s)), "")
          << shape_of(s);
    }
  }
}

TEST(KernelBitEquivalence, AddAndSubtractInPlace) {
  ref::Generator gen(104);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const std::size_t r = gen.kernel_dim(c);
      const std::size_t n = gen.kernel_dim(c);
      const Matrix a = gen.matrix(r, n, special);
      const Matrix b = gen.matrix(r, n, special);
      Matrix sum = a, expect_sum = a;
      sum += b;
      ref::add(expect_sum, b);
      EXPECT_EQ(ref::diff(sum, expect_sum), "") << shape_of(a);
      Matrix difference = a, expect_difference = a;
      difference -= b;
      ref::subtract(expect_difference, b);
      EXPECT_EQ(ref::diff(difference, expect_difference), "") << shape_of(a);
    }
  }
}

TEST(KernelBitEquivalence, Sandwich) {
  ref::Generator gen(105);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const std::size_t k = gen.kernel_dim(c);
      const Matrix a = gen.matrix(gen.kernel_dim(c), k, special);
      const Matrix s = gen.matrix(k, k, special);
      EXPECT_EQ(ref::diff(sandwich(a, s), ref::sandwich(a, s)), "")
          << shape_of(a) << " * " << shape_of(s);
    }
  }
}

TEST(KernelBitEquivalence, AddSelfAdjointIncludingAliased) {
  ref::Generator gen(106);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const std::size_t n = gen.kernel_dim(c);
      const double alpha = c % 3 == 0 ? -1.0 : gen.value(false);
      const Matrix c0 = gen.matrix(n, n, special);
      const Matrix y = gen.matrix(n, n, special);
      Matrix got = c0, expect = c0;
      add_self_adjoint(got, y, alpha);
      ref::add_self_adjoint(expect, y, alpha);
      EXPECT_EQ(ref::diff(got, expect), "") << shape_of(c0);
      // c and y the same object.
      Matrix got_alias = c0, expect_alias = c0;
      add_self_adjoint(got_alias, got_alias, alpha);
      ref::add_self_adjoint(expect_alias, expect_alias, alpha);
      EXPECT_EQ(ref::diff(got_alias, expect_alias), "") << shape_of(c0);
    }
  }
}

TEST(KernelBitEquivalence, SymRankKUpdateIncludingAliased) {
  ref::Generator gen(107);
  for (bool special : {false, true}) {
    for (int c = 0; c < kKernelCases; ++c) {
      const std::size_t n = gen.kernel_dim(c);
      const double alpha = c % 3 == 0 ? 1.0 : gen.value(false);
      const Matrix c0 = gen.matrix(n, n, special);
      const Matrix a = gen.matrix(n, gen.kernel_dim(c), special);
      Matrix got = c0, expect = c0;
      sym_rank_k_update(got, a, alpha);
      ref::sym_rank_k_update(expect, a, alpha);
      EXPECT_EQ(ref::diff(got, expect), "") << shape_of(a);
      Matrix got_alias = c0, expect_alias = c0;
      sym_rank_k_update(got_alias, got_alias, alpha);
      ref::sym_rank_k_update(expect_alias, expect_alias, alpha);
      EXPECT_EQ(ref::diff(got_alias, expect_alias), "") << shape_of(c0);
    }
  }
}

TEST(KernelBitEquivalence, ShapeChecksStayAtKernelEntry) {
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), CheckError);
  EXPECT_THROW(Matrix(2, 3) * Vector(2), CheckError);
  EXPECT_THROW(sandwich(Matrix(2, 3), Matrix(2, 2)), CheckError);
  EXPECT_THROW(sandwich(Matrix(2, 3), Matrix(3, 2)), CheckError);
  Matrix sq(3, 3);
  EXPECT_THROW(add_self_adjoint(sq, Matrix(2, 2)), CheckError);
  EXPECT_THROW(sym_rank_k_update(sq, Matrix(2, 3)), CheckError);
  EXPECT_THROW(sq += Matrix(3, 2), CheckError);
  EXPECT_THROW(sq -= Matrix(2, 3), CheckError);
  Matrix rect(2, 3);
  EXPECT_THROW(rect.symmetrize(), CheckError);
}

}  // namespace
}  // namespace roboads
