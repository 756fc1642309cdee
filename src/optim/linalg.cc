#include "src/optim/linalg.h"

#include <algorithm>
#include <cmath>

namespace faro {

bool LuFactor(Matrix& a, std::vector<size_t>& pivots) {
  const size_t n = a.rows();
  if (n == 0 || a.cols() != n) {
    return false;
  }
  pivots.resize(n);
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    double best = std::abs(a(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      return false;
    }
    pivots[col] = pivot;
    if (pivot != col) {
      // Columns < col hold earlier multipliers, which stay with their rows'
      // positions so the forward solve can replay them in order.
      for (size_t c = col; c < n; ++c) {
        std::swap(a(pivot, c), a(col, c));
      }
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      a(r, col) = factor;
      for (size_t c = col + 1; c < n; ++c) {
        a(r, c) -= factor * a(col, c);
      }
    }
  }
  return true;
}

void LuSolveFactored(const Matrix& lu, std::span<const size_t> pivots, Matrix& b) {
  const size_t n = lu.rows();
  for (size_t col = 0; col < n; ++col) {
    const std::span<double> pivot_row = b.row(col);
    if (pivots[col] != col) {
      std::ranges::swap_ranges(b.row(pivots[col]), pivot_row);
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = lu(r, col);
      const std::span<double> row = b.row(r);
      for (size_t j = 0; j < row.size(); ++j) {
        row[j] -= factor * pivot_row[j];
      }
    }
  }
  for (size_t ri = n; ri-- > 0;) {
    const std::span<double> row = b.row(ri);
    for (size_t c = ri + 1; c < n; ++c) {
      const double u = lu(ri, c);
      const std::span<const double> solved = b.row(c);
      for (size_t j = 0; j < row.size(); ++j) {
        row[j] -= u * solved[j];
      }
    }
    const double diagonal = lu(ri, ri);
    for (double& value : row) {
      value /= diagonal;
    }
  }
}

bool LuSolve(const Matrix& a, std::span<const double> b, std::vector<double>& x) {
  const size_t n = a.rows();
  if (b.size() != n) {
    return false;
  }
  Matrix lu = a;
  std::vector<size_t> pivots;
  if (!LuFactor(lu, pivots)) {
    return false;
  }
  Matrix rhs(n, 1);
  for (size_t r = 0; r < n; ++r) {
    rhs(r, 0) = b[r];
  }
  LuSolveFactored(lu, pivots, rhs);
  x.resize(n);
  for (size_t r = 0; r < n; ++r) {
    x[r] = rhs(r, 0);
  }
  return true;
}

void MultiplyTransposed(const Matrix& at, std::span<const double> x, std::span<double> out) {
  std::ranges::fill(out, 0.0);
  const size_t rows = at.rows();
  size_t k = 0;
  // Four rows per sweep keep out[i] in a register across them; the sums are
  // still added one k at a time, in order.
  for (; k + 4 <= rows; k += 4) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    const double x2 = x[k + 2];
    const double x3 = x[k + 3];
    const double* r0 = at.row(k).data();
    const double* r1 = at.row(k + 1).data();
    const double* r2 = at.row(k + 2).data();
    const double* r3 = at.row(k + 3).data();
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = (((out[i] + r0[i] * x0) + r1[i] * x1) + r2[i] * x2) + r3[i] * x3;
    }
  }
  for (; k < rows; ++k) {
    const double xk = x[k];
    const std::span<const double> row = at.row(k);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += row[i] * xk;
    }
  }
}

double Dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

double Norm2(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

}  // namespace faro
