#include "core/health.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "matrix/decomp.h"

namespace roboads::core {

const char* to_string(ModeHealthState state) {
  switch (state) {
    case ModeHealthState::kHealthy: return "healthy";
    case ModeHealthState::kDegraded: return "degraded";
    case ModeHealthState::kQuarantined: return "quarantined";
  }
  return "?";
}

char code(ModeHealthState state) {
  switch (state) {
    case ModeHealthState::kHealthy: return 'H';
    case ModeHealthState::kDegraded: return 'D';
    case ModeHealthState::kQuarantined: return 'Q';
  }
  return '?';
}

void ModeHealth::on_clean(const HealthConfig& cfg) {
  ++clean_streak;
  if (state == ModeHealthState::kQuarantined &&
      clean_streak >= cfg.quarantine_steps) {
    state = ModeHealthState::kDegraded;
    clean_streak = 0;
  } else if (state == ModeHealthState::kDegraded &&
             clean_streak >= cfg.recover_after) {
    state = ModeHealthState::kHealthy;
  }
}

void ModeHealth::on_repaired(const HealthConfig& /*cfg*/) {
  ++repairs;
  clean_streak = 0;
  if (state == ModeHealthState::kHealthy) state = ModeHealthState::kDegraded;
}

void ModeHealth::on_fatal(const HealthConfig& /*cfg*/) {
  if (state != ModeHealthState::kQuarantined) ++quarantine_count;
  state = ModeHealthState::kQuarantined;
  clean_streak = 0;
}

namespace {

// True when psd_tol is large enough for a successful Cholesky factorization
// to certify "no repair". A factorization that runs to completion is exact
// for some A + ΔA with ‖ΔA‖₂ ≤ (n+1)·n·ε·‖A‖₂ (Higham, Accuracy and
// Stability of Numerical Algorithms, Thm 10.3), so λ_min(A) is at least
// −(n+1)·n·ε·‖A‖₂; the eigenvalues the eigen path tests are within the
// Jacobi stopping tolerance of exact. The certificate is used only when
// psd_tol clears the sum of both by 100×.
bool cholesky_certifies(std::size_t n, double psd_tol) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kJacobiTol = 1e-13;  // eigen_symmetric's default tol
  const double dn = static_cast<double>(n);
  return psd_tol >= 100.0 * ((dn + 1.0) * dn * kEps + kJacobiTol);
}

}  // namespace

bool repair_covariance(Matrix& cov, const HealthConfig& cfg) {
  if (cov.empty()) return false;
  const Matrix sym = cov.symmetrized();
  // Certificate: a positive-definite Cholesky factor bounds λ_min far above
  // −psd_tol·max(1, λ_max), so the eigen path below would conclude "no
  // repair" too. Healthy steps skip the eigendecomposition entirely.
  if (cholesky_certifies(sym.rows(), cfg.psd_tol) && Cholesky(sym).ok()) {
    return false;
  }
  const SymmetricEigen eig = eigen_symmetric(sym);
  const std::size_t n = eig.eigenvalues.size();
  const double lambda_max = std::max(eig.eigenvalues[0], 0.0);
  const double scale = std::max(1.0, lambda_max);
  // Eigenvalues are sorted descending; the last is the most negative.
  if (eig.eigenvalues[n - 1] >= -cfg.psd_tol * scale) return false;

  const double floor = cfg.eigen_floor * scale;
  Matrix repaired(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lambda = std::max(eig.eigenvalues[i], floor);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        repaired(r, c) +=
            lambda * eig.eigenvectors(r, i) * eig.eigenvectors(c, i);
      }
    }
  }
  cov = repaired.symmetrized();
  return true;
}

namespace {

// True when the `dim`-sized block anchored at `at` of the stacked anomaly
// vector and its covariance (rows and columns) is entirely finite.
bool block_finite(const NuiseResult& r, std::size_t at, std::size_t dim) {
  for (std::size_t i = 0; i < dim; ++i) {
    if (!std::isfinite(r.sensor_anomaly[at + i])) return false;
    for (std::size_t j = 0; j < r.sensor_anomaly.size(); ++j) {
      if (!std::isfinite(r.sensor_anomaly_cov(at + i, j))) return false;
      if (!std::isfinite(r.sensor_anomaly_cov(j, at + i))) return false;
    }
  }
  return true;
}

// Rebuilds the stacked d̂ˢ and its covariance keeping only the sensors in
// `keep` (given as (suite index, offset, dim) triples into the old stack).
void gather_blocks(NuiseResult& r,
                   const std::vector<std::array<std::size_t, 3>>& keep) {
  std::size_t total = 0;
  for (const auto& k : keep) total += k[2];
  Vector anomaly(total);
  Matrix cov(total, total);
  std::size_t at_i = 0;
  for (const auto& ki : keep) {
    for (std::size_t i = 0; i < ki[2]; ++i) {
      anomaly[at_i + i] = r.sensor_anomaly[ki[1] + i];
    }
    std::size_t at_j = 0;
    for (const auto& kj : keep) {
      for (std::size_t i = 0; i < ki[2]; ++i) {
        for (std::size_t j = 0; j < kj[2]; ++j) {
          cov(at_i + i, at_j + j) = r.sensor_anomaly_cov(ki[1] + i, kj[1] + j);
        }
      }
      at_j += kj[2];
    }
    at_i += ki[2];
  }
  r.sensor_anomaly = std::move(anomaly);
  r.sensor_anomaly_cov = std::move(cov);
}

}  // namespace

SupervisionOutcome supervise_result(NuiseResult& result, const Mode& mode,
                                    const sensors::SensorSuite& suite,
                                    const HealthConfig& cfg) {
  SupervisionOutcome out;
  if (!cfg.enabled) return out;

  // --- Fatal checks: quantities feeding selection and the shared estimate.
  if (!result.state.all_finite() || !result.state_cov.all_finite()) {
    out.fatal = true;
    out.detail = "non-finite state estimate or covariance";
    return out;
  }
  if (!result.actuator_anomaly.all_finite() ||
      !result.actuator_anomaly_cov.all_finite()) {
    out.fatal = true;
    out.detail = "non-finite actuator anomaly estimate";
    return out;
  }
  if (result.likelihood_informative &&
      !std::isfinite(result.log_likelihood)) {
    out.fatal = true;
    out.detail = "non-finite mode likelihood";
    return out;
  }

  // --- Repairable: mild PSD drift of the state covariance.
  if (repair_covariance(result.state_cov, cfg)) {
    out.repaired = true;
    out.detail = "state covariance eigenvalue clamp";
  }

  // --- Testing-sensor anomaly: strip non-finite blocks instead of letting
  // them poison the χ² attribution. d̂ˢ does not feed selection or the
  // shared estimate, so this degrades rather than quarantines the mode.
  if (!result.sensor_anomaly.empty() &&
      (!result.sensor_anomaly.all_finite() ||
       !result.sensor_anomaly_cov.all_finite())) {
    const std::vector<std::size_t> active =
        result.degraded ? result.active_testing : mode.testing;
    std::vector<std::array<std::size_t, 3>> keep;
    std::vector<std::size_t> kept_sensors;
    std::size_t at = 0;
    for (std::size_t t : active) {
      const std::size_t dim = suite.sensor(t).dim();
      if (block_finite(result, at, dim)) {
        keep.push_back({t, at, dim});
        kept_sensors.push_back(t);
      }
      at += dim;
    }
    gather_blocks(result, keep);
    result.degraded = true;
    result.active_testing = std::move(kept_sensors);
    out.repaired = true;
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += "non-finite testing anomaly block excluded";
  }
  return out;
}

}  // namespace roboads::core
