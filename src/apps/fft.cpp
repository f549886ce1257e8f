// FFT: six-step 1D complex FFT over an m x m matrix (SPLASH-2 style).
//
// The communication is the three blocked all-to-all transposes; the row FFTs
// are local to each processor's block of rows. This gives the paper's
// "all-to-all, read-based" pattern with a high inherent communication-to-
// computation ratio, which makes FFT one of the bandwidth-bound codes
// (Figures 8/9).
#include <cassert>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/factories.hpp"

namespace svmsim::apps {

namespace {

using Cplx = std::complex<double>;

/// In-place iterative radix-2 FFT (inverse when sign = +1).
void fft_inplace(std::vector<Cplx>& a, int sign) {
  const std::size_t n = a.size();
  assert((n & (n - 1)) == 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Cplx wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
}

/// Sequential six-step reference, matching the parallel phase structure
/// exactly (same per-row FFT order), so results compare bitwise.
std::vector<Cplx> six_step_reference(const std::vector<Cplx>& x,
                                     std::size_t m) {
  const std::size_t n = m * m;
  std::vector<Cplx> A = x;
  std::vector<Cplx> B(n);
  auto transpose = [&](const std::vector<Cplx>& src, std::vector<Cplx>& dst) {
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = 0; b < m; ++b) dst[a * m + b] = src[b * m + a];
    }
  };
  auto fft_rows = [&](std::vector<Cplx>& mat) {
    std::vector<Cplx> row(m);
    for (std::size_t r = 0; r < m; ++r) {
      std::copy(mat.begin() + static_cast<std::ptrdiff_t>(r * m),
                mat.begin() + static_cast<std::ptrdiff_t>((r + 1) * m),
                row.begin());
      fft_inplace(row, -1);
      std::copy(row.begin(), row.end(),
                mat.begin() + static_cast<std::ptrdiff_t>(r * m));
    }
  };
  transpose(A, B);
  fft_rows(B);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(a) *
                         static_cast<double>(b) / static_cast<double>(n);
      B[a * m + b] *= Cplx(std::cos(ang), std::sin(ang));
    }
  }
  transpose(B, A);
  fft_rows(A);
  transpose(A, B);
  return B;
}

class FftApp final : public Application {
 public:
  explicit FftApp(Scale scale) : Application(scale) {
    switch (scale) {
      case Scale::kTiny:
        m_ = 16;
        break;
      case Scale::kSmall:
        m_ = 64;
        break;
      case Scale::kLarge:
        m_ = 128;
        break;
    }
  }

  [[nodiscard]] std::string name() const override { return "fft"; }

  void setup(Machine& mach) override {
    // Each processor owns m/P whole rows of the m x m matrix.
    const auto P = static_cast<std::size_t>(mach.total_procs());
    if (P > m_ || m_ % P != 0) {
      throw std::invalid_argument(
          "fft: m=" + std::to_string(m_) + " rows cannot be split evenly "
          "across P=" + std::to_string(P) + " processors");
    }
    const std::size_t n = m_ * m_;
    a_ = SharedArray<Cplx>::alloc(mach, n, Distribution::block());
    b_ = SharedArray<Cplx>::alloc(mach, n, Distribution::block());
    input_.resize(n);
    Rng rng(0xFF7u);
    for (auto& v : input_) v = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    for (std::size_t i = 0; i < n; ++i) a_.debug_put(mach, i, input_[i]);
    expected_ = six_step_reference(input_, m_);
  }

  engine::Task<void> body(Machine& mach, ProcId pid) override {
    Shm shm(mach, pid);
    const std::size_t P = static_cast<std::size_t>(shm.nprocs());
    const std::size_t rows = m_ / P;       // rows per processor
    const std::size_t r0 = rows * static_cast<std::size_t>(pid);

    co_await transpose(shm, a_, b_, r0, rows);
    co_await shm.barrier();
    co_await fft_rows(shm, b_, r0, rows, /*twiddle=*/true);
    co_await shm.barrier();
    co_await transpose(shm, b_, a_, r0, rows);
    co_await shm.barrier();
    co_await fft_rows(shm, a_, r0, rows, /*twiddle=*/false);
    co_await shm.barrier();
    co_await transpose(shm, a_, b_, r0, rows);
  }

  bool validate(Machine& mach) override {
    const std::size_t n = m_ * m_;
    for (std::size_t i = 0; i < n; ++i) {
      const Cplx got = b_.debug_get(mach, i);
      if (std::abs(got - expected_[i]) > 1e-9 * (1.0 + std::abs(expected_[i]))) {
        return false;
      }
    }
    return true;
  }

 private:
  /// Per-element work multiplier: our kernels charge only marker costs for
  /// the arithmetic they model; this constant folds in the private-memory
  /// instruction stream of the real SPLASH-2 code so the compute-to-
  /// communication ratio lands in the paper's regime (see DESIGN.md).
  static constexpr Cycles kWorkScale = 25;
  /// dst[a][b] = src[b][a] for this processor's rows a in [r0, r0+rows):
  /// blocked column gathers (contiguous sub-row reads from every node).
  engine::Task<void> transpose(Shm& shm, const SharedArray<Cplx>& src,
                               const SharedArray<Cplx>& dst, std::size_t r0,
                               std::size_t rows) {
    std::vector<Cplx> local(rows * m_);
    std::vector<Cplx> strip(rows);
    for (std::size_t b = 0; b < m_; ++b) {
      // Elements src[b][r0 .. r0+rows) land in column b of our rows.
      co_await src.get_block(shm, b * m_ + r0, strip.data(), rows);
      for (std::size_t a = 0; a < rows; ++a) local[a * m_ + b] = strip[a];
      shm.compute(kWorkScale * 2 * rows);  // scatter/copy work
    }
    for (std::size_t a = 0; a < rows; ++a) {
      co_await dst.put_block(shm, (r0 + a) * m_, local.data() + a * m_, m_);
    }
  }

  engine::Task<void> fft_rows(Shm& shm, const SharedArray<Cplx>& mat,
                              std::size_t r0, std::size_t rows, bool twiddle) {
    const std::size_t n = m_ * m_;
    std::vector<Cplx> row(m_);
    const auto log2m = static_cast<Cycles>(std::lround(std::log2(m_)));
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t a = r0 + r;
      co_await mat.get_block(shm, a * m_, row.data(), m_);
      fft_inplace(row, -1);
      shm.compute(kWorkScale * 5 * m_ * log2m);  // ~5 cycles per butterfly stage element
      if (twiddle) {
        for (std::size_t b = 0; b < m_; ++b) {
          const double ang = -2.0 * std::numbers::pi * static_cast<double>(a) *
                             static_cast<double>(b) / static_cast<double>(n);
          row[b] *= Cplx(std::cos(ang), std::sin(ang));
        }
        shm.compute(kWorkScale * 8 * m_);
      }
      co_await mat.put_block(shm, a * m_, row.data(), m_);
    }
  }

  std::size_t m_ = 16;
  SharedArray<Cplx> a_;
  SharedArray<Cplx> b_;
  std::vector<Cplx> input_;
  std::vector<Cplx> expected_;
};

}  // namespace

std::unique_ptr<Application> make_fft(Scale scale) {
  return std::make_unique<FftApp>(scale);
}

}  // namespace svmsim::apps
