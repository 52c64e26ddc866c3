#include "qutes/sim/stabilizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "qutes/common/error.hpp"

namespace qutes::sim {

namespace {

/// Word-wise i-exponent contribution of multiplying Pauli word (x1, z1) onto
/// (x2, z2): +1 bits minus -1 bits of the Aaronson–Gottesman g function,
/// enumerated per left-factor Pauli (Z when z1&~x1, Y when x1&z1, X when
/// x1&~z1; the identity contributes 0 either way).
inline std::int64_t g_word(std::uint64_t x1, std::uint64_t z1, std::uint64_t x2,
                           std::uint64_t z2) noexcept {
  const std::uint64_t plus = (z1 & ~x1 & x2 & ~z2) |  // Z * X = +iY
                             (x1 & z1 & z2 & ~x2) |   // Y * Z = +iX
                             (x1 & ~z1 & z2 & x2);    // X * Y = +iZ
  const std::uint64_t minus = (z1 & ~x1 & x2 & z2) |  // Z * Y = -iX
                              (x1 & z1 & x2 & ~z2) |  // Y * X = -iZ
                              (x1 & ~z1 & z2 & ~x2);  // X * Z = -iY
  return static_cast<std::int64_t>(std::popcount(plus)) -
         static_cast<std::int64_t>(std::popcount(minus));
}

}  // namespace

Stabilizer::Stabilizer(std::size_t num_qubits)
    : num_qubits_(num_qubits), words_((num_qubits + 63) / 64) {
  if (num_qubits == 0) {
    throw InvalidArgument("Stabilizer needs at least 1 qubit");
  }
  const std::size_t rows = 2 * num_qubits_ + 1;
  try {
    x_.assign(rows * words_, 0);
    z_.assign(rows * words_, 0);
  } catch (const std::bad_alloc&) {
    throw SimulationError("allocating a " + std::to_string(num_qubits) +
                          "-qubit stabilizer tableau failed (out of memory)");
  }
  r_.assign(rows, 0);
  // Destabilizer i = X_i, stabilizer i = Z_i: the tableau of |0...0>.
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    x_[i * words_ + i / 64] = std::uint64_t{1} << (i % 64);
    z_[(num_qubits_ + i) * words_ + i / 64] = std::uint64_t{1} << (i % 64);
  }
}

void Stabilizer::check_qubit(std::size_t q, const char* what) const {
  if (q >= num_qubits_) {
    throw InvalidArgument(std::string(what) + ": qubit " + std::to_string(q) +
                          " out of range for " + std::to_string(num_qubits_) +
                          " qubits");
  }
}

// ---- gates ------------------------------------------------------------------
//
// Column updates: each gate touches the x/z bits of one or two qubit columns
// in every (non-scratch) row, flipping r by the textbook conjugation sign.

void Stabilizer::apply_h(std::size_t q) {
  check_qubit(q, "apply_h");
  const std::size_t w = q / 64;
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    std::uint64_t& xw = x_[row * words_ + w];
    std::uint64_t& zw = z_[row * words_ + w];
    r_[row] ^= static_cast<std::uint8_t>(((xw & zw & m) != 0));  // Y -> -Y
    const std::uint64_t t = xw & m;
    xw = (xw & ~m) | (zw & m);
    zw = (zw & ~m) | t;
  }
}

void Stabilizer::apply_s(std::size_t q) {
  check_qubit(q, "apply_s");
  const std::size_t w = q / 64;
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    std::uint64_t& xw = x_[row * words_ + w];
    std::uint64_t& zw = z_[row * words_ + w];
    r_[row] ^= static_cast<std::uint8_t>(((xw & zw & m) != 0));  // Y -> -X
    zw ^= xw & m;                                                // X -> Y
  }
}

void Stabilizer::apply_sdg(std::size_t q) {
  check_qubit(q, "apply_sdg");
  const std::size_t w = q / 64;
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    std::uint64_t& xw = x_[row * words_ + w];
    std::uint64_t& zw = z_[row * words_ + w];
    // Sdg = Z . S: X -> -Y, Y -> X.
    r_[row] ^= static_cast<std::uint8_t>(((xw & ~zw & m) != 0));
    zw ^= xw & m;
  }
}

void Stabilizer::apply_x(std::size_t q) {
  check_qubit(q, "apply_x");
  const std::size_t w = q / 64;
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    r_[row] ^= static_cast<std::uint8_t>(((z_[row * words_ + w] & m) != 0));
  }
}

void Stabilizer::apply_y(std::size_t q) {
  check_qubit(q, "apply_y");
  const std::size_t w = q / 64;
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    r_[row] ^= static_cast<std::uint8_t>(
        (((x_[row * words_ + w] ^ z_[row * words_ + w]) & m) != 0));
  }
}

void Stabilizer::apply_z(std::size_t q) {
  check_qubit(q, "apply_z");
  const std::size_t w = q / 64;
  const std::uint64_t m = std::uint64_t{1} << (q % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    r_[row] ^= static_cast<std::uint8_t>(((x_[row * words_ + w] & m) != 0));
  }
}

void Stabilizer::apply_cx(std::size_t control, std::size_t target) {
  check_qubit(control, "apply_cx");
  check_qubit(target, "apply_cx");
  if (control == target) {
    throw InvalidArgument("apply_cx: control and target must differ");
  }
  const std::size_t wc = control / 64, wt = target / 64;
  const std::uint64_t mc = std::uint64_t{1} << (control % 64);
  const std::uint64_t mt = std::uint64_t{1} << (target % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    std::uint64_t& xc = x_[row * words_ + wc];
    std::uint64_t& zc = z_[row * words_ + wc];
    std::uint64_t& xt = x_[row * words_ + wt];
    std::uint64_t& zt = z_[row * words_ + wt];
    const bool bxc = (xc & mc) != 0, bzc = (zc & mc) != 0;
    const bool bxt = (xt & mt) != 0, bzt = (zt & mt) != 0;
    r_[row] ^= static_cast<std::uint8_t>(bxc && bzt && (bxt == bzc));
    if (bxc) xt ^= mt;
    if (bzt) zc ^= mc;
  }
}

void Stabilizer::apply_cz(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_cz");
  check_qubit(b, "apply_cz");
  if (a == b) throw InvalidArgument("apply_cz: qubits must differ");
  const std::size_t wa = a / 64, wb = b / 64;
  const std::uint64_t ma = std::uint64_t{1} << (a % 64);
  const std::uint64_t mb = std::uint64_t{1} << (b % 64);
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    std::uint64_t& xa = x_[row * words_ + wa];
    std::uint64_t& za = z_[row * words_ + wa];
    std::uint64_t& xb = x_[row * words_ + wb];
    std::uint64_t& zb = z_[row * words_ + wb];
    const bool bxa = (xa & ma) != 0, bza = (za & ma) != 0;
    const bool bxb = (xb & mb) != 0, bzb = (zb & mb) != 0;
    r_[row] ^= static_cast<std::uint8_t>(bxa && bxb && (bza != bzb));
    if (bxa) zb ^= mb;
    if (bxb) za ^= ma;
  }
}

void Stabilizer::apply_swap(std::size_t a, std::size_t b) {
  check_qubit(a, "apply_swap");
  check_qubit(b, "apply_swap");
  if (a == b) return;
  const std::size_t wa = a / 64, wb = b / 64;
  const std::uint64_t ma = std::uint64_t{1} << (a % 64);
  const std::uint64_t mb = std::uint64_t{1} << (b % 64);
  // Pure column exchange: SWAP relabels the qubits, no phase is acquired.
  for (std::size_t row = 0; row < 2 * num_qubits_; ++row) {
    for (std::vector<std::uint64_t>* bits : {&x_, &z_}) {
      std::uint64_t& pa = (*bits)[row * words_ + wa];
      std::uint64_t& pb = (*bits)[row * words_ + wb];
      const bool ba = (pa & ma) != 0, bb = (pb & mb) != 0;
      if (ba != bb) {
        pa ^= ma;
        pb ^= mb;
      }
    }
  }
}

// ---- measurement ------------------------------------------------------------

void Stabilizer::rowsum(std::size_t h, std::size_t i) {
  std::int64_t phase = 2 * (static_cast<std::int64_t>(r_[h]) +
                            static_cast<std::int64_t>(r_[i]));
  std::uint64_t* xh = x_row(h);
  std::uint64_t* zh = z_row(h);
  const std::uint64_t* xi = x_row(i);
  const std::uint64_t* zi = z_row(i);
  for (std::size_t w = 0; w < words_; ++w) {
    phase += g_word(xi[w], zi[w], xh[w], zh[w]);
    xh[w] ^= xi[w];
    zh[w] ^= zi[w];
  }
  // The product of two commuting-group rows is always a real Pauli, so the
  // i-exponent is 0 or 2 mod 4; 2 means a negative sign.
  r_[h] = static_cast<std::uint8_t>(((phase % 4) + 4) % 4 == 2);
}

bool Stabilizer::is_deterministic(std::size_t q) const {
  check_qubit(q, "is_deterministic");
  return anticommuting_stabilizer(q) == 2 * num_qubits_;
}

std::size_t Stabilizer::anticommuting_stabilizer(std::size_t q) const {
  for (std::size_t i = num_qubits_; i < 2 * num_qubits_; ++i) {
    if (x_bit(i, q)) return i;
  }
  return 2 * num_qubits_;
}

double Stabilizer::probability_one(std::size_t q) {
  check_qubit(q, "probability_one");
  // Random branch: some stabilizer generator anticommutes with Z_q.
  if (anticommuting_stabilizer(q) < 2 * num_qubits_) return 0.5;
  // Deterministic branch: Z_q is in the stabilizer group. Accumulate the
  // product of the stabilizer generators flagged by the destabilizers that
  // anticommute with Z_q into the scratch row; its phase is the outcome.
  const std::size_t scratch = 2 * num_qubits_;
  std::fill_n(x_row(scratch), words_, 0);
  std::fill_n(z_row(scratch), words_, 0);
  r_[scratch] = 0;
  for (std::size_t i = 0; i < num_qubits_; ++i) {
    if (x_bit(i, q)) rowsum(scratch, i + num_qubits_);
  }
  return r_[scratch];
}

void Stabilizer::collapse(std::size_t q, int outcome) {
  check_qubit(q, "collapse");
  const std::size_t p = anticommuting_stabilizer(q);
  if (p == 2 * num_qubits_) return;  // determined: nothing to update
  // Every other row that anticommutes with Z_q absorbs row p, restoring
  // commutation; the old stabilizer becomes the destabilizer of the new
  // Z_q-type generator (the rank update).
  for (std::size_t i = 0; i < 2 * num_qubits_; ++i) {
    if (i != p && x_bit(i, q)) rowsum(i, p);
  }
  std::copy_n(x_row(p), words_, x_row(p - num_qubits_));
  std::copy_n(z_row(p), words_, z_row(p - num_qubits_));
  r_[p - num_qubits_] = r_[p];
  std::fill_n(x_row(p), words_, 0);
  std::fill_n(z_row(p), words_, 0);
  z_row(p)[q / 64] = std::uint64_t{1} << (q % 64);
  r_[p] = static_cast<std::uint8_t>(outcome);
}

int Stabilizer::measure(std::size_t q, Rng& rng) {
  check_qubit(q, "measure");
  ++measurements_;
  const double p1 = probability_one(q);
  if (p1 != 0.5) return static_cast<int>(p1);
  ++random_outcomes_;
  const int outcome = static_cast<int>(rng.below(2));
  collapse(q, outcome);
  return outcome;
}

void Stabilizer::reset_qubit(std::size_t q, Rng& rng) {
  if (measure(q, rng) == 1) apply_x(q);
}

// ---- queries ----------------------------------------------------------------

std::string Stabilizer::row_string(std::size_t row) const {
  std::string out(num_qubits_ + 1, 'I');
  out[0] = r_[row] ? '-' : '+';
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    const bool x = x_bit(row, q), z = z_bit(row, q);
    out[q + 1] = x ? (z ? 'Y' : 'X') : (z ? 'Z' : 'I');
  }
  return out;
}

std::string Stabilizer::stabilizer_string(std::size_t i) const {
  if (i >= num_qubits_) {
    throw InvalidArgument("stabilizer_string: generator index out of range");
  }
  return row_string(num_qubits_ + i);
}

std::string Stabilizer::destabilizer_string(std::size_t i) const {
  if (i >= num_qubits_) {
    throw InvalidArgument("destabilizer_string: generator index out of range");
  }
  return row_string(i);
}

std::vector<cplx> Stabilizer::to_statevector() const {
  if (num_qubits_ > kMaxDenseQubits) {
    throw SimulationError(
        "Stabilizer::to_statevector: " + std::to_string(num_qubits_) +
        " qubits exceeds the dense-extraction guard (" +
        std::to_string(kMaxDenseQubits) +
        "); the tableau exists precisely to avoid 2^n objects");
  }
  const std::size_t dim = std::size_t{1} << num_qubits_;

  // Apply stabilizer generator i to `v`: P|b> = (-1)^r i^{#Y}
  // (-1)^{popcount(b & z)} |b ^ x>, accumulated into v + Pv (the projector
  // 2(I + g_i)/2 without the normalization, which the final rescale absorbs).
  const auto project = [&](std::vector<cplx>& v, std::size_t i) {
    const std::uint64_t xmask = x_row(num_qubits_ + i)[0];
    const std::uint64_t zmask = z_row(num_qubits_ + i)[0];
    const int y_count = std::popcount(xmask & zmask);
    cplx base{1.0, 0.0};
    switch (y_count % 4) {
      case 1: base = cplx{0.0, 1.0}; break;
      case 2: base = cplx{-1.0, 0.0}; break;
      case 3: base = cplx{0.0, -1.0}; break;
      default: break;
    }
    if (r_[num_qubits_ + i]) base = -base;
    std::vector<cplx> out(v);
    for (std::uint64_t b = 0; b < dim; ++b) {
      const cplx phase =
          (std::popcount(b & zmask) & 1) ? -base : base;
      out[b ^ xmask] += phase * v[b];
    }
    v = std::move(out);
  };

  // Project a fixed pseudo-random vector into the (one-dimensional)
  // stabilizer subspace. A random start is orthogonal to it with probability
  // zero; retry on the measure-zero numerical fluke anyway.
  Rng rng(0x57ab1e5eedULL);
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<cplx> v(dim);
    for (cplx& a : v) a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    for (std::size_t i = 0; i < num_qubits_; ++i) project(v, i);
    double norm2 = 0.0;
    for (const cplx& a : v) norm2 += std::norm(a);
    if (norm2 > 1e-12) {
      const double inv = 1.0 / std::sqrt(norm2);
      for (cplx& a : v) a *= inv;
      return v;
    }
  }
  throw SimulationError(
      "Stabilizer::to_statevector: projection repeatedly annihilated the "
      "probe vector (tableau generators are inconsistent)");
}

std::size_t Stabilizer::memory_bytes() const noexcept {
  return (x_.size() + z_.size()) * sizeof(std::uint64_t) + r_.size();
}

}  // namespace qutes::sim
