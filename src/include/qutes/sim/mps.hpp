// Matrix-product-state (tensor-network) quantum simulator.
//
// Where StateVector stores all 2^n amplitudes — a hard wall near 30 qubits —
// an MPS factorizes the state into one rank-3 tensor per qubit
//
//   |psi> = sum_{p_0..p_{n-1}} A_0[p_0] A_1[p_1] ... A_{n-1}[p_{n-1}] |p_0..p_{n-1}>
//
// where A_i[p] is a (bond x bond) matrix slice. Memory and gate cost scale
// with the *bond dimension* chi (the entanglement across each cut), not with
// 2^n, so low-entanglement circuits (GHZ, QFT on product states, shallow
// brickwork, sparse oracles) run at 40, 64, or more qubits — the same escape
// hatch Qiskit Aer's `matrix_product_state` method provides the paper's
// stack.
//
// Mechanics (the standard Vidal/DMRG toolkit):
//  * 1q gates contract locally into one site tensor — exact, O(chi^2);
//  * nearest-neighbor 2q gates contract the two site tensors into a theta
//    tensor, apply the 4x4 unitary, and split back via SVD. Singular values
//    below `truncation_threshold` (relative) are discarded and the bond is
//    capped at `max_bond_dim`; the discarded weight accumulates in
//    truncation_error() so callers can see how lossy a run was;
//  * qubits live on sites through a lazy layout (site_of / qubit_at, the
//    identity at construction). A distant 2q gate moves one operand's site
//    next to its partner by adjacent swaps — each one split — and leaves it
//    there; a SWAP gate only relabels two qubits. Single-qubit work, dense
//    queries and measurement look the qubit's current site up;
//  * sampling walks the chain qubit-by-qubit, conditioning a left
//    environment on the bits drawn so far against precomputed right
//    environments (Sampler) — O(n chi^3) per shot, no 2^n object anywhere.
//    make_sampler() first restores the canonical layout (site i = qubit i)
//    by adjacent swaps, so shots draw qubit 0, 1, ... in order. The restore
//    costs the layout's inversion count: at most the hops made so far plus
//    2d-1 per relabelled SWAP of qubits d sites apart (what applying that
//    SWAP in place would have cost).
//
// Contraction kernels are OpenMP-parallel over bond indices above a size
// threshold. Basis indices are little-endian (bit i = qubit i), matching
// StateVector, whatever the layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qutes/common/rng.hpp"
#include "qutes/sim/matrix.hpp"
#include "qutes/sim/statevector.hpp"

namespace qutes::sim {

struct MpsOptions {
  /// Hard cap on any bond dimension; 0 = unlimited (exact up to
  /// `truncation_threshold`). Exact simulation of arbitrary n-qubit states
  /// needs chi = 2^(n/2), so a cap is what makes 48+ qubits tractable.
  std::size_t max_bond_dim = 0;
  /// Discard singular values below this fraction of the largest one in each
  /// split. 0 keeps everything representable (only exact numerical zeros are
  /// dropped) — the "truncation disabled" regime differential tests use.
  double truncation_threshold = 0.0;
};

class Mps {
public:
  /// |0...0> on `num_qubits` qubits (a bond-dimension-1 product state).
  explicit Mps(std::size_t num_qubits, MpsOptions options = {});

  /// Factorize a dense state into an MPS by successive SVD splits. Exact up
  /// to the options' truncation policy.
  static Mps from_statevector(const StateVector& psi, MpsOptions options = {});

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] const MpsOptions& options() const noexcept { return options_; }

  // ---- gate application ---------------------------------------------------

  /// Apply a single-qubit unitary to `target` (exact, local contraction).
  void apply_1q(const Matrix2& u, std::size_t target);

  /// Apply a general two-qubit unitary; `q0` indexes the low bit of the 4x4
  /// basis, `q1` the high bit (same convention as StateVector::apply_2q).
  /// If their sites are not neighbors, the higher site moves down next to
  /// the lower one and stays there.
  void apply_2q(const Matrix4& u, std::size_t q0, std::size_t q1);

  /// Apply `u` to `target` controlled on `control` being |1>.
  void apply_controlled_1q(const Matrix2& u, std::size_t control, std::size_t target);

  /// Apply a dense 1- or 2-qubit block: local bit j of the matrix acts on
  /// `targets[j]`. This is how the executor replays fused blocks; blocks
  /// wider than 2 qubits are rejected (the MPS consumes at most 2q blocks —
  /// see BackendCapabilities::max_fused_qubits).
  void apply_kq(const MatrixN& u, std::span<const std::size_t> targets);

  /// SWAP two qubits: exchanges their sites in the layout, no tensor work.
  void apply_swap(std::size_t a, std::size_t b);

  /// Multiply the entire state by e^{i lambda}.
  void apply_global_phase(double lambda);

  // ---- measurement & sampling ---------------------------------------------

  /// P(qubit = 1), via left/right environment contraction.
  [[nodiscard]] double probability_one(std::size_t qubit) const;

  /// Project `qubit` onto `outcome` and rescale by 1/sqrt(prob), where
  /// `prob` is that outcome's probability (from probability_one). Throws
  /// SimulationError when `prob` vanishes.
  void collapse(std::size_t qubit, int outcome, double prob);

  /// Projectively measure one qubit: collapses the chain and returns 0/1.
  int measure(std::size_t qubit, Rng& rng);

  /// Measure `qubit` and, if it came up 1, flip it back to |0>.
  void reset_qubit(std::size_t qubit, Rng& rng);

  /// Precomputed right environments for repeated sampling. Read-only once
  /// built, so one Sampler may be shared by any number of threads — each
  /// shot only needs its own Rng stream (Rng(seed, shot)) for the counts to
  /// come out bit-identical at any thread count.
  struct Sampler {
    /// right[i] is the chi_i x chi_i environment of sites i..n-1.
    std::vector<std::vector<cplx>> right;
  };
  /// Restores the canonical layout (site i = qubit i), then builds the
  /// environments. Valid until the next gate.
  [[nodiscard]] Sampler make_sampler();

  /// Sample one basis state (little-endian bit i = qubit i) without
  /// collapsing, by the conditional qubit-by-qubit walk. Throws
  /// SimulationError if the layout moved since make_sampler().
  [[nodiscard]] std::uint64_t sample(const Sampler& sampler, Rng& rng) const;

  /// Convenience: build a one-shot sampler and draw.
  [[nodiscard]] std::uint64_t sample(Rng& rng);

  // ---- queries -------------------------------------------------------------

  /// Amplitude <basis|psi>: one O(n chi^2) chain contraction.
  [[nodiscard]] cplx amplitude(std::uint64_t basis) const;

  /// <Z_qubit> = P(0) - P(1).
  [[nodiscard]] double expectation_z(std::size_t qubit) const;

  /// L2 norm of the state (1 up to roundoff and truncation renormalization).
  [[nodiscard]] double norm() const;

  /// Rescale to unit norm. Throws SimulationError on a zero state.
  void normalize();

  /// Contract the full chain into a dense statevector. Only for small n
  /// (guarded at kMaxDenseQubits — the whole point of the MPS is not to
  /// build this object at 48 qubits).
  static constexpr std::size_t kMaxDenseQubits = 24;
  [[nodiscard]] std::vector<cplx> to_statevector() const;

  // ---- diagnostics ---------------------------------------------------------

  /// Bond dimension to the right of site i (chi between sites i and i+1;
  /// which qubits sit there depends on the layout, see site_of).
  [[nodiscard]] std::size_t bond_dim(std::size_t i) const;

  /// The site currently holding `qubit` (== qubit in the canonical layout).
  [[nodiscard]] std::size_t site_of(std::size_t qubit) const;

  /// Site-tensor footprint in bytes.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Largest bond dimension currently in the chain.
  [[nodiscard]] std::size_t max_bond_dim() const noexcept;

  /// Largest bond dimension reached at any point of the evolution.
  [[nodiscard]] std::size_t max_bond_dim_reached() const noexcept {
    return max_bond_reached_;
  }

  /// Cumulative truncated probability weight: sum over every SVD split of
  /// (discarded singular values)^2 / (total)^2. 0 in the exact regime.
  [[nodiscard]] double truncation_error() const noexcept { return truncation_error_; }

  /// Number of lossy SVD splits so far (splits that actually discarded
  /// weight; 0 in the exact regime). Feeds the mps.svd_truncations metric.
  [[nodiscard]] std::size_t svd_truncations() const noexcept {
    return svd_truncations_;
  }

  /// Number of adjacent site swaps so far (gate routing and layout restores;
  /// each is one SVD split). Feeds the mps.site_swaps metric.
  [[nodiscard]] std::size_t site_swaps() const noexcept { return site_swaps_; }

private:
  // Site tensor i has dims (dl_[i], 2, dr_[i]), flattened row-major as
  // t[(l * 2 + p) * dr + r]; dr_[i] == dl_[i+1], dl_[0] == dr_[n-1] == 1.
  std::vector<cplx>& site(std::size_t i) { return sites_[i]; }
  [[nodiscard]] const std::vector<cplx>& site(std::size_t i) const { return sites_[i]; }

  void check_qubit(std::size_t q, const char* what) const;

  /// Contract sites (i, i+1), apply the 4x4 `u` whose low bit sits on
  /// `low_site_is_q0 ? site i : site i+1`, split back with truncated SVD.
  void apply_2q_adjacent(const Matrix4& u, std::size_t i, bool low_site_is_q0);

  /// SWAP the physical indices of adjacent sites (i, i+1) and their qubits'
  /// places in the layout.
  void swap_adjacent(std::size_t i);

  /// Move every qubit back to its own site (site i = qubit i) by adjacent
  /// swaps — exactly the layout's inversion count of them.
  void restore_layout();

  /// Left environment of sites 0..q-1 (chi x chi, identity-like for q=0).
  [[nodiscard]] std::vector<cplx> left_environment(std::size_t q) const;
  /// Right environment of sites q..n-1.
  [[nodiscard]] std::vector<cplx> right_environment(std::size_t q) const;

  std::size_t num_qubits_ = 0;
  MpsOptions options_;
  std::vector<std::vector<cplx>> sites_;
  std::vector<std::size_t> dl_, dr_;
  // The layout: site_of_[q] is qubit q's site, qubit_at_[i] site i's qubit.
  std::vector<std::size_t> site_of_, qubit_at_;
  std::size_t max_bond_reached_ = 1;
  double truncation_error_ = 0.0;
  std::size_t svd_truncations_ = 0;
  std::size_t site_swaps_ = 0;
};

}  // namespace qutes::sim
