// Pluggable simulation backends behind the Executor.
//
// The Executor owns circuit-level concerns (the compilation pipeline, option
// validation) and delegates the actual state evolution + sampling to a
// Backend resolved by name from a registry — the same split Qiskit Aer makes
// between `AerSimulator` and its `method=` strings, which is where the paper
// sends every circuit. Four methods ship built in:
//
//   "statevector"  dense 2^n amplitudes; exact, fast path + shot-branching
//                  trajectories, trajectory (Monte-Carlo) noise; ~30 qubits.
//   "density"      exact mixed states, 4^n entries; closed-form noise
//                  channels instead of trajectory averaging; ~13 qubits.
//   "mps"          matrix-product state; memory scales with entanglement,
//                  not qubit count, so low-entanglement circuits run at
//                  40-64+ qubits (cf. Aer's `matrix_product_state`).
//   "stabilizer"   Aaronson–Gottesman phase tableau; Clifford gates only
//                  (H, S, Sdg, X, Y, Z, CX, CZ, SWAP) but polynomial in the
//                  qubit count, so GHZ/teleportation/error-correction
//                  workloads run at thousands of qubits (cf. Aer's
//                  `stabilizer` method and Stim).
//
// `RunConfig::backend.name` may also be "auto": the executor then picks the
// stabilizer method when the prepared circuit is all-Clifford and noiseless,
// and the statevector method otherwise (resolve_backend_name).
//
// Each backend publishes BackendCapabilities, which the executor-side fusion
// planning respects instead of hard-coding per-backend rules: the MPS, for
// example, consumes at most 2-qubit fused blocks on adjacent sites, so its
// capability entry caps the fusion width at 2 and demands contiguous wires.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "qutes/circuit/executor.hpp"
#include "qutes/sim/mps.hpp"
#include "qutes/sim/stabilizer.hpp"

namespace qutes::circ {

struct BackendCapabilities {
  /// Widest fused block the backend can replay (1 = no dense-block replay).
  std::size_t max_fused_qubits = sim::MatrixN::kMaxQubits;
  /// Fused blocks must cover a contiguous wire run (chain-layout backends).
  bool fused_adjacent_only = false;
  /// Supports mid-circuit measurement / reset / classical conditions.
  bool supports_dynamic = true;
  /// Supports a NoiseModel (however it realizes it).
  bool supports_noise = true;
  /// Hard qubit-count ceiling (0 = no backend-specific ceiling).
  std::size_t max_qubits = 0;
  /// Gate mnemonics (gate_name() spellings) the backend implements; empty =
  /// the full gate set. When non-empty the executor rejects every other
  /// unitary gate by name before execution — the stabilizer backend lists
  /// only the Clifford generators here, so neither validation nor
  /// capability-clamped fusion needs a per-backend special case. Structural
  /// instructions (measure/reset/barrier/global phase) are governed by
  /// supports_dynamic, not this list.
  std::vector<std::string> supported_gates;
};

/// One simulation method. Stateless across runs: `execute` gets the prepared
/// (post-pipeline) circuit and fills in counts/memory/diagnostics.
class Backend {
public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual BackendCapabilities capabilities() const = 0;

  /// Run `circuit` under `config` (already validated by the Executor),
  /// writing counts, memory, trajectories, fusion diagnostics, and
  /// backend-specific fields into `result` (whose pipeline-level fields the
  /// Executor has already filled).
  virtual void execute(const QuantumCircuit& circuit, const RunConfig& config,
                       ExecutionResult& result) const = 0;

  /// Run one circuit for several (seed, shots) requests
  /// (Executor::run_batch). `results` arrives pre-sized to `items.size()`
  /// with the pipeline-level fields filled. The contract is bit-identity:
  /// results[i] must equal what execute() would produce under items[i]'s
  /// seed/shots/record_memory. The base implementation just loops execute()
  /// per item (trivially identical); backends override it to share
  /// seed-independent work — the statevector method evolves static noiseless
  /// circuits once and re-samples per item from its own Rng(seed) stream.
  virtual void execute_batch(const QuantumCircuit& circuit,
                             const RunConfig& config,
                             std::span<const ShotBatchItem> items,
                             std::vector<ExecutionResult>& results) const;
};

// ---- registry ---------------------------------------------------------------

using BackendFactory = std::unique_ptr<Backend> (*)();

/// Register (or replace) a backend under `name`. The built-in three are
/// pre-registered; tests may add experimental methods.
void register_backend(const std::string& name, BackendFactory factory);

/// Registered names, sorted (for error messages and --help).
[[nodiscard]] std::vector<std::string> backend_names();

[[nodiscard]] bool backend_known(const std::string& name);

/// Instantiate by name. Throws CircuitError naming the known backends when
/// `name` is not registered.
[[nodiscard]] std::unique_ptr<Backend> make_backend(const std::string& name);

// ---- helpers ---------------------------------------------------------------

/// Test hook: set the byte budget for the state copies that live shot
/// branches may hold (default 256 MiB); returns the previous budget. A fork
/// whose copy does not fit replays its shots one by one instead, with
/// identical outcomes, so results do not depend on this value — 0 lets
/// tests drive that fallback at small widths.
std::size_t set_branch_budget_bytes(std::size_t bytes) noexcept;

/// Evolve `circuit` (unitaries + barriers + global phase only — throws
/// CircuitError on measure/reset/conditions) on a fresh MPS. Gates wider
/// than two qubits are lowered to the {u, cx} basis first. Exposed for the
/// differential harness, which diffs the returned state against the dense
/// reference.
[[nodiscard]] sim::Mps evolve_mps(const QuantumCircuit& circuit,
                                  sim::MpsOptions options = {});

/// Evolve `circuit` (Clifford unitaries + barriers + global phase only —
/// throws CircuitError on measure/reset/conditions or non-Clifford gates) on
/// a fresh stabilizer tableau. Exposed for the differential harness, which
/// extracts the dense state at small n and diffs it against the reference.
[[nodiscard]] sim::Stabilizer evolve_stabilizer(const QuantumCircuit& circuit);

/// True when every instruction is representable on the stabilizer tableau:
/// unitary gates from {h, s, sdg, x, y, z, cx, cz, swap} plus structural
/// instructions (measure/reset/barrier/global phase, with or without
/// conditions). This is the `--backend auto` dispatch predicate.
[[nodiscard]] bool is_clifford_circuit(const QuantumCircuit& circuit);

/// Resolve the "auto" backend name against a prepared circuit: "stabilizer"
/// for noiseless all-Clifford circuits, "statevector" otherwise. Names other
/// than "auto" pass through unchanged.
[[nodiscard]] std::string resolve_backend_name(const std::string& name,
                                               const QuantumCircuit& circuit,
                                               const RunConfig& config);

}  // namespace qutes::circ
