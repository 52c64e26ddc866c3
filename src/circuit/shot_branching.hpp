// Shot branching: the one executor of dynamic circuits, shared by the
// statevector, MPS and stabilizer backends (DESIGN.md §7, tier 3). Private
// to circuit/backend.cpp, which supplies one adapter per backend.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/fusion.hpp"
#include "qutes/common/rng.hpp"
#include "qutes/obs/obs.hpp"

namespace qutes::circ::branching {

/// Bytes of state copies that live branches may hold at once. The root state
/// is not charged: any run holds one state. A fork whose copy does not fit
/// sends its smaller shot group to per-shot replay, which redraws the same
/// outcomes from the same Rng(seed, shot) streams.
constexpr std::size_t kBranchBudgetBytes = std::size_t{256} << 20;
/// The budget in force; only the set_branch_budget_bytes test hook moves it.
inline std::atomic<std::size_t> g_branch_budget{kBranchBudgetBytes};

/// Branches handed to OpenMP tasks but not yet finished. Past this cap a
/// fork stays on its thread's own stack, which bounds the task queue (and so
/// the recursion of tasks a runtime executes inline when its queue is full).
constexpr std::size_t kMaxTasksInFlight = 16;

/// One shot riding a branch: its index and its own counter-derived stream,
/// advanced by exactly the draws the shot would make if simulated alone.
struct ShotStream {
  std::size_t index;
  Rng rng;
};

struct BranchTally {
  std::size_t branches = 0;      ///< states evolved: root, forks, replays
  std::size_t gates = 0;         ///< gates applied, summed over branches
  std::size_t measurements = 0;  ///< per-shot measurements (resets included)
  std::size_t random = 0;        ///< of those, with two possible outcomes

  BranchTally& operator+=(const BranchTally& o) {
    branches += o.branches;
    gates += o.gates;
    measurements += o.measurements;
    random += o.random;
    return *this;
  }
};

/// The dynamic-circuit executor shared by the statevector, MPS and
/// stabilizer backends. It evolves one state for all shots and splits it
/// only at a measurement or reset whose shots drew different outcomes. Each
/// shot draws from its own Rng(seed, shot) exactly what simulating it alone
/// would draw, so its outcome, and every count, is bit-identical to one
/// trajectory per shot, at any thread count and in any branch order. Noisy
/// runs draw per gate and shot, so there every shot is its own branch.
///
/// `Adapter` is the backend's side:
///   State fresh()                                  |0...0>
///   void apply(State&, const FusedOp&)             a fused block
///   void apply(State&, const Instruction&)         a gate, barrier or phase
///   double probability_one(State&, qubit)          no draw, no collapse
///   int draw(double p1, Rng&)                      one shot's outcome
///   void collapse(State&, qubit, outcome, p)       throws if p vanishes
///   void flip(State&, qubit)                       X, for reset
///   std::size_t bytes(const State&)                for the budget
///   void after_gate(State&, const Instruction&, Rng&)  noise (one shot)
///   int readout(int bit, Rng&)                     readout noise (one shot)
///   void finish(const State&)                      per-leaf diagnostics
///   bool small()                 kernels run serially at this size, so
///                                parallelise across branches instead
///   kTrunkSpan, kBranchSpan   span names: the shared evolution until the
///                             shots first diverge, then each branch
template <class Adapter>
class ShotBrancher {
public:
  using State = typename Adapter::State;

  ShotBrancher(const Adapter& adapter, const QuantumCircuit& circ,
               const FusionPlan& plan, const RunConfig& config)
      : adapter_(adapter),
        instrs_(circ.instructions()),
        ops_(plan.ops),
        num_clbits_(circ.num_clbits()),
        config_(config),
        per_shot_(config.backend.noise.enabled()),
        budget_(g_branch_budget.load(std::memory_order_relaxed)) {}

  /// Run every shot into `result` (counts, memory, trajectories).
  BranchTally run(ExecutionResult& result) {
    const std::size_t shots = config_.shots;
    if (config_.record_memory) result.memory.assign(shots, {});
    result_ = &result;
    result.fast_path = false;
    std::vector<Branch> pending;
    if (per_shot_) {
      replay_.resize(shots);
      std::iota(replay_.begin(), replay_.end(), std::size_t{0});
    } else if (shots > 0) {
      // The trunk: one state for every shot until they first diverge. It
      // runs before any parallel region, so the kernels keep their own
      // threading and a circuit whose shots never diverge opens no region.
      obs::Span span(Adapter::kTrunkSpan);
      std::vector<ShotStream> streams;
      streams.reserve(shots);
      for (std::size_t s = 0; s < shots; ++s) streams.push_back({s, Rng(config_.seed, s)});
      Branch root = branch(std::move(streams));
      if (std::optional<Branch> child = advance(root, tally_)) {
        pending.push_back(std::move(root));
        pending.push_back(std::move(*child));
      } else {
        ++tally_.branches;
        record(root, result.counts);
      }
    }
    if (!pending.empty() || !replay_.empty()) drain_all(std::move(pending));
    result.trajectories = tally_.branches;
    return tally_;
  }

private:
  struct Branch {
    State state;
    std::vector<std::uint8_t> clbits;
    std::vector<ShotStream> shots;
    std::size_t op = 0;       ///< next plan op
    std::size_t qubit = 0;    ///< next qubit of a measure split mid-way
    std::size_t charged = 0;  ///< budget bytes this branch's state holds
  };

  /// Evolve the trunk's branches and every shot queued for replay, inside
  /// the one parallel region of the run (active only when it pays).
  void drain_all(std::vector<Branch> pending) {
    // Small states (and one-shot noisy branches) share one region across
    // branches; large ones keep the kernels' threading, one branch at a time.
    const bool across = config_.backend.parallel_shots &&
                        (per_shot_ || adapter_.small()) &&
                        pending.size() + replay_.size() > 1;
#pragma omp parallel if (across)
    {
#pragma omp single
      for (Branch& b : pending) {
        guarded([&] {
          if (across) {
            spawn(std::move(b));
          } else {
            drain(std::move(b), /*spawning=*/false);
          }
        });
      }
      // The single's barrier waits for every task, so replay_ is complete.
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(replay_.size()); ++i) {
        guarded([&] {
          const std::size_t s = replay_[static_cast<std::size_t>(i)];
          drain(branch({{s, Rng(config_.seed, s)}}), /*spawning=*/false);
        });
      }
    }
    if (error_) std::rethrow_exception(error_);
  }

  Branch branch(std::vector<ShotStream> shots) const {
    return {adapter_.fresh(), std::vector<std::uint8_t>(num_clbits_, 0), std::move(shots)};
  }

  /// Run `f`, capturing the first exception of the run (OpenMP regions and
  /// tasks cannot propagate one); skip it once the run has failed.
  template <class F>
  void guarded(F&& f) noexcept {
    if (failed_.load(std::memory_order_relaxed)) return;
    try {
      f();
    } catch (...) {
      const std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  void spawn(Branch&& b) {
    auto* task = new Branch(std::move(b));
    in_flight_.fetch_add(1, std::memory_order_relaxed);
#pragma omp task firstprivate(task)
    {
      const std::unique_ptr<Branch> owned(task);
      guarded([&] { drain(std::move(*owned), /*spawning=*/true); });
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Evolve `first` and every branch forked from it (depth first), unless
  /// `spawning` lets forks become tasks for idle threads.
  void drain(Branch&& first, bool spawning) {
    BranchTally tally;
    sim::Counts counts;
    std::vector<Branch> stack;
    stack.push_back(std::move(first));
    while (!stack.empty()) {
      if (failed_.load(std::memory_order_relaxed)) return;
      Branch b = std::move(stack.back());
      stack.pop_back();
      obs::Span span(Adapter::kBranchSpan);
      ++tally.branches;
      while (std::optional<Branch> child = advance(b, tally)) {
        if (spawning && in_flight_.load(std::memory_order_relaxed) < kMaxTasksInFlight) {
          spawn(std::move(*child));
        } else {
          stack.push_back(std::move(*child));
        }
      }
      record(b, counts);
    }
    const std::lock_guard lock(mutex_);
    for (const auto& [key, n] : counts) result_->counts[key] += n;
    tally_ += tally;
  }

  /// Run `b` to the end of the circuit, or until a measurement splits its
  /// shots; then return the branch that took the other outcome.
  std::optional<Branch> advance(Branch& b, BranchTally& tally) {
    for (; b.op < ops_.size(); ++b.op, b.qubit = 0) {
      const FusedOp& op = ops_[b.op];
      if (op.fused) {
        adapter_.apply(b.state, op);
        ++tally.gates;
        continue;
      }
      const Instruction& in = instrs_[op.instruction];
      if (b.qubit == 0 && in.condition &&
          b.clbits[in.condition->clbit] != in.condition->value) {
        continue;
      }
      if (in.type == GateType::Measure || in.type == GateType::Reset) {
        while (b.qubit < in.qubits.size()) {
          const std::size_t i = b.qubit++;
          if (std::optional<Branch> child = split(b, in, i, tally)) return child;
        }
        continue;
      }
      adapter_.apply(b.state, in);
      if (is_unitary_gate(in.type) && in.type != GateType::GlobalPhase) {
        ++tally.gates;
        if (per_shot_) adapter_.after_gate(b.state, in, b.shots.front().rng);
      }
    }
    return std::nullopt;
  }

  /// Measure (or reset) qubit `in.qubits[i]` of `b`. Every shot draws its
  /// outcome; if both outcomes were drawn, the smaller group leaves in a
  /// returned branch with a copy of the state, or, when the copy does not fit
  /// the budget, goes to per-shot replay.
  std::optional<Branch> split(Branch& b, const Instruction& in, std::size_t i,
                              BranchTally& tally) {
    const std::size_t q = in.qubits[i];
    const double p1 = adapter_.probability_one(b.state, q);
    tally.measurements += b.shots.size();
    if (p1 > 0.0 && p1 < 1.0) tally.random += b.shots.size();
    std::vector<ShotStream> ones;
    std::size_t zeros = 0;
    int reported = 0;  // the one shot's readout when per_shot_
    for (ShotStream& s : b.shots) {
      const int bit = adapter_.draw(p1, s.rng);
      if (per_shot_ && in.type == GateType::Measure) {
        reported = adapter_.readout(bit, s.rng);
      }
      if (bit) {
        ones.push_back(s);
      } else {
        b.shots[zeros++] = s;
      }
    }
    b.shots.resize(zeros);
    const auto settle = [&](Branch& x, int outcome) {
      adapter_.collapse(x.state, q, outcome, outcome ? p1 : 1.0 - p1);
      if (in.type == GateType::Reset) {
        if (outcome) adapter_.flip(x.state, q);
      } else {
        x.clbits[in.clbits[i]] = static_cast<std::uint8_t>(per_shot_ ? reported : outcome);
      }
    };
    if (ones.empty() || zeros == 0) {
      if (zeros == 0) b.shots.swap(ones);
      settle(b, zeros == 0 ? 1 : 0);
      return std::nullopt;
    }
    // Both outcomes occurred: the larger group keeps the state in place.
    int stay = 0;
    if (ones.size() > b.shots.size()) {
      b.shots.swap(ones);
      stay = 1;
    }
    std::optional<Branch> child;
    const std::size_t bytes = adapter_.bytes(b.state);
    if (charge(bytes)) {
      child.emplace(Branch{b.state, b.clbits, std::move(ones), b.op, b.qubit, bytes});
      settle(*child, 1 - stay);
    } else {
      const std::lock_guard lock(mutex_);
      for (const ShotStream& s : ones) replay_.push_back(s.index);
    }
    settle(b, stay);
    return child;
  }

  /// Reserve `bytes` of the copy budget; false when it would overflow.
  bool charge(std::size_t bytes) {
    std::size_t live = live_bytes_.load(std::memory_order_relaxed);
    do {
      if (bytes > budget_ || live > budget_ - bytes) return false;
    } while (!live_bytes_.compare_exchange_weak(live, live + bytes,
                                                std::memory_order_relaxed));
    return true;
  }

  void record(const Branch& b, sim::Counts& counts) {
    std::string key(num_clbits_, '0');
    for (std::size_t c = 0; c < num_clbits_; ++c) {
      if (b.clbits[c]) key[num_clbits_ - 1 - c] = '1';
    }
    counts[key] += b.shots.size();
    if (config_.record_memory) {
      for (const ShotStream& s : b.shots) result_->memory[s.index] = key;
    }
    adapter_.finish(b.state);
    live_bytes_.fetch_sub(b.charged, std::memory_order_relaxed);
  }

  const Adapter& adapter_;
  const std::vector<Instruction>& instrs_;
  const std::vector<FusedOp>& ops_;
  const std::size_t num_clbits_;
  const RunConfig& config_;
  const bool per_shot_;
  const std::size_t budget_;
  ExecutionResult* result_ = nullptr;
  std::atomic<std::size_t> live_bytes_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> failed_{false};
  std::mutex mutex_;  // guards result_->counts, tally_, replay_ and error_
  BranchTally tally_;
  std::vector<std::size_t> replay_;
  std::exception_ptr error_;
};

}  // namespace qutes::circ::branching
