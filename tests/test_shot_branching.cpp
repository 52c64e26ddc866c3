// Shot branching for dynamic circuits: the driver evolves one state for all
// shots and splits it only where shots drew different outcomes, with every
// shot drawing from its own Rng(seed, shot) exactly what simulating it alone
// draws. The golden counts and per-shot memory digests below were recorded
// by simulating every shot on its own; they must hold on every backend that
// branches, at any thread count, with the shot loop parallel or serial, and
// when the copy budget forces shots back to per-shot replay.
#include <gtest/gtest.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/common/cache_key.hpp"
#include "qutes/lang/compiler.hpp"

#ifndef QUTES_PROGRAMS_DIR
#error "QUTES_PROGRAMS_DIR must point at examples/programs"
#endif

namespace {

using namespace qutes;
using circ::QuantumCircuit;

/// The circuit a shipped program logs (what `qutes run --replay` re-runs).
QuantumCircuit program_circuit(const char* name, std::uint64_t seed) {
  RunConfig config;
  config.seed = seed;
  return lang::run_file(std::string(QUTES_PROGRAMS_DIR) + "/" + name, config)
      .lowered_circuit;
}

/// Mid-circuit measurements feeding c_if, resets of measured qubits, and a
/// measured qubit reused afterwards; Clifford, so the tableau runs it too.
QuantumCircuit cif_reset_circuit() {
  QuantumCircuit c(4, 4);
  c.h(0).h(1).cx(1, 2);
  c.measure(0, 0).measure(1, 1);
  c.x(3).c_if(0, 1);
  c.h(2).c_if(1, 0);
  c.reset(1);
  c.h(1).cz(1, 3);
  c.measure(2, 2);
  c.reset(0);
  c.cx(1, 0).s(1).h(1);
  c.measure(1, 3).measure(0, 0);
  return c;
}

struct Golden {
  const char* name;
  std::function<QuantumCircuit()> circuit;
  const char* backend;
  std::size_t shots;
  std::uint64_t seed;
  const char* counts;     ///< "key:n " pairs in key order
  std::uint64_t digest;   ///< fnv1a64 of the memory, one shot per line
};

struct Outcome {
  std::string counts;
  std::uint64_t digest = 0;
  std::size_t trajectories = 0;
};

Outcome run(const QuantumCircuit& c, const Golden& g, bool parallel_shots) {
  RunConfig config;
  config.backend.name = g.backend;
  config.backend.parallel_shots = parallel_shots;
  config.shots = g.shots;
  config.seed = g.seed;
  config.record_memory = true;
  const circ::ExecutionResult result = circ::Executor(config).run(c);
  Outcome out;
  for (const auto& [key, n] : result.counts) {
    out.counts += key + ":" + std::to_string(n) + " ";
  }
  std::string memory;
  for (const std::string& key : result.memory) memory += key + "\n";
  out.digest = fnv1a64(memory);
  out.trajectories = result.trajectories;
  EXPECT_FALSE(result.fast_path) << g.name;
  return out;
}

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> cases = {
      {"cif_reset", cif_reset_circuit, "statevector", 1024, 5,
       "0000:73 0001:56 0100:67 0101:66 0110:130 0111:114 1000:59 1001:81 "
       "1100:63 1101:62 1110:117 1111:136 ",
       0x1afa4d29531a223cULL},
      {"cif_reset", cif_reset_circuit, "mps", 1024, 5,
       "0000:73 0001:56 0100:67 0101:66 0110:130 0111:114 1000:59 1001:81 "
       "1100:63 1101:62 1110:117 1111:136 ",
       0x1afa4d29531a223cULL},
      {"cif_reset", cif_reset_circuit, "stabilizer", 1024, 5,
       "0000:54 0001:71 0100:48 0101:58 0110:126 0111:123 1000:71 1001:65 "
       "1100:67 1101:63 1110:132 1111:146 ",
       0x29c2666331471dffULL},
      {"quickstart", [] { return program_circuit("quickstart.qut", 9); },
       "statevector", 1024, 3, "0101100110:507 1110001000:517 ",
       0xf8f5521ba17de1a6ULL},
      {"quickstart", [] { return program_circuit("quickstart.qut", 9); },
       "mps", 1024, 3, "0101100110:507 1110001000:517 ",
       0xf8f5521ba17de1a6ULL},
      {"cyclic_shift", [] { return program_circuit("cyclic_shift.qut", 9); },
       "statevector", 1024, 3, "0000010000001000:1024 ",
       0x6d2fdf6e50e10b25ULL},
      {"cyclic_shift", [] { return program_circuit("cyclic_shift.qut", 9); },
       "mps", 1024, 3, "0000010000001000:1024 ", 0x6d2fdf6e50e10b25ULL},
      {"grover", [] { return program_circuit("grover.qut", 7); },
       "statevector", 256, 11,
       "00000101100100010110:1 01000101100000010110:3 01000101100010010110:2 "
       "01000101100100010110:228 01000101100110010110:3 "
       "01000101101000010110:1 01000101101010010110:1 "
       "01000101101100010110:2 01000101101110010110:3 "
       "01100101100100010110:1 10000101100100010110:2 "
       "10100101100100010110:2 11000101100100010110:5 "
       "11100101100100010110:2 ",
       0x1e1b150e2ddafdabULL},
      {"grover", [] { return program_circuit("grover.qut", 7); }, "mps", 256,
       11,
       "00000101100100010110:1 01000101100000010110:3 01000101100010010110:2 "
       "01000101100100010110:228 01000101100110010110:3 "
       "01000101101000010110:1 01000101101010010110:1 "
       "01000101101100010110:2 01000101101110010110:3 "
       "01100101100100010110:1 10000101100100010110:2 "
       "10100101100100010110:2 11000101100100010110:5 "
       "11100101100100010110:2 ",
       0x1e1b150e2ddafdabULL},
  };
  return cases;
}

class ShotBranchingGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShotBranchingGolden, MatchesPerShotCountsAndMemoryAtAnyThreadCount) {
  const Golden& g = goldens()[GetParam()];
  const QuantumCircuit c = g.circuit();
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (const int threads : {1, 2, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    for (const bool parallel_shots : {true, false}) {
      const Outcome r = run(c, g, parallel_shots);
      EXPECT_EQ(r.counts, g.counts)
          << g.name << "/" << g.backend << " threads=" << threads
          << " parallel_shots=" << parallel_shots;
      EXPECT_EQ(r.digest, g.digest)
          << g.name << "/" << g.backend << " threads=" << threads
          << " parallel_shots=" << parallel_shots;
      EXPECT_GE(r.trajectories, 1u);
      EXPECT_LE(r.trajectories, g.shots);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST_P(ShotBranchingGolden, BudgetOverflowReplaysPerShotWithSameOutcomes) {
  const Golden& g = goldens()[GetParam()];
  const QuantumCircuit c = g.circuit();
  const Outcome branched = run(c, g, true);
  // No room for any state copy: every fork sends its smaller shot group to
  // per-shot replay from |0...0>, which must redraw the same outcomes.
  const std::size_t saved = circ::set_branch_budget_bytes(0);
  const Outcome replayed = run(c, g, true);
  circ::set_branch_budget_bytes(saved);
  EXPECT_EQ(replayed.counts, g.counts) << g.name << "/" << g.backend;
  EXPECT_EQ(replayed.digest, g.digest) << g.name << "/" << g.backend;
  EXPECT_GE(replayed.trajectories, branched.trajectories);
}

INSTANTIATE_TEST_SUITE_P(Dynamic, ShotBranchingGolden,
                         ::testing::Range<std::size_t>(0, 9),
                         [](const auto& info) {
                           const Golden& g = goldens()[info.param];
                           return std::string(g.name) + "_" + g.backend;
                         });

TEST(ShotBranching, BranchesOnlyWhereShotsDiverge) {
  // cyclic_shift's measurements are all determined: one branch for 1024
  // shots. quickstart's one random qubit splits them once.
  RunConfig config;
  config.shots = 1024;
  const auto cyclic = circ::Executor(config).run(program_circuit("cyclic_shift.qut", 9));
  EXPECT_EQ(cyclic.trajectories, 1u);
  const auto quick = circ::Executor(config).run(program_circuit("quickstart.qut", 9));
  EXPECT_EQ(quick.trajectories, 2u);
}

TEST(ShotBranching, ZeroShotsEvolveNothing) {
  RunConfig config;
  config.shots = 0;
  for (const char* backend : {"statevector", "mps", "stabilizer"}) {
    config.backend.name = backend;
    const auto result = circ::Executor(config).run(cif_reset_circuit());
    EXPECT_TRUE(result.counts.empty()) << backend;
    EXPECT_EQ(result.trajectories, 0u) << backend;
  }
}

TEST(ShotBranching, NoisyRunsKeepOneBranchPerShot) {
  QuantumCircuit c(2, 2);
  c.h(0).measure(0, 0);
  c.x(1).c_if(0, 1);
  c.measure(1, 1);
  RunConfig config;
  config.shots = 300;
  config.backend.noise.depolarizing_1q = 0.05;
  config.backend.noise.readout_error = 0.02;
  EXPECT_EQ(circ::Executor(config).run(c).trajectories, 300u);
}

}  // namespace
