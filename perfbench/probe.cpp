// perfbench_probe — the in-process half of the end-to-end benchmark.
//
// perfbench/run.py drives the shipped `qutes` and `qutesd` binaries; this
// program calls the same public library functions from outside, for the
// three things a socket or a process boundary cannot give:
//
//   perfbench_probe env
//       One JSON line: active SIMD ISA, OpenMP threads, compiler, build type.
//   perfbench_probe cold-gen --seed S --count N
//       N never-seen sources from testing::random_qutes_program (default
//       options but nesting depth 0), a seeded half marked pipeline "o1".
//       One JSON line each.
//   perfbench_probe verdicts FILE
//       The lang::lower_source verdict of each cold-gen line in FILE.
//   perfbench_probe check FILE
//       FILE holds request/response line pairs captured from qutesd. Each
//       response's counts must be bit-identical to Executor::run on the same
//       lowered circuit under the same seed (the run_batch invariant), and
//       each error response must carry the error the same request raises
//       in-process.
//   perfbench_probe trace --mode cli|service --ops FILE [--service-ops FILE]
//                   [--cache-mb N] [--spans FILE]
//       Runs each op (a qutesd request line) through the public stages that
//       lang::run_source composes, then replays the service ops through an
//       in-process Service, timing every call with spans recorded here.
//       Prints per-op results (for the caller's cross-check) and one summary
//       line of per-layer metrics.
//
// The spans live in this file only: nothing under src/ is instrumented for
// the benchmark.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "qutes/circuit/backend.hpp"
#include "qutes/circuit/executor.hpp"
#include "qutes/circuit/fusion.hpp"
#include "qutes/circuit/pass_manager.hpp"
#include "qutes/common/cache_key.hpp"
#include "qutes/lang/compiler.hpp"
#include "qutes/lang/lexer.hpp"
#include "qutes/lang/lower.hpp"
#include "qutes/lang/vm.hpp"
#include "qutes/service/json.hpp"
#include "qutes/service/protocol.hpp"
#include "qutes/service/service.hpp"
#include "qutes/sim/kernels.hpp"
#include "qutes/testing/generators.hpp"

namespace {

using qutes::service::Json;
using qutes::service::JsonObject;
using qutes::service::Request;
using qutes::service::Response;
using Clock = std::chrono::steady_clock;

/// The seed qutesd compiles cached artifacts under (RunConfig's default).
constexpr std::uint64_t kCanonicalSeed = qutes::RunConfig{}.seed;

// ---- spans -------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  long op = -1;
  std::string program;
  std::string backend;
  std::size_t shots = 0;
};

/// In-memory span store; written out only when the probe finishes.
class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer& tracer, std::string name, int parent, long op,
          std::string program, std::string backend, std::size_t shots)
        : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
      tracer_.spans_.push_back({std::move(name), tracer_.now_us(), 0.0, parent,
                                op, std::move(program), std::move(backend),
                                shots});
    }
    ~Scope() { tracer_.spans_[static_cast<std::size_t>(index_)].end_us = tracer_.now_us(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int index() const noexcept { return index_; }
    /// Relabel the span once the value is known (e.g. the resolved backend).
    void set_backend(std::string backend) {
      tracer_.spans_[static_cast<std::size_t>(index_)].backend = std::move(backend);
    }
    void set_name(std::string name) {
      tracer_.spans_[static_cast<std::size_t>(index_)].name = std::move(name);
    }

  private:
    Tracer& tracer_;
    int index_;
  };

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the union of its children.
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
      }
    }
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double reach = spans_[i].start_us;
      for (const auto& [b, e] : kids) {
        const double lo = std::max(b, reach);
        const double hi = std::min(e, spans_[i].end_us);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, hi);
      }
      out[i] = (spans_[i].end_us - spans_[i].start_us - covered) / 1000.0;
    }
    return out;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      JsonObject o;
      o["id"] = static_cast<std::int64_t>(i);
      o["name"] = s.name;
      o["start_us"] = s.start_us;
      o["end_us"] = s.end_us;
      o["parent"] = static_cast<std::int64_t>(s.parent);
      o["op"] = static_cast<std::int64_t>(s.op);
      o["program"] = s.program;
      o["backend"] = s.backend;
      o["shots"] = static_cast<std::uint64_t>(s.shots);
      out << Json(std::move(o)).dump() << "\n";
    }
  }

private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
};

// ---- helpers -------------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

Json counts_json(const qutes::sim::Counts& counts) {
  JsonObject o;
  for (const auto& [bits, n] : counts) o[bits] = static_cast<std::uint64_t>(n);
  return Json(std::move(o));
}

/// The circuit a canonical qutesd compile produces for `request`, and the
/// config its warm hits execute under (service.cpp compile_entry).
struct CanonicalCompile {
  qutes::circ::QuantumCircuit lowered;
  std::string output;
  qutes::RunConfig exec_config;
};

CanonicalCompile canonical_compile(const Request& request) {
  qutes::RunConfig config = qutes::service::request_config(request);
  config.seed = kCanonicalSeed;
  config.record_memory = false;
  config.bind_params.clear();
  config.allow_unbound_params = true;
  qutes::circ::PassManager pipeline;
  if (!request.pipeline.empty()) {
    pipeline = qutes::circ::make_pipeline(*qutes::circ::parse_preset(request.pipeline));
    config.pipeline.manager = &pipeline;
  }
  CanonicalCompile out;
  qutes::lang::RunResult compiled = qutes::lang::run_source(request.source, config);
  out.lowered = std::move(compiled.lowered_circuit);
  out.output = std::move(compiled.output);
  out.exec_config = qutes::service::request_config(request);
  out.exec_config.pipeline.manager = nullptr;
  out.exec_config.bind_params.clear();
  if (out.lowered.num_qubits() > 0) {
    out.exec_config.backend.name = qutes::circ::resolve_backend_name(
        request.backend, out.lowered, out.exec_config);
  }
  return out;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---- env -----------------------------------------------------------------------

int cmd_env() {
  JsonObject o;
  o["isa"] = std::string(qutes::sim::kernels::isa_name(qutes::sim::kernels::active_isa()));
#ifdef _OPENMP
  o["omp_threads"] = static_cast<std::int64_t>(omp_get_max_threads());
#else
  o["omp_threads"] = static_cast<std::int64_t>(1);
#endif
  o["compiler"] = std::string(PERFBENCH_COMPILER);
  o["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  std::cout << Json(std::move(o)).dump() << "\n";
  return 0;
}

// ---- cold-gen ------------------------------------------------------------------

int cmd_cold_gen(std::uint64_t seed, std::size_t count) {
  // Default options except nesting depth 0 (straight-line programs). The
  // generator reserves a declaration's qubits once, but a loop body
  // allocates them on every iteration, so at any depth >= 1 a rare program
  // reaches the 26-qubit simulator budget: a 1 GiB state, and minutes for a
  // dynamic circuit's 64 trajectories. That would turn a miss-path workload
  // into a dense-simulation one. Flat programs stay within 8 qubits.
  qutes::testing::ProgramGenOptions options;
  options.max_depth = 0;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    JsonObject o;
    o["source"] = qutes::testing::random_qutes_program(rng(), options);
    o["pipeline"] = std::string((rng() & 1u) != 0 ? "o1" : "");
    std::cout << Json(std::move(o)).dump() << "\n";
  }
  return 0;
}

/// lang::lower_source verdict of each source line of `path` (cold-gen
/// output), one JSON line each.
int cmd_verdicts(const std::string& path) {
  for (const std::string& line : read_lines(path)) {
    const Json source = Json::parse(line);
    JsonObject o;
    try {
      (void)qutes::lang::lower_source(source.get("source").as_string());
      o["lower_ok"] = true;
    } catch (const std::exception& e) {
      o["lower_ok"] = false;
      o["error"] = std::string(e.what());
    }
    std::cout << Json(std::move(o)).dump() << "\n";
  }
  return 0;
}

// ---- check ---------------------------------------------------------------------

int cmd_check(const std::string& path) {
  const std::vector<std::string> lines = read_lines(path);
  if (lines.size() % 2 != 0) throw std::runtime_error("check: odd line count");
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < lines.size(); i += 2) {
    const Request request = qutes::service::parse_request(lines[i]);
    const Response response = qutes::service::parse_response(lines[i + 1]);
    // The same request in-process: canonical compile, then the request's
    // own seed and shots. An error must be the daemon's error, verbatim.
    std::string verdict;
    try {
      const CanonicalCompile entry = canonical_compile(request);
      if (!response.ok) {
        verdict = "in-process run succeeded";
      } else if (entry.lowered.num_qubits() == 0) {
        if (entry.output != response.output) verdict = "output differs";
      } else {
        qutes::RunConfig config = entry.exec_config;
        config.seed = request.seed;
        config.shots = request.shots;
        const qutes::circ::ExecutionResult expected =
            qutes::circ::Executor(config).run(entry.lowered);
        if (expected.counts != response.counts) verdict = "counts differ";
        if (expected.backend != response.backend) verdict = "backend differs";
      }
    } catch (const std::exception& e) {
      if (response.ok || response.error != e.what()) {
        verdict = std::string("in-process error: ") + e.what();
      }
    }
    ++checked;
    if (!verdict.empty()) {
      ++mismatches;
      if (first.empty()) first = "request " + request.id + ": " + verdict;
    }
  }
  JsonObject o;
  o["checked"] = static_cast<std::uint64_t>(checked);
  o["mismatches"] = static_cast<std::uint64_t>(mismatches);
  o["first"] = first;
  std::cout << Json(std::move(o)).dump() << "\n";
  return 0;
}

// ---- trace ---------------------------------------------------------------------

struct TraceOptions {
  std::string mode = "service";  ///< "cli": run_source/--replay semantics
  std::string ops_path;
  std::string service_ops_path;
  std::string spans_path;
  std::size_t cache_mb = 64;
};

/// One op through tokenize -> compile_source -> lower -> Vm::run -> O1
/// PassManager::run -> build_fusion_plan -> Executor::run. Returns the
/// per-op result line for the caller's cross-check.
JsonObject trace_stages(Tracer& tracer, long op, const Request& request,
                        const std::string& program, bool cli_mode,
                        std::vector<double>& tokens,
                        std::map<std::string, std::vector<double>>& counters) {
  JsonObject result;
  result["op"] = static_cast<std::int64_t>(op);
  Tracer::Scope root(tracer, "op", -1, op, program, request.backend, request.shots);
  const int parent = root.index();
  auto scope = [&](const char* name) {
    return std::make_unique<Tracer::Scope>(tracer, name, parent, op, program,
                                           request.backend, request.shots);
  };
  try {
    {
      auto s = scope("lang.tokenize");
      tokens.push_back(static_cast<double>(qutes::lang::tokenize(request.source).size()));
    }
    qutes::lang::CompileResult compiled;
    {
      auto s = scope("lang.compile");
      compiled = qutes::lang::compile_source(request.source, request.include_stdlib);
    }
    std::optional<qutes::lang::Bytecode> bytecode;
    {
      auto s = scope("lang.lower");
      bytecode.emplace(qutes::lang::lower(compiled.program, compiled.functions,
                                          qutes::fnv1a64(request.source)));
    }
    qutes::circ::QuantumCircuit circuit;
    {
      auto s = scope("lang.vm");
      qutes::lang::VmOptions vm_options;
      vm_options.seed = cli_mode ? request.seed : kCanonicalSeed;
      vm_options.allow_unbound_params = !cli_mode;
      qutes::lang::Vm vm(*bytecode, vm_options);
      vm.run();
      result["output"] = vm.runtime().captured_output();
      circuit = vm.runtime().handler().circuit();
    }
    qutes::circ::QuantumCircuit o1;
    {
      auto s = scope("circuit.pipeline");
      o1 = qutes::circ::make_pipeline(qutes::circ::Preset::O1).run(circuit);
    }
    counters["circuit.ir_gates_out"].push_back(static_cast<double>(o1.gate_count()));
    qutes::circ::QuantumCircuit executed;
    if (request.pipeline == "o1") {
      executed = std::move(o1);
    } else if (!request.pipeline.empty()) {
      executed = qutes::circ::make_pipeline(*qutes::circ::parse_preset(request.pipeline)).run(circuit);
    } else {
      executed = std::move(circuit);
    }
    if (executed.num_qubits() == 0) {
      result["counts"] = Json(JsonObject{});
      return result;
    }
    qutes::RunConfig config;
    if (cli_mode) {
      config.backend.name = request.backend;
      config.seed = request.seed + 1;  // run_source's replay seed
    } else {
      config = qutes::service::request_config(request);
      config.backend.name =
          qutes::circ::resolve_backend_name(request.backend, executed, config);
    }
    config.shots = request.shots;
    {
      auto s = scope("circuit.fusion_plan");
      qutes::circ::FusionOptions fusion;
      fusion.max_fused_qubits = config.backend.max_fused_qubits;
      const qutes::circ::FusionPlan plan =
          qutes::circ::build_fusion_plan(executed.instructions(), fusion);
      counters["circuit.fused_blocks"].push_back(static_cast<double>(plan.fused_blocks()));
    }
    qutes::circ::ExecutionResult run;
    {
      auto s = scope("circuit.execute");
      run = qutes::circ::Executor(config).run(executed);
      s->set_backend(run.backend);
    }
    counters["circuit.trajectories"].push_back(static_cast<double>(run.trajectories));
    counters["circuit.fast_path_share"].push_back(run.fast_path ? 1.0 : 0.0);
    result["backend"] = run.backend;
    result["counts"] = counts_json(run.counts);
  } catch (const std::exception& e) {
    result["error"] = std::string(e.what());
  }
  return result;
}

int cmd_trace(const TraceOptions& options) {
  Tracer tracer;
  const bool cli_mode = options.mode == "cli";
  std::vector<double> tokens;
  std::map<std::string, std::vector<double>> counters;
  std::vector<Request> ops;
  for (const std::string& line : read_lines(options.ops_path)) {
    ops.push_back(qutes::service::parse_request(line));
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const JsonObject line = trace_stages(tracer, static_cast<long>(i), ops[i], ops[i].id,
                                         cli_mode, tokens, counters);
    std::cout << Json(line).dump() << "\n";
  }

  // Service replay: the request sequence through an in-process Service.
  std::vector<double> response_bytes;
  if (!options.service_ops_path.empty()) {
    qutes::service::ServiceOptions service_options;
    service_options.workers = 1;
    service_options.cache_bytes = options.cache_mb << 20;
    qutes::service::Service service(service_options);
    long op = 0;
    for (const std::string& line : read_lines(options.service_ops_path)) {
      const Request request = qutes::service::parse_request(line);
      Response response;
      {
        Tracer::Scope s(tracer, "service.handle", -1, op, request.id,
                        request.backend, request.shots);
        response = service.handle(request);
        s.set_name(response.cache == "hit" ? "service.hit" : "service.miss");
        s.set_backend(response.backend);
      }
      Tracer::Scope s(tracer, "service.serialize", -1, op++, request.id,
                      response.backend, request.shots);
      response_bytes.push_back(
          static_cast<double>(qutes::service::serialize_response(response).size()));
    }
  }

  // Per-layer summary: busy ms per call (self time), counts per op.
  const std::vector<double> self = tracer.self_ms();
  std::map<std::string, std::vector<double>> by_layer;
  double tokenize_ms = 0.0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    if (s.name == "lang.tokenize") tokenize_ms += self[i];
    if (s.name == "circuit.execute") {
      by_layer["sim." + s.backend + ".execute_ms"].push_back(self[i]);
    }
    if (s.name == "op") continue;
    by_layer[s.name + "_ms"].push_back(self[i]);
  }
  JsonObject metrics;
  auto put = [&](const std::string& name, double value, const char* unit, std::size_t n) {
    JsonObject m;
    m["value"] = value;
    m["unit"] = std::string(unit);
    m["n"] = static_cast<std::uint64_t>(n);
    metrics[name] = Json(std::move(m));
  };
  for (const auto& [name, values] : by_layer) put(name, mean(values), "ms", values.size());
  double total_tokens = 0.0;
  for (double t : tokens) total_tokens += t;
  if (tokenize_ms > 0.0) put("lang.tokens_per_s", total_tokens / (tokenize_ms / 1000.0), "1/s", tokens.size());
  for (const auto& [name, values] : counters) {
    put(name, mean(values), name == "circuit.fast_path_share" ? "ratio" : "count", values.size());
  }
  if (!response_bytes.empty()) put("service.response_bytes", mean(response_bytes), "bytes", response_bytes.size());
  JsonObject summary;
  summary["summary"] = Json(std::move(metrics));
  std::cout << Json(std::move(summary)).dump() << "\n";
  if (!options.spans_path.empty()) tracer.write_jsonl(options.spans_path);
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_probe env | cold-gen --seed S --count N | verdicts FILE |\n"
               "       check FILE |\n"
               "       trace --mode cli|service --ops FILE [--service-ops FILE]\n"
               "             [--cache-mb N] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "env") return cmd_env();
    if (cmd == "check" && argc == 3) return cmd_check(argv[2]);
    if (cmd == "verdicts" && argc == 3) return cmd_verdicts(argv[2]);
    if (cmd == "cold-gen") {
      std::uint64_t seed = 0;
      std::size_t count = 0;
      for (int i = 2; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--seed") seed = std::stoull(argv[i + 1]);
        else if (arg == "--count") count = std::stoull(argv[i + 1]);
        else return usage();
      }
      return cmd_cold_gen(seed, count);
    }
    if (cmd == "trace") {
      TraceOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage();
        else if (arg == "--mode") options.mode = argv[++i];
        else if (arg == "--ops") options.ops_path = argv[++i];
        else if (arg == "--service-ops") options.service_ops_path = argv[++i];
        else if (arg == "--spans") options.spans_path = argv[++i];
        else if (arg == "--cache-mb") options.cache_mb = std::stoull(argv[++i]);
        else return usage();
      }
      if (options.ops_path.empty()) return usage();
      return cmd_trace(options);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
