// layers — the traced run: per-layer numbers for one workload.
//
// Spans sit here, around calls into each module's public functions; the
// program runs unmodified (no obs::Tracer is installed). Layers are named
// after the modules under src/: lang, xform, vm, analysis, vl, kernels,
// interp, serve, plus obs for the cost of this tracing itself.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "analysis/lifetime.hpp"
#include "analysis/shape.hpp"
#include "core/proteus.hpp"
#include "daemon.hpp"
#include "harness.hpp"
#include "kernels/vvalue.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "seq/build.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "vl/vl.hpp"
#include "vm/compile.hpp"
#include "vm/fuse.hpp"
#include "vm/module_io.hpp"
#include "vm/verify.hpp"
#include "xform/canon.hpp"
#include "xform/flatten.hpp"
#include "xform/optimize.hpp"
#include "xform/translate.hpp"

namespace perfbench {

namespace {

using proteus::vl::Int;
using proteus::vl::IntVec;

constexpr const char* kPhases[] = {
    "lang.parse", "lang.check",  "xform.r1",  "xform.r2",     "xform.opt45",
    "xform.t1",   "xform.shape", "vm.assemble", "vm.fuse",    "vm.verify",
    "analysis.plan"};

// --- the workload's corpus --------------------------------------------------

/// The evaluations the traced run replays for `workload`: the bulk
/// programs at full size, a serve-warm pool sample, or fresh serve-cold
/// sources.
std::vector<Call> corpus(const Options& opt, Rng& rng) {
  std::vector<Call> calls;
  if (opt.workload == "bulk") {
    const Value sort_in = random_ints(rng, 100000, -1000000, 1000000);
    const SparseMatrix m = random_matrix(rng, 4096, 1024, 6);
    const Value x = random_reals(rng, 1024);
    const Value points = random_points(rng, 20000, 1000000);
    const auto program = [](const char* text) {
      return std::make_shared<const std::string>(text);
    };
    calls.push_back({"qsort", program(kQuicksort), "quicksort", {sort_in}, {}, ""});
    calls.push_back({"spmv", program(kSpmv), "spmv", {m.boxed, x}, {}, ""});
    calls.push_back({"qhull", program(kQuickhull), "quickhull", {points}, {}, ""});
    for (Call& c : calls) {
      for (const Value& a : c.args) c.arg_texts.push_back(literal(a));
      c.expected = proteus::interp::to_text(
          reference_eval(*c.source, c.fun, c.args));
    }
  } else if (opt.workload == "serve-warm") {
    calls = warm_pool(rng, opt.repo_dir, 60);
  } else {
    const ColdGenerator gen(rng);
    calls.resize(30);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      gen.make(rng, "trace", i, &calls[i]);
    }
  }
  return calls;
}

// --- front end, phase by phase ----------------------------------------------

/// xform::compile's pipeline, one public call per phase, in its order.
std::shared_ptr<const proteus::vm::Module> replay(const std::string& source,
                                                  Trace* t,
                                                  std::uint64_t* firings) {
  using namespace proteus;
  xform::NameGen names;
  lang::Program parsed;
  lang::Program checked;
  lang::Program canonical;
  lang::Program optimized;
  lang::Program vec;
  xform::FlattenedProgram flat;
  xform::RuleCounts r1;
  {
    Span s(t, "lang.parse");
    parsed = lang::parse_program(source);
  }
  {
    Span s(t, "lang.check");
    checked = lang::typecheck(parsed);
  }
  {
    Span s(t, "xform.r1");
    canonical = xform::canonicalize(checked, names, &r1);
  }
  {
    Span s(t, "xform.r2");
    flat = xform::flatten(canonical, names);
  }
  {
    Span s(t, "xform.opt45");
    optimized =
        xform::remove_dead_lets(xform::optimize_shared_rows(flat.program));
  }
  {
    Span s(t, "xform.t1");
    vec = xform::translate(optimized, names);
  }
  {
    Span s(t, "xform.shape");
    if (!analysis::analyze_program(vec).ok()) {
      throw std::runtime_error("shape analysis rejected the V program");
    }
  }
  std::shared_ptr<vm::Module> assembled;
  {
    Span s(t, "vm.assemble");
    assembled = vm::compile_module(vec);
    assembled->signatures.resize(assembled->functions.size());
    for (std::size_t i = 0; i < assembled->functions.size(); ++i) {
      const lang::FunDef* def = checked.find(assembled->functions[i].name);
      if (def == nullptr || def->result == nullptr) continue;
      vm::Signature& sig = assembled->signatures[i];
      sig.present = true;
      for (const lang::Param& p : def->params) sig.params.push_back(p.type);
      sig.result = def->result;
    }
  }
  std::shared_ptr<const vm::Module> module;
  {
    Span s(t, "vm.fuse");
    module = vm::optimize_module(*assembled);
  }
  {
    Span s(t, "vm.verify");
    if (!vm::verify_module(*module).ok()) {
      throw std::runtime_error("bytecode verifier rejected the module");
    }
  }
  {
    Span s(t, "analysis.plan");
    // Both modules get a plan, as in xform::compile.
    for (vm::Module* m : {const_cast<vm::Module*>(module.get()), assembled.get()}) {
      analysis::PlanResult pr = analysis::plan_module(*m);
      m->plan = std::make_shared<const analysis::MemoryPlan>(std::move(pr.plan));
    }
  }
  if (firings != nullptr) {
    *firings = 0;
    for (const auto& [rule, n] : r1) *firings += n;
    for (const auto& [rule, n] : flat.rule_counts) *firings += n;
  }
  return module;
}

std::uint64_t module_instrs(const proteus::vm::Module& m) {
  std::uint64_t n = 0;
  for (const auto& f : m.functions) n += f.code.size();
  return n;
}

// --- evaluation (vm, vl, kernels, interp) -----------------------------------

struct EvalTotals {
  double run_ns = 0;
  double instructions = 0;
  double element_work = 0;
  double primitive_calls = 0;
  double buffer_allocs = 0;
  double to_flat_us = 0;
  double to_boxed_us = 0;
  double parse_value_us = 0;
  std::size_t evals = 0;
};

/// One pass over the calls: convert, run on the VM, convert back, parse
/// the argument literals — each under its own span.
void evaluate(const std::vector<Call>& calls,
              std::map<std::string, std::unique_ptr<proteus::Session>>& sessions,
              Trace* t, EvalTotals* totals, Result* res) {
  using namespace proteus;
  for (const Call& c : calls) {
    Session& s = *sessions.at(*c.source);
    const lang::FunDef* def = s.compiled().checked.find(c.fun);
    std::uint64_t t0 = now_ns();
    std::vector<kernels::VValue> flat;
    {
      Span span(t, "kernels.to_flat");
      for (std::size_t i = 0; i < c.args.size(); ++i) {
        flat.push_back(kernels::from_boxed(c.args[i], def->params[i].type));
      }
    }
    const std::uint64_t t1 = now_ns();
    Value out;
    {
      Span span(t, "vm.run");
      out = s.run_vm(c.fun, c.args);
    }
    const std::uint64_t t2 = now_ns();
    const kernels::VValue result_flat = kernels::from_boxed(out, def->result);
    const std::uint64_t t3 = now_ns();
    {
      Span span(t, "kernels.to_boxed");
      (void)kernels::to_boxed(result_flat, def->result);
    }
    const std::uint64_t t4 = now_ns();
    {
      Span span(t, "interp.parse_value");
      for (const std::string& text : c.arg_texts) (void)parse_value(text);
    }
    const std::uint64_t t5 = now_ns();
    if (totals == nullptr) continue;
    const RunCost& cost = s.last_cost();
    totals->run_ns += static_cast<double>(t2 - t1);
    totals->instructions += static_cast<double>(cost.vm_ops.instructions);
    totals->element_work += static_cast<double>(cost.vector_work.element_work);
    totals->primitive_calls +=
        static_cast<double>(cost.vector_work.primitive_calls);
    totals->buffer_allocs += static_cast<double>(cost.vector_work.buffer_allocs);
    totals->to_flat_us += static_cast<double>(t1 - t0) / 1e3;
    totals->to_boxed_us += static_cast<double>(t4 - t3) / 1e3;
    totals->parse_value_us += static_cast<double>(t5 - t4) / 1e3;
    ++totals->evals;
    if (res != nullptr) {
      res->check(same_text(c.expected, interp::to_text(out)),
                 "traced " + c.family + " " + c.fun);
    }
  }
}

// --- vm dispatch floor ------------------------------------------------------

double ns_per_instr(proteus::Session& s, Rng& rng, int n, int reps) {
  const ValueList args = {random_ints(rng, n, -1000, 1000)};
  (void)s.run_vm("quicksort", args);
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    (void)s.run_vm("quicksort", args);
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(ns) /
         static_cast<double>(std::max<std::uint64_t>(
             1, s.last_cost().vm_ops.instructions));
}

// --- vl roofline ------------------------------------------------------------

/// Median seconds per call of `fn` over `reps` samples of `inner` calls.
template <typename F>
double seconds_per_call(F&& fn, int reps, int inner) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < inner; ++i) fn();
    s.push_back(static_cast<double>(now_ns() - t0) / 1e9 / inner);
  }
  return median(s);
}

volatile double g_sink = 0;

struct Stream {
  double copy_bps = 0;   ///< bytes/s of b[i] = a[i]
  double triad_bps = 0;  ///< bytes/s of a[i] = b[i] + s * c[i]
};

Stream stream(std::size_t n, int reps, int inner) {
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 2.0);
  std::vector<double> c(n, 3.0);
  const double scalar = 3.0;
  Stream out;
  const double copy_s = seconds_per_call(
      [&] {
        std::copy(a.begin(), a.end(), b.begin());
        g_sink = g_sink + b[n / 2];
      },
      reps, inner);
  const double triad_s = seconds_per_call(
      [&] {
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
        g_sink = g_sink + a[n / 3];
      },
      reps, inner);
  out.copy_bps = 16.0 * static_cast<double>(n) / copy_s;
  out.triad_bps = 24.0 * static_cast<double>(n) / triad_s;
  return out;
}

/// Segment lengths averaging 8 covering n elements.
IntVec segments(Int n, Rng& rng) {
  IntVec lens;
  Int covered = 0;
  while (covered < n) {
    Int len = static_cast<Int>(rng() % 16);
    if (covered + len > n) len = n - covered;
    lens.push_back(len);
    covered += len;
  }
  return lens;
}

/// Fraction of the in-process copy bandwidth each primitive reaches at
/// size n, under a stated bytes-moved model (8-byte ints, 1-byte bools):
/// add 24n, pack 13n (half the mask true), gather 24n, dist 8n,
/// seg_reduce 8n + 16 per segment.
void roofline(Result& res, const char* tag, Int n, const Stream& ceiling,
              int reps, int inner, Rng& rng) {
  namespace vl = proteus::vl;
  const IntVec a = proteus::seq::random_ints(rng(), n, -1000, 1000);
  const IntVec b = proteus::seq::random_ints(rng(), n, -1000, 1000);
  const IntVec idx = proteus::seq::random_ints(rng(), n, 0, n - 1);
  const vl::BoolVec mask = proteus::seq::random_mask(rng(), n, 1, 2);
  const IntVec lens = segments(n, rng);
  const auto nn = static_cast<double>(n);
  const auto frac = [&](const char* prim, double bytes, auto&& fn) {
    const double s = seconds_per_call(fn, reps, inner);
    res.add(std::string("vl.") + prim + ".roofline_frac." + tag,
            bytes / s / ceiling.copy_bps, "ratio");
  };
  frac("add", 24 * nn, [&] { g_sink = g_sink + static_cast<double>(vl::add(a, b)[0]); });
  frac("pack", 13 * nn, [&] { g_sink = g_sink + static_cast<double>(vl::pack(a, mask).size()); });
  frac("gather", 24 * nn, [&] { g_sink = g_sink + static_cast<double>(vl::gather(a, idx)[0]); });
  frac("dist", 8 * nn, [&] { g_sink = g_sink + static_cast<double>(vl::dist<Int>(7, n)[0]); });
  frac("seg_reduce", 8 * nn + 16 * static_cast<double>(lens.size()), [&] {
    g_sink = g_sink + static_cast<double>(vl::seg_reduce_add(a, lens)[0]);
  });
}

// --- serve envelope ---------------------------------------------------------

struct ServeLayer {
  std::vector<double> decode_us, lookup_us, insert_us, encode_us, handle_us;
};

void serve_in_process(const std::vector<Call>& calls, bool warm,
                      const std::map<std::string, std::unique_ptr<proteus::Session>>&
                          sessions,
                      Trace* t, ServeLayer* out, Result& res) {
  using namespace proteus;
  serve::Server server;
  std::vector<std::string> lines;
  for (const Call& c : calls) lines.push_back(eval_line(c));
  if (warm) {
    for (const std::string& line : lines) (void)server.handle_line(line);
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::string& line = lines[i];
    std::uint64_t t0 = now_ns();
    {
      Span s(t, "serve.decode");
      (void)serve::parse_json(line);
    }
    std::uint64_t t1 = now_ns();
    std::string reply;
    {
      Span s(t, "serve.handle");
      reply = server.handle_line(line);
    }
    std::uint64_t t2 = now_ns();
    res.check(reply_matches(reply, calls[i].expected),
              "traced in-process " + calls[i].family);
    const std::optional<serve::Json> parsed = serve::parse_json(reply);
    std::uint64_t t3 = now_ns();
    {
      Span s(t, "serve.encode");
      (void)parsed->dump();
    }
    std::uint64_t t4 = now_ns();
    const std::uint64_t key = vm::source_hash(
        *calls[i].source + '\x1E', vm::options_tag(true, true));
    std::uint64_t t5 = now_ns();
    {
      Span s(t, "serve.lookup");
      (void)server.cache().lookup(key);
    }
    std::uint64_t t6 = now_ns();
    out->decode_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out->handle_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    out->encode_us.push_back(static_cast<double>(t4 - t3) / 1e3);
    out->lookup_us.push_back(static_cast<double>(t6 - t5) / 1e3);
  }
  // Insert path: publish each program's compilation under a fresh key in
  // a fresh memory-only cache.
  serve::ModuleCache cache;
  std::uint64_t key = 1;
  for (const auto& [source, session] : sessions) {
    serve::CacheEntry entry{session->compiled_ptr(), session->compiled().module};
    const std::uint64_t t0 = now_ns();
    {
      Span s(t, "serve.insert");
      (void)cache.insert(key++, std::move(entry));
    }
    out->insert_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
}

}  // namespace

Result run_layers(const Options& opt) {
  using namespace proteus;
  Result res;
  Rng rng(opt.seed);
  const std::vector<Call> calls = corpus(opt, rng);
  std::vector<std::string> sources;
  {
    std::set<std::string> seen;
    for (const Call& c : calls) {
      if (seen.insert(*c.source).second) sources.push_back(*c.source);
    }
  }
  // Sessions over the real pipeline, and the byte-identity check of the
  // phase-by-phase replay against xform::compile.
  std::map<std::string, std::unique_ptr<Session>> sessions;
  std::uint64_t firings = 0;
  std::uint64_t instrs = 0;
  for (const std::string& src : sources) {
    sessions[src] = std::make_unique<Session>(src);
    std::uint64_t f = 0;
    const auto replayed = replay(src, nullptr, &f);
    firings += f;
    instrs += module_instrs(*replayed);
    res.check(vm::module_bytes(*replayed) ==
                  vm::module_bytes(*sessions[src]->compiled().module),
              "phase-by-phase replay differs from xform::compile");
  }
  const auto n_sources = static_cast<double>(sources.size());

  // The traced unit (front-end replay of every source, then every
  // evaluation), alternating with the same unit untraced.
  const bool big = opt.workload == "bulk";
  const int passes = big ? 3 : 5;
  Trace trace;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::map<std::string, std::vector<double>> phase_us;
  EvalTotals totals;
  for (int p = 0; p < passes; ++p) {
    for (const bool traced : {false, true}) {
      Trace* t = traced ? &trace : nullptr;
      if (traced) trace.clear();
      const std::uint64_t t0 = now_ns();
      for (const std::string& src : sources) (void)replay(src, t, nullptr);
      evaluate(calls, sessions, t, traced && p == 0 ? &totals : nullptr,
               traced && p == 0 ? &res : nullptr);
      (traced ? traced_s : untraced_s)
          .push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (traced) {
        for (const char* phase : kPhases) {
          phase_us[phase].push_back(trace.total_us(phase) / n_sources);
        }
      }
    }
  }

  res.add("lang.parse_us", median(phase_us["lang.parse"]), "us");
  res.add("lang.check_us", median(phase_us["lang.check"]), "us");
  res.add("xform.r1_us", median(phase_us["xform.r1"]), "us");
  res.add("xform.r2_us", median(phase_us["xform.r2"]), "us");
  res.add("xform.opt45_us", median(phase_us["xform.opt45"]), "us");
  res.add("xform.t1_us", median(phase_us["xform.t1"]), "us");
  res.add("xform.shape_us", median(phase_us["xform.shape"]), "us");
  res.add("xform.rule_firings", static_cast<double>(firings) / n_sources, "count");
  res.add("vm.assemble_us", median(phase_us["vm.assemble"]), "us");
  res.add("vm.fuse_us", median(phase_us["vm.fuse"]), "us");
  res.add("vm.verify_us", median(phase_us["vm.verify"]), "us");
  res.add("vm.module_instrs", static_cast<double>(instrs) / n_sources, "count");
  res.add("analysis.plan_us", median(phase_us["analysis.plan"]), "us");

  const auto evals = static_cast<double>(totals.evals);
  res.add("vm.instructions", totals.instructions / evals, "count");
  Session qsort(kQuicksort);
  res.add("vm.ns_per_instr.n1", ns_per_instr(qsort, rng, 1, 2000), "ns");
  res.add("vm.ns_per_instr.n64", ns_per_instr(qsort, rng, 64, 200), "ns");
  res.add("vm.ns_per_instr.n1k", ns_per_instr(qsort, rng, 1000, 20), "ns");

  res.add("vl.element_work", totals.element_work / evals, "count");
  res.add("vl.primitive_calls", totals.primitive_calls / evals, "count");
  res.add("vl.buffer_allocs", totals.buffer_allocs / evals, "count");
  res.add("vl.elem_per_ns", totals.element_work / totals.run_ns, "elem/ns");
  // L1-resident: 1024 elements (8 KiB a vector); DRAM-resident: 8M
  // elements (64 MiB a vector, so every working set exceeds a 100 MiB L3).
  constexpr Int kL1 = 1024;
  constexpr Int kDram = Int{1} << 23;
  const Stream l1 = stream(kL1, 21, 2000);
  const Stream dram = stream(kDram, 7, 1);
  res.add("vl.copy_gbps", dram.copy_bps / 1e9, "GB/s");
  res.add("vl.triad_gbps", dram.triad_bps / 1e9, "GB/s");
  roofline(res, "l1", kL1, l1, 21, 2000, rng);
  roofline(res, "dram", kDram, dram, 7, 1, rng);

  res.add("kernels.to_flat_us", totals.to_flat_us / evals, "us");
  res.add("kernels.to_boxed_us", totals.to_boxed_us / evals, "us");
  res.add("interp.parse_value_us", totals.parse_value_us / evals, "us");

  // Serve envelope: in process, then the real daemon over TCP loopback.
  const bool warm = opt.workload != "serve-cold";
  ServeLayer serve;
  serve_in_process(calls, warm, sessions, &trace, &serve, res);
  std::vector<double> rtt_us;
  CacheStats cache;
  {
    Daemon daemon(opt.proteusd);
    Conn conn(daemon.port());
    std::vector<std::string> lines;
    for (const Call& c : calls) lines.push_back(eval_line(c));
    if (warm) {
      for (const std::string& line : lines) (void)conn.roundtrip(line);
    }
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      const std::string reply = conn.roundtrip(lines[i]);
      rtt_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      res.check(reply_matches(reply, calls[i].expected),
                "traced daemon " + calls[i].family);
    }
    cache = cache_stats(conn);
  }
  res.add("serve.decode_us", median(serve.decode_us), "us");
  res.add("serve.lookup_us", median(serve.lookup_us), "us");
  res.add("serve.insert_us", median(serve.insert_us), "us");
  res.add("serve.encode_us", median(serve.encode_us), "us");
  res.add("serve.handle_us", median(serve.handle_us), "us");
  // Socket share of the loopback round trip, paired per request.
  std::vector<double> socket_us;
  for (std::size_t i = 0; i < rtt_us.size(); ++i) {
    socket_us.push_back(rtt_us[i] - serve.handle_us[i]);
  }
  res.add("serve.socket_us", median(socket_us), "us");
  res.add("serve.cache_hit_ratio",
          cache.hits / std::max(1.0, cache.hits + cache.misses), "ratio");
  res.add("serve.cache_entries", cache.entries, "count");

  res.add("obs.trace_overhead", median(traced_s) / median(untraced_s), "ratio");
  if (!opt.trace_out.empty()) trace.write_chrome(opt.trace_out);
  res.note("traced unit: " + std::to_string(sources.size()) + " sources, " +
           std::to_string(calls.size()) + " evaluations, " +
           std::to_string(passes) + " traced/untraced pairs");
  return res;
}

}  // namespace perfbench
