// pb_probe: the benchmark's layer probe.
//
//   pb_probe <catalog> <out.json> <module>=<mini-C source> ...
//
// Times calls into the public functions of single runtime layers, on the
// workload's own generated requests (the catalog pb_loadgen replays), with
// no server and no network:
//   setup.register_module_ms.<m>  Runtime::register_module (decode, AoT cc,
//                                 dlopen) per module
//   sandbox.create_us             Runtime::create_sandbox per request
//   engine.run_us.<m>             WasmModule::instantiate + run_serverless
//                                 (modules that make no sb_invoke call;
//                                 echo runs on the chain payloads)
//   http.parse_ns                 RequestParser::feed of the wire request
//   dispatcher.push_fetch_ns      Dispatcher push + fetch of one sandbox
//   resource_pool.acquire_release_ns  pooled linear memory acquire+release
// Every figure is the median of per-call (or per-batch) times. run_serverless
// responses are compared with the catalog's expected bytes; mismatches are
// counted in the output.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "common/clock.hpp"
#include "common/file_util.hpp"
#include "http/http.hpp"
#include "minicc/minicc.hpp"
#include "sledge/dispatcher.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;

namespace {

constexpr uint64_t kBudgetNs = 150'000'000;  // per measured item

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pb_probe: %s\n", msg.c_str());
  std::exit(1);
}

struct Template {
  std::string module;
  std::vector<uint8_t> body;
  std::vector<uint8_t> expected;
};

std::vector<Template> load_templates(const std::string& file) {
  std::vector<Template> out;
  for (const perfbench::CatalogEntry& e : perfbench::load_catalog(file)) {
    out.push_back({e.path.substr(1),
                   std::vector<uint8_t>(e.body.begin(), e.body.end()),
                   std::vector<uint8_t>(e.expected.begin(), e.expected.end())});
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Runs `op` in batches of `batch` calls until the budget is spent; returns
// the median per-call time in ns.
template <typename F>
double per_call_ns(int batch, F&& op) {
  std::vector<double> samples;
  Stopwatch total;
  while (total.elapsed_ns() < kBudgetNs || samples.size() < 5) {
    Stopwatch sw;
    for (int i = 0; i < batch; ++i) op();
    samples.push_back(static_cast<double>(sw.elapsed_ns()) / batch);
  }
  return median(samples);
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: pb_probe <catalog> <out.json> <module>=<source>...\n");
    return 2;
  }
  std::vector<Template> catalog = load_templates(argv[1]);
  const std::string out_path = argv[2];

  runtime::RuntimeConfig cfg;  // the server's defaults; never started
  runtime::Runtime rt(cfg);
  std::map<std::string, double> register_ms;
  std::vector<std::string> modules;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (eq == std::string::npos) die("bad module argument " + arg);
    std::string name = arg.substr(0, eq);
    auto src = read_file(arg.substr(eq + 1));
    if (!src.ok()) die(src.error_message());
    auto wasm = minicc::compile_to_wasm(*src);
    if (!wasm.ok()) die(name + ": " + wasm.error_message());
    Stopwatch sw;
    Status s = rt.register_module(name, *wasm);
    register_ms[name] = static_cast<double>(sw.elapsed_ns()) / 1e6;
    if (!s.is_ok()) die(s.message());
    modules.push_back(name);
  }

  // Runtime::create_sandbox on each catalog request, round-robin; teardown
  // (which refills the pool) is outside the timed call.
  std::vector<double> create_ns;
  {
    Stopwatch total;
    size_t k = 0;
    while (total.elapsed_ns() < kBudgetNs || create_ns.size() < 100) {
      const Template& t = catalog[k++ % catalog.size()];
      runtime::LoadedModule* mod = rt.find_module(t.module);
      if (!mod) die("catalog module not registered: " + t.module);
      Stopwatch sw;
      auto sb = rt.create_sandbox(mod, t.body, -1, false);
      create_ns.push_back(static_cast<double>(sw.elapsed_ns()));
      if (!sb) die("create_sandbox failed for " + t.module);
    }
  }

  // instantiate + run_serverless per module, on that module's requests.
  // Chain heads and relay call sb_invoke, which needs a running broker; echo
  // (every chain's last stage) is probed on the chain payloads instead.
  std::map<std::string, std::vector<double>> run_ns;
  int mismatches = 0;
  for (const std::string& name : modules) {
    std::vector<const Template*> reqs;
    for (const Template& t : catalog) {
      bool chain_head = t.module.rfind("chain", 0) == 0;
      if (t.module == name || (name == "echo" && chain_head)) {
        reqs.push_back(&t);
      }
    }
    if (reqs.empty() || name.rfind("chain", 0) == 0) continue;
    const engine::WasmModule& module = rt.find_module(name)->module;
    Stopwatch total;
    size_t k = 0;
    while (total.elapsed_ns() < kBudgetNs || k < 3) {
      const Template* t = reqs[k++ % reqs.size()];
      std::vector<uint8_t> resp;
      Stopwatch sw;
      auto sb = module.instantiate();
      if (!sb.ok()) die(name + ": " + sb.error_message());
      sb->run_serverless(t->body, &resp);
      run_ns[name].push_back(static_cast<double>(sw.elapsed_ns()));
      if (resp != t->expected) ++mismatches;
    }
  }

  // HTTP request parsing of the wire bytes the load generator sends.
  std::vector<std::string> wire;
  for (const Template& t : catalog) {
    std::string w = "POST /" + t.module + " HTTP/1.1\r\nHost: localhost\r\n" +
                    "Content-Length: " + std::to_string(t.body.size()) +
                    "\r\n\r\n";
    w.append(t.body.begin(), t.body.end());
    wire.push_back(std::move(w));
  }
  size_t wi = 0;
  http::RequestParser parser;
  double parse_ns = per_call_ns(64, [&] {
    const std::string& w = wire[wi++ % wire.size()];
    parser.reset();
    if (parser.feed(w.data(), w.size()) < 0 || !parser.done()) {
      die("parse failed");
    }
  });

  // Dispatcher push + fetch of one sandbox (single thread: owner push,
  // worker-0 fetch), as the listener and a worker do per request.
  auto dispatcher = runtime::Dispatcher::make(
      cfg.dispatcher, cfg.policy, cfg.workers);
  auto token = rt.create_sandbox(rt.find_module(catalog[0].module),
                                 catalog[0].body, -1, false);
  double push_fetch_ns = per_call_ns(256, [&] {
    runtime::Sandbox* out = nullptr;
    dispatcher->push(token.get());
    if (!dispatcher->fetch(0, &out) || out != token.get()) die("fetch lost");
  });

  // Pooled linear-memory acquire + release for the first module's spec.
  auto spec = rt.find_module(catalog[0].module)->module.memory_spec();
  auto& pool = runtime::SandboxResourcePool::instance();
  double acquire_release_ns = 0.0;
  if (spec.has_memory) {
    acquire_release_ns = per_call_ns(64, [&] {
      pool.release_memory(
          pool.acquire_memory(spec.strategy, spec.min_pages, spec.max_pages));
    });
  }

  std::string out = "{\"register_module_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : register_ms) {
    out += (first ? "\"" : ", \"") + name + "\": " + json_num(ms);
    first = false;
  }
  out += "}, \"run_us\": {";
  first = true;
  for (const auto& [name, v] : run_ns) {
    out += (first ? "\"" : ", \"") + name + "\": " + json_num(median(v) / 1e3);
    first = false;
  }
  out += "}, \"create_us\": " + json_num(median(create_ns) / 1e3) +
         ", \"parse_ns\": " + json_num(parse_ns) +
         ", \"push_fetch_ns\": " + json_num(push_fetch_ns) +
         ", \"acquire_release_ns\": " + json_num(acquire_release_ns) +
         ", \"run_mismatches\": " + std::to_string(mismatches) + "}\n";
  std::ofstream f(out_path);
  f << out;
  if (!f) die("cannot write " + out_path);
  return 0;
}
